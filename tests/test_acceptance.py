"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Each test prints "ACCEPTANCE <n> <name>: PASS|FAIL" before asserting, so a
plain pytest run shows the verdict per criterion even when one fails.
Expected values come from independent oracles (exhaustive subset search,
haversine, closed-form curves) computed inside the tests themselves.
"""

import json
import math
import random
import time
from itertools import combinations

import numpy as np
import pytest

from latloc.cli import main as cli_main
from latloc.estimation import EPS_MIN_M
from latloc.geodesy import (
    EARTH_RADIUS_M,
    GeoCircle,
    GeoPoint,
    PairIntersection,
    circle_intersections,
    orthodromic_distance,
)
from latloc.latency import CalibrationSample, fit_model, predict_distance
from latloc.placement import (
    dragoon_place,
    objective_key,
    place_orientation_mark,
    refine,
    two_approx,
)
from latloc.simulator import DelayParams, SimWorld, generate_topology, run_experiment
from latloc.topology import hop_distances
from conftest import random_connected_graph
from destinations import destination_point

EUROPE = (35.0, 60.0, -10.0, 30.0)

# Seeded-comparison world, locked after calibration sweeps (see below).
C6_N_NODES = 120
C6_RADIUS_KM = 400.0
C6_K = 8
C6_NOISE_MS = 2.0
C6_N_TARGETS = 100
C6_SEEDS = range(10)


def verdict(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def small_instances():
    """50 seeded connected graphs with |V| <= 15, paired with k in {2, 3}."""
    instances = []
    for i in range(50):
        n = 6 + i % 10  # 6..15 nodes
        k = 2 + i % 2
        t = random_connected_graph(n, extra_edge_prob=0.15 + 0.02 * (i % 5), seed=1000 + i)
        instances.append((t, k))
    return instances


def brute_force_max_hop(t, k, hops):
    best = math.inf
    for subset in combinations(t.node_ids, k):
        worst = max(min(hops[lm][node] for lm in subset) for node in t.node_ids)
        best = min(best, worst)
    return best


def test_criterion_1_placement_optimality():
    start = time.time()
    ok = True
    for t, k in small_instances():
        hops = hop_distances(t, t.node_ids)
        placed = dragoon_place(t, k)
        optimum = brute_force_max_hop(t, k, hops)
        init = two_approx(t, k, t.node_ids[0])
        if placed.max_hop > 2 * optimum or placed.max_hop > init.max_hop:
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    assert verdict(1, "placement-optimality", ok), f"elapsed {elapsed:.1f}s"


def test_criterion_2_refinement_monotonicity():
    ok = True
    for t, k in small_instances():
        log = []
        mark = place_orientation_mark(t)
        initial = two_approx(t, k, mark)
        final = refine(t, initial, move_log=log)  # terminates by returning
        if final != dragoon_place(t, k):
            ok = False
        init_key = objective_key(t, initial.landmarks)
        final_key = objective_key(t, final.landmarks)
        # every accepted move strictly decreases the key, the log chains
        # contiguously from the initialization, and the end never regresses
        keys = [init_key] + [after for _, after in log]
        for (before, after), prev in zip(log, keys):
            if not (before == prev and after < before):
                ok = False
        if final_key > init_key or final_key != keys[-1]:
            ok = False
    assert verdict(2, "refinement-monotonicity", ok)


def test_criterion_3_curve_fit_recovery():
    start = time.time()
    p, q, n, m = 100.0, 2.0, 1.0, 10.0
    lat = np.linspace(0.5, 30.0, 12)
    true = p * np.log(q * lat + n) + m

    model = fit_model([CalibrationSample(float(l), float(d)) for l, d in zip(lat, true)])
    pred = np.array([predict_distance(model, float(l)) for l in lat])
    rel_rms = math.sqrt(float(np.mean(((pred - true) / true) ** 2)))

    rng = np.random.default_rng(42)
    noisy = true + rng.normal(0.0, 1.0, len(true))
    noisy_model = fit_model(
        [CalibrationSample(float(l), float(d)) for l, d in zip(lat, noisy)]
    )
    held_lat = np.linspace(1.0, 28.0, 40)
    held_true = p * np.log(q * held_lat + n) + m
    held_pred = np.array([predict_distance(noisy_model, float(l)) for l in held_lat])
    held_rms = math.sqrt(float(np.mean((held_pred - held_true) ** 2)))

    elapsed = time.time() - start
    ok = rel_rms <= 0.005 and held_rms <= 5.0 and elapsed < 1.0
    assert verdict(3, "curve-fit-recovery", ok), \
        f"rel_rms={rel_rms:.2e} held_rms={held_rms:.2f}km elapsed={elapsed:.2f}s"


def haversine(a, b):
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    s = (math.sin((lat2 - lat1) / 2) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2)
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(s))


def test_criterion_4_geodesy_exactness():
    ok = True

    antipodal = orthodromic_distance(GeoPoint(10.0, 20.0), GeoPoint(-10.0, -160.0))
    ok &= abs(antipodal - math.pi * EARTH_RADIUS_M) <= 1e-6 * math.pi * EARTH_RADIUS_M

    rng = random.Random(99)
    for _ in range(1000):
        a = GeoPoint(rng.uniform(-89, 89), rng.uniform(-180, 180))
        b = GeoPoint(rng.uniform(-89, 89), rng.uniform(-180, 180))
        got, want = orthodromic_distance(a, b), haversine(a, b)
        if abs(got - want) > 1e-6 * max(want, 1.0):
            ok = False

    for _ in range(200):
        c1 = GeoCircle(GeoPoint(rng.uniform(-60, 60), rng.uniform(-170, 170)),
                       rng.uniform(100_000, 3_000_000))
        c2 = GeoCircle(GeoPoint(rng.uniform(-60, 60), rng.uniform(-170, 170)),
                       rng.uniform(100_000, 3_000_000))
        result = circle_intersections(c1, c2)
        if isinstance(result, PairIntersection):
            for point in (result.p1, result.p2):
                for circle in (c1, c2):
                    residual = abs(orthodromic_distance(point, circle.center)
                                   - circle.radius_m)
                    if residual > 1.0:
                        ok = False
    assert verdict(4, "geodesy-exactness", ok)


def test_criterion_5_noiseless_end_to_end():
    start = time.time()
    topology = generate_topology(60, EUROPE, 6000, seed=3)
    world = SimWorld(topology, 3, DelayParams())
    report = run_experiment(world, 10, "dragoon", 50, seed=3)
    elapsed = time.time() - start

    summary = report.summary()
    threshold_km = max(2 * EPS_MIN_M / 1000.0, 5.0)
    within = sum(1 for e in report.errors_km if e <= threshold_km)
    ok = (summary["located"] == 50 and within >= 45
          and summary["median_km"] <= 5.0 and elapsed < 30.0)
    assert verdict(5, "noiseless-end-to-end", ok), \
        f"median={summary['median_km']:.2f}km within={within}/50 elapsed={elapsed:.1f}s"


def test_criterion_6_placement_benefit():
    wins_random = wins_ping = 0
    for seed in C6_SEEDS:
        topology = generate_topology(C6_N_NODES, EUROPE, C6_RADIUS_KM, seed=seed)
        world = SimWorld(topology, seed, DelayParams(stochastic_mean_ms=C6_NOISE_MS))
        medians = {}
        for strategy in ("dragoon", "random", "shortest_ping_only"):
            report = run_experiment(world, C6_K, strategy, C6_N_TARGETS, seed=seed)
            medians[strategy] = report.summary()["median_km"]
        wins_random += medians["dragoon"] <= medians["random"]
        wins_ping += medians["dragoon"] <= medians["shortest_ping_only"]
    ok = wins_random >= 8 and wins_ping >= 8
    assert verdict(6, "placement-benefit", ok), \
        f"vs random {wins_random}/10, vs shortest-ping {wins_ping}/10"


def test_criterion_7_live_comparison_out_of_scope():
    # The real-Internet error comparison depends on live probe infrastructure
    # and is deliberately not reproduced here; the README must say so and
    # point at the seeded comparison as the substitute.
    from pathlib import Path
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    ok = ("out of scope" in readme
          and "seeded comparison" in readme
          and "substitutes" in readme)
    assert verdict(7, "live-comparison-out-of-scope", ok)


def test_criterion_8_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        d = tmp_path / name
        d.mkdir()
        args_sets = [
            ["simulate", "--n-nodes", "20", "--radius-km", "5000",
             "--world-seed", "2", "--seed", "2", "--k", "5", "--n-targets", "2",
             "--noise-mean-ms", "1.5",
             "--topology-out", str(d / "topo.json"), "--out", str(d / "report.json")],
            ["place", "--topology", str(d / "topo.json"), "--k", "6",
             "--out", str(d / "landmarks.json")],
        ]
        for args in args_sets:
            assert cli_main(args) == 0
        outputs.append(tuple(p.read_bytes() for p in sorted(d.iterdir())))
    ok = outputs[0] == outputs[1]
    assert verdict(8, "determinism", ok)
