"""Synthetic measurement world for end-to-end evaluation.

Generates random geometric topologies with real coordinates, simulates RTT
probes with a deterministic delay floor (propagation at a fixed 200 km/ms
along the shortest-hop path plus per-hop processing) and optional
exponential stochastic excess, and runs full placement/calibration/
localization experiments against known ground truth.

A probe runs between two graph nodes and reads its hop count and path
length from the topology's cached BFS tree rooted at the probing landmark
(`Topology.tree`), so each landmark costs one BFS however many targets it
probes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass, field

import numpy as np

from .errors import LatlocError, PlacementError, SimulationError, TopologyError
from .estimation import estimate_target
from .geodesy import GeoPoint, orthodromic_distance
from .lateration import LandmarkCircle, build_circle
from .latency import DEFAULT_PER_HOP_MS, Measurement, calibrate_all
# perfbench's tracer patches simulator.dragoon_place, so the name stays importable here.
from .placement import PLACEMENT_ALGORITHMS, check_k, dragoon_place, place_landmarks
from .topology import BfsTree, Topology, build_topology

PLACEMENT_STRATEGIES = (*PLACEMENT_ALGORITHMS, "random", "shortest_ping_only")

# Signal speed in fiber, about 2/3 of lightspeed.
PROPAGATION_SPEED_KM_MS = 200.0
# Radius growths generate_topology tries before giving up on connectivity.
MAX_GROWTH_STEPS = 12


@dataclass(frozen=True)
class DelayParams:
    """Delay composition for simulated probes, on top of propagation at
    PROPAGATION_SPEED_KM_MS. A stochastic_mean_ms of None disables noise."""

    per_hop_ms: float = DEFAULT_PER_HOP_MS
    stochastic_mean_ms: float | None = None
    samples_per_probe: int = 10

    def __post_init__(self):
        # NaN fails every comparison, so test for the valid range, not the invalid one.
        if not 0 <= self.per_hop_ms < math.inf:
            raise ValueError("per-hop delay must be non-negative and finite")
        if self.samples_per_probe < 1:
            raise ValueError("need at least one sample per probe")
        if self.stochastic_mean_ms is not None and not 0 < self.stochastic_mean_ms < math.inf:
            raise ValueError("stochastic mean must be positive and finite (or None)")


@dataclass(frozen=True)
class SimWorld:
    topology: Topology
    rng_seed: int
    delay: DelayParams = field(default_factory=DelayParams)


def generate_topology(n_nodes: int, bbox: tuple[float, float, float, float],
                      connection_radius_km: float, seed: int) -> Topology:
    """Random geometric graph: nodes uniform in bbox (lat_min, lat_max,
    lon_min, lon_max), edges between nodes within the connection radius.

    If the graph comes out disconnected the radius grows by 30% and the
    edges are rebuilt, up to MAX_GROWTH_STEPS times. Each pair's distance
    is computed once; a growth only refilters them.
    """
    if n_nodes < 1:
        raise SimulationError("need at least one node")
    # NaN fails every comparison, so test for the valid range, not the invalid one.
    if not 0 < connection_radius_km < math.inf:
        raise SimulationError(f"connection radius must be positive and finite, "
                              f"got {connection_radius_km!r} km")
    lat_min, lat_max, lon_min, lon_max = bbox
    rng = random.Random(seed)
    nodes = []
    width = len(str(n_nodes - 1)) if n_nodes > 1 else 1
    for i in range(n_nodes):
        lat = rng.uniform(lat_min, lat_max)
        lon = rng.uniform(lon_min, lon_max)
        nodes.append((f"n{i:0{width}d}", GeoPoint(lat, lon)))

    # Pair distances row by row (i < j), the order np.triu_indices lists them.
    first, second = np.triu_indices(n_nodes, 1)
    points = [pt for _, pt in nodes]
    dist_m = np.fromiter((orthodromic_distance(u, v) for i, u in enumerate(points)
                          for v in points[i + 1:]), dtype=float, count=len(first))
    radius_m = connection_radius_km * 1000.0
    for _ in range(MAX_GROWTH_STEPS + 1):
        close = dist_m <= radius_m
        edges = [(nodes[i][0], nodes[j][0])
                 for i, j in zip(first[close].tolist(), second[close].tolist())]
        try:
            return build_topology(nodes, edges)
        except TopologyError:
            radius_m *= 1.3
    raise SimulationError(
        f"could not build a connected graph within {MAX_GROWTH_STEPS} radius growths"
    )


def _derived_rng(world_seed: int, src: str, dst: str) -> random.Random:
    digest = hashlib.sha256(f"{world_seed}|{src}|{dst}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _tree_to(t: Topology, src: str, dst: str) -> tuple[BfsTree, int]:
    """The cached BFS tree rooted at src and dst's node index in it."""
    if src not in t.positions or dst not in t.positions:
        raise SimulationError(f"unknown endpoint {src!r} or {dst!r}")
    tree, j = t.tree(t.index_of(src)), t.index_of(dst)
    if tree.hops[j] < 0:
        raise SimulationError(f"no path from {src!r} to {dst!r}")
    return tree, j


def shortest_hop_path(t: Topology, src: str, dst: str) -> list[str]:
    """A shortest-hop path from src to dst: the path in the BFS tree rooted
    at src, which expands neighbors in ascending id order."""
    tree, j = _tree_to(t, src, dst)
    return [t.ids[i] for i in tree.path_to(j)]


def simulate_measurement(world: SimWorld, src: str, dst: str) -> Measurement:
    """One probe: samples_per_probe RTT draws plus the traced hop count.

    Each RTT sample is twice the deterministic one-way delay plus one
    stochastic draw per direction, so every sample is at least the
    deterministic floor.
    """
    tree, j = _tree_to(world.topology, src, dst)
    hops = tree.hops[j]
    delay = world.delay
    oneway_ms = tree.km[j] / PROPAGATION_SPEED_KM_MS + delay.per_hop_ms * hops

    rng = _derived_rng(world.rng_seed, src, dst)
    samples = []
    for _ in range(delay.samples_per_probe):
        noise = 0.0
        if delay.stochastic_mean_ms is not None:
            noise = rng.expovariate(1.0 / delay.stochastic_mean_ms)
            noise += rng.expovariate(1.0 / delay.stochastic_mean_ms)
        samples.append(2.0 * oneway_ms + noise)
    # Measurement requires positive samples; a zero-delay self-probe still
    # carries an epsilon of processing time.
    samples = [max(s, 1e-9) for s in samples]
    return Measurement(landmark_id=src, target_id=dst,
                       rtt_samples_ms=tuple(samples), hop_count=hops)


@dataclass(frozen=True)
class TargetResult:
    target_id: str
    true_point: GeoPoint
    estimated_point: GeoPoint | None
    error_km: float | None
    failure: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    strategy: str
    landmark_ids: tuple[str, ...]
    world_seed: int
    experiment_seed: int
    results: tuple[TargetResult, ...]

    @property
    def errors_km(self) -> list[float]:
        return [r.error_km for r in self.results if r.error_km is not None]

    def summary(self) -> dict:
        errors = sorted(self.errors_km)
        if not errors:
            return {"targets": len(self.results), "located": 0}
        p90 = errors[min(len(errors) - 1, math.ceil(0.9 * len(errors)) - 1)]
        return {
            "targets": len(self.results),
            "located": len(errors),
            "median_km": statistics.median(errors),
            "mean_km": statistics.fmean(errors),
            "p90_km": p90,
        }

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "landmarks": list(self.landmark_ids),
            "world_seed": self.world_seed,
            "experiment_seed": self.experiment_seed,
            "summary": self.summary(),
            "targets": [
                {
                    "target_id": r.target_id,
                    "true_lat": r.true_point.lat, "true_lon": r.true_point.lon,
                    "est_lat": None if r.estimated_point is None else r.estimated_point.lat,
                    "est_lon": None if r.estimated_point is None else r.estimated_point.lon,
                    "error_km": r.error_km,
                    "failure": r.failure,
                }
                for r in self.results
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = ["target_id,true_lat,true_lon,est_lat,est_lon,error_km,method"]
        for r in self.results:
            est_lat = "" if r.estimated_point is None else repr(r.estimated_point.lat)
            est_lon = "" if r.estimated_point is None else repr(r.estimated_point.lon)
            err = "" if r.error_km is None else repr(r.error_km)
            lines.append(
                f"{r.target_id},{r.true_point.lat!r},{r.true_point.lon!r},"
                f"{est_lat},{est_lon},{err},{self.strategy}"
            )
        return "\n".join(lines) + "\n"


def _place_landmarks(world: SimWorld, k: int, strategy: str, rng: random.Random) -> list[str]:
    t = world.topology
    if strategy == "random":
        check_k(t, k)
        return sorted(rng.sample(t.node_ids, k))
    algorithm = "dragoon" if strategy == "shortest_ping_only" else strategy
    return list(place_landmarks(t, k, algorithm).landmarks)


def calibration_mesh(world: SimWorld, landmark_ids: list[str]) -> list[Measurement]:
    """Directed inter-landmark measurements for every ordered pair."""
    return [
        simulate_measurement(world, a, b)
        for a in landmark_ids for b in landmark_ids if a != b
    ]


def run_experiment(world: SimWorld, k_landmarks: int, strategy: str,
                   n_targets: int, seed: int) -> ExperimentReport:
    """Place landmarks, calibrate models from the inter-landmark mesh, then
    locate random target nodes and score against ground truth.

    The shortest_ping_only strategy uses the same landmark placement as
    dragoon but maps each target to its minimum-RTT landmark instead of
    multilaterating.
    """
    if strategy not in PLACEMENT_STRATEGIES:
        raise SimulationError(f"unknown placement strategy {strategy!r}")
    if k_landmarks < 5:
        raise PlacementError("need k >= 5 (calibration requires >= 4 peers per landmark)")
    if n_targets < 1:
        raise SimulationError("need at least one target")

    t = world.topology
    rng = random.Random(seed)
    landmark_ids = _place_landmarks(world, k_landmarks, strategy, rng)
    positions = t.positions

    mesh = calibration_mesh(world, landmark_ids)
    models = None
    if strategy != "shortest_ping_only":
        models = calibrate_all(landmark_ids, mesh, positions,
                               per_hop_ms=world.delay.per_hop_ms)

    placed = set(landmark_ids)
    candidates = [nid for nid in t.node_ids if nid not in placed]
    if len(candidates) < n_targets:
        raise SimulationError(
            f"only {len(candidates)} non-landmark nodes for {n_targets} targets"
        )
    targets = sorted(rng.sample(candidates, n_targets))

    results = []
    for target in targets:
        true_point = positions[target]
        probes = [simulate_measurement(world, lm, target) for lm in landmark_ids]
        try:
            if strategy == "shortest_ping_only":
                best = min(probes, key=lambda m: (m.min_rtt_ms, m.landmark_id))
                est = positions[best.landmark_id]
            else:
                circles = [
                    LandmarkCircle(m.landmark_id,
                                   build_circle(positions[m.landmark_id],
                                                models[m.landmark_id], m,
                                                per_hop_ms=world.delay.per_hop_ms))
                    for m in probes
                ]
                est = estimate_target(circles).point
        except LatlocError as exc:
            results.append(TargetResult(target, true_point, None, None, failure=str(exc)))
            continue
        error_km = orthodromic_distance(true_point, est) / 1000.0
        results.append(TargetResult(target, true_point, est, error_km))

    return ExperimentReport(
        strategy=strategy,
        landmark_ids=tuple(landmark_ids),
        world_seed=world.rng_seed,
        experiment_seed=seed,
        results=tuple(results),
    )
