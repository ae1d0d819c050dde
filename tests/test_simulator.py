import math
import statistics

import pytest

from latloc.errors import PlacementError, SimulationError
from latloc.estimation import GridSearchConfig
from latloc import simulator
from latloc.geodesy import GeoPoint, orthodromic_distance
from latloc.simulator import (
    DelayParams,
    SimWorld,
    calibration_mesh,
    generate_topology,
    run_experiment,
    shortest_hop_path,
    simulate_measurement,
)
from latloc.topology import Topology, build_topology, hop_distances

EUROPE_BBOX = (35.0, 60.0, -10.0, 30.0)


def two_node_world(d_km=1000.0, **delay_kwargs):
    from latloc.geodesy import destination_point
    a = GeoPoint(50.0, 8.0)
    b = destination_point(a, 90.0, d_km * 1000)
    t = build_topology([("a", a), ("b", b)], [("a", "b")])
    return SimWorld(t, rng_seed=1, delay=DelayParams(**delay_kwargs))


@pytest.mark.parametrize("field", ["per_hop_ms", "stochastic_mean_ms"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_delay_params_reject_non_finite(field, bad):
    with pytest.raises(ValueError, match="finite"):
        DelayParams(**{field: bad})


def test_run_experiment_rejects_non_finite_gap():
    with pytest.raises(ValueError, match="gap_max_km must be finite"):
        run_experiment(noiseless_world(), 5, "dragoon", 3, seed=1, gap_max_km=math.nan)


def test_generate_single_node():
    t = generate_topology(1, EUROPE_BBOX, 400, seed=1)
    assert len(t.positions) == 1
    assert t.adjacency == {t.node_ids[0]: ()}


def test_generate_deterministic():
    a = generate_topology(40, EUROPE_BBOX, 400, seed=5)
    b = generate_topology(40, EUROPE_BBOX, 400, seed=5)
    assert a == b


def test_generate_connected_europe_fixture():
    t = generate_topology(100, EUROPE_BBOX, 400, seed=11)
    assert len(t.positions) == 100
    # Degree profile locked after first generation; a change means the
    # generator's determinism broke.
    mean_degree = sum(len(nbrs) for nbrs in t.adjacency.values()) / 100
    assert mean_degree == pytest.approx(8.12, abs=0.01)
    for p in t.positions.values():
        assert 35 <= p.lat <= 60
        assert -10 <= p.lon <= 30


def test_generate_grows_radius_until_connected():
    # 50 km cannot connect 30 nodes over a 500 km box; growth must kick in.
    t = generate_topology(30, (45.0, 50.0, 5.0, 10.0), 50.0, seed=2)
    assert len(t.positions) == 30

    with pytest.raises(SimulationError, match="radius growths"):
        generate_topology(30, EUROPE_BBOX, 1.0, seed=2)


@pytest.mark.parametrize("radius", [math.nan, -5.0, 0.0, math.inf])
def test_generate_rejects_bad_radius_before_any_distance(monkeypatch, radius):
    def no_distances(*args):
        raise AssertionError("pair distance computed")

    monkeypatch.setattr(simulator, "orthodromic_distance", no_distances)
    with pytest.raises(SimulationError, match=f"got {radius!r} km"):
        generate_topology(30, EUROPE_BBOX, radius, seed=2)


def test_generate_rejects_zero_nodes():
    with pytest.raises(SimulationError):
        generate_topology(0, EUROPE_BBOX, 400, seed=1)


def test_self_probe_noiseless():
    w = two_node_world()
    m = simulate_measurement(w, "a", "a")
    assert m.hop_count == 0
    assert all(s <= 1e-9 for s in m.rtt_samples_ms)


def test_two_node_closed_form_rtt():
    w = two_node_world(d_km=1000.0)
    m = simulate_measurement(w, "a", "b")
    assert m.hop_count == 1
    # one-way: 1000 km / 200 km/ms + 0.1 ms/hop = 5.1 ms; RTT doubles it.
    for s in m.rtt_samples_ms:
        assert s == pytest.approx(10.2, abs=1e-9)


def test_rtt_never_below_deterministic_floor():
    w = two_node_world(d_km=1000.0, stochastic_mean_ms=2.0)
    m = simulate_measurement(w, "a", "b")
    assert len(m.rtt_samples_ms) == 10
    assert all(s >= 10.2 for s in m.rtt_samples_ms)


def test_min_rtt_monotone_in_sample_count():
    base = two_node_world(d_km=500.0, stochastic_mean_ms=2.0, samples_per_probe=5)
    more = two_node_world(d_km=500.0, stochastic_mean_ms=2.0, samples_per_probe=15)
    m5 = simulate_measurement(base, "a", "b")
    m15 = simulate_measurement(more, "a", "b")
    # Same seed stream: the first 5 draws coincide, so a longer run can
    # only lower the minimum.
    assert m15.rtt_samples_ms[:5] == m5.rtt_samples_ms
    assert m15.min_rtt_ms <= m5.min_rtt_ms


def test_min_rtt_excess_matches_order_statistics():
    # min of 10 iid sums of two Exp(mean) draws: expectation computed by
    # Monte Carlo with an independent generator.
    import random
    rng = random.Random(123)
    mc = statistics.fmean(
        min(sum(rng.expovariate(0.5) for _ in range(2)) for _ in range(10))
        for _ in range(5000)
    )
    w = two_node_world(d_km=1000.0, stochastic_mean_ms=2.0)
    excesses = []
    for trial in range(400):
        world = SimWorld(w.topology, rng_seed=trial, delay=w.delay)
        m = simulate_measurement(world, "a", "b")
        excesses.append(m.min_rtt_ms - 10.2)
    assert statistics.fmean(excesses) == pytest.approx(mc, rel=0.2)


def test_measurement_deterministic_per_seed():
    w = two_node_world(stochastic_mean_ms=3.0)
    assert simulate_measurement(w, "a", "b") == simulate_measurement(w, "a", "b")


def test_hop_count_consistent_with_bfs():
    t = generate_topology(50, EUROPE_BBOX, 500, seed=9)
    w = SimWorld(t, 9, DelayParams())
    hops = hop_distances(t, [t.node_ids[0]])[t.node_ids[0]]
    for dst in t.node_ids[:10]:
        m = simulate_measurement(w, t.node_ids[0], dst)
        assert m.hop_count == hops[dst]


def test_shortest_hop_path_endpoints():
    t = generate_topology(30, EUROPE_BBOX, 800, seed=3)
    src, dst = t.node_ids[0], t.node_ids[-1]
    path = shortest_hop_path(t, src, dst)
    assert path[0] == src and path[-1] == dst
    for u, v in zip(path, path[1:]):
        assert v in t.adjacency[u]


def noiseless_world(n=40, radius=6000, seed=4):
    t = generate_topology(n, EUROPE_BBOX, radius, seed=seed)
    return SimWorld(t, seed, DelayParams())


def test_run_experiment_rejects_small_k():
    with pytest.raises(PlacementError):
        run_experiment(noiseless_world(), 4, "dragoon", 5, seed=1)


def test_run_experiment_rejects_zero_targets():
    with pytest.raises(SimulationError):
        run_experiment(noiseless_world(), 6, "dragoon", 0, seed=1)


def test_run_experiment_unknown_strategy():
    with pytest.raises(SimulationError):
        run_experiment(noiseless_world(), 6, "steiner", 5, seed=1)


def test_run_experiment_noiseless_floor():
    # Dense world: probe paths are direct, so the fitted curve is exact and
    # the only error left is the estimator's grid resolution.
    report = run_experiment(noiseless_world(), 8, "dragoon", 10, seed=2,
                            grid_cfg=GridSearchConfig(eps0_m=100_000, eps_min_m=500))
    summary = report.summary()
    assert summary["located"] == 10
    assert summary["median_km"] <= 5.0


def test_run_experiment_reproducible():
    w = noiseless_world()
    a = run_experiment(w, 6, "dragoon", 5, seed=7)
    b = run_experiment(w, 6, "dragoon", 5, seed=7)
    assert a == b
    assert a.to_json() == b.to_json()



def test_run_experiment_reraises_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in estimation")

    monkeypatch.setattr(simulator, "estimate_target", broken)
    with pytest.raises(TypeError, match="bug in estimation"):
        run_experiment(noiseless_world(n=20), 5, "dragoon", 1, seed=1)

def test_run_experiment_shortest_ping_baseline():
    w = noiseless_world()
    report = run_experiment(w, 6, "shortest_ping_only", 8, seed=3)
    positions = w.topology.positions
    landmark_points = [positions[lm] for lm in report.landmark_ids]
    for r in report.results:
        assert any(
            orthodromic_distance(r.estimated_point, p) < 1.0 for p in landmark_points
        )


def test_run_experiment_random_strategy_uses_seed():
    w = noiseless_world()
    a = run_experiment(w, 6, "random", 5, seed=1)
    b = run_experiment(w, 6, "random", 5, seed=2)
    assert a.landmark_ids != b.landmark_ids or a.results != b.results


def test_calibration_mesh_counts():
    w = noiseless_world()
    mesh = calibration_mesh(w, ["a", "b", "c"][:0] or list(w.topology.node_ids[:5]))
    assert len(mesh) == 5 * 4


def test_report_csv_shape():
    report = run_experiment(noiseless_world(), 6, "two_approx", 4, seed=5)
    lines = report.to_csv().strip().splitlines()
    assert lines[0].startswith("target_id,")
    assert len(lines) == 5
    assert all(line.endswith(",two_approx") for line in lines[1:])


def test_probe_without_path_rejected():
    # build_topology refuses disconnected graphs; a hand-built Topology can still be one.
    pos = {"a": GeoPoint(50.0, 8.0), "b": GeoPoint(51.0, 9.0)}
    t = Topology(positions=pos, adjacency={"a": (), "b": ()})
    with pytest.raises(SimulationError, match="no path"):
        simulate_measurement(SimWorld(t, 1, DelayParams()), "a", "b")
    with pytest.raises(SimulationError, match="no path"):
        shortest_hop_path(t, "a", "b")
