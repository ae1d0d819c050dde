"""The array graph layer against the dict-BFS code it replaced.

The reference functions below are the placement pipeline and probe path
code as they were before the topology had an array form: a dict-of-dicts
hop matrix from one Python BFS per source, and one fresh BFS per probe. The
array code must give exactly their results, ties included. The array form
itself (sorted ids, CSR rows) is checked against the dict form it is built
from.
"""

import hashlib
import random
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latloc.cli import main
from latloc.geodesy import GeoPoint, orthodromic_distance
from latloc.latency import Measurement
from latloc.placement import (
    LandmarkSet,
    dragoon_place,
    objective_key,
    place_landmarks,
    place_orientation_mark,
    refine,
    two_approx,
)
from latloc.simulator import (
    PROPAGATION_SPEED_KM_MS,
    DelayParams,
    SimWorld,
    _derived_rng,
    generate_topology,
    shortest_hop_path,
    simulate_measurement,
)
from latloc.topology import (
    Topology,
    assign_to_closest,
    build_topology,
    hop_distances,
    topology_to_json,
)
from conftest import path_graph, random_connected_graph

EUROPE = (35.0, 60.0, -10.0, 30.0)


# -- reference implementations ---------------------------------------------

def ref_hop_distances(t, sources):
    result = {}
    for src in sources:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in t.adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        result[src] = dist
    return result


def ref_assign_to_closest(t, landmarks, hops):
    landmark_ids = sorted(set(landmarks))
    return {node: min(landmark_ids, key=lambda lm: (hops[lm][node], lm)) for node in t.node_ids}


def ref_objective_key(t, landmarks, hops):
    max_hop = 0
    total = 0
    for node in t.node_ids:
        d = min(hops[lm][node] for lm in landmarks)
        if d > max_hop:
            max_hop = d
        total += d
    return (max_hop, total)


def ref_make_set(t, landmarks, hops):
    key = ref_objective_key(t, landmarks, hops)
    return LandmarkSet(tuple(landmarks), ref_assign_to_closest(t, landmarks, hops),
                       key[0], key[1] / len(t.positions))


def ref_place_orientation_mark(t, hops):
    best, best_key = None, None
    for node in t.node_ids:
        row = hops[node]
        key = (max(row.values()), sum(row.values()), node)
        if best_key is None or key < best_key:
            best_key, best = key, node
    return best


def ref_two_approx(t, k, seed_node, hops):
    closest = dict(hops[seed_node])
    landmarks = []
    for _ in range(k):
        pick = max(t.node_ids, key=lambda node: closest[node])
        landmarks.append(pick)
        for node in t.node_ids:
            d = hops[pick][node]
            if d < closest[node]:
                closest[node] = d
    return ref_make_set(t, landmarks, hops)


def ref_refine(t, ls, hops, move_log):
    landmarks = list(ls.landmarks)
    current_key = ref_objective_key(t, landmarks, hops)
    while True:
        moved = False
        for i in range(len(landmarks)):
            occupied = set(landmarks)
            for candidate in t.adjacency[landmarks[i]]:
                if candidate in occupied:
                    continue
                trial = landmarks.copy()
                trial[i] = candidate
                trial_key = ref_objective_key(t, trial, hops)
                if trial_key < current_key:
                    move_log.append((current_key, trial_key))
                    landmarks = trial
                    current_key = trial_key
                    moved = True
                    break
        if not moved:
            break
    return ref_make_set(t, landmarks, hops)


def ref_dragoon_place(t, k):
    hops = ref_hop_distances(t, t.node_ids)
    initial = ref_two_approx(t, k, ref_place_orientation_mark(t, hops), hops)
    return ref_refine(t, initial, hops, [])


def ref_shortest_hop_path(t, src, dst):
    if src == dst:
        return [src]
    parent = {src: None}
    queue = [src]
    while queue:
        next_queue = []
        for u in queue:
            for v in t.adjacency[u]:
                if v not in parent:
                    parent[v] = u
                    if v == dst:
                        path = [v]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return list(reversed(path))
                    next_queue.append(v)
        queue = next_queue
    raise AssertionError("no path")


def ref_path_length_km(t, path):
    return sum(
        orthodromic_distance(t.positions[u], t.positions[v]) / 1000.0
        for u, v in zip(path, path[1:])
    )


def ref_simulate_measurement(world, src, dst):
    t = world.topology
    path = ref_shortest_hop_path(t, src, dst)
    hops = len(path) - 1
    length_km = ref_path_length_km(t, path)
    delay = world.delay
    oneway_ms = length_km / PROPAGATION_SPEED_KM_MS + delay.per_hop_ms * hops
    rng = _derived_rng(world.rng_seed, src, dst)
    samples = []
    for _ in range(delay.samples_per_probe):
        noise = 0.0
        if delay.stochastic_mean_ms is not None:
            noise = rng.expovariate(1.0 / delay.stochastic_mean_ms)
            noise += rng.expovariate(1.0 / delay.stochastic_mean_ms)
        samples.append(2.0 * oneway_ms + noise)
    samples = [max(s, 1e-9) for s in samples]
    return Measurement(landmark_id=src, target_id=dst,
                       rtt_samples_ms=tuple(samples), hop_count=hops)


# -- comparisons -------------------------------------------------------------

def assert_same_set(got, want):
    assert got == want
    assert type(got.max_hop) is int
    assert got.to_json() == want.to_json()


def assert_placement_matches_reference(t, k):
    hops = ref_hop_distances(t, t.node_ids)
    assert hop_distances(t, t.node_ids) == hops
    mark = place_orientation_mark(t)
    assert mark == ref_place_orientation_mark(t, hops)
    for seed_node in (mark, t.node_ids[0], t.node_ids[-1]):
        got = two_approx(t, k, seed_node)
        want = ref_two_approx(t, k, seed_node, hops)
        assert_same_set(got, want)
        assert objective_key(t, got.landmarks) == ref_objective_key(t, want.landmarks, hops)
        got_log, want_log = [], []
        assert_same_set(refine(t, got, move_log=got_log), ref_refine(t, want, hops, want_log))
        assert got_log == want_log
    assert_same_set(dragoon_place(t, k), ref_dragoon_place(t, k))
    assert place_landmarks(t, k, "two_approx") == ref_two_approx(t, k, mark, hops)


def assert_probes_match_reference(world):
    t = world.topology
    for src in t.node_ids:
        for dst in t.node_ids:
            assert shortest_hop_path(t, src, dst) == ref_shortest_hop_path(t, src, dst)
            got = simulate_measurement(world, src, dst)
            assert got == ref_simulate_measurement(world, src, dst)
            assert type(got.hop_count) is int


# -- graphs ------------------------------------------------------------------

def _graph(kind, n, ids, coords, extra):
    """Unpadded ids (n10 sorts before n2) in a shuffled order, so id order,
    index order and construction order all differ."""
    nodes = [(ids[i], GeoPoint(*coords[i])) for i in range(n)]
    if kind == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif kind == "star":
        pairs = [(0, i) for i in range(1, n)]
    elif kind == "cycle":
        pairs = [(i, (i + 1) % n) for i in range(n)] if n >= 3 else [(i, i + 1) for i in range(n - 1)]
    elif kind == "complete":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:  # a tree (node i hangs off an earlier node) plus extra edges
        pairs = [(i, parent % i) for i, parent in enumerate(extra[:n]) if i > 0]
        pairs += [(a % n, b % n) for a, b in zip(extra[n::2], extra[n + 1::2]) if a % n != b % n]
    edges = {tuple(sorted((ids[a], ids[b]))) for a, b in pairs}
    return build_topology(nodes, sorted(edges))


@st.composite
def tie_graphs(draw):
    kind = draw(st.sampled_from(["path", "star", "cycle", "complete", "random"]))
    n = draw(st.integers(1, 8 if kind == "complete" else 14))
    ids = draw(st.permutations([f"n{i}" for i in range(n)]))
    coords = draw(st.lists(st.tuples(st.floats(-80, 80), st.floats(-180, 180)),
                           min_size=n, max_size=n))
    extra = draw(st.lists(st.integers(0, 1000), min_size=n + 2 * draw(st.integers(0, n)),
                          max_size=3 * n))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return _graph(kind, n, ids, coords, extra), k


def assert_array_form_matches_dicts(t):
    assert t.ids == tuple(sorted(t.positions))
    assert t.node_ids == sorted(t.positions)
    for i, nid in enumerate(t.ids):
        assert t.index_of(nid) == i
        row = t.csr.indices[t.csr.indptr[i]:t.csr.indptr[i + 1]]
        assert [t.ids[j] for j in row.tolist()] == list(t.adjacency[nid])
    assert t.csr.shape == (len(t.ids), len(t.ids))
    assert t.csr.nnz == sum(len(nbrs) for nbrs in t.adjacency.values())


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tie_graphs())
def test_csr_rows_match_adjacency_on_tie_graphs(graph_k):
    t, _ = graph_k
    assert_array_form_matches_dicts(t)


def test_csr_rows_match_adjacency_on_hand_built_disconnected_topology():
    # Ids in neither sorted nor padded order, and an isolated node.
    pos = {nid: GeoPoint(50.0, float(i)) for i, nid in enumerate(["n2", "n10", "n1", "n3"])}
    adjacency = {"n2": ("n10", "n3"), "n10": ("n2",), "n1": (), "n3": ("n2",)}
    t = Topology(positions=pos, adjacency=adjacency)
    assert t.ids == ("n1", "n10", "n2", "n3")
    assert_array_form_matches_dicts(t)
    assert t.tree(t.index_of("n10")).hops == [-1, 0, 1, 2]


def test_topology_equality_ignores_array_form():
    a = random_connected_graph(12, 0.2, seed=3)
    b = build_topology(list(reversed(a.positions.items())),
                       [(u, v) for u in a.adjacency for v in a.adjacency[u] if u < v])
    a.hop_rows([0, 5])
    a.tree(2)
    assert a == b
    assert "csr" not in repr(a)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tie_graphs())
def test_placement_matches_dict_bfs_reference_on_tie_graphs(graph_k):
    t, k = graph_k
    assert_placement_matches_reference(t, k)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tie_graphs())
def test_eccentricities_match_dict_bfs_reference_on_tie_graphs(graph_k):
    t, _ = graph_k
    hops = ref_hop_distances(t, t.node_ids)
    ecc, total = t.eccentricities()
    assert ecc.tolist() == [max(hops[nid].values()) for nid in t.ids]
    assert total.tolist() == [sum(hops[nid].values()) for nid in t.ids]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tie_graphs(), st.integers(0, 2**31), st.sampled_from([None, 0.5, 3.0]))
def test_probes_match_per_probe_bfs_reference_on_tie_graphs(graph_k, seed, noise_ms):
    t, _ = graph_k
    assert_probes_match_reference(SimWorld(t, seed, DelayParams(stochastic_mean_ms=noise_ms)))


@pytest.mark.parametrize("seed", range(6))
def test_placement_matches_reference_on_conftest_graphs(seed):
    t = random_connected_graph(14, 0.1 + 0.03 * seed, seed=seed)
    for k in (1, 2, 3, 5, 14):
        assert_placement_matches_reference(t, k)
    assert_placement_matches_reference(path_graph([f"p{i}" for i in range(11)]), 3)


def test_probes_match_reference_on_seeded_worlds():
    world = SimWorld(generate_topology(40, EUROPE, 500.0, seed=3), 3,
                     DelayParams(stochastic_mean_ms=2.0))
    assert_probes_match_reference(world)
    t = random_connected_graph(15, 0.2, seed=8)
    assert_probes_match_reference(SimWorld(t, 8, DelayParams()))


def test_assign_matches_reference():
    t = random_connected_graph(16, 0.15, seed=11)
    hops = ref_hop_distances(t, t.node_ids)
    for landmarks in (t.node_ids[:1], t.node_ids[3:9:2], t.node_ids[::-1]):
        assert assign_to_closest(t, landmarks) == ref_assign_to_closest(t, landmarks, hops)


# -- scale and golden outputs ---------------------------------------------------

def multi_source_objective(adjacency, landmarks):
    dist = {lm: 0 for lm in landmarks}
    queue = deque(landmarks)
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    assert len(dist) == len(adjacency)
    return max(dist.values()), sum(dist.values())


def sparse_graph(n, extra_edges, seed):
    """A random spanning tree (each node hangs off one of the 40 before it)
    plus a fixed number of random extra edges: O(n + extra) to build."""
    rng = random.Random(seed)
    ids = [f"v{i:04d}" for i in range(n)]
    nodes = [(nid, GeoPoint(rng.uniform(35, 60), rng.uniform(-10, 30))) for nid in ids]
    edges = {(ids[rng.randrange(max(0, i - 40), i)], ids[i]) for i in range(1, n)}
    while len(edges) < n - 1 + extra_edges:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((ids[a], ids[b]))
    return build_topology(nodes, sorted(edges))


def test_dragoon_n2000_k50_is_a_local_optimum():
    t = sparse_graph(2000, 300, seed=5)
    ls = dragoon_place(t, 50)
    landmarks = list(ls.landmarks)
    assert len(set(landmarks)) == 50
    key = multi_source_objective(t.adjacency, landmarks)
    assert (ls.max_hop, ls.mean_hop) == (key[0], key[1] / 2000)
    occupied = set(landmarks)
    for i, lm in enumerate(landmarks):
        for nb in t.adjacency[lm]:
            if nb not in occupied:
                trial = landmarks[:i] + [nb] + landmarks[i + 1:]
                assert multi_source_objective(t.adjacency, trial) >= key


# SHA-256 of `latloc place` output on generate_topology(300, EUROPE, 300 km,
# seed 0), recorded from the dict-BFS implementation.
PLACE_DIGESTS = {
    ("dragoon", 1): "faf1131894a97c0b769e7fbdc24a80c98bcb24e257f442ee425c100d0f3b8346",
    ("dragoon", 5): "d87b1bf384d43fcc1c5d959d1b6db10c5e69262408063d4a21433ec843ac0166",
    ("dragoon", 16): "e443b16a0296f2b76e16f546afd51b47b0539bd6645ed5b3842302809ed33d70",
    ("two_approx", 1): "61738e19a61215167106968bea85b55474884511e6e65e61cbeec8ad5d6f5d82",
    ("two_approx", 5): "a6367d6381fd72c128968639294fd865a3a260c3e5c154b03ae62f1972187b96",
    ("two_approx", 16): "afdca1849c1298020f91d8ef4d20f84464de8e447946ffd415c1ec5d1bbdab38",
}


def test_place_output_matches_recorded_digests(tmp_path):
    topo = tmp_path / "topology.json"
    topo.write_text(topology_to_json(generate_topology(300, EUROPE, 300.0, 0)))
    for (algorithm, k), digest in PLACE_DIGESTS.items():
        out = tmp_path / f"{algorithm}-{k}.json"
        assert main(["place", "--topology", str(topo), "--k", str(k),
                     "--algorithm", algorithm, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (algorithm, k)
