from itertools import combinations

import pytest

from latloc.errors import PlacementError
from latloc.geodesy import GeoPoint
from latloc.placement import (
    PLACEMENT_ALGORITHMS,
    dragoon_place,
    objective_key,
    place_landmarks,
    place_orientation_mark,
    refine,
    two_approx,
)
from latloc.topology import Topology, build_topology, hop_distances, load_topology_json
from conftest import path_graph, random_connected_graph


def brute_force_k_center(t, k):
    """Exhaustive minimum over all size-k landmark subsets of (max, total) hops."""
    best = None
    for subset in combinations(t.node_ids, k):
        key = objective_key(t, list(subset))
        if best is None or key < best:
            best = key
    return best


def brute_force_one_center(t):
    hops = hop_distances(t, t.node_ids)
    return min(
        t.node_ids,
        key=lambda u: (max(hops[u].values()), sum(hops[u].values()), u),
    )


def test_orientation_mark_path_center(path_abc):
    assert place_orientation_mark(path_abc) == "b"


def test_orientation_mark_single_node():
    t = build_topology([("solo", GeoPoint(0, 0))], [])
    assert place_orientation_mark(t) == "solo"


def test_orientation_mark_matches_exhaustive_oracle():
    for seed in range(8):
        t = random_connected_graph(10, 0.0, seed=seed)  # random trees
        assert place_orientation_mark(t) == brute_force_one_center(t)


def test_two_approx_k_equals_n():
    t = random_connected_graph(6, 0.3, seed=2)
    ls = two_approx(t, 6, t.node_ids[0])
    assert sorted(ls.landmarks) == t.node_ids
    assert ls.max_hop == 0


def test_two_approx_path_hand_case():
    t = path_graph(["a", "b", "c", "d", "e"])
    ls = two_approx(t, 2, "c")
    # a and e are both 2 hops from seed c; smaller id a wins, then e is
    # farthest from a.
    assert ls.landmarks == ("a", "e")


def test_two_approx_k_too_large():
    t = path_graph(["a", "b"])
    with pytest.raises(PlacementError):
        two_approx(t, 3, "a")


@pytest.mark.parametrize("k", [0, -1, 6, 7])
def test_out_of_range_k_rejected_before_the_center_scan(k, monkeypatch):
    t = random_connected_graph(5, 0.3, seed=1)

    def scan(self):
        raise AssertionError("1-center scan ran for an out-of-range k")

    monkeypatch.setattr(Topology, "eccentricities", scan)
    message = rf"^k={k} outside \[1, 5\]$"
    with pytest.raises(PlacementError, match=message):
        dragoon_place(t, k)
    for algorithm in PLACEMENT_ALGORITHMS:
        with pytest.raises(PlacementError, match=message):
            place_landmarks(t, k, algorithm)


def test_two_approx_within_factor_two_of_optimum():
    for seed in range(10):
        t = random_connected_graph(12, 0.15, seed=seed)
        for k in (2, 3):
            ls = two_approx(t, k, place_orientation_mark(t))
            optimum = brute_force_k_center(t, k)
            assert ls.max_hop <= 2 * optimum[0]


def test_refine_fixpoint_returns_unchanged():
    t = path_graph(["a", "b", "c"])
    ls = dragoon_place(t, 1)
    log = []
    again = refine(t, ls, move_log=log)
    assert again.landmarks == ls.landmarks
    assert log == []


def test_refine_star_leaf_moves_to_hub():
    hub = ("hub", GeoPoint(0, 0))
    leaves = [(f"leaf{i}", GeoPoint(0, i + 1)) for i in range(4)]
    t = build_topology([hub] + leaves, [("hub", nid) for nid, _ in leaves])
    start = two_approx(t, 1, "leaf0")
    # Force the landmark onto a leaf by seeding from the hub's antipode in
    # hop terms; two_approx from leaf0 picks a farthest leaf.
    assert start.landmarks[0].startswith("leaf")
    refined = refine(t, start)
    assert refined.landmarks == ("hub",)


def test_refine_improves_and_respects_oracle_bound():
    for seed in range(10):
        t = random_connected_graph(12, 0.15, seed=seed)
        initial = two_approx(t, 2, place_orientation_mark(t))
        refined = refine(t, initial)
        assert (refined.max_hop, refined.mean_hop) <= (initial.max_hop, initial.mean_hop)
        optimum = brute_force_k_center(t, 2)
        assert refined.max_hop <= 2 * optimum[0]


def test_refine_moves_strictly_decrease():
    for seed in range(6):
        t = random_connected_graph(13, 0.2, seed=seed)
        log = []
        refine(t, two_approx(t, 3, place_orientation_mark(t)), move_log=log)
        for before, after in log:
            assert after < before


def test_refine_forbids_landmark_collision():
    for seed in range(6):
        t = random_connected_graph(10, 0.3, seed=seed)
        ls = dragoon_place(t, 3)
        assert len(set(ls.landmarks)) == 3


def test_dragoon_k1_path_is_center(path_abc):
    ls = dragoon_place(path_abc, 1)
    assert ls.landmarks == ("b",)


def test_dragoon_deterministic():
    t = random_connected_graph(14, 0.2, seed=9)
    a = dragoon_place(t, 3)
    b = dragoon_place(t, 3)
    assert a == b


def test_dragoon_never_worse_than_two_approx():
    for seed in range(10):
        t = random_connected_graph(13, 0.2, seed=seed)
        mark = place_orientation_mark(t)
        init = two_approx(t, 3, mark)
        final = dragoon_place(t, 3)
        assert final.max_hop <= init.max_hop


def test_dragoon_within_factor_two_of_optimum():
    t = random_connected_graph(15, 0.15, seed=77)
    ls = dragoon_place(t, 3)
    assert ls.max_hop <= 2 * brute_force_k_center(t, 3)[0]


def test_objective_consistent_with_assignment():
    t = random_connected_graph(12, 0.2, seed=3)
    ls = dragoon_place(t, 3)
    hops = hop_distances(t, t.node_ids)
    dists = [hops[ls.assignment[node]][node] for node in t.node_ids]
    assert ls.max_hop == max(dists)
    assert ls.mean_hop == pytest.approx(sum(dists) / len(dists))


def test_placement_invariant_under_node_file_order():
    nodes = [{"id": f"v{i}", "lat": 0, "lon": i} for i in range(6)]
    edges = [[f"v{i}", f"v{i+1}"] for i in range(5)] + [["v0", "v3"]]
    import json
    t1 = load_topology_json(json.dumps({"nodes": nodes, "edges": edges}))
    t2 = load_topology_json(json.dumps({"nodes": list(reversed(nodes)), "edges": edges}))
    assert dragoon_place(t1, 2) == dragoon_place(t2, 2)


def test_landmark_set_json_roundtrip():
    from latloc.placement import landmark_set_from_json
    t = random_connected_graph(9, 0.25, seed=4)
    ls = dragoon_place(t, 2)
    assert landmark_set_from_json(ls.to_json()) == ls


def test_place_landmarks_dispatch():
    t = random_connected_graph(25, 0.08, seed=4)
    assert place_landmarks(t, 4, "dragoon") == dragoon_place(t, 4)
    assert place_landmarks(t, 4, "two_approx") == two_approx(t, 4, place_orientation_mark(t))
    with pytest.raises(PlacementError, match="unknown placement algorithm"):
        place_landmarks(t, 4, "random")
