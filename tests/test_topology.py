import json

import pytest

from latloc.errors import TopologyError
from latloc.geodesy import GeoPoint
from latloc.placement import objective_key, place_orientation_mark
from latloc.topology import (
    Topology,
    assign_to_closest,
    build_topology,
    hop_distances,
    load_topology_edgelist,
    load_topology_json,
)
from conftest import path_graph, random_connected_graph


def topo_json(nodes, edges) -> str:
    return json.dumps({"nodes": nodes, "edges": edges})


def edge_count(t) -> int:
    return sum(len(nbrs) for nbrs in t.adjacency.values()) // 2


def test_minimal_valid_topology():
    t = load_topology_json(topo_json(
        [{"id": "a", "lat": 1.0, "lon": 2.0}, {"id": "b", "lat": 3.0, "lon": 4.0}],
        [["a", "b"]],
    ))
    assert len(t.positions) == 2
    assert edge_count(t) == 1


def test_dangling_edge_names_offender():
    with pytest.raises(TopologyError, match="x9"):
        load_topology_json(topo_json(
            [{"id": "a", "lat": 0, "lon": 0}, {"id": "b", "lat": 0, "lon": 1}],
            [["a", "b"], ["a", "x9"]],
        ))


def test_four_cycle_every_node_degree_two():
    ids = ["a", "b", "c", "d"]
    t = load_topology_json(topo_json(
        [{"id": i, "lat": 0, "lon": k} for k, i in enumerate(ids)],
        [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
    ))
    # Independent degree count straight from the declared edge list.
    degree = {i: 0 for i in ids}
    for u, v in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]:
        degree[u] += 1
        degree[v] += 1
    for nid in ids:
        assert len(t.adjacency[nid]) == degree[nid] == 2


def test_duplicate_node_id_rejected():
    with pytest.raises(TopologyError, match="duplicate node id"):
        load_topology_json(topo_json(
            [{"id": "a", "lat": 0, "lon": 0}, {"id": "a", "lat": 1, "lon": 1}], [],
        ))


def test_self_loop_and_duplicate_edge_rejected():
    nodes = [{"id": "a", "lat": 0, "lon": 0}, {"id": "b", "lat": 0, "lon": 1}]
    with pytest.raises(TopologyError, match="self-loop"):
        load_topology_json(topo_json(nodes, [["a", "a"], ["a", "b"]]))
    with pytest.raises(TopologyError, match="duplicate edge"):
        load_topology_json(topo_json(nodes, [["a", "b"], ["b", "a"]]))


def test_disconnected_rejected():
    with pytest.raises(TopologyError, match="disconnected"):
        load_topology_json(topo_json(
            [{"id": "a", "lat": 0, "lon": 0}, {"id": "b", "lat": 0, "lon": 1}], [],
        ))


def test_parse_error_reported():
    with pytest.raises(TopologyError, match="parse error"):
        load_topology_json("{not json")


def test_longitude_normalized():
    t = load_topology_json(topo_json([{"id": "a", "lat": 0, "lon": 270.0}], []))
    assert t.positions["a"].lon == -90.0


def test_edgelist_format():
    t = load_topology_edgelist("a b\nb c\n", "a 0 0\nb 0 1\nc 0 2\n")
    assert edge_count(t) == 2
    assert t.adjacency["b"] == ("a", "c")


def test_positions_loaders_read_nodes_only():
    nodes = [{"id": "b", "lat": 3.0, "lon": 4.0}, {"id": "a", "lat": 1.0, "lon": 270.0}]
    want = {"a": GeoPoint(1.0, -90.0), "b": GeoPoint(3.0, 4.0)}
    # The positions come from the node entries alone, whatever the edges.
    assert load_topology_json(topo_json(nodes, [["a", "b"]])).positions == want
    assert load_topology_json(topo_json(nodes[::-1], [["b", "a"]])).positions == want
    assert load_topology_edgelist("a b\n", "b 3.0 4.0\na 1.0 270.0\n").positions == want
    for bad, message in ((topo_json(nodes + nodes[:1], [["a", "b"]]), "duplicate node id 'b'"),
                         (topo_json([], []), "no nodes"),
                         ('{"nodes": []}', "must contain 'nodes' and 'edges'"),
                         (topo_json(nodes, 7), "'edges' must be a list, got int")):
        with pytest.raises(TopologyError, match=message):
            load_topology_json(bad)
    with pytest.raises(TopologyError, match="duplicate node id 'a'"):
        load_topology_edgelist("a b\n", "a 0 0\na 1 1\n")


def test_hop_distances_path():
    t = path_graph(["a", "b", "c"])
    hops = hop_distances(t, ["a"])
    assert hops["a"] == {"a": 0, "b": 1, "c": 2}


def test_hop_distance_identity_and_symmetry():
    t = random_connected_graph(10, 0.2, seed=7)
    hops = hop_distances(t, t.node_ids)
    for u in t.node_ids:
        assert hops[u][u] == 0
        for v in t.node_ids:
            assert hops[u][v] == hops[v][u]
            assert (hops[u][v] == 0) == (u == v)


def floyd_warshall(t):
    ids = t.node_ids
    inf = float("inf")
    dist = {u: {v: (0 if u == v else inf) for v in ids} for u in ids}
    for u in ids:
        for v in t.adjacency[u]:
            dist[u][v] = 1
    for k in ids:
        for i in ids:
            for j in ids:
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def test_hop_distances_match_floyd_warshall_oracle():
    t = random_connected_graph(12, 0.25, seed=42)
    hops = hop_distances(t, t.node_ids)
    oracle = floyd_warshall(t)
    for u in t.node_ids:
        for v in t.node_ids:
            assert hops[u][v] == oracle[u][v]


def test_triangle_inequality_over_sampled_graphs():
    for seed in range(5):
        t = random_connected_graph(9, 0.3, seed=seed)
        hops = hop_distances(t, t.node_ids)
        for u in t.node_ids:
            for v in t.node_ids:
                for w in t.node_ids:
                    assert hops[u][v] <= hops[u][w] + hops[w][v]


def test_hop_queries_reject_unreachable_nodes():
    # Topology() itself skips build_topology's connectivity check. A sweep
    # marks an unreachable node -1 in its hop row; unchecked, that would
    # make c a's closest landmark.
    t = Topology(
        positions={nid: GeoPoint(0.0, float(i)) for i, nid in enumerate("abcd")},
        adjacency={"a": ("b",), "b": ("a",), "c": ("d",), "d": ("c",)},
    )
    message = r"unreachable from 'a': \['c', 'd'\]"
    with pytest.raises(TopologyError, match=message):
        t.hop_rows([0])
    with pytest.raises(TopologyError, match=message):
        objective_key(t, ["a"])
    with pytest.raises(TopologyError, match="disconnected"):
        assign_to_closest(t, ["a", "c"])
    with pytest.raises(TopologyError, match="disconnected"):
        place_orientation_mark(t)


def test_unknown_source_rejected():
    t = path_graph(["a", "b"])
    with pytest.raises(TopologyError, match="zz"):
        hop_distances(t, ["zz"])


def test_assign_single_landmark_covers_all():
    t = random_connected_graph(8, 0.3, seed=1)
    assignment = assign_to_closest(t, [t.node_ids[3]])
    assert set(assignment.values()) == {t.node_ids[3]}


def test_assign_landmark_maps_to_itself():
    t = path_graph(["a", "b", "c"])
    assignment = assign_to_closest(t, ["a", "c"])
    assert assignment["a"] == "a"
    assert assignment["c"] == "c"


def test_assign_tie_breaks_to_smaller_id():
    t = path_graph(["a", "b", "c", "d", "e"])
    assignment = assign_to_closest(t, ["a", "e"])
    # c is 2 hops from both; the smaller landmark id wins.
    assert assignment["c"] == "a"


def test_assign_is_stable():
    t = random_connected_graph(11, 0.2, seed=5)
    landmarks = t.node_ids[:3]
    assert assign_to_closest(t, landmarks) == assign_to_closest(t, landmarks)


def test_load_invariant_under_node_order():
    nodes = [{"id": i, "lat": 0, "lon": k} for k, i in enumerate(["a", "b", "c"])]
    edges = [["a", "b"], ["b", "c"]]
    t1 = load_topology_json(topo_json(nodes, edges))
    t2 = load_topology_json(topo_json(list(reversed(nodes)), edges))
    assert t1 == t2


# Each input's TopologyError text, recorded from the build_topology that
# checked connectivity with a Python BFS and duplicates with a separate set.
# Multi-fault inputs pin the check order: per edge, unknown endpoint, then
# self-loop, then duplicate; connectivity once all edges are in.
_P = GeoPoint(0.0, 0.0)
INVALID_TOPOLOGIES = [
    ([], [], "topology has no nodes"),
    ([("a", _P), ("a", _P)], [], "duplicate node id 'a'"),
    ([("a", _P), ("b", _P)], [("a", "x9")], "edge ('a', 'x9') references unknown node 'x9'"),
    ([("a", _P), ("b", _P)], [("x1", "a")], "edge ('x1', 'a') references unknown node 'x1'"),
    ([("a", _P)], [("y", "x")], "edge ('y', 'x') references unknown node 'y'"),
    ([("a", _P), ("b", _P)], [("a", "a"), ("a", "b")], "self-loop on node 'a'"),
    ([("a", _P)], [("z", "z")], "edge ('z', 'z') references unknown node 'z'"),
    ([("a", _P), ("b", _P)], [("a", "a"), ("a", "q")], "self-loop on node 'a'"),
    ([("a", _P), ("b", _P)], [("a", "q"), ("a", "a")], "edge ('a', 'q') references unknown node 'q'"),
    ([("a", _P), ("b", _P)], [("b", "a"), ("a", "a"), ("a", "b")], "self-loop on node 'a'"),
    ([("a", _P), ("b", _P)], [("a", "b"), ("b", "a")], "duplicate edge ('a', 'b')"),
    ([("a", _P), ("b", _P)], [("b", "a"), ("b", "a")], "duplicate edge ('a', 'b')"),
    ([("a", _P), ("b", _P), ("c", _P)], [("b", "a"), ("a", "b")], "duplicate edge ('a', 'b')"),
    ([("a", _P), ("b", _P)], [("a", "b"), ("a", "b"), ("b", "b")], "duplicate edge ('a', 'b')"),
    ([("a", _P), ("b", _P)], [], "graph is disconnected; unreachable from 'a': ['b']"),
    ([(f"n{i}", _P) for i in range(12)], [("n3", "n7"), ("n0", "n11")],
     "graph is disconnected; unreachable from 'n0': ['n1', 'n10', 'n2', 'n3', 'n4']"),
    ([("b", _P), ("a", _P), ("c", _P)], [("b", "c")],
     "graph is disconnected; unreachable from 'a': ['b', 'c']"),
    ([(f"n{i}", _P) for i in range(11, -1, -1)], [("n10", "n2"), ("n1", "n10"), ("n5", "n6")],
     "graph is disconnected; unreachable from 'n0': ['n1', 'n10', 'n11', 'n2', 'n3']"),
    ([(x, _P) for x in "edcba"], [("a", "c"), ("e", "c"), ("d", "b")],
     "graph is disconnected; unreachable from 'a': ['b', 'd']"),
]


@pytest.mark.parametrize("nodes, edges, message", INVALID_TOPOLOGIES)
def test_invalid_topology_messages(nodes, edges, message):
    with pytest.raises(TopologyError) as exc:
        build_topology(nodes, edges)
    assert str(exc.value) == message
