"""Network topology: loading, validation, and hop-count queries.

A topology is an undirected, connected, simple graph whose nodes carry
geographic coordinates. Hop counts (unweighted shortest paths) are the
distance metric used by landmark placement.

A Topology builds its array form once, at construction: the sorted node
ids, a CSR adjacency over them, and the node positions in id order. Every
graph query rests on one scipy csgraph breadth_first_order per source: its
hop row, read off the predecessors, serves hop rows (cached) and the
1-center scan, and its tree serves path queries (cached). build_topology
checks connectivity with the search from the first node.

load_positions_json and load_positions_edgelist read only the node
positions, with the node checks of the full loaders, for a caller that never
queries the graph. scipy.sparse is imported where a Topology is built or
searched, not with this module: it is most of the import time and memory of
a process, such as `latloc locate`, that builds no graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import TopologyError
from .geodesy import GeoPoint, orthodromic_distance

@dataclass(frozen=True)
class BfsTree:
    """Hop-shortest paths from one source, as a FIFO BFS over ascending
    neighbour ids finds them. Per node index: the BFS parent (-1 at the
    source), the hop count (-1 where the source cannot reach), and the
    great-circle length in km of the tree path, summed edge by edge from the
    source outward."""

    parent: list[int]
    hops: list[int]
    km: list[float]

    def path_to(self, j: int) -> list[int]:
        path = [j]
        while self.parent[path[-1]] >= 0:
            path.append(self.parent[path[-1]])
        return path[::-1]


@dataclass(frozen=True)
class Topology:
    """Immutable graph: node positions plus sorted adjacency lists.

    Node i is the i-th id in sorted order (`ids`), so index order is id
    order and first-wins argmin/argmax/lexsort break ties toward the
    smallest id. `csr` is the adjacency over those indices. A search never
    changes once run, so each source's hop row, and each BFS tree, is made
    once and cached. The array form is plain attributes, not dataclass
    fields, so == compares positions and adjacency only.
    """

    positions: dict[str, GeoPoint]
    adjacency: dict[str, tuple[str, ...]] = field(repr=False)

    def __post_init__(self):
        from scipy.sparse import csr_array

        ids = tuple(sorted(self.positions))
        index = {nid: i for i, nid in enumerate(ids)}
        indices = [index[v] for nid in ids for v in self.adjacency[nid]]
        indptr = np.cumsum([0] + [len(self.adjacency[nid]) for nid in ids], dtype=np.int32)
        csr = csr_array((np.ones(len(indices)), np.array(indices, dtype=np.int32), indptr),
                        shape=(len(ids), len(ids)))
        # Frozen: write the derived attributes past the dataclass __setattr__.
        self.__dict__.update(ids=ids, csr=csr, _index=index,
                             _points=[self.positions[nid] for nid in ids],
                             _rows={}, _trees={})

    @property
    def node_ids(self) -> list[str]:
        return list(self.ids)

    def index_of(self, node_id: str) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise TopologyError(f"unknown node {node_id!r}") from None

    def _search(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One BFS from node i: the visit order, the predecessors (negative
        at i and wherever i cannot reach), and the int32 hop row (-1 where i
        cannot reach)."""
        from scipy.sparse import csgraph

        order, pred = csgraph.breadth_first_order(self.csr, i, directed=True,
                                                  return_predecessors=True)
        unreached = pred < 0
        # Pointer jumping: hops[v] counts the edges from v up to up[v], and each
        # pass doubles the jump. The order ends at a deepest node: once its
        # pointer reaches i, so has every other. Unreached nodes point at i.
        up = np.where(unreached, i, pred)
        hops = (~unreached).astype(np.int32)
        while up[order[-1]] != i:
            hops += hops[up]
            up = up[up]
        hops[unreached] = -1
        hops[i] = 0
        hops.setflags(write=False)
        return order, pred, hops

    def _hop_row(self, i: int) -> np.ndarray:
        """Node i's hop row, which must reach every node, cached read-only.
        The search's visit order and predecessors, which only tree() reads,
        are not kept: they would triple the cache."""
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = self._reached(i, self._search(i))
        return row

    def _reached(self, i: int, search: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        """The hop row of node i's search, which must reach every node."""
        order, _, hops = search
        if len(order) < len(self.ids):
            missing = [self.ids[j] for j in np.flatnonzero(hops < 0)[:5].tolist()]
            raise TopologyError(f"graph is disconnected; unreachable from "
                                f"{self.ids[i]!r}: {missing}")
        return hops

    def hop_rows(self, sources: list[int]) -> np.ndarray:
        """A (len(sources), n) array of hop rows, one cached row per source."""
        rows = [self._hop_row(i) for i in sources]
        return np.array(rows, dtype=np.int32).reshape(-1, len(self.ids))

    def eccentricities(self) -> tuple[np.ndarray, np.ndarray]:
        """Each node's largest and total hop count to all nodes, from one
        uncached search per node."""
        ecc, total = np.empty((2, len(self.ids)), dtype=np.int64)
        for i in range(len(self.ids)):
            row = self._reached(i, self._search(i))
            ecc[i], total[i] = row.max(), row.sum(dtype=np.int64)
        return ecc, total

    def tree(self, i: int) -> BfsTree:
        """The BFS tree rooted at node i, from a search of its own; the tree
        is cached."""
        tree = self._trees.get(i)
        if tree is None:
            order, pred, hops = self._search(i)
            parent = np.maximum(pred, -1).tolist()
            km = [0.0] * len(parent)
            points = self._points
            for v in order[1:].tolist():
                u = parent[v]
                km[v] = km[u] + orthodromic_distance(points[u], points[v]) / 1000.0
            tree = self._trees[i] = BfsTree(parent, hops.tolist(), km)
        return tree


def build_topology(nodes: Iterable[tuple[str, GeoPoint]],
                   edges: Iterable[tuple[str, str]]) -> Topology:
    """Validate raw nodes/edges and construct a Topology.

    Rejects duplicate node ids, self-loops, duplicate edges, edges with
    unknown endpoints, and disconnected graphs.
    """
    positions = _positions(nodes)

    adjacency: dict[str, set[str]] = {nid: set() for nid in positions}
    for u, v in edges:
        for endpoint in (u, v):
            if endpoint not in positions:
                raise TopologyError(f"edge ({u!r}, {v!r}) references unknown node {endpoint!r}")
        if u == v:
            raise TopologyError(f"self-loop on node {u!r}")
        if v in adjacency[u]:
            a, b = (u, v) if u < v else (v, u)
            raise TopologyError(f"duplicate edge ({a!r}, {b!r})")
        adjacency[u].add(v)
        adjacency[v].add(u)

    ids = sorted(positions)
    topo = Topology(
        positions={nid: positions[nid] for nid in ids},
        adjacency={nid: tuple(sorted(adjacency[nid])) for nid in ids},
    )
    topo._reached(0, topo._search(0))
    return topo


def _positions(nodes: Iterable[tuple[str, GeoPoint]]) -> dict[str, GeoPoint]:
    """Node positions by id, rejecting duplicate ids and an empty node list."""
    positions: dict[str, GeoPoint] = {}
    for node_id, point in nodes:
        if node_id in positions:
            raise TopologyError(f"duplicate node id {node_id!r}")
        positions[node_id] = point
    if not positions:
        raise TopologyError("topology has no nodes")
    return positions


def _json_document(data: bytes | str) -> tuple[list, list]:
    """The node and edge lists of a JSON topology, checked for shape only."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise TopologyError(f"topology JSON parse error: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise TopologyError("topology JSON must contain 'nodes' and 'edges'")
    for key in ("nodes", "edges"):
        if not isinstance(doc[key], list):
            raise TopologyError(f"topology JSON {key!r} must be a list, "
                                f"got {type(doc[key]).__name__}")
    return doc["nodes"], doc["edges"]


def _json_nodes(entries: list) -> list[tuple[str, GeoPoint]]:
    nodes = []
    for i, entry in enumerate(entries):
        try:
            nodes.append((str(entry["id"]), GeoPoint(float(entry["lat"]), float(entry["lon"]))))
        except (KeyError, TypeError, ValueError) as exc:
            raise TopologyError(f"invalid node entry #{i}: {exc}") from exc
    return nodes


def _sidecar_nodes(node_text: str) -> list[tuple[str, GeoPoint]]:
    nodes = []
    for lineno, line in enumerate(node_text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise TopologyError(f"node file line {lineno}: expected 'id lat lon'")
        try:
            nodes.append((parts[0], GeoPoint(float(parts[1]), float(parts[2]))))
        except ValueError as exc:
            raise TopologyError(f"node file line {lineno}: {exc}") from exc
    return nodes


def load_topology_json(data: bytes | str) -> Topology:
    """Load the JSON topology format:
    {"nodes": [{"id": ..., "lat": ..., "lon": ...}], "edges": [[u, v], ...]}
    """
    node_entries, edge_entries = _json_document(data)
    nodes = _json_nodes(node_entries)
    edges = []
    for i, entry in enumerate(edge_entries):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise TopologyError(f"invalid edge entry #{i}: expected [u, v]")
        edges.append((str(entry[0]), str(entry[1])))
    return build_topology(nodes, edges)


def load_topology_edgelist(edge_text: str, node_text: str) -> Topology:
    """Load the edge-list format: one 'u v' pair per line, with a sidecar
    node file of 'id lat lon' lines. Blank lines and '#' comments allowed.
    """
    nodes = _sidecar_nodes(node_text)
    edges = []
    for lineno, line in enumerate(edge_text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TopologyError(f"edge file line {lineno}: expected 'u v'")
        edges.append((parts[0], parts[1]))
    return build_topology(nodes, edges)


def load_positions_json(data: bytes | str) -> dict[str, GeoPoint]:
    """The node positions of a JSON topology, without its graph.

    The document shape and the node entries are checked as
    load_topology_json checks them, with the same messages, and so are
    duplicate ids and an empty node list. The edge entries are not read:
    no Topology is built, so nothing checks that the graph is simple and
    connected.
    """
    return _positions(_json_nodes(_json_document(data)[0]))


def load_positions_edgelist(node_text: str) -> dict[str, GeoPoint]:
    """The node positions of an edge-list topology, read from its sidecar
    node file only, checked as load_topology_edgelist checks them."""
    return _positions(_sidecar_nodes(node_text))


def topology_to_json(t: Topology) -> str:
    doc = {
        "nodes": [
            {"id": nid, "lat": p.lat, "lon": p.lon} for nid, p in t.positions.items()
        ],
        "edges": sorted(
            [sorted((u, v)) for u in t.adjacency for v in t.adjacency[u] if u < v]
        ),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def hop_distances(t: Topology, sources: Iterable[str]) -> dict[str, dict[str, int]]:
    """Hop counts from each source to every node, as nested dicts (a view
    of the cached hop rows)."""
    indices = [t.index_of(src) for src in sources]
    return {t.ids[i]: dict(zip(t.ids, row.tolist()))
            for i, row in zip(indices, t.hop_rows(indices))}


def assign_to_closest(t: Topology, landmarks: Iterable[str]) -> dict[str, str]:
    """Map every node to its closest landmark by hop count.

    Ties break toward the lexicographically smallest landmark id.
    """
    landmark_ids = sorted(set(landmarks))
    if not landmark_ids:
        raise TopologyError("landmark set is empty")
    # Rows in ascending id order, so argmin's first-wins picks the smallest id.
    closest = t.hop_rows([t.index_of(lm) for lm in landmark_ids]).argmin(axis=0)
    return {node: landmark_ids[j] for node, j in zip(t.ids, closest.tolist())}
