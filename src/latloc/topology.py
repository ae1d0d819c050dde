"""Network topology: loading, validation, and hop-count queries.

A topology is an undirected, connected, simple graph whose nodes carry
geographic coordinates. Hop counts (unweighted shortest paths) are the
distance metric used by landmark placement.

A Topology builds its array form once, at construction: the sorted node
ids, a CSR adjacency over them as two numpy index arrays, and the node
positions in id order. One search answers every hop-count query: a
level-synchronous breadth-first sweep of up to 64 sources at once, one
reached bit per source in a uint64 per node (Then et al., "The More the
Merrier: Efficient Multi-Source Graph Traversal", PVLDB 2014). A level
pushes the frontier's bits along its edges while they are few and pulls
every node's neighbours' bits otherwise (Beamer et al., "Direction-Optimizing
Breadth-First Search", SC 2012). Its rows serve hop_rows (cached) and the
1-center scan; build_topology checks connectivity with one sweep from the
first node. A BFS tree (cached), which needs parents and path lengths as
well as hop counts, is one FIFO search of its own from its root.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import TopologyError
from .geodesy import GeoPoint, orthodromic_distance

# One search carries this many sources, a reached bit each in a uint64.
SWEEP_WIDTH = 64
# A level pushes while its frontier's edges are under 1/PUSH_SHARE of all edges.
PUSH_SHARE = 8
_SOURCE_BITS = np.left_shift(np.uint64(1), np.arange(SWEEP_WIDTH, dtype=np.uint64))


def _bit_rows(words: np.ndarray, width: int) -> np.ndarray:
    """A (width, len(words)) 0/1 array: row b holds bit b of each word,
    read as a little-endian uint64."""
    octets = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, bitorder="little")[:, :width].T


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
    smallest id. `indptr` and `indices` are the CSR adjacency over those
    indices: node i's neighbours are indices[indptr[i]:indptr[i + 1]], in
    ascending order. The adjacency must be symmetric, as build_topology
    makes it. A search never changes once run, so each source's hop row,
    and each BFS tree, is made once and cached. The array form is plain
    attributes, not dataclass fields, so == compares positions and
    adjacency only.
    """

    positions: dict[str, GeoPoint]
    adjacency: dict[str, tuple[str, ...]] = field(repr=False)

    def __post_init__(self):
        ids = tuple(sorted(self.positions))
        index = {nid: i for i, nid in enumerate(ids)}
        indices = np.array([index[v] for nid in ids for v in self.adjacency[nid]], dtype=np.intp)
        indptr = np.cumsum([0] + [len(self.adjacency[nid]) for nid in ids], dtype=np.intp)
        # Frozen: write the derived attributes past the dataclass __setattr__.
        self.__dict__.update(ids=ids, indptr=indptr, indices=indices, _index=index,
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

    def _sweep(self, sources: list[int]) -> np.ndarray:
        """The int32 hop rows (-1 where unreachable) of up to SWEEP_WIDTH
        distinct sources, from one level-synchronous search of them all.

        Each node holds one reached bit per source in a uint64 (bit b for
        sources[b]). A level pushes the frontier's bits along its own edges
        while those are under 1/PUSH_SHARE of all edges, and otherwise
        pulls every node's neighbours' bits in one reduceat over all edges.
        The hop counts are kept bit-sliced, a uint64 per node per bit of the
        level number: level L ORs the bits it newly reaches into the planes
        of L's set bits, and the rows are unpacked from them once, at the end.
        """
        n, indptr, indices = len(self.ids), self.indptr, self.indices
        width = len(sources)
        degree = np.diff(indptr)
        # Pull reads through a zero sentinel at index n, so a trailing node
        # with no edge starts its segment in bounds; any node with no edge
        # gets reduceat's lone element, masked to 0.
        gather = np.append(indices, n)
        isolated = np.flatnonzero(degree == 0)
        reached = np.zeros(n, dtype=np.uint64)
        reached[sources] = _SOURCE_BITS[:width]
        frontier, nodes = reached.copy(), np.asarray(sources, dtype=np.intp)
        planes: list[np.ndarray] = []  # bit b of planes[k][v]: bit k of hops[b][v]
        level = 0
        while nodes.size:
            level += 1
            out = degree[nodes]
            pushed = int(out.sum())
            if pushed * PUSH_SHARE < len(indices):
                first = np.repeat(indptr[nodes] - np.cumsum(out) + out, out)
                nxt = np.zeros(n, dtype=np.uint64)
                np.bitwise_or.at(nxt, indices[first + np.arange(pushed)],
                                 np.repeat(frontier[nodes], out))
            else:
                nxt = np.bitwise_or.reduceat(np.append(frontier, np.uint64(0))[gather], indptr[:-1])
                nxt[isolated] = 0
            frontier = nxt & ~reached
            reached |= frontier
            nodes = np.flatnonzero(frontier)
            if level.bit_length() > len(planes):
                planes.append(np.zeros(n, dtype=np.uint64))
            for k, plane in enumerate(planes):
                if level >> k & 1:
                    plane |= frontier
        hops = _bit_rows(reached, width).astype(np.int32) - 1
        for k, plane in enumerate(planes):
            hops += _bit_rows(plane, width).astype(np.int32) << k
        return hops

    def _reached(self, sources: list[int], rows: np.ndarray) -> np.ndarray:
        """The hop rows of sources, each of which must reach every node."""
        unreached = rows < 0
        if unreached.any():
            at = int(unreached.any(axis=1).argmax())
            missing = [self.ids[j] for j in np.flatnonzero(unreached[at])[:5].tolist()]
            raise TopologyError(f"graph is disconnected; unreachable from "
                                f"{self.ids[sources[at]]!r}: {missing}")
        return rows

    def hop_rows(self, sources: list[int]) -> np.ndarray:
        """A (len(sources), n) array of hop rows, one cached read-only row
        per source; the uncached sources are searched SWEEP_WIDTH at a time."""
        missing = list(dict.fromkeys(i for i in sources if i not in self._rows))
        for at in range(0, len(missing), SWEEP_WIDTH):
            batch = missing[at:at + SWEEP_WIDTH]
            rows = self._reached(batch, self._sweep(batch))
            rows.setflags(write=False)
            self._rows.update(zip(batch, rows))
        rows = [self._rows[i] for i in sources]
        return np.array(rows, dtype=np.int32).reshape(-1, len(self.ids))

    def eccentricities(self) -> tuple[np.ndarray, np.ndarray]:
        """Each node's largest and total hop count to all nodes, scanning
        every node in uncached sweeps of SWEEP_WIDTH sources."""
        n = len(self.ids)
        ecc, total = np.empty((2, n), dtype=np.int64)
        for at in range(0, n, SWEEP_WIDTH):
            batch = list(range(at, min(at + SWEEP_WIDTH, n)))
            rows = self._reached(batch, self._sweep(batch))
            ecc[at:at + len(batch)] = rows.max(axis=1)
            total[at:at + len(batch)] = rows.sum(axis=1, dtype=np.int64)
        return ecc, total

    def tree(self, i: int) -> BfsTree:
        """The BFS tree rooted at node i, cached: one FIFO search over
        ascending neighbour ids, in which each node's first visitor is its
        parent and its hop count is one more than the parent's."""
        tree = self._trees.get(i)
        if tree is None:
            n = len(self.ids)
            parent, hops, km = [-1] * n, [-1] * n, [0.0] * n
            hops[i] = 0
            points, indptr, indices = self._points, self.indptr.tolist(), self.indices.tolist()
            order = [i]
            for u in order:
                for v in indices[indptr[u]:indptr[u + 1]]:
                    if hops[v] < 0:
                        parent[v], hops[v] = u, hops[u] + 1
                        km[v] = km[u] + orthodromic_distance(points[u], points[v]) / 1000.0
                        order.append(v)
            tree = self._trees[i] = BfsTree(parent, hops, km)
        return tree


def build_topology(nodes: Iterable[tuple[str, GeoPoint]],
                   edges: Iterable[tuple[str, str]]) -> Topology:
    """Validate raw nodes/edges and construct a Topology.

    Rejects duplicate node ids, an empty node list, self-loops, duplicate
    edges, edges with unknown endpoints, and disconnected graphs.
    """
    positions: dict[str, GeoPoint] = {}
    for node_id, point in nodes:
        if node_id in positions:
            raise TopologyError(f"duplicate node id {node_id!r}")
        positions[node_id] = point
    if not positions:
        raise TopologyError("topology has no nodes")

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
    topo._reached([0], topo._sweep([0]))
    return topo


def load_topology_json(data: str) -> Topology:
    """Load the JSON topology format:
    {"nodes": [{"id": ..., "lat": ..., "lon": ...}], "edges": [[u, v], ...]}
    """
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
    nodes = []
    for i, entry in enumerate(doc["nodes"]):
        try:
            nodes.append((str(entry["id"]), GeoPoint(float(entry["lat"]), float(entry["lon"]))))
        except (KeyError, TypeError, ValueError) as exc:
            raise TopologyError(f"invalid node entry #{i}: {exc}") from exc
    edges = []
    for i, entry in enumerate(doc["edges"]):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise TopologyError(f"invalid edge entry #{i}: expected [u, v]")
        edges.append((str(entry[0]), str(entry[1])))
    return build_topology(nodes, edges)


def load_topology_edgelist(edge_text: str, node_text: str) -> Topology:
    """Load the edge-list format: one 'u v' pair per line, with a sidecar
    node file of 'id lat lon' lines. Blank lines and '#' comments allowed.
    """
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
