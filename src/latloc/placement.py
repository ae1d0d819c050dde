"""Landmark placement on a topology.

The optimization criterion is lexicographic: first minimize the maximum hop
distance from any node to its closest landmark, then the mean hop distance
over all nodes. Placement runs in three stages: an orientation mark (graph
1-center) seeds a farthest-point initialization, which an iterative
neighbor-move refinement then improves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import PlacementError
from .topology import HopMatrix, Topology, assign_to_closest, hop_distances

# Objective comparisons use (max_hop, total_hops) so ties in the mean are
# exact integer comparisons, never float ones.
ObjectiveKey = tuple[int, int]


@dataclass(frozen=True)
class LandmarkSet:
    """A chosen set of landmarks with its node assignment and objective."""

    landmarks: tuple[str, ...]
    assignment: dict[str, str]
    max_hop: int
    mean_hop: float

    def to_json(self) -> str:
        doc = {
            "landmarks": list(self.landmarks),
            "assignment": self.assignment,
            "objective": {"max_hop": self.max_hop, "mean_hop": self.mean_hop},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def landmark_set_from_json(data: str) -> LandmarkSet:
    doc = json.loads(data)
    return LandmarkSet(
        landmarks=tuple(doc["landmarks"]),
        assignment=dict(doc["assignment"]),
        max_hop=int(doc["objective"]["max_hop"]),
        mean_hop=float(doc["objective"]["mean_hop"]),
    )


def objective_key(t: Topology, landmarks: list[str] | tuple[str, ...],
                  hops: HopMatrix | None = None) -> ObjectiveKey:
    """(max hop, total hops) over all nodes to their closest landmark."""
    if hops is None:
        hops = hop_distances(t, landmarks)
    max_hop = 0
    total = 0
    for node in t.node_ids:
        d = min(hops[lm][node] for lm in landmarks)
        if d > max_hop:
            max_hop = d
        total += d
    return (max_hop, total)


def _make_set(t: Topology, landmarks: list[str], hops: HopMatrix) -> LandmarkSet:
    key = objective_key(t, landmarks, hops)
    return LandmarkSet(
        landmarks=tuple(landmarks),
        assignment=assign_to_closest(t, landmarks, hops),
        max_hop=key[0],
        mean_hop=key[1] / len(t.positions),
    )


def place_orientation_mark(t: Topology, hops: HopMatrix | None = None) -> str:
    """The graph 1-center under hop distance.

    Ties break by smaller total hops, then smaller node id.
    """
    if hops is None:
        hops = hop_distances(t, t.node_ids)
    best = None
    best_key = None
    for node in t.node_ids:
        row = hops[node]
        key = (max(row.values()), sum(row.values()), node)
        if best_key is None or key < best_key:
            best_key = key
            best = node
    return best


def two_approx(t: Topology, k: int, seed_node: str,
               hops: HopMatrix | None = None) -> LandmarkSet:
    """Farthest-point (Gonzalez) initialization.

    The first landmark is the node farthest from seed_node; each further
    landmark is the node farthest from its closest already-placed landmark.
    The seed itself only orients the first pick and is not a landmark
    (though it may still be selected on its own merit). All ties break
    toward the smaller node id.
    """
    n = len(t.positions)
    if not 1 <= k <= n:
        raise PlacementError(f"k={k} outside [1, {n}]")
    if hops is None:
        hops = hop_distances(t, t.node_ids)
    if seed_node not in t.positions:
        raise PlacementError(f"unknown seed node {seed_node!r}")

    closest = dict(hops[seed_node])
    landmarks: list[str] = []
    for _ in range(k):
        # max() keeps the first winner on ties, and node_ids is ascending,
        # so the smallest id among the farthest nodes wins.
        pick = max(t.node_ids, key=lambda node: closest[node])
        landmarks.append(pick)
        for node in t.node_ids:
            d = hops[pick][node]
            if d < closest[node]:
                closest[node] = d
    return _make_set(t, landmarks, hops)


def refine(t: Topology, ls: LandmarkSet, hops: HopMatrix | None = None,
           move_log: list | None = None) -> LandmarkSet:
    """Iterative neighbor-move improvement of a landmark set.

    Each iteration reassigns nodes to their closest landmark, then visits
    landmarks in list order; a landmark tries its graph neighbors in
    ascending id order and takes the first move that strictly improves the
    lexicographic (max hop, mean hop) objective. A landmark moves at most
    once per iteration and never onto another landmark's node. Iteration
    stops when a full pass makes no move.

    move_log, when given, receives (before_key, after_key) tuples for every
    accepted move.
    """
    if hops is None:
        hops = hop_distances(t, t.node_ids)
    landmarks = list(ls.landmarks)
    current_key = objective_key(t, landmarks, hops)

    while True:
        moved = False
        for i in range(len(landmarks)):
            occupied = set(landmarks)
            for candidate in t.neighbors(landmarks[i]):
                if candidate in occupied:
                    continue
                trial = landmarks.copy()
                trial[i] = candidate
                trial_key = objective_key(t, trial, hops)
                if trial_key < current_key:
                    if move_log is not None:
                        move_log.append((current_key, trial_key))
                    landmarks = trial
                    current_key = trial_key
                    moved = True
                    break
        if not moved:
            break
    return _make_set(t, landmarks, hops)


def dragoon_place(t: Topology, k: int, hops: HopMatrix | None = None,
                  move_log: list | None = None) -> LandmarkSet:
    """Full placement pipeline: orientation mark, farthest-point init, refinement."""
    if hops is None:
        hops = hop_distances(t, t.node_ids)
    mark = place_orientation_mark(t, hops)
    initial = two_approx(t, k, mark, hops)
    return refine(t, initial, hops, move_log=move_log)


PLACEMENT_ALGORITHMS = ("dragoon", "two_approx")


def place_landmarks(t: Topology, k: int, algorithm: str) -> LandmarkSet:
    """Place k landmarks with the full dragoon pipeline, or with the
    farthest-point initialization alone (two_approx, seeded by the
    orientation mark)."""
    if algorithm == "dragoon":
        return dragoon_place(t, k)
    if algorithm == "two_approx":
        hops = hop_distances(t, t.node_ids)
        return two_approx(t, k, place_orientation_mark(t, hops), hops)
    raise PlacementError(
        f"unknown placement algorithm {algorithm!r}; choose from {PLACEMENT_ALGORITHMS}"
    )
