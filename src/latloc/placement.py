"""Landmark placement on a topology.

The optimization criterion is lexicographic: first minimize the maximum hop
distance from any node to its closest landmark, then the mean hop distance
over all nodes. Placement runs in three stages: an orientation mark (graph
1-center) seeds a farthest-point initialization, which an iterative
neighbor-move refinement then improves.

Every stage works on the topology's int hop rows (`Topology.hop_rows`,
indexed in sorted-id order, searched up to 64 sources per sweep), so ties
that the objective leaves open break toward the smallest node id, and only
the rows of landmarks, their neighbors and the seed are ever held; the
1-center scan sweeps every node, 64 at a time, without caching. Each
refinement pass searches all of its landmarks' neighbors' rows at its
start. A k outside [1, n] is rejected before the scan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import PlacementError
# hop_distances is unused here but stays importable: perfbench's tracer
# patches latloc.placement.hop_distances.
from .topology import Topology, assign_to_closest, hop_distances  # noqa: F401

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
    """Parse a landmark set file, naming a missing or malformed entry."""
    doc = json.loads(data)
    if not isinstance(doc, dict):
        raise ValueError(f"landmark set JSON must be an object, got {type(doc).__name__}")
    try:
        ls = LandmarkSet(
            landmarks=tuple(doc["landmarks"]),
            assignment=dict(doc["assignment"]),
            max_hop=int(doc["objective"]["max_hop"]),
            mean_hop=float(doc["objective"]["mean_hop"]),
        )
    except KeyError as exc:
        raise ValueError(f"landmark set JSON has no entry {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"landmark set JSON has a malformed entry: {exc}") from None
    for lm in ls.landmarks:
        if not isinstance(lm, str):
            raise ValueError(f"landmark set JSON has a non-string landmark {lm!r}")
    return ls


def _key(closest: np.ndarray) -> ObjectiveKey:
    return (int(closest.max()), int(closest.sum(dtype=np.int64)))


def objective_key(t: Topology, landmarks: list[str] | tuple[str, ...]) -> ObjectiveKey:
    """(max hop, total hops) over all nodes to their closest landmark."""
    return _key(t.hop_rows([t.index_of(lm) for lm in landmarks]).min(axis=0))


def _make_set(t: Topology, landmarks: list[str]) -> LandmarkSet:
    key = objective_key(t, landmarks)
    return LandmarkSet(
        landmarks=tuple(landmarks),
        assignment=assign_to_closest(t, landmarks),
        max_hop=key[0],
        mean_hop=key[1] / len(t.positions),
    )


def check_k(t: Topology, k: int) -> None:
    """Raise PlacementError unless 1 <= k <= the number of nodes."""
    n = len(t.positions)
    if not 1 <= k <= n:
        raise PlacementError(f"k={k} outside [1, {n}]")


def place_orientation_mark(t: Topology) -> str:
    """The graph 1-center under hop distance.

    Ties break by smaller total hops, then smaller node id.
    """
    ecc, total = t.eccentricities()
    # lexsort is stable, so among equal (ecc, total) the smallest index wins.
    return t.ids[int(np.lexsort((total, ecc))[0])]


def two_approx(t: Topology, k: int, seed_node: str) -> LandmarkSet:
    """Farthest-point (Gonzalez) initialization.

    The first landmark is the node farthest from seed_node; each further
    landmark is the node farthest from its closest already-placed landmark.
    The seed itself only orients the first pick and is not a landmark
    (though it may still be selected on its own merit). No node is picked
    twice, so k = n places a landmark on every node. All ties break toward
    the smaller node id.
    """
    check_k(t, k)
    if seed_node not in t.positions:
        raise PlacementError(f"unknown seed node {seed_node!r}")
    closest = t.hop_rows([t.index_of(seed_node)])[0]
    landmarks: list[str] = []
    for _ in range(k):
        # argmax keeps the first maximum, and index order is id order, so
        # the smallest id among the farthest nodes wins.
        pick = int(closest.argmax())
        landmarks.append(t.ids[pick])
        np.minimum(closest, t.hop_rows([pick])[0], out=closest)
        # Below every unpicked node's hops, so argmax never picks it again.
        closest[pick] = -1
    return _make_set(t, landmarks)


def refine(t: Topology, ls: LandmarkSet, *, move_log: list | None = None) -> LandmarkSet:
    """Iterative neighbor-move improvement of a landmark set.

    Each iteration reassigns nodes to their closest landmark, then visits
    landmarks in list order; a landmark tries its graph neighbors in
    ascending id order and takes the first move that strictly improves the
    lexicographic (max hop, mean hop) objective. A landmark moves at most
    once per iteration and never onto another landmark's node. Iteration
    stops when a full pass makes no move.

    move_log, when given, receives (before_key, after_key) tuples for every
    accepted move. It is keyword-only because perfbench's tracer supplies
    its own log by keyword.
    """
    landmarks = list(ls.landmarks)
    rows = t.hop_rows([t.index_of(lm) for lm in landmarks])
    current_key = _key(rows.min(axis=0))
    no_hop = np.iinfo(rows.dtype).max

    while True:
        moved = False
        # A landmark keeps its node until its own turn, so the rows this
        # pass can read are its landmarks' neighbours': search and cache
        # them all at once.
        t.hop_rows(sorted({t.index_of(c) for lm in landmarks for c in t.adjacency[lm]}))
        for i in range(len(landmarks)):
            occupied = set(landmarks)
            free = [c for c in t.adjacency[landmarks[i]] if c not in occupied]
            if not free:
                continue
            # Hops to the closest of the other landmarks, then every trial
            # move of landmark i at once: one row per free neighbor.
            others = np.delete(rows, i, axis=0).min(axis=0, initial=no_hop)
            trial_rows = t.hop_rows([t.index_of(c) for c in free])
            trials = np.minimum(others, trial_rows)
            max_hops = trials.max(axis=1)
            totals = trials.sum(axis=1, dtype=np.int64)
            better = (max_hops < current_key[0]) | (
                (max_hops == current_key[0]) & (totals < current_key[1]))
            if better.any():
                j = int(better.argmax())  # the first improving neighbor
                trial_key = (int(max_hops[j]), int(totals[j]))
                if move_log is not None:
                    move_log.append((current_key, trial_key))
                landmarks[i] = free[j]
                rows[i] = trial_rows[j]
                current_key = trial_key
                moved = True
        if not moved:
            break
    return _make_set(t, landmarks)


def dragoon_place(t: Topology, k: int) -> LandmarkSet:
    """Full placement pipeline: orientation mark, farthest-point init, refinement."""
    check_k(t, k)
    return refine(t, two_approx(t, k, place_orientation_mark(t)))


PLACEMENT_ALGORITHMS = ("dragoon", "two_approx")


def place_landmarks(t: Topology, k: int, algorithm: str) -> LandmarkSet:
    """Place k landmarks with the full dragoon pipeline, or with the
    farthest-point initialization alone (two_approx, seeded by the
    orientation mark)."""
    if algorithm == "dragoon":
        return dragoon_place(t, k)
    if algorithm == "two_approx":
        check_k(t, k)
        return two_approx(t, k, place_orientation_mark(t))
    raise PlacementError(
        f"unknown placement algorithm {algorithm!r}; choose from {PLACEMENT_ALGORITHMS}"
    )
