"""Pairwise multilateration: distance estimates become geodesic circles, and
every circle pair contributes candidate target points according to how the
two circles intersect (gap midpoint, forced tangency, tangent point, or both
crossing points).

all_candidates solves every pair of a target's circles in one call to
geodesy.solve_circle_pairs, a fixed sequence of array calls on unit vectors
(each circle the plane a·x = cos(r/R) about its center's vector a), and
returns the candidates as columns (Candidates), with the unit vectors the
solver computed them as, from which estimation builds its cloud."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import LaterationError
from .geodesy import (  # noqa: F401  (circle_intersections: a name perfbench's tracer wraps)
    CONTAINED,
    CROSSING,
    DEGENERATE,
    DEGENERATE_MESSAGE,
    EARTH_RADIUS_M,
    NON_OVERLAPPING,
    TANGENT,
    GeoCircle,
    GeoPoint,
    circle_intersections,
    solve_circle_pairs,
)
from .latency import DEFAULT_PER_HOP_MS, LatencyModel, Measurement, effective_latency, predict_distance

log = logging.getLogger(__name__)

# Non-overlapping pairs whose perimeter gap exceeds this are dropped: a gap
# that large means at least one radius is badly wrong.
DEFAULT_GAP_MAX_KM = 1000.0

# The candidate tag of each case that yields points.
CASE_TAGS = {NON_OVERLAPPING: "midpoint_gap", CONTAINED: "contained_tangent",
             TANGENT: "tangent", CROSSING: "pair_branch"}


@dataclass(frozen=True)
class CandidatePoint:
    """One candidate target location contributed by a landmark pair."""

    point: GeoPoint
    source_pair: tuple[str, str]
    case_tag: str  # midpoint_gap | contained_tangent | tangent | pair_branch


@dataclass(frozen=True)
class Candidates:
    """Candidates as equal-length columns; item k is read as a CandidatePoint.
    xyz holds the points' unit vectors as the solver computed them, as x, y
    and z rows: the cloud estimation builds starts from them."""

    lat: tuple[float, ...]
    lon: tuple[float, ...]
    source_pair: tuple[tuple[str, str], ...]
    case_tag: tuple[str, ...]
    xyz: np.ndarray = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.lat)

    def __getitem__(self, k: int) -> CandidatePoint:
        return CandidatePoint(GeoPoint(self.lat[k], self.lon[k]), self.source_pair[k], self.case_tag[k])


@dataclass(frozen=True)
class LandmarkCircle:
    """A geodesic circle labelled with the landmark that produced it."""

    landmark_id: str
    circle: GeoCircle


def build_circle(landmark: GeoPoint, model: LatencyModel, measurement: Measurement,
                 per_hop_ms: float = DEFAULT_PER_HOP_MS) -> GeoCircle:
    """Circle centered at the landmark with the model-predicted radius."""
    latency = effective_latency(measurement, per_hop_ms)
    radius_m = predict_distance(model, latency.value_ms) * 1000.0
    radius_m = min(radius_m, math.pi * EARTH_RADIUS_M)
    return GeoCircle(center=landmark, radius_m=radius_m)


def all_candidates(circles: list[LandmarkCircle],
                   gap_max_km: float = DEFAULT_GAP_MAX_KM) -> Candidates:
    """Candidates from every unordered circle pair, in deterministic order
    (pair ids ascending; within a crossing pair, northern point first).

    Degenerate pairs (circles equal within the intersection tolerance) are
    skipped with a log message instead of failing the whole cloud. The
    solver pairs circles by position, so each landmark may have one circle
    only.
    """
    if not math.isfinite(gap_max_km):
        raise ValueError(f"gap_max_km must be finite, got {gap_max_km!r}")
    if len(circles) < 2:
        raise LaterationError(f"need at least 2 circles, got {len(circles)}")
    ordered = sorted(circles, key=lambda lc: lc.landmark_id)
    ids = [lc.landmark_id for lc in ordered]
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise LaterationError(f"landmark {a!r} has more than one circle")
    centers = [lc.circle.center for lc in ordered]
    solved = solve_circle_pairs([c.lat for c in centers], [c.lon for c in centers],
                                [lc.circle.radius_m for lc in ordered], gap_max_km * 1000.0)
    pairs = list(combinations(ids, 2))
    for pair, case in zip(pairs, solved.case):
        if case == DEGENERATE:
            log.warning("skipping pair (%s, %s): %s", *pair, DEGENERATE_MESSAGE)
    at = solved.pair_of_point
    tags = [CASE_TAGS.get(case) for case in solved.case]
    return Candidates(tuple(solved.lat), tuple(solved.lon), tuple(map(pairs.__getitem__, at)),
                      tuple(map(tags.__getitem__, at)), solved.xyz)
