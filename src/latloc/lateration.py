"""Pairwise multilateration: distance estimates become geodesic circles, and
every circle pair contributes candidate target points according to how the
two circles intersect (gap midpoint, forced tangency, tangent point, or both
crossing points)."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import combinations

from .errors import DegenerateCirclesError, LaterationError
from .geodesy import (
    EARTH_RADIUS_M,
    Contained,
    GeoCircle,
    GeoPoint,
    NonOverlapping,
    PairIntersection,
    Tangent,
    circle_intersections,
    classified_pair,
    destination_point,
    initial_bearing,
    orthodromic_distance,
)
from .latency import DEFAULT_PER_HOP_MS, LatencyModel, Measurement, effective_latency, predict_distance

log = logging.getLogger(__name__)

# Non-overlapping pairs whose perimeter gap exceeds this are dropped: a gap
# that large means at least one radius is badly wrong.
DEFAULT_GAP_MAX_KM = 1000.0


@dataclass(frozen=True)
class CandidatePoint:
    """One candidate target location contributed by a landmark pair."""

    point: GeoPoint
    source_pair: tuple[str, str]
    case_tag: str  # midpoint_gap | contained_tangent | tangent | pair_branch


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


def pair_candidates(id1: str, c1: GeoCircle, id2: str, c2: GeoCircle,
                    gap_max_km: float = DEFAULT_GAP_MAX_KM) -> list[CandidatePoint]:
    """Candidate points from one circle pair, by intersection case."""
    pair = (id1, id2) if id1 <= id2 else (id2, id1)
    result = circle_intersections(c1, c2)

    if isinstance(result, NonOverlapping):
        if result.gap_m > gap_max_km * 1000.0:
            return []
        # Midpoint of the gap between the two perimeters, on the center
        # geodesic of the circles classified: past the wrap bound, the
        # antipodal ones.
        c1, c2, _ = classified_pair(c1, c2)
        bearing = initial_bearing(c1.center, c2.center)
        point = destination_point(c1.center, bearing, c1.radius_m + result.gap_m / 2.0)
        return [CandidatePoint(point=point, source_pair=pair, case_tag="midpoint_gap")]

    if isinstance(result, Contained):
        # Shrink the larger circle to internal tangency; the tangent point sits
        # beyond the smaller circle's center at its radius.
        if result.inner == 1:
            outer, inner = c2, c1
        else:
            outer, inner = c1, c2
        d = orthodromic_distance(outer.center, inner.center)
        bearing = initial_bearing(outer.center, inner.center)
        point = destination_point(outer.center, bearing, d + inner.radius_m)
        return [CandidatePoint(point=point, source_pair=pair, case_tag="contained_tangent")]

    if isinstance(result, Tangent):
        return [CandidatePoint(point=result.point, source_pair=pair, case_tag="tangent")]

    assert isinstance(result, PairIntersection)
    return [
        CandidatePoint(point=result.p1, source_pair=pair, case_tag="pair_branch"),
        CandidatePoint(point=result.p2, source_pair=pair, case_tag="pair_branch"),
    ]


def all_candidates(circles: list[LandmarkCircle],
                   gap_max_km: float = DEFAULT_GAP_MAX_KM) -> list[CandidatePoint]:
    """Candidates from every unordered circle pair, in deterministic order
    (pair ids ascending; within a crossing pair, northern point first).

    Degenerate pairs (circles equal within the intersection tolerance) are
    skipped with a log message instead of failing the whole cloud.
    """
    if not math.isfinite(gap_max_km):
        raise ValueError(f"gap_max_km must be finite, got {gap_max_km!r}")
    if len(circles) < 2:
        raise LaterationError(f"need at least 2 circles, got {len(circles)}")
    ordered = sorted(circles, key=lambda lc: lc.landmark_id)
    candidates: list[CandidatePoint] = []
    for lc1, lc2 in combinations(ordered, 2):
        try:
            candidates.extend(
                pair_candidates(lc1.landmark_id, lc1.circle, lc2.landmark_id, lc2.circle,
                                gap_max_km=gap_max_km)
            )
        except DegenerateCirclesError as exc:
            log.warning("skipping pair (%s, %s): %s", lc1.landmark_id, lc2.landmark_id, exc)
    return candidates
