"""The scalar circle-pair code that latloc.geodesy.solve_circle_pairs
replaced, kept as the tests' reference: one pair at a time, in Python
floats and the math module.

The solver must reproduce these results bit for bit: same cases, same
candidate points, same order, same skipped pairs and warnings.
"""

from __future__ import annotations

import logging
import math
from itertools import combinations

from latloc.errors import DegenerateCirclesError, LaterationError
from latloc.geodesy import (
    EARTH_RADIUS_M,
    INTERSECTION_TOLERANCE_M,
    POLE_COS,
    Contained,
    GeoCircle,
    GeoPoint,
    NonOverlapping,
    PairIntersection,
    Tangent,
    orthodromic_distance,
)
from latloc.lateration import DEFAULT_GAP_MAX_KM, CandidatePoint, LandmarkCircle

log = logging.getLogger("scalar_pairs")


def initial_bearing(a: GeoPoint, b: GeoPoint) -> float:
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dlon = math.radians(b.lon - a.lon)
    x = math.sin(dlon) * math.cos(phi2)
    y = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlon)
    return math.degrees(math.atan2(x, y)) % 360.0


def destination_point(origin: GeoPoint, bearing_deg: float, distance_m: float) -> GeoPoint:
    if distance_m < 0 or distance_m > math.pi * EARTH_RADIUS_M + 1e-6:
        raise ValueError(f"distance {distance_m} outside [0, pi*R]")
    sigma = distance_m / EARTH_RADIUS_M
    theta = math.radians(bearing_deg)
    phi1 = math.radians(origin.lat)
    lam1 = math.radians(origin.lon)
    sin_phi2 = math.sin(phi1) * math.cos(sigma) + math.cos(phi1) * math.sin(sigma) * math.cos(theta)
    sin_phi2 = max(-1.0, min(1.0, sin_phi2))
    phi2 = math.asin(sin_phi2)
    cos_phi1 = math.cos(phi1)
    y = math.sin(theta) * math.sin(sigma) * cos_phi1
    if abs(cos_phi1) < POLE_COS:
        x = cos_phi1 * (cos_phi1 * math.cos(sigma)
                        - math.sin(phi1) * math.sin(sigma) * math.cos(theta))
    else:
        x = math.cos(sigma) - math.sin(phi1) * sin_phi2
    lam2 = lam1 + math.atan2(y, x)
    return GeoPoint(math.degrees(phi2), math.degrees(lam2))


def _order_pair(p1: GeoPoint, p2: GeoPoint) -> tuple[GeoPoint, GeoPoint]:
    if (p1.lat, -p1.lon) >= (p2.lat, -p2.lon):
        return p1, p2
    return p2, p1


def _antipodal(c: GeoCircle) -> GeoCircle:
    center = GeoPoint(-c.center.lat, c.center.lon + 180.0)
    return GeoCircle(center, math.pi * EARTH_RADIUS_M - c.radius_m)


def classified_pair(c1: GeoCircle, c2: GeoCircle) -> tuple[GeoCircle, GeoCircle, float]:
    """The two circles circle_intersections classifies, and the distance
    between their centers: the pair as given, or past the wrap bound
    d <= 2*pi*R - r1 - r2 its antipodal circles."""
    d = orthodromic_distance(c1.center, c2.center)
    if c1.radius_m + c2.radius_m + d <= 2.0 * math.pi * EARTH_RADIUS_M:
        return c1, c2, d
    c1, c2 = _antipodal(c1), _antipodal(c2)
    return c1, c2, orthodromic_distance(c1.center, c2.center)


def circle_intersections(c1: GeoCircle, c2: GeoCircle):
    tau = INTERSECTION_TOLERANCE_M
    c1, c2, d = classified_pair(c1, c2)
    r1, r2 = c1.radius_m, c2.radius_m

    if d <= 2.0 * tau and abs(r1 - r2) <= 2.0 * tau:
        raise DegenerateCirclesError(
            "circles share a center and radius within tolerance: infinite intersections"
        )
    if d < 1e-9:
        return Contained(inner=1 if r1 < r2 else 2)

    if d > r1 + r2 + tau:
        return NonOverlapping(gap_m=d - r1 - r2)
    if d < abs(r1 - r2) - tau:
        return Contained(inner=1 if r1 < r2 else 2)

    if abs(d - (r1 + r2)) <= tau and d >= abs(r1 - r2):
        point = destination_point(c1.center, initial_bearing(c1.center, c2.center), (d + r1 - r2) / 2.0)
        return Tangent(point=point)
    if abs(d - abs(r1 - r2)) <= tau:
        if r1 >= r2:
            point = destination_point(c1.center, initial_bearing(c1.center, c2.center), (d + r1 + r2) / 2.0)
        else:
            point = destination_point(c2.center, initial_bearing(c2.center, c1.center), (d + r1 + r2) / 2.0)
        return Tangent(point=point)

    a = r1 / EARTH_RADIUS_M
    b = r2 / EARTH_RADIUS_M
    c = d / EARTH_RADIUS_M
    cos_alpha = (math.cos(b) - math.cos(a) * math.cos(c)) / (math.sin(a) * math.sin(c))
    cos_alpha = max(-1.0, min(1.0, cos_alpha))
    alpha = math.degrees(math.acos(cos_alpha))
    bearing = initial_bearing(c1.center, c2.center)
    p1 = destination_point(c1.center, bearing - alpha, r1)
    p2 = destination_point(c1.center, bearing + alpha, r1)
    p1, p2 = _order_pair(p1, p2)
    return PairIntersection(p1=p1, p2=p2)


def pair_candidates(id1: str, c1: GeoCircle, id2: str, c2: GeoCircle,
                    gap_max_km: float = DEFAULT_GAP_MAX_KM) -> list[CandidatePoint]:
    pair = (id1, id2) if id1 <= id2 else (id2, id1)
    result = circle_intersections(c1, c2)

    if isinstance(result, NonOverlapping):
        if result.gap_m > gap_max_km * 1000.0:
            return []
        c1, c2, _ = classified_pair(c1, c2)
        bearing = initial_bearing(c1.center, c2.center)
        point = destination_point(c1.center, bearing, c1.radius_m + result.gap_m / 2.0)
        return [CandidatePoint(point=point, source_pair=pair, case_tag="midpoint_gap")]

    if isinstance(result, Contained):
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

    return [
        CandidatePoint(point=result.p1, source_pair=pair, case_tag="pair_branch"),
        CandidatePoint(point=result.p2, source_pair=pair, case_tag="pair_branch"),
    ]


def all_candidates(circles: list[LandmarkCircle],
                   gap_max_km: float = DEFAULT_GAP_MAX_KM) -> list[CandidatePoint]:
    """Every pair in ascending id order through pair_candidates; a
    degenerate pair is skipped with a warning on this module's logger."""
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
