"""The scalar circle-pair code that latloc.geodesy.solve_circle_pairs
replaced, kept as the tests' reference: one pair at a time, in Python
floats and the math module, with spherical-trigonometry formulas.

The solver works on unit vectors instead, so its results agree with these
to within rounding, not bit for bit:

- a pair's case is the same, unless its center distance lies within
  BOUNDARY_M of a boundary of the case rules (boundary_margin_m), where
  either side's rounding decides;
- each point lies within point_bound_m of this module's, a bound set by
  how well the pair is conditioned, and the two crossing points come in
  the same order unless their latitudes agree to within that bound.
"""

from __future__ import annotations

import logging
import math
from itertools import combinations

from latloc.errors import DegenerateCirclesError, LaterationError
from latloc.geodesy import (
    EARTH_RADIUS_M,
    INTERSECTION_TOLERANCE_M,
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

# destination_point switches to its pole-safe form when the origin's cos(lat)
# is below this, within about 6 m of a pole.
POLE_COS = 1e-6

PI_R = math.pi * EARTH_RADIUS_M
# A pair whose center distance lies this close to a boundary of the case
# rules may be classified on either side: the solver's and this module's
# distances differ by about 1e-9 m.
BOUNDARY_M = 1e-6
# The largest distance between the solver's point and this module's where
# the pair is well conditioned (see point_bound_m). Both are then
# accurate to micrometres; this module's destination formula is off by up
# to R * 1e-16 / cos(lat) near a pole (under 0.1 mm within 0.01 degrees of
# one).
POINT_BOUND_M = 1e-3
# Elsewhere: this module's asin latitudes are off by up to
# R * sqrt(2 * 2**-52), 0.13 m, near a pole.
LOOSE_BOUND_M = 0.25


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


def boundary_margin_m(c1: GeoCircle, c2: GeoCircle, gap_max_m: float = math.inf) -> float:
    """How far, in meters, the pair lies from the nearest boundary of the
    case rules: the wrap bound, each rule's tolerance band, the external
    tangency's d >= |r1 - r2| and the gap cutoff gap_max_m."""
    tau = INTERSECTION_TOLERANCE_M
    d = orthodromic_distance(c1.center, c2.center)
    wrap = abs(c1.radius_m + c2.radius_m + d - 2.0 * PI_R)
    _, _, d = classified = classified_pair(c1, c2)
    r1, r2 = classified[0].radius_m, classified[1].radius_m
    spread = abs(r1 - r2)
    return min(wrap, abs(d - 2.0 * tau), abs(spread - 2.0 * tau), abs(d - 1e-9),
               abs(d - (r1 + r2 + tau)), abs(d - (spread - tau)), abs(abs(d - (r1 + r2)) - tau),
               abs(d - spread), abs(abs(d - spread) - tau), abs(d - r1 - r2 - gap_max_m))


def point_bound_m(c1: GeoCircle, c2: GeoCircle, want: list[GeoPoint]) -> float:
    """The largest distance allowed between each of the solver's points of
    the pair and this module's points want.

    The base is POINT_BOUND_M where both radii lie at least 1 km from 0 and
    from pi * R and the centers and points within 89.99 degrees of the
    equator, and LOOSE_BOUND_M elsewhere. To it comes the conditioning of
    the pair: rounding the unit vectors, by up to 2**-52, turns the
    direction from one center to the other by up to about 8 * 2**-52 * R /
    a, for centers a meters from coincident or antipodal, and that moves a
    point by up to R times as much. A crossing's points move further where
    they lie close together: by 1 + 2 * R / c times that, for c meters
    between them. Where that reaches a radian, the direction is unknown and
    there is no bound.
    """
    d = orthodromic_distance(c1.center, c2.center)
    apart = min(d, PI_R - d)
    well = (all(1000.0 <= c.radius_m <= PI_R - 1000.0 for c in (c1, c2))
            and max(abs(p.lat) for p in [c1.center, c2.center, *want]) <= 89.99)
    turn = 8.0 * 2.0**-52 * EARTH_RADIUS_M**2 / apart if apart else math.inf
    if len(want) == 2:
        chord = orthodromic_distance(*want)
        turn *= 1.0 + 2.0 * EARTH_RADIUS_M / chord if chord else math.inf
    if turn >= EARTH_RADIUS_M:  # a turn of a radian or more: any point will do
        return math.inf
    return (POINT_BOUND_M if well else LOOSE_BOUND_M) + turn


def check_points(c1: GeoCircle, c2: GeoCircle, got: list[GeoPoint], want: list[GeoPoint],
                 gap_max_m: float = math.inf) -> None:
    """Assert that a pair's points got, from the solver, agree with this
    module's points want: one by one within point_bound_m, and for a
    crossing in the same order unless the two latitudes agree within it.
    Within BOUNDARY_M of a case boundary, the two may take a tangency's
    external and internal forms, whose points lie up to tau / 2 apart: the
    bound grows by tau there."""
    assert len(got) == len(want)
    if not want:
        return
    bound = point_bound_m(c1, c2, want)
    if boundary_margin_m(c1, c2, gap_max_m) <= BOUNDARY_M:
        bound += INTERSECTION_TOLERANCE_M
    if len(want) == 2:
        lat_gap_m = math.radians(abs(want[0].lat - want[1].lat)) * EARTH_RADIUS_M
        if lat_gap_m <= bound and (orthodromic_distance(got[0], want[1])
                                   < orthodromic_distance(got[0], want[0])):
            got = got[::-1]
    for g, w in zip(got, want):
        assert orthodromic_distance(g, w) <= bound, (g, w, bound)


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
