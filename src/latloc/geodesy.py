"""Spherical-Earth geometry: great-circle distances, destination points, and
intersections of geodesic circles.

All public functions take and return degrees; radians are internal only.
The sphere radius is the WGS84 mean radius.

solve_circle_pairs classifies every pair of a set of circles in one loop
and computes all their candidate points in one numpy pass, with each
circle's trigonometry computed once. numpy does only arithmetic,
comparisons and unit conversions, and the math module each sine, cosine,
inverse and hypot, element by element, so the points carry the bits of the
scalar formulas on any numpy build; it returns them as latitude and
longitude lists. circle_intersections and destination_point are its batches
of one; orthodromic_distance stays scalar for its many one-pair callers.
"""

from __future__ import annotations

import math
from itertools import combinations
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import DegenerateCirclesError

EARTH_RADIUS_M = 6_371_008.8

# Classification tolerance for circle intersections, in meters.
INTERSECTION_TOLERANCE_M = 1.0

# destination_point switches to its pole-safe form when the origin's cos(lat)
# is below this, within about 6 m of a pole. Farther out the usual form is
# off by at most R * 1e-16 / cos(lat), under a millimetre.
POLE_COS = 1e-6


@dataclass(frozen=True)
class GeoPoint:
    """A latitude/longitude pair in degrees.

    Latitude must lie in [-90, 90]; longitude is normalized into (-180, 180].
    """

    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not math.isfinite(self.lon):
            raise ValueError(f"longitude {self.lon} is not finite")
        object.__setattr__(self, "lon", normalize_lon(self.lon))


def normalize_lon(lon):
    """Longitude in degrees mapped into (-180, 180]: a float, or each element
    of a float array. (lon % 360.0 lies in [0, 360], so -180 never results.)"""
    lon = lon % 360.0
    return lon - 360.0 * (lon > 180.0)


@dataclass(frozen=True)
class GeoCircle:
    """A geodesic circle: all points at a fixed surface distance from a center."""

    center: GeoPoint
    radius_m: float

    def __post_init__(self):
        r = self.radius_m
        # NaN fails every comparison, so test for the valid range, not the invalid one.
        if not 0 <= r <= math.pi * EARTH_RADIUS_M:
            raise ValueError(f"negative radius {r}" if r < 0 else
                             f"radius {r} wraps past the antipode" if r > 0 else
                             f"radius {r} is not a number")


@dataclass(frozen=True)
class NonOverlapping:
    """The circles do not reach each other; gap_m is the perimeter-to-perimeter gap."""

    gap_m: float


@dataclass(frozen=True)
class Contained:
    """One circle lies strictly inside the other; inner is 1 or 2."""

    inner: int


@dataclass(frozen=True)
class Tangent:
    """The circles touch at a single point."""

    point: GeoPoint


@dataclass(frozen=True)
class PairIntersection:
    """Two intersection points, northern point first (tie: smaller longitude)."""

    p1: GeoPoint
    p2: GeoPoint


IntersectionResult = Union[NonOverlapping, Contained, Tangent, PairIntersection]


def orthodromic_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters.

    Uses the atan2 formulation, which is numerically stable both for nearby
    and for near-antipodal points.
    """
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dlon = math.radians(b.lon - a.lon)
    cos_phi2 = math.cos(phi2)
    cos_phi1 = math.cos(phi1)
    sin_phi1 = math.sin(phi1)
    sin_phi2 = math.sin(phi2)
    num = math.hypot(
        cos_phi2 * math.sin(dlon),
        cos_phi1 * sin_phi2 - sin_phi1 * cos_phi2 * math.cos(dlon),
    )
    den = sin_phi1 * sin_phi2 + cos_phi1 * cos_phi2 * math.cos(dlon)
    return EARTH_RADIUS_M * math.atan2(num, den)


def _each(f, *columns: np.ndarray) -> np.ndarray:
    """f of the columns' elements, one math-module call per element.

    numpy's arctan2, arcsin, arccos and hypot round some values differently
    from math's, and by how much depends on the build; with math the array
    forms here give the bits the scalar forms give."""
    values = [c.tolist() for c in columns]
    return np.fromiter(map(f, *values), dtype=float, count=len(values[0]))


def _distance_bearing(sin1: float, cos1: float, lon1: float,
                      sin2: float, cos2: float, lon2: float) -> tuple[float, float]:
    """Great-circle distance in meters and initial bearing in degrees
    [0, 360) from point 1 to point 2, given the sine and cosine of each
    latitude: orthodromic_distance's arithmetic, in its order."""
    dlon = math.radians(lon2 - lon1)
    sin_dlon, cos_dlon = math.sin(dlon), math.cos(dlon)
    x = cos2 * sin_dlon
    y = cos1 * sin2 - sin1 * cos2 * cos_dlon
    den = sin1 * sin2 + cos1 * cos2 * cos_dlon
    return (EARTH_RADIUS_M * math.atan2(math.hypot(x, y), den),
            math.degrees(math.atan2(x, y)) % 360.0)


def _arc_trig(distance_m: float) -> tuple[float, float]:
    """Sine and cosine of the arc distance_m / R, for a distance in [0, pi*R]."""
    if distance_m < 0 or distance_m > math.pi * EARTH_RADIUS_M + 1e-6:
        raise ValueError(f"distance {distance_m} outside [0, pi*R]")
    sigma = distance_m / EARTH_RADIUS_M
    return math.sin(sigma), math.cos(sigma)


def _destinations(sin_phi1: np.ndarray, cos_phi1: np.ndarray, lon1: np.ndarray,
                  bearing_deg: np.ndarray, sin_sigma: np.ndarray,
                  cos_sigma: np.ndarray) -> tuple[list[float], list[float]]:
    """Latitudes and normalized longitudes, in degrees, of the points
    reached from origins (sine and cosine of latitude, longitude in
    degrees) along initial bearings after arcs sigma, elementwise: the
    arithmetic of destination_point, in its order, with numpy for the
    arithmetic and math for the rest."""
    sin_theta, cos_theta = (_each(f, np.radians(bearing_deg)) for f in (math.sin, math.cos))
    sin_phi2 = np.maximum(np.minimum(sin_phi1 * cos_sigma + cos_phi1 * sin_sigma * cos_theta,
                                     1.0), -1.0)
    y = sin_theta * sin_sigma * cos_phi1
    x = cos_sigma - sin_phi1 * sin_phi2
    pole = np.abs(cos_phi1) < POLE_COS
    if pole.any():
        # At a pole x = cos(sigma) - sin(phi1) * sin(phi2) cancels to
        # rounding noise, and the longitude with it; this form does not.
        c, s = cos_phi1[pole], sin_phi1[pole]
        x[pole] = c * (c * cos_sigma[pole] - s * sin_sigma[pole] * cos_theta[pole])
    lam2 = np.radians(lon1) + _each(math.atan2, y, x)
    lat2 = np.degrees(_each(math.asin, sin_phi2))
    return lat2.tolist(), normalize_lon(np.degrees(lam2)).tolist()


def destination_point(origin: GeoPoint, bearing_deg: float, distance_m: float) -> GeoPoint:
    """Point reached by travelling distance_m along the given initial
    bearing: a batch of one for the solver's destination pass."""
    sin_sigma, cos_sigma = _arc_trig(distance_m)
    phi1 = math.radians(origin.lat)
    lat, lon = _destinations(*(np.array([x], dtype=float) for x in (
        math.sin(phi1), math.cos(phi1), origin.lon, bearing_deg, sin_sigma, cos_sigma)))
    return GeoPoint(lat[0], lon[0])


class PairSolutions(NamedTuple):
    """What solve_circle_pairs found for the pairs of n circles, taken in
    itertools.combinations order: (0, 1), (0, 2), ..., (n - 2, n - 1).

    Per pair k: case[k] (DEGENERATE, NON_OVERLAPPING, CONTAINED, TANGENT or
    CROSSING), gap_m[k] = d - r1 - r2 and inner[k], 1 if the first circle is
    the smaller and 2 otherwise, both on the circles classified. The
    candidate points come pair after pair: point m lies at latitude lat[m]
    and normalized longitude lon[m], and pair_of_point[m] is its pair."""

    case: list[int]
    gap_m: list[float]
    inner: list[int]
    lat: list[float]
    lon: list[float]
    pair_of_point: list[int]


DEGENERATE, NON_OVERLAPPING, CONTAINED, TANGENT, CROSSING = range(5)

DEGENERATE_MESSAGE = "circles share a center and radius within tolerance: infinite intersections"


def solve_circle_pairs(lat, lon, radius_m, gap_max_m: float) -> PairSolutions:
    """Classify every pair of n circles (centers at lat, lon in degrees,
    radii in meters) and compute each pair's candidate points.

    Two circles can meet only if d <= 2*pi*R - r1 - r2: a spherical
    triangle's perimeter is at most 2*pi*R. Past that bound a pair is
    classified as its antipodal circles (radius pi*R - r about each center's
    antipode), which hold the same points. With tau the 1 m tolerance, the
    first of these that holds is the pair's case:

    - DEGENERATE: centers within 2*tau and radii within 2*tau, one circle
      within the tolerance. No point.
    - CONTAINED, if the centers are under 1e-9 m apart.
    - NON_OVERLAPPING, d > r1 + r2 + tau: the midpoint of the gap on the
      center geodesic, unless the gap exceeds gap_max_m (then no point).
    - CONTAINED, d < |r1 - r2| - tau: where the larger circle, shrunk to
      internal tangency, touches the smaller one, beyond its center at its
      radius. This point is measured on the circles as given.
    - TANGENT, external (|d - (r1 + r2)| <= tau and d >= |r1 - r2|): the
      touch point splits the center geodesic. Internal (|d - |r1 - r2|| <=
      tau): it lies beyond the smaller circle's center, at the larger radius
      from the larger circle's center.
    - CROSSING: the two crossing points, northern first (tie: smaller
      longitude).

    The sine and cosine of each circle's latitude and radius are computed
    once. One loop over the pairs finds each pair's case, and the origin,
    bearing and arc of each of its points, computing a case only on its own
    pairs; one numpy pass over those rows then finds every point, as latitude
    and longitude lists. (The pair stage as numpy arrays took a few
    hundred array calls per call, whatever the size: at 28 pairs that cost
    more than the scalar loop it replaced.)
    """
    n = len(radius_m)
    pi_r = math.pi * EARTH_RADIUS_M
    # Circles n..2n-1 are the antipodal circles, for pairs past the wrap bound.
    lat = [*lat, *(-x for x in lat)]
    lon = [*lon, *(normalize_lon(x + 180.0) for x in lon)]
    r = [*radius_m, *(pi_r - x for x in radius_m)]
    phi = [math.radians(x) for x in lat]
    sin_phi, cos_phi = list(map(math.sin, phi)), list(map(math.cos, phi))
    arc = [x / EARTH_RADIUS_M for x in r]
    sin_r, cos_r = list(map(math.sin, arc)), list(map(math.cos, arc))

    def distance_bearing(a: int, b: int) -> tuple[float, float]:
        return _distance_bearing(sin_phi[a], cos_phi[a], lon[a], sin_phi[b], cos_phi[b], lon[b])

    tau = INTERSECTION_TOLERANCE_M
    cases, gaps, inners = [], [], []
    # Per point: pair, origin circle, bearing, sine and cosine of the arc.
    rows: list[tuple[int, int, float, float, float]] = []
    crossings = []  # the first row of each crossing pair
    for k, (a, b) in enumerate(combinations(range(n), 2)):
        d0, bearing0 = distance_bearing(a, b)
        i, j, d, bearing = a, b, d0, bearing0
        if r[a] + r[b] + d0 > 2.0 * pi_r:
            i, j = a + n, b + n
            d, bearing = distance_bearing(i, j)
        r1, r2 = r[i], r[j]
        spread = abs(r1 - r2)
        gap = d - r1 - r2
        inner = 1 if r1 < r2 else 2
        if d <= 2.0 * tau and spread <= 2.0 * tau:
            case = DEGENERATE
        elif d < 1e-9:
            case = CONTAINED
        elif d > r1 + r2 + tau:
            case = NON_OVERLAPPING
        elif d < spread - tau:
            case = CONTAINED
        elif abs(d - (r1 + r2)) <= tau and d >= spread:
            case = TANGENT
            rows.append((k, i, bearing, *_arc_trig((d + r1 - r2) / 2.0)))
        elif abs(d - spread) <= tau:
            case = TANGENT
            if r1 >= r2:
                rows.append((k, i, bearing, *_arc_trig((d + r1 + r2) / 2.0)))
            else:
                rows.append((k, j, distance_bearing(j, i)[1], *_arc_trig((d + r1 + r2) / 2.0)))
        else:
            case = CROSSING
            # The angle at center1 between the center geodesic and the
            # point, from the spherical triangle (center1, center2, point).
            c = d / EARTH_RADIUS_M
            cos_alpha = (cos_r[j] - cos_r[i] * math.cos(c)) / (sin_r[i] * math.sin(c))
            alpha = math.degrees(math.acos(max(-1.0, min(1.0, cos_alpha))))
            crossings.append(len(rows))
            rows.append((k, i, bearing - alpha, sin_r[i], cos_r[i]))
            rows.append((k, i, bearing + alpha, sin_r[i], cos_r[i]))
        if case == NON_OVERLAPPING and gap <= gap_max_m:
            rows.append((k, i, bearing, *_arc_trig(r1 + gap / 2.0)))
        elif case == CONTAINED:
            if inner == 1:
                d_outer, bearing_outer = distance_bearing(b, a)
                rows.append((k, b, bearing_outer, *_arc_trig(d_outer + r[a])))
            else:
                rows.append((k, a, bearing0, *_arc_trig(d0 + r[b])))
        cases.append(case)
        gaps.append(gap)
        inners.append(inner)

    pair_of_point, origin, heading, sin_sigma, cos_sigma = (
        (list(column) for column in zip(*rows)) if rows else ([],) * 5)
    at = np.array(origin, dtype=np.intp)
    lat2, lon2 = _destinations(np.array(sin_phi)[at], np.array(cos_phi)[at], np.array(lon)[at],
                               np.array(heading), np.array(sin_sigma), np.array(cos_sigma))
    for s in crossings:
        if (lat2[s], -lon2[s]) < (lat2[s + 1], -lon2[s + 1]):
            lat2[s], lat2[s + 1] = lat2[s + 1], lat2[s]
            lon2[s], lon2[s + 1] = lon2[s + 1], lon2[s]
    return PairSolutions(cases, gaps, inners, lat2, lon2, pair_of_point)


def circle_intersections(c1: GeoCircle, c2: GeoCircle) -> IntersectionResult:
    """Classify and compute the intersection of two geodesic circles: a
    batch of one for solve_circle_pairs, whose docstring gives the cases.

    Raises DegenerateCirclesError when the circles are equal at the scale of
    the tolerance. A pair past the wrap bound is classified as its antipodal
    circles; a NonOverlapping gap is then the gap between those.
    """
    solved = solve_circle_pairs([c1.center.lat, c2.center.lat], [c1.center.lon, c2.center.lon],
                                [c1.radius_m, c2.radius_m], math.inf)
    case = solved.case[0]
    if case == DEGENERATE:
        raise DegenerateCirclesError(DEGENERATE_MESSAGE)
    if case == NON_OVERLAPPING:
        return NonOverlapping(gap_m=solved.gap_m[0])
    if case == CONTAINED:
        return Contained(inner=solved.inner[0])
    if case == TANGENT:
        return Tangent(point=GeoPoint(solved.lat[0], solved.lon[0]))
    return PairIntersection(*map(GeoPoint, solved.lat, solved.lon))
