"""Spherical-Earth geometry: great-circle distances and intersections of
geodesic circles.

All public functions take and return degrees; radians are internal only.
The sphere radius is the WGS84 mean radius.

solve_circle_pairs classifies every pair of a set of circles and computes
all their candidate points on unit vectors (n-vectors), where each circle is
the plane a·x = cos(r/R) about its center's vector a: one fixed sequence of
numpy array calls covers every pair, whatever the number of circles, with
no trigonometry per case and no loop over pairs. It returns the points as
latitude and longitude lists and as the unit vectors it computed them as.
circle_intersections is its batch of one; orthodromic_distance stays scalar
for its many one-pair callers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import DegenerateCirclesError

EARTH_RADIUS_M = 6_371_008.8

# Classification tolerance for circle intersections, in meters.
INTERSECTION_TOLERANCE_M = 1.0


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
    of a float array. A longitude already in range comes back unchanged,
    except that -0.0 becomes 0.0; one outside it is wrapped by lon % 360.0,
    which lies in [0, 360], so -180 becomes 180."""
    if not isinstance(lon, np.ndarray):
        return lon + 0.0 if -180.0 < lon <= 180.0 else _wrap(lon)
    out = lon + 0.0
    outside = (lon <= -180.0) | (lon > 180.0)
    if outside.any():
        out[outside] = _wrap(lon[outside])
    return out


def _wrap(lon):
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


def _frames(lat, lon) -> np.ndarray:
    """A (3, 3, n) array: per point at lat, lon in degrees, its unit vector
    (n-vector), then the unit vectors due north and due east of it, each as
    x, y, z rows. Both tangents are defined at the poles too, from the
    longitude."""
    rad = np.radians([lat, lon])
    (cos_phi, cos_lam), (sin_phi, sin_lam) = np.cos(rad), np.sin(rad)
    return np.array([[cos_phi * cos_lam, cos_phi * sin_lam, sin_phi],
                     [-sin_phi * cos_lam, -sin_phi * sin_lam, cos_phi],
                     [-sin_lam, cos_lam, 0.0 * cos_lam]])


def unit_vectors(lat, lon) -> np.ndarray:
    """The (3, n) unit vectors (n-vectors) of points at lat, lon in degrees."""
    return _frames(lat, lon)[0]


def _lat_lon(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Latitudes and normalized longitudes, in degrees, of the points whose
    vectors are v[0], v[1], v[2] (x, y, z). atan2 keeps the latitude as
    accurate at the poles as anywhere else, where asin(z) would not."""
    x, y = v[0], v[1]
    den = np.empty((2, x.shape[-1]))
    np.sqrt(x * x + y * y, out=den[0])
    den[1] = x
    lat, lon = np.degrees(np.arctan2(v[2:0:-1], den))
    return lat, normalize_lon(lon)


class PairSolutions(NamedTuple):
    """What solve_circle_pairs found for the pairs of n circles, taken in
    itertools.combinations order: (0, 1), (0, 2), ..., (n - 2, n - 1).

    Per pair k: case[k] (DEGENERATE, NON_OVERLAPPING, CONTAINED, TANGENT or
    CROSSING), gap_m[k] = d - r1 - r2 and inner[k], 1 if the first circle is
    the smaller and 2 otherwise, both on the circles classified. The
    candidate points come pair after pair: point m lies at latitude lat[m]
    and normalized longitude lon[m], its unit vector is xyz[:, m], and
    pair_of_point[m] is its pair."""

    case: list[int]
    gap_m: list[float]
    inner: list[int]
    lat: list[float]
    lon: list[float]
    pair_of_point: list[int]
    xyz: np.ndarray


DEGENERATE, NON_OVERLAPPING, CONTAINED, TANGENT, CROSSING = range(5)

DEGENERATE_MESSAGE = "circles share a center and radius within tolerance: infinite intersections"

# The case of each rule of solve_circle_pairs, in the order they are tried.
_RULE_CASES = np.array([DEGENERATE, CONTAINED, NON_OVERLAPPING, CONTAINED, TANGENT, TANGENT,
                        CROSSING])
_GAP_RULE, _CROSSING_RULE = 2, 6
# Per rule, and per whether the first classified circle is the smaller: the
# arc of the rule's point from the first center toward the second, in
# radians, as coefficients of (r1, r2, d). A crossing's row gives r1 / R.
_ARCS = np.array([
    [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],     # degenerate: no point
    [[0.0, 1.0, 1.0], [-1.0, 0.0, 0.0]],    # centers within 1e-9 m: beyond the inner center
    [[0.5, -0.5, 0.5], [0.5, -0.5, 0.5]],   # gap: the middle of the gap
    [[0.0, 1.0, 1.0], [-1.0, 0.0, 0.0]],    # contained: beyond the inner center
    [[0.5, -0.5, 0.5], [0.5, -0.5, 0.5]],   # external tangency
    [[0.5, 0.5, 0.5], [-0.5, -0.5, 0.5]],   # internal tangency, beyond the smaller center
    [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],     # crossing
]) / EARTH_RADIUS_M


@functools.cache
def _pairs(n: int) -> np.ndarray:
    """The (2, n(n-1)/2) indices i < j of the pairs of n circles, in
    combinations order; read-only, as every caller shares it."""
    pairs = np.array(np.triu_indices(n, 1))
    pairs.flags.writeable = False
    return pairs


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

    The solver works on unit vectors (n-vectors; Gade 2010, "A non-singular
    horizontal position representation", J. Navigation 63(3)): a circle is
    the plane a·x = cos(r/R) about its center's vector a. With b_t the
    other center's offset (b - a) along the north and east vectors at a
    (exactly 0 for coincident centers), d = R·atan2(|b_t|, a·b), t = b_t /
    |b_t| points from a toward b, and e = a × t is the normal of the center
    geodesic. A point is cos(s)·a + sin(s)·t for the arc s its rule gives
    (negative away from b), and a crossing's two are cos(r1/R)·a + q·t
    +- sqrt(sin²(r1/R) - q²)·e, q = (cos(r2/R) - cos(r1/R)·a·b) / |b_t|,
    northern first where e points north. Past the wrap bound, a, t and the
    radii become -a, -t and pi*R - r. Where b_t is 0 (coincident or exactly
    antipodal centers) t is due north, or due south if the first circle is
    the smaller, so that a contained point lies due north of a shared center.

    Every pair goes through one fixed sequence of about 130 numpy calls on
    arrays of one element per circle or pair, whatever n is; only exactly
    coincident or antipodal centers and crossing points of exactly equal
    latitude add a few.
    """
    pairs = _pairs(len(radius_m))
    frames = _frames(lat, lon)
    first = frames[:, :, pairs[0]]  # a, north and east of each pair's first center
    b_a = frames[0][:, pairs[1]] - first[0]
    # (b - a)·a = b·a - 1, then (b - a)·north and (b - a)·east, which are
    # exactly 0 for coincident centers.
    dots = first[:, 0] * b_a[0] + first[:, 1] * b_a[1] + first[:, 2] * b_a[2]
    cos_d = dots[0] + 1.0
    sin_d = np.hypot(dots[1], dots[2])
    # r1, r2 and d; past the wrap bound, the antipodal circles' radii.
    rrd = np.empty((3, len(cos_d)))
    rrd[:2] = np.asarray(radius_m, dtype=float)[pairs]
    rrd[2] = d = EARTH_RADIUS_M * np.arctan2(sin_d, cos_d)
    pi_r = math.pi * EARTH_RADIUS_M
    flip = rrd[0] + rrd[1] + d > 2.0 * pi_r
    r1, r2 = rrd[:2] = np.where(flip, pi_r - rrd[:2], rrd[:2])
    spread = np.abs(r1 - r2)
    gap = d - r1 - r2
    smaller_first = r1 < r2
    tau = INTERSECTION_TOLERANCE_M
    tests = np.empty((7, len(d)), dtype=bool)  # each rule's test; the last always holds
    np.less_equal(np.maximum(d, spread), 2.0 * tau, out=tests[0])
    np.less(d, 1e-9, out=tests[1])
    beyond = d - [r1 + r2, spread]  # d - (r1 + r2) and d - |r1 - r2|
    np.greater(beyond[0], tau, out=tests[2])
    np.less(beyond[1], -tau, out=tests[3])
    np.less_equal(np.abs(beyond), tau, out=tests[4:6])
    tests[4] &= beyond[1] >= 0.0
    tests[6] = True
    rule = tests.argmax(axis=0)
    case = _RULE_CASES[rule]
    crossing = rule == _CROSSING_RULE

    angles = np.empty((2, len(d)))  # each point's arc s, then r2 / R
    np.add.reduce(_ARCS[rule, smaller_first.view(np.int8)].T * rrd, axis=0, out=angles[0])
    np.divide(r2, EARTH_RADIUS_M, out=angles[1])
    cos, sin_s = np.cos(angles), np.sin(angles[0])
    with np.errstate(all="ignore"):  # coincident or antipodal centers: 0 / 0
        direction = dots[1:] / sin_d  # cos and sin of the bearing from a to b
        q = (cos[1] - cos[0] * cos_d) / sin_d
    no_direction = sin_d == 0.0
    if no_direction.any():
        direction[0, no_direction] = np.where(smaller_first[no_direction], -1.0, 1.0)
        direction[1, no_direction] = 0.0
    # Off a crossing, q = sin(s) and so the normal's coefficient w is 0.
    q = np.where(crossing, np.minimum(np.maximum(q, -sin_s), sin_s), sin_s)
    w = np.sqrt((sin_s - q) * (sin_s + q))
    # The normal's z is sin(bearing)·cos φ: with this sign, slot 0 holds the
    # northern crossing point.
    w = np.copysign(w, direction[1])
    sign = np.where(flip, -1.0, 1.0)
    # Slot 0 holds base + w·e and slot 1 base - w·e, with base =
    # sign·(cos(s)·a + q·t), t = cos(b)·north + sin(b)·east and the normal
    # e = sin(b)·north - cos(b)·east.
    coef = np.empty((3, len(d)))
    coef[0] = sign * cos[0]
    coef[1:] = (sign * q) * direction
    base = np.add.reduce(first * coef[:, None], axis=0)
    normal = first[1] * (w * direction[1]) - first[2] * (w * direction[0])
    points = np.empty((3, len(d), 2))
    np.add(base, normal, out=points[:, :, 0])
    np.subtract(base, normal, out=points[:, :, 1])
    taken = np.empty((len(d), 2), dtype=bool)
    taken[:, 0] = np.where(rule == _GAP_RULE, gap <= gap_max_m, rule != 0)
    taken[:, 1] = crossing
    xyz = points[:, taken]
    lat2, lon2 = (x.tolist() for x in _lat_lon(xyz))
    pair_of_point = taken.nonzero()[0]
    tied = crossing & (direction[1] == 0.0)
    if tied.any():
        # Crossing points of equal latitude: the smaller longitude first.
        for m in np.searchsorted(pair_of_point, tied.nonzero()[0]).tolist():
            if (lat2[m], -lon2[m]) < (lat2[m + 1], -lon2[m + 1]):
                lat2[m], lat2[m + 1] = lat2[m + 1], lat2[m]
                lon2[m], lon2[m + 1] = lon2[m + 1], lon2[m]
                xyz[:, [m, m + 1]] = xyz[:, [m + 1, m]]
    return PairSolutions(case.tolist(), gap.tolist(), (2 - smaller_first).tolist(), lat2, lon2,
                         pair_of_point.tolist(), xyz)


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
