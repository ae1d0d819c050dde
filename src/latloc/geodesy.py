"""Spherical-Earth geometry: great-circle distances, destination points, and
intersections of two geodesic circles.

All public functions take and return degrees; radians are internal only.
The sphere radius is the WGS84 mean radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

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


def normalize_lon(lon: float) -> float:
    """Longitude in degrees mapped into (-180, 180]."""
    lon = lon % 360.0
    if lon > 180.0:
        lon -= 360.0
    elif lon == -180.0:
        lon = 180.0
    return lon


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


def initial_bearing(a: GeoPoint, b: GeoPoint) -> float:
    """Initial bearing from a toward b, degrees clockwise from north in [0, 360)."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dlon = math.radians(b.lon - a.lon)
    x = math.sin(dlon) * math.cos(phi2)
    y = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlon)
    return math.degrees(math.atan2(x, y)) % 360.0


def destination_point(origin: GeoPoint, bearing_deg: float, distance_m: float) -> GeoPoint:
    """Point reached by travelling distance_m along the given initial bearing."""
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
        # At a pole x = cos(sigma) - sin(phi1) * sin(phi2) cancels to rounding
        # noise, and the longitude with it; this factored form does not.
        x = cos_phi1 * (cos_phi1 * math.cos(sigma)
                        - math.sin(phi1) * math.sin(sigma) * math.cos(theta))
    else:
        x = math.cos(sigma) - math.sin(phi1) * sin_phi2
    lam2 = lam1 + math.atan2(y, x)
    return GeoPoint(math.degrees(phi2), math.degrees(lam2))


def _order_pair(p1: GeoPoint, p2: GeoPoint) -> tuple[GeoPoint, GeoPoint]:
    # Northern point first; tie broken by smaller longitude.
    if (p1.lat, -p1.lon) >= (p2.lat, -p2.lon):
        return p1, p2
    return p2, p1


def _antipodal(c: GeoCircle) -> GeoCircle:
    """The same points as c, as a circle about c's antipode."""
    center = GeoPoint(-c.center.lat, c.center.lon + 180.0)
    return GeoCircle(center, math.pi * EARTH_RADIUS_M - c.radius_m)


def classified_pair(c1: GeoCircle, c2: GeoCircle) -> tuple[GeoCircle, GeoCircle, float]:
    """The two circles circle_intersections classifies for c1 and c2, and the
    distance between their centers.

    Two circles can meet only if d <= 2*pi*R - r1 - r2: a spherical triangle's
    perimeter is at most 2*pi*R. Past that bound the pair is replaced by its
    antipodal circles (the same point sets), whose radii sum to less than d,
    so circle_intersections' cases hold for them. Otherwise c1 and c2 are
    returned as they are.
    """
    d = orthodromic_distance(c1.center, c2.center)
    if c1.radius_m + c2.radius_m + d <= 2.0 * math.pi * EARTH_RADIUS_M:
        return c1, c2, d
    c1, c2 = _antipodal(c1), _antipodal(c2)
    return c1, c2, orthodromic_distance(c1.center, c2.center)


def circle_intersections(c1: GeoCircle, c2: GeoCircle) -> IntersectionResult:
    """Classify and compute the intersection of two geodesic circles.

    Raises DegenerateCirclesError when the circles are equal at the scale of
    the tolerance: centers within 2*tau and radii differing by at most 2*tau.
    Identical centers with radii further apart report the smaller circle as
    contained. A pair past the wrap bound is classified as
    its antipodal circles (see classified_pair), which hold the same points;
    a NonOverlapping gap is then the gap between those.
    """
    tau = INTERSECTION_TOLERANCE_M
    c1, c2, d = classified_pair(c1, c2)
    r1, r2 = c1.radius_m, c2.radius_m

    if d <= 2.0 * tau and abs(r1 - r2) <= 2.0 * tau:
        # Each argument order would put a touch point on its own first
        # circle's side: the circles are one circle within the tolerance.
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
        # External tangency: the touch point splits the center geodesic.
        # (A circle under tau across is also within tau of internal tangency,
        # and when d < |r1 - r2| that is the case that holds.)
        point = destination_point(c1.center, initial_bearing(c1.center, c2.center), (d + r1 - r2) / 2.0)
        return Tangent(point=point)
    if abs(d - abs(r1 - r2)) <= tau:
        # Internal tangency: touch point lies beyond the smaller circle's center,
        # at the larger radius from the larger circle's center.
        if r1 >= r2:
            point = destination_point(c1.center, initial_bearing(c1.center, c2.center), (d + r1 + r2) / 2.0)
        else:
            point = destination_point(c2.center, initial_bearing(c2.center, c1.center), (d + r1 + r2) / 2.0)
        return Tangent(point=point)

    # Proper crossing: solve the spherical triangle (center1, center2, point)
    # for the angle at center1 between the center geodesic and the point.
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
