import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_pairs
from destinations import destination_point
from scalar_pairs import LOOSE_BOUND_M, POINT_BOUND_M
from latloc.errors import DegenerateCirclesError
from latloc.geodesy import (
    EARTH_RADIUS_M,
    Contained,
    GeoCircle,
    GeoPoint,
    NonOverlapping,
    PairIntersection,
    Tangent,
    circle_intersections,
    normalize_lon,
    orthodromic_distance,
)


def haversine_oracle(a: GeoPoint, b: GeoPoint) -> float:
    """Independent reference formula (haversine, not the production atan2 form)."""
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


def random_point(rng) -> GeoPoint:
    return GeoPoint(rng.uniform(-89, 89), rng.uniform(-180, 180))


def test_zero_distance():
    p = GeoPoint(48.1, 11.6)
    assert orthodromic_distance(p, p) == 0.0


def test_antipodal_distance():
    d = orthodromic_distance(GeoPoint(0, 0), GeoPoint(0, 180))
    assert d == pytest.approx(math.pi * EARTH_RADIUS_M, abs=0.1)


def test_matches_haversine_oracle():
    rng = random.Random(2024)
    for _ in range(1000):
        a, b = random_point(rng), random_point(rng)
        d = orthodromic_distance(a, b)
        assert d == pytest.approx(haversine_oracle(a, b), rel=1e-6)


def test_metric_axioms_under_sampling():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (random_point(rng) for _ in range(3))
        dab = orthodromic_distance(a, b)
        assert dab == pytest.approx(orthodromic_distance(b, a), rel=1e-12, abs=1e-6)
        assert dab >= 0
        assert dab <= orthodromic_distance(a, c) + orthodromic_distance(c, b) + 1e-6


def test_destination_zero_distance_is_origin():
    origin = GeoPoint(10.0, 20.0)
    dest = destination_point(origin, 45.0, 0.0)
    assert dest.lat == pytest.approx(origin.lat, abs=1e-12)
    assert dest.lon == pytest.approx(origin.lon, abs=1e-12)


def test_destination_quarter_arc_north_reaches_pole():
    dest = destination_point(GeoPoint(0, 0), 0.0, math.pi * EARTH_RADIUS_M / 2)
    assert dest.lat == pytest.approx(90.0, abs=1e-9)


def test_destination_round_trip_distance():
    rng = random.Random(99)
    for _ in range(300):
        origin = random_point(rng)
        bearing = rng.uniform(0, 360)
        dist = rng.uniform(0, math.pi * EARTH_RADIUS_M * 0.99)
        dest = destination_point(origin, bearing, dist)
        assert orthodromic_distance(origin, dest) == pytest.approx(dist, abs=0.5)


def test_initial_bearing_due_east():
    assert scalar_pairs.initial_bearing(GeoPoint(0, 0), GeoPoint(0, 10)) == pytest.approx(90.0)


def test_circle_radius_bounds():
    with pytest.raises(ValueError, match="negative radius"):
        GeoCircle(GeoPoint(0, 0), -1.0)
    with pytest.raises(ValueError, match="past the antipode"):
        GeoCircle(GeoPoint(0, 0), math.pi * EARTH_RADIUS_M * 1.01)
    # NaN passed both range tests when they tested for the invalid range.
    with pytest.raises(ValueError, match="not a number"):
        GeoCircle(GeoPoint(0, 0), math.nan)
    GeoCircle(GeoPoint(0, 0), 0.0)
    GeoCircle(GeoPoint(0, 0), math.pi * EARTH_RADIUS_M)


def km_apart_circles(d_km, r1_km, r2_km):
    c1 = GeoCircle(GeoPoint(0, 0), r1_km * 1000)
    center2 = destination_point(GeoPoint(0, 0), 90.0, d_km * 1000)
    return c1, GeoCircle(center2, r2_km * 1000)


def test_non_overlapping_gap():
    c1, c2 = km_apart_circles(1000, 400, 400)
    result = circle_intersections(c1, c2)
    assert isinstance(result, NonOverlapping)
    assert result.gap_m == pytest.approx(200_000, abs=1.0)


def test_tangent_at_geodesic_midpoint():
    c1, c2 = km_apart_circles(1000, 500, 500)
    result = circle_intersections(c1, c2)
    assert isinstance(result, Tangent)
    midpoint = destination_point(c1.center, 90.0, 500_000)
    assert orthodromic_distance(result.point, midpoint) < 1.0


def test_internal_tangency():
    c1, c2 = km_apart_circles(300, 800, 500)
    result = circle_intersections(c1, c2)
    assert isinstance(result, Tangent)
    assert orthodromic_distance(c1.center, result.point) == pytest.approx(800_000, abs=1.0)
    assert orthodromic_distance(c2.center, result.point) == pytest.approx(500_000, abs=1.0)


def test_contained():
    c1, c2 = km_apart_circles(100, 900, 300)
    result = circle_intersections(c1, c2)
    assert isinstance(result, Contained)
    assert result.inner == 2


def test_identical_centers():
    center = GeoPoint(45, 9)
    with pytest.raises(DegenerateCirclesError):
        circle_intersections(GeoCircle(center, 100_000), GeoCircle(center, 100_000))
    result = circle_intersections(GeoCircle(center, 100_000), GeoCircle(center, 300_000))
    assert result == Contained(inner=1)


def test_circles_equal_within_tolerance_are_degenerate():
    # Two 1 m circles 0.27 mm apart: as an internal tangency, each argument
    # order put the touch point on its own first circle's side, 2 m apart.
    c1 = GeoCircle(GeoPoint(45, 9), 1.0)
    c2 = GeoCircle(destination_point(c1.center, 90.0, 0.00027), 1.0)
    for pair in ((c1, c2), (c2, c1)):
        with pytest.raises(DegenerateCirclesError):
            circle_intersections(*pair)


def latitude_scan_oracle(c1, c2, lon_deg):
    """Find the northern intersection latitude by bisection on the residual
    difference along a fixed meridian; independent of the spherical-triangle
    construction used in production."""
    def gap(lat):
        p = GeoPoint(lat, lon_deg)
        return orthodromic_distance(c1.center, p) - c1.radius_m
    lo, hi = 0.0, 89.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_equatorial_pair_symmetric_about_equator():
    c1 = GeoCircle(GeoPoint(0, 0), 700_000)
    c2 = GeoCircle(GeoPoint(0, 10), 700_000)
    result = circle_intersections(c1, c2)
    assert isinstance(result, PairIntersection)
    assert result.p1.lat == pytest.approx(-result.p2.lat, abs=1e-6)
    assert result.p1.lon == pytest.approx(5.0, abs=1e-6)
    assert result.p2.lon == pytest.approx(5.0, abs=1e-6)
    oracle_lat = latitude_scan_oracle(c1, c2, 5.0)
    assert result.p1.lat == pytest.approx(oracle_lat, abs=1e-6)


def test_pair_points_on_both_circles():
    rng = random.Random(31)
    checked = 0
    while checked < 200:
        c1 = GeoCircle(random_point(rng), rng.uniform(50_000, 3_000_000))
        bearing = rng.uniform(0, 360)
        d = rng.uniform(100_000, 4_000_000)
        center2 = destination_point(c1.center, bearing, d)
        c2 = GeoCircle(center2, rng.uniform(50_000, 3_000_000))
        result = circle_intersections(c1, c2)
        if not isinstance(result, PairIntersection):
            continue
        checked += 1
        for p in (result.p1, result.p2):
            assert abs(orthodromic_distance(c1.center, p) - c1.radius_m) <= 1.0
            assert abs(orthodromic_distance(c2.center, p) - c2.radius_m) <= 1.0
        assert orthodromic_distance(result.p1, result.p2) > 1.0


def test_intersection_symmetric_in_arguments():
    rng = random.Random(5)
    for _ in range(100):
        c1 = GeoCircle(random_point(rng), rng.uniform(50_000, 2_000_000))
        c2 = GeoCircle(random_point(rng), rng.uniform(50_000, 2_000_000))
        r12 = circle_intersections(c1, c2)
        r21 = circle_intersections(c2, c1)
        if isinstance(r12, PairIntersection):
            assert isinstance(r21, PairIntersection)
            assert orthodromic_distance(r12.p1, r21.p1) <= 2.0
            assert orthodromic_distance(r12.p2, r21.p2) <= 2.0
        elif isinstance(r12, Tangent):
            assert isinstance(r21, Tangent)
            assert orthodromic_distance(r12.point, r21.point) <= 2.0
        elif isinstance(r12, NonOverlapping):
            assert r21 == NonOverlapping(gap_m=pytest.approx(r12.gap_m, abs=1e-3))
        else:
            assert isinstance(r21, Contained)
            assert {r12.inner, r21.inner} == {1, 2}


def test_geopoint_validation():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    assert GeoPoint(0.0, -180.0).lon == 180.0
    assert GeoPoint(0.0, 360.0).lon == 0.0


@given(lon=st.floats(-180.0, 180.0, exclude_min=True))
def test_normalize_lon_is_the_identity_in_range(lon):
    # A negative longitude went through lon % 360.0, that is lon + 360 - 360,
    # and lost its low bits: -87.97055015365046 came back as ...049.
    assert normalize_lon(lon).hex() == (lon + 0.0).hex()
    assert GeoPoint(0.0, lon).lon.hex() == (lon + 0.0).hex()


@given(lon=st.floats(-1e6, 1e6))
def test_normalize_lon_is_idempotent_and_in_range(lon):
    once = normalize_lon(lon)
    assert -180.0 < once <= 180.0
    assert normalize_lon(once).hex() == once.hex()
    turns = round((lon - once) / 360.0)
    assert once == pytest.approx(lon - 360.0 * turns, abs=1e-9 * max(1.0, abs(lon)))


def test_normalize_lon_edges():
    assert GeoPoint(0, -87.97055015365046).lon == -87.97055015365046
    for lon, want in ((-0.0, 0.0), (0.0, 0.0), (-180.0, 180.0), (180.0, 180.0), (540.0, 180.0),
                      (-540.0, 180.0), (360.0, 0.0), (-360.0, 0.0), (-1e-300, -1e-300)):
        got = normalize_lon(lon)
        assert type(got) is float and got.hex() == want.hex(), lon


@given(lons=st.lists(st.floats(-1e4, 1e4) | st.sampled_from([-0.0, -180.0, 180.0]), max_size=20))
def test_normalize_lon_on_arrays_matches_the_scalar_form(lons):
    got = normalize_lon(np.array(lons, dtype=float))
    assert [x.hex() for x in got.tolist()] == [normalize_lon(x).hex() for x in lons]


@pytest.mark.parametrize("lat, lon", [(0.0, math.nan), (0.0, math.inf), (0.0, -math.inf),
                                      (math.nan, 0.0), (math.inf, 0.0)])
def test_geopoint_rejects_non_finite(lat, lon):
    with pytest.raises(ValueError):
        GeoPoint(lat, lon)


def test_pair_past_the_wrap_bound_is_classified_on_its_antipodal_circles():
    # r1 + r2 + d > 2*pi*R: no point can lie on both circles. Classified as
    # given, the pair crossed, with points 1 334 km off the second circle.
    r = 0.95 * math.pi * EARTH_RADIUS_M
    c1, c2 = GeoCircle(GeoPoint(0, 0), r), GeoCircle(GeoPoint(0, 30), r)
    result = circle_intersections(c1, c2)
    assert isinstance(result, NonOverlapping)
    d = orthodromic_distance(c1.center, c2.center)
    assert result.gap_m == pytest.approx(d - (2 * math.pi * EARTH_RADIUS_M - 2 * r), abs=1e-3)
    a1, a2, d_a = scalar_pairs.classified_pair(c1, c2)
    assert (a1.center, a2.center) == (GeoPoint(0, 180), GeoPoint(0, -150))
    assert a1.radius_m == a2.radius_m == pytest.approx(0.05 * math.pi * EARTH_RADIUS_M)
    assert d_a == pytest.approx(d, abs=1e-6)
    # A pair within the bound is classified as given.
    near = GeoCircle(c2.center, 1000.0)
    assert scalar_pairs.classified_pair(c1, near)[:2] == (c1, near)


def test_destination_point_from_a_pole():
    target = GeoPoint(-60.0, 40.0)
    for pole in (GeoPoint(-90.0, 0.0), GeoPoint(90.0, 0.0), GeoPoint(-89.99999999999999, 7.0)):
        bearing = scalar_pairs.initial_bearing(pole, target)
        p = destination_point(pole, bearing, orthodromic_distance(pole, target))
        # The longitude cancelled to rounding noise: 2 713 km off at the poles.
        assert orthodromic_distance(p, target) < 1e-3


# ---------------------------------------------------------------------------
# Properties of circle_intersections on pairs anywhere on the sphere, with
# radii up to pi * R, including pairs past the wrap bound d <= 2*pi*R - r1 - r2.

PI_R = math.pi * EARTH_RADIUS_M
TAU = 1.0  # the 1 m tolerance

NEAR_POLE_CENTERS = st.builds(
    GeoPoint, lat=st.one_of(st.floats(75.0, 90.0), st.floats(-90.0, -75.0)),
    lon=st.floats(-180.0, 180.0))
ANTIMERIDIAN_CENTERS = st.builds(
    GeoPoint, lat=st.floats(-70.0, 70.0),
    lon=st.one_of(st.floats(170.0, 180.0), st.floats(-180.0, -170.0)))
ANY_CENTERS = st.builds(GeoPoint, lat=st.floats(-90.0, 90.0), lon=st.floats(-180.0, 180.0))
RADII = st.one_of(st.floats(0.0, PI_R), st.floats(0.8 * PI_R, PI_R))


@st.composite
def circle_pairs(draw):
    """Two circles whose centers both lie near a pole, both across the
    antimeridian, or anywhere."""
    centers = draw(st.sampled_from([NEAR_POLE_CENTERS, ANTIMERIDIAN_CENTERS, ANY_CENTERS]))
    return (GeoCircle(draw(centers), draw(RADII)), GeoCircle(draw(centers), draw(RADII)))


def result_points(result) -> list[GeoPoint]:
    if isinstance(result, PairIntersection):
        return [result.p1, result.p2]
    if isinstance(result, Tangent):
        return [result.point]
    return []


@settings(max_examples=1000, deadline=None)
@given(pair=circle_pairs())
def test_intersection_points_lie_on_both_circles(pair):
    try:
        result = circle_intersections(*pair)
    except DegenerateCirclesError:
        return
    for p in result_points(result):
        for c in pair:
            assert abs(orthodromic_distance(c.center, p) - c.radius_m) <= TAU


@settings(max_examples=1000, deadline=None)
@given(pair=circle_pairs())
def test_intersection_is_the_same_point_set_when_swapped(pair):
    c1, c2 = pair
    try:
        r12 = circle_intersections(c1, c2)
    except DegenerateCirclesError:
        return
    r21 = circle_intersections(c2, c1)
    assert type(r21) is type(r12)
    if isinstance(r12, NonOverlapping):
        assert abs(r12.gap_m - r21.gap_m) <= TAU
    elif isinstance(r12, Contained):
        assert {r12.inner, r21.inner} == {1, 2}
    # As sets: two points of equal latitude may swap places in the pair.
    points12, points21 = result_points(r12), result_points(r21)
    for p in points12:
        assert min(orthodromic_distance(p, q) for q in points21) <= TAU
    for q in points21:
        assert min(orthodromic_distance(p, q) for p in points12) <= TAU


@settings(max_examples=1000, deadline=None)
@given(pair=circle_pairs())
def test_circle_intersections_agrees_with_the_scalar_reference(pair):
    # A batch of one for the array solver against the scalar code: the same
    # case, unless the pair lies within rounding of a case boundary, and
    # points within scalar_pairs.point_bound_m of the scalar ones.
    try:
        got = circle_intersections(*pair)
    except DegenerateCirclesError:
        got = None
    try:
        want = scalar_pairs.circle_intersections(*pair)
    except DegenerateCirclesError:
        want = None
    except ValueError:
        # The scalar destination formula rejects an internal tangency's arc
        # (d + r1 + r2) / 2 up to tau / 2 past pi * R; the solver takes it.
        assert isinstance(got, Tangent)
        for c in pair:
            assert abs(orthodromic_distance(c.center, got.point) - c.radius_m) <= TAU
        return
    if (type(got), getattr(got, "inner", None)) != (type(want), getattr(want, "inner", None)):
        assert scalar_pairs.boundary_margin_m(*pair) <= scalar_pairs.BOUNDARY_M
        return
    if isinstance(want, NonOverlapping):
        assert got.gap_m == pytest.approx(want.gap_m, abs=1e-6)
    for p in result_points(got):
        assert normalize_lon(p.lon).hex() == p.lon.hex()
    scalar_pairs.check_points(*pair, result_points(got), result_points(want))


@settings(max_examples=1000, deadline=None)
@given(a=st.one_of(ANY_CENTERS, NEAR_POLE_CENTERS, ANTIMERIDIAN_CENTERS), b=ANY_CENTERS,
       bearing=st.floats(-720.0, 720.0), distance=st.floats(0.0, PI_R))
def test_destination_point_agrees_with_the_scalar_reference(a, b, bearing, distance):
    got, want = destination_point(a, bearing, distance), scalar_pairs.destination_point(a, bearing, distance)
    assert normalize_lon(got.lon).hex() == got.lon.hex()
    well = max(abs(a.lat), abs(want.lat)) <= 89.99
    assert orthodromic_distance(got, want) <= (POINT_BOUND_M if well else LOOSE_BOUND_M)
    # The bearing convention is the scalar initial bearing's: along it, the
    # distance from a to b leads to b.
    d = orthodromic_distance(a, b)
    if 1.0 <= d <= PI_R - 1.0:
        reached = destination_point(a, scalar_pairs.initial_bearing(a, b), d)
        well = max(abs(a.lat), abs(b.lat)) <= 89.99
        assert orthodromic_distance(reached, b) <= (POINT_BOUND_M if well else LOOSE_BOUND_M)
