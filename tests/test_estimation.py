import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latloc import estimation
from latloc.errors import EstimationError
from latloc.estimation import (
    EPS0_M,
    EPS_MIN_M,
    EXTENT,
    EstimatedLocation,
    _Cloud,
    _grid,
    _query_terms,
    _step_winner,
    estimate_document_json,
    estimate_target,
    filter_outliers,
    grid_center,
    spherical_centroid,
)
from latloc.geodesy import (
    EARTH_RADIUS_M,
    GeoCircle,
    GeoPoint,
    destination_point,
    normalize_lon,
    orthodromic_distance,
)
from latloc.lateration import CandidatePoint, LandmarkCircle

def cand(lat, lon, tag="pair_branch", pair=("a", "b")) -> CandidatePoint:
    return CandidatePoint(point=GeoPoint(lat, lon), source_pair=pair, case_tag=tag)


def mean_distance(p: GeoPoint, points) -> float:
    return sum(orthodromic_distance(p, q) for q in points) / len(points)


def test_grid_center_single_point():
    p = GeoPoint(48.0, 11.0)
    center = grid_center([p])
    assert orthodromic_distance(center, p) <= 2 * EPS_MIN_M


def test_grid_center_two_points_geodesic_midpoint():
    a = GeoPoint(0.0, 0.0)
    b = GeoPoint(0.0, 8.0)
    center = grid_center([a, b])
    midpoint = GeoPoint(0.0, 4.0)
    # Any point on the connecting geodesic minimizes the mean, so compare
    # objectives rather than positions.
    assert mean_distance(center, [a, b]) <= mean_distance(midpoint, [a, b]) + EPS_MIN_M


def test_grid_center_empty_cloud():
    with pytest.raises(EstimationError):
        grid_center([])


def test_grid_center_matches_dense_grid_oracle():
    rng = random.Random(21)
    origin = GeoPoint(46.0, 9.0)
    points = [
        destination_point(origin, rng.uniform(0, 360), rng.uniform(0, 250_000))
        for _ in range(50)
    ]
    found = grid_center(points)
    found_obj = mean_distance(found, points)

    # Independent brute force: dense lat/lon grid at 100 m spacing around the
    # cloud's bounding box center.
    lats = [p.lat for p in points]
    lons = [p.lon for p in points]
    c_lat, c_lon = (min(lats) + max(lats)) / 2, (min(lons) + max(lons)) / 2
    dlat = math.degrees(100.0 / 6_371_008.8)
    dlon = dlat / math.cos(math.radians(c_lat))
    span_lat = (max(lats) - min(lats)) / 2 + 2 * dlat
    span_lon = (max(lons) - min(lons)) / 2 + 2 * dlon
    best = math.inf
    steps = int(span_lat / dlat)
    lat_grid = np.linspace(c_lat - span_lat, c_lat + span_lat, 2 * steps + 1)
    lon_grid = np.linspace(c_lon - span_lon, c_lon + span_lon, 2 * steps + 1)
    # Thin the oracle grid for runtime; 100 m near the optimum only.
    coarse = [GeoPoint(la, lo) for la in lat_grid[::20] for lo in lon_grid[::20]]
    rough = min(coarse, key=lambda p: mean_distance(p, points))
    fine = [
        GeoPoint(rough.lat + i * dlat, rough.lon + j * dlon)
        for i in range(-25, 26) for j in range(-25, 26)
    ]
    best = min(mean_distance(p, points) for p in fine)
    assert found_obj <= best * 1.01


def test_grid_center_deterministic():
    rng = random.Random(12)
    points = [GeoPoint(rng.uniform(40, 50), rng.uniform(0, 10)) for _ in range(15)]
    assert grid_center(points) == grid_center(points)


def test_spherical_centroid_symmetric_pair():
    c = spherical_centroid([GeoPoint(10, 0), GeoPoint(-10, 0)])
    assert c.lat == pytest.approx(0.0, abs=1e-9)
    assert c.lon == pytest.approx(0.0, abs=1e-9)


def test_filter_identical_points_keeps_center():
    points = [cand(45.0, 7.0) for _ in range(6)]
    kept, dropped = filter_outliers(points)
    assert len(kept) >= 3
    center = grid_center([c.point for c in kept])
    assert orthodromic_distance(center, GeoPoint(45.0, 7.0)) <= 2 * EPS_MIN_M


def test_filter_drops_far_outlier():
    cluster = [cand(45.0 + 0.01 * i, 7.0) for i in range(9)]
    outlier = cand(30.0, -20.0)
    kept, dropped = filter_outliers(cluster + [outlier])
    # Round one drops ceil(10 / 4) = 3 farthest, round two ceil(7 / 4) = 2.
    assert outlier in dropped[:3]
    assert (len(kept), len(dropped)) == (5, 5)


def test_filter_never_drops_below_three():
    # 4 to 7 points reach 3 in the first round or the second; 8 stop at 4.
    for n, n_kept in [(3, 3), (4, 3), (5, 3), (6, 3), (7, 3), (8, 4)]:
        points = [cand(40.0 + i, 5.0 * i) for i in range(n)]
        kept, dropped = filter_outliers(points)
        assert (len(kept), len(dropped)) == (n_kept, n - n_kept)


def test_filter_drop_order_respects_distance():
    points = [cand(45.0, 7.0 + 0.5 * i) for i in range(8)]
    kept, dropped = filter_outliers(points)
    # Each round drops the quarter of its input farthest from that input's
    # grid center, in input order: 2 of 8, then 2 of 6.
    assert len(dropped) == 4
    remaining = points
    for round_dropped in (dropped[:2], dropped[2:]):
        center = grid_center([c.point for c in remaining])
        stay = [c for c in remaining if c not in round_dropped]
        assert [c for c in remaining if c in round_dropped] == round_dropped
        assert min(orthodromic_distance(center, c.point) for c in round_dropped) > \
            max(orthodromic_distance(center, c.point) for c in stay)
        remaining = stay
    assert remaining == kept


def test_filter_partition_is_complete():
    rng = random.Random(6)
    points = [cand(rng.uniform(40, 50), rng.uniform(0, 10)) for i in range(12)]
    kept, dropped = filter_outliers(points)
    assert sorted(kept + dropped, key=lambda c: (c.point.lat, c.point.lon)) == \
        sorted(points, key=lambda c: (c.point.lat, c.point.lon))


def exact_circles(target, centers):
    return [
        LandmarkCircle(f"l{i}", GeoCircle(c, orthodromic_distance(c, target)))
        for i, c in enumerate(centers)
    ]


def test_estimate_three_exact_circles():
    target = GeoPoint(48.0, 10.0)
    centers = [GeoPoint(44.0, 4.0), GeoPoint(52.0, 16.0), GeoPoint(42.0, 18.0)]
    result = estimate_target(exact_circles(target, centers))
    assert orthodromic_distance(result.point, target) <= max(2 * EPS_MIN_M, 5000)


def test_estimate_ten_exact_circles():
    target = GeoPoint(47.0, 9.0)
    rng = random.Random(77)
    centers = [GeoPoint(rng.uniform(38, 58), rng.uniform(-8, 28)) for _ in range(10)]
    result = estimate_target(exact_circles(target, centers))
    assert orthodromic_distance(result.point, target) <= max(2 * EPS_MIN_M, 5000)
    assert result.mean_residual_km < 50.0


def test_estimate_two_circles_pair_ambiguity():
    c1 = LandmarkCircle("a", GeoCircle(GeoPoint(0, 0), 700_000))
    c2 = LandmarkCircle("b", GeoCircle(GeoPoint(0, 10), 700_000))
    result = estimate_target([c1, c2])
    # Two mirror branches and no third landmark: the estimate is the grid
    # center of both by definition. The mean-distance objective is flat
    # along the geodesic joining the branches, so assert objective
    # optimality rather than a unique position.
    assert len(result.kept_points) == 2
    branches = [c.point for c in result.kept_points]
    assert result.point == grid_center(branches)
    midpoint = GeoPoint(0.0, 5.0)
    assert mean_distance(result.point, branches) <= \
        mean_distance(midpoint, branches) + EPS_MIN_M


def test_estimate_requires_two_circles():
    with pytest.raises(EstimationError):
        estimate_target([LandmarkCircle("a", GeoCircle(GeoPoint(0, 0), 1000.0))])


def test_estimate_no_candidates_error():
    c1 = LandmarkCircle("a", GeoCircle(GeoPoint(0, 0), 10_000))
    c2 = LandmarkCircle("b", GeoCircle(GeoPoint(0, 40), 10_000))
    with pytest.raises(EstimationError, match="dropped"):
        estimate_target([c1, c2])


def test_estimate_deterministic():
    target = GeoPoint(50.0, 12.0)
    rng = random.Random(3)
    centers = [GeoPoint(rng.uniform(40, 58), rng.uniform(-5, 25)) for _ in range(6)]
    circles = exact_circles(target, centers)
    assert estimate_target(circles) == estimate_target(circles)


def test_estimate_serializes():
    target = GeoPoint(50.0, 12.0)
    circles = exact_circles(target, [GeoPoint(45, 5), GeoPoint(55, 15), GeoPoint(45, 20)])
    result = estimate_target(circles)
    doc = result.to_dict()
    assert set(doc) == {"estimate", "kept_points", "dropped_points", "mean_residual_km"}
    assert json.loads(json.dumps(doc)) == doc


def json_document(est: EstimatedLocation, truth: GeoPoint | None = None) -> str:
    """The writer's oracle: one indent-2 dump of to_dict(), with the truth
    and its error when given."""
    doc = est.to_dict()
    if truth is not None:
        doc["truth"] = {"lat": truth.lat, "lon": truth.lon}
        doc["error_km"] = orthodromic_distance(truth, est.point) / 1000.0
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_document_writer_matches_json_on_an_estimate():
    target = GeoPoint(50.0, 12.0)
    circles = exact_circles(target, [GeoPoint(45, 5), GeoPoint(55, 15), GeoPoint(45, 20)])
    est = estimate_target(circles)
    assert estimate_document_json(est) == json_document(est)
    assert estimate_document_json(est, target) == json_document(est, target)


# Floats json spells its own way, and the edges of float.__repr__'s formats.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-5, 9.999999999999999e-06,
               1e-7, 1e16, 1.2345678901234567e16, 1e300, math.nan, math.inf, -math.inf]
DOC_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
FINITE = [x for x in EDGE_FLOATS if math.isfinite(x)]
POINTS = st.builds(
    GeoPoint,
    lat=st.one_of(st.sampled_from([x for x in FINITE if abs(x) <= 90.0] + [90.0, -90.0]),
                  st.floats(-90.0, 90.0)),
    lon=st.one_of(st.sampled_from(FINITE + [180.0, -180.0]),
                  st.floats(allow_nan=False, allow_infinity=False)),
)
# Landmark ids and case tags with quotes, backslashes, control and non-ASCII
# characters: everything json escapes.
DOC_STRINGS = st.text(st.one_of(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9",
                                                 "\u2028", "\U0001f600"]),
                                st.characters()), max_size=6)
CANDIDATES = st.lists(st.builds(
    CandidatePoint, point=POINTS, case_tag=DOC_STRINGS,
    source_pair=st.tuples(DOC_STRINGS, DOC_STRINGS),
), max_size=4).map(tuple)
ESTIMATES = st.builds(EstimatedLocation, point=POINTS, kept_points=CANDIDATES,
                      dropped_points=CANDIDATES, mean_residual_km=DOC_FLOATS)


@settings(max_examples=300, deadline=None)
@given(est=ESTIMATES, truth=st.one_of(st.none(), POINTS))
def test_document_writer_is_byte_identical_to_json(est, truth):
    assert estimate_document_json(est, truth) == json_document(est, truth)


def json_geojson(est: EstimatedLocation) -> str:
    """to_geojson's oracle: the FeatureCollection as dicts, in one indent-2
    dump."""
    def feature(point, properties):
        return {
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [point.lon, point.lat]},
            "properties": properties,
        }
    features = [feature(est.point, {"kind": "estimate",
                                    "mean_residual_km": est.mean_residual_km})]
    for status, points in (("kept", est.kept_points), ("dropped", est.dropped_points)):
        features.extend(feature(c.point, {
            "kind": "candidate", "status": status,
            "case_tag": c.case_tag, "source_pair": list(c.source_pair),
        }) for c in points)
    doc = {"type": "FeatureCollection", "features": features}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(est=ESTIMATES)
def test_geojson_writer_is_byte_identical_to_json(est):
    assert est.to_geojson() == json_geojson(est)


# ---------------------------------------------------------------------------
# Oracle: the scalar grid search and filter, one objective evaluation per grid
# point and per candidate. The array code must reproduce them bit for bit, so
# the oracle computes the kernel's haversine in the kernel's operation order:
# a near-tie between two grid points must not flip between them.


class _ScalarCloud:
    def __init__(self, points):
        lat = np.radians([p.lat for p in points])
        self.half_lat = lat / 2
        self.half_lon = np.radians([p.lon for p in points]) / 2
        self.cos_lat = np.cos(lat)

    def mean_distance_m(self, p):
        phi = math.radians(p.lat)
        sin_dlon = np.sin(self.half_lon - math.radians(p.lon) / 2)
        sin_dlat = np.sin(self.half_lat - phi / 2)
        h = math.cos(phi) * (sin_dlon * sin_dlon * self.cos_lat) + sin_dlat * sin_dlat
        return float(np.mean(2 * np.arcsin(np.minimum(np.sqrt(h), 1.0)))) * EARTH_RADIUS_M


def _scalar_grid_offsets(center, eps_m):
    dlat_deg = math.degrees(eps_m / EARTH_RADIUS_M)
    cos_lat = math.cos(math.radians(center.lat))
    dlon_deg = math.degrees(eps_m / (EARTH_RADIUS_M * max(cos_lat, 1e-6)))
    offsets = []
    steps = range(-3, 4)  # the 7 x 7 grid
    for i in steps:
        for j in steps:
            if i == 0 and j == 0:
                continue
            lat = center.lat + i * dlat_deg
            if not -90.0 <= lat <= 90.0:
                continue
            offsets.append(GeoPoint(lat, center.lon + j * dlon_deg))
    return offsets


def scalar_grid_center(points):
    cloud = _ScalarCloud(points)
    best = spherical_centroid(points)
    best_obj = cloud.mean_distance_m(best)
    eps = 100_000.0  # the schedule: 100 km, halved while at least 500 m
    while eps >= 500.0:
        winner = None
        winner_key = None
        for cand_pt in _scalar_grid_offsets(best, eps):
            key = (cloud.mean_distance_m(cand_pt), -cand_pt.lat, cand_pt.lon)
            if winner_key is None or key < winner_key:
                winner_key = key
                winner = cand_pt
        if winner is not None and winner_key[0] < best_obj:
            best = winner
            best_obj = winner_key[0]
        else:
            eps /= 2.0
    return best


def scalar_filter_outliers(points):
    kept = list(points)
    dropped = []
    for _ in range(2):  # two rounds, each dropping the farthest 25%
        if len(kept) <= 3:
            break
        center = scalar_grid_center([c.point for c in kept])
        cloud = _ScalarCloud([center])
        n_drop = min(math.ceil(0.25 * len(kept)), len(kept) - 3)
        ranked = sorted(range(len(kept)),
                        key=lambda i: (-cloud.mean_distance_m(kept[i].point), i))
        drop_idx = set(ranked[:n_drop])
        dropped.extend(kept[i] for i in sorted(drop_idx))
        kept = [c for i, c in enumerate(kept) if i not in drop_idx]
    return kept, dropped


def bits(p: GeoPoint) -> tuple[str, str]:
    return float.hex(p.lat), float.hex(p.lon)


@st.composite
def clouds(draw, origin, max_km, max_size=25):
    """Points scattered up to max_km around origin, some of them repeated."""
    o = draw(origin)
    n = draw(st.integers(1, max_size))
    pts = [
        destination_point(o, draw(st.floats(0, 360)), draw(st.floats(0, max_km * 1000.0)))
        for _ in range(n)
    ]
    repeats = draw(st.lists(st.sampled_from(pts), max_size=4))
    return pts + repeats


@st.composite
def rings(draw, origin):
    """Points at one distance and evenly spaced bearings around origin, so
    their distances to a center nearby tie up to rounding."""
    o = draw(origin)
    radius_m = draw(st.sampled_from([1_000.0, 50_000.0, 300_000.0]))
    n = draw(st.integers(4, 8))
    return [destination_point(o, 360.0 * k / n, radius_m) for k in range(n)]


ANTIMERIDIAN = st.builds(
    GeoPoint,
    lat=st.floats(-70.0, 70.0),
    lon=st.one_of(st.floats(179.0, 180.0), st.floats(-180.0, -179.0)),
)
NEAR_POLE = st.builds(
    GeoPoint,
    lat=st.one_of(st.sampled_from([90.0, -90.0]), st.floats(89.97, 90.0), st.floats(-90.0, -89.97)),
    lon=st.floats(-180.0, 180.0),
)
ANYWHERE = st.builds(GeoPoint, lat=st.floats(-90.0, 90.0), lon=st.floats(-180.0, 180.0))

ORACLE_CLOUDS = st.one_of(
    clouds(ANTIMERIDIAN, 300.0),
    clouds(NEAR_POLE, 5.0),
    clouds(ANYWHERE, 2000.0),
    st.builds(lambda p, n: [p] * n, ANYWHERE, st.integers(1, 6)),
    rings(ANYWHERE),
)


@settings(max_examples=60, deadline=None)
@given(points=ORACLE_CLOUDS)
def test_grid_center_matches_scalar_oracle(points):
    assert bits(grid_center(points)) == bits(scalar_grid_center(points))


@settings(max_examples=40, deadline=None)
@given(points=ORACLE_CLOUDS)
def test_filter_outliers_matches_scalar_oracle(points):
    cands = [cand(p.lat, p.lon, pair=(f"a{i}", "b")) for i, p in enumerate(points)]
    kept, dropped = filter_outliers(cands)
    ref_kept, ref_dropped = scalar_filter_outliers(cands)
    # Identity, not equality: duplicate points must keep their input order.
    assert [id(c) for c in kept] == [id(c) for c in ref_kept]
    assert [id(c) for c in dropped] == [id(c) for c in ref_dropped]


# ---------------------------------------------------------------------------
# grid_center takes the centroid's score from the center of its first grid.
# That center is the centroid to the bit, except that a latitude of -0.0
# becomes 0.0 there: equator clouds test that sign, south-pole clouds a grid
# whose skipped rows move the center below row 3, antimeridian clouds a
# longitude at or near 180 degrees.


@st.composite
def equator_clouds(draw):
    """Points on the equator with either sign of zero, mirrored pairs whose
    sines cancel exactly, and antipodal pairs whose centroid falls back on
    the first point."""
    lon = st.floats(-180.0, 180.0)
    kind = draw(st.sampled_from(["zeros", "mirrored", "antipodal"]))
    if kind == "zeros":
        return draw(st.lists(st.builds(GeoPoint, st.sampled_from([0.0, -0.0]), lon),
                             min_size=1, max_size=6))
    if kind == "mirrored":
        pts = draw(st.lists(st.builds(GeoPoint, st.floats(0.0, 60.0), lon),
                            min_size=1, max_size=4))
        return [q for p in pts for q in (p, GeoPoint(-p.lat, p.lon))]
    p = GeoPoint(draw(st.sampled_from([0.0, -0.0])), draw(lon))
    return [p, antipode(p)]


SOUTH_POLE = st.builds(GeoPoint, lat=st.floats(-90.0, -89.97), lon=st.floats(-180.0, 180.0))
CENTROID_CLOUDS = st.one_of(equator_clouds(), clouds(SOUTH_POLE, 5.0),
                            clouds(NEAR_POLE, 5.0), clouds(ANTIMERIDIAN, 300.0))


@settings(max_examples=200, deadline=None)
@given(points=CENTROID_CLOUDS, eps_m=st.sampled_from([8_000.0, 60_000.0, EPS0_M]))
@example(points=[GeoPoint(-0.0, 10.0), GeoPoint(0.0, -170.0)], eps_m=EPS0_M)
@example(points=[GeoPoint(-89.99, 0.0), GeoPoint(-89.99, 90.0)], eps_m=EPS0_M)
@example(points=[GeoPoint(10.0, 180.0), GeoPoint(-10.0, 180.0)], eps_m=EPS0_M)
def test_first_grid_center_scores_as_the_centroid(points, eps_m):
    cloud = _Cloud(points)
    centroid = spherical_centroid(points)
    center_row, lats, lons, terms = _grid(centroid, eps_m)
    assert (lats[center_row], lons[EXTENT]) == (centroid.lat, centroid.lon)
    score = float(cloud.mean_distance_m(*terms)[center_row, EXTENT])
    assert float.hex(score) == float.hex(cloud.mean_at_m(centroid))
    assert bits(grid_center(points)) == bits(scalar_grid_center(points))


def test_centroid_score_cases_are_reached():
    # The examples above reach the cases they name.
    equator = spherical_centroid([GeoPoint(-0.0, 10.0), GeoPoint(0.0, -170.0)])
    assert math.copysign(1.0, equator.lat) == -1.0
    south = spherical_centroid([GeoPoint(-89.99, 0.0), GeoPoint(-89.99, 90.0)])
    assert _grid(south, EPS0_M)[0] < EXTENT
    assert spherical_centroid([GeoPoint(10.0, 180.0), GeoPoint(-10.0, 180.0)]).lon == 180.0


# ---------------------------------------------------------------------------
# Reference: the step winner as np.delete + np.lexsort picked it. Every grid
# point but the center, ordered by score, then north-most, then west-most,
# then row-major; the first moves the search only if it beats best_obj.


def lexsort_step_winner(obj, center_row, lats, lons, best_obj):
    idx = np.delete(np.arange(obj.size), center_row * len(lons) + 3)
    grid_lat = np.repeat(lats, len(lons))[idx]
    grid_lon = np.tile(lons, len(lats))[idx]
    k = idx[np.lexsort((grid_lon, -grid_lat, obj.ravel()[idx]))[0]]
    row, col = divmod(int(k), len(lons))
    return (row, col) if obj[row, col] < best_obj else None


@st.composite
def step_grids(draw):
    """A step's scores on 4 to 7 rows of 7 (rows past a pole are skipped, so
    the center may sit in any row), drawn from three values so that ties are
    common, ties with best_obj included; grid-like row latitudes, and column
    longitudes that wrap at the antimeridian or repeat, signed zeros included."""
    n_rows = draw(st.integers(4, 7))
    center_row = draw(st.integers(0, n_rows - 1))
    values = draw(st.lists(st.floats(0.0, 1e7), min_size=3, max_size=3))
    obj = np.array(draw(st.lists(st.sampled_from(values), min_size=7 * n_rows,
                                 max_size=7 * n_rows))).reshape(n_rows, 7)
    best_obj = draw(st.one_of(st.sampled_from(values), st.floats(0.0, 1e7)))
    lat0, dlat = draw(st.floats(-90.0, 90.0)), draw(st.floats(1e-6, 10.0))
    lats = [lat0 + i * dlat for i in range(n_rows)]
    lon0, dlon = draw(st.floats(-180.0, 180.0)), draw(st.floats(1e-6, 1e6))
    lons = draw(st.one_of(
        st.just([normalize_lon(lon0 + j * dlon) for j in range(-3, 4)]),
        st.lists(st.sampled_from([-179.5, -0.0, 0.0, 12.25, 180.0]), min_size=7, max_size=7),
    ))
    return obj, center_row, lats, lons, best_obj


@settings(max_examples=500, deadline=None)
@given(grid=step_grids())
def test_step_winner_matches_lexsort_reference(grid):
    obj, center_row, lats, lons, best_obj = grid
    expected = lexsort_step_winner(obj, center_row, lats, lons, best_obj)
    assert _step_winner(obj, center_row, lats, lons, best_obj) == expected


# ---------------------------------------------------------------------------
# The kernel's declared tolerance. It computes the haversine, not the atan2
# form of geodesy.orthodromic_distance. While every cloud point lies within
# 0.9 * pi * R of the query, per point the two angles differ by an ulp or so;
# with the rounding of the sum and the mean, the two means agree to within
# four ulps of the largest distance, pi * R (8 000 random cases of the
# kind kernel_cases draws differed by 2.5 at most). Nearer an antipode h
# rounds near 1, where asin magnifies its rounding: at an exact antipode a
# point's distance was off by up to 0.19 m, so that band has a bound of its
# own. No locate cloud spans 18 000 km, so the grid search never sees it.

ULPS_M = 4 * math.ulp(math.pi * EARTH_RADIUS_M)  # about 1.5e-8 m


def hypot_mean_distances_m(points, queries) -> np.ndarray:
    """Mean distance from each query to the cloud, with np.hypot as numerator."""
    lat = np.radians([p.lat for p in points])
    lon = np.radians([p.lon for p in points])
    phi = [math.radians(q.lat) for q in queries]
    sin_phi = np.array([math.sin(x) for x in phi])[:, None]
    cos_phi = np.array([math.cos(x) for x in phi])[:, None]
    lam = np.array([math.radians(q.lon) for q in queries])[:, None]
    dlon = lon - lam
    num = np.hypot(np.cos(lat) * np.sin(dlon),
                   cos_phi * np.sin(lat) - sin_phi * np.cos(lat) * np.cos(dlon))
    den = sin_phi * np.sin(lat) + cos_phi * np.cos(lat) * np.cos(dlon)
    return np.add.reduce(np.arctan2(num, den), axis=-1) / len(points) * EARTH_RADIUS_M


def antipode(p: GeoPoint) -> GeoPoint:
    return GeoPoint(-p.lat, normalize_lon(p.lon + 180.0))


@st.composite
def kernel_cases(draw):
    """A cloud near a pole, across the antimeridian or anywhere, and one to
    four query points, some of them on a cloud point or on its antipode."""
    points = draw(st.one_of(
        clouds(NEAR_POLE, 5.0), clouds(ANTIMERIDIAN, 300.0), clouds(ANYWHERE, 20_000.0),
    ))
    on_cloud = st.sampled_from(points)
    queries = draw(st.lists(
        st.one_of(on_cloud, on_cloud.map(antipode), NEAR_POLE, ANTIMERIDIAN, ANYWHERE),
        min_size=1, max_size=4,
    ))
    return points, queries


NEAR_M = 0.9 * math.pi * EARTH_RADIUS_M
ANTIPODAL_M = 0.25


@settings(max_examples=300, deadline=None)
@given(case=kernel_cases())
def test_kernel_is_within_declared_tolerance(case):
    points, queries = case
    got = _Cloud(points).mean_distance_m(
        *_query_terms([q.lat for q in queries], [q.lon for q in queries]))
    assert got.shape == (len(queries),)
    hypot = hypot_mean_distances_m(points, queries).tolist()
    for q, value, ref in zip(queries, got.tolist(), hypot):
        near = max(orthodromic_distance(q, p) for p in points) <= NEAR_M
        assert abs(value - ref) <= (ULPS_M if near else ANTIPODAL_M)
        assert abs(value - mean_distance(q, points)) <= (1e-6 if near else ANTIPODAL_M)


class _SinOneUlpOut:
    """numpy, except that sin rounds one ulp away from zero. A sin accurate
    to one ulp may do that, and return -1 - 2**-52 for -pi / 2."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def sin(x):
        y = np.sin(x)
        return np.nextafter(y, np.copysign(np.inf, y))


# Exact antipodes, and pole pairs, whose latitude term is sin(-pi / 2)**2.
# With numpy 2.4's sin and cos on x86-64, h stayed at most 1 + 2**-52, and
# sqrt(h) at most 1, in 6e7 sampled antipodal and pole pairs, so the test
# also runs these pairs with a sin one ulp high, as another build may round it.
ANTIPODES = [(GeoPoint(-90.0, lon), GeoPoint(90.0, normalize_lon(lon + 180.0)))
             for lon in (0.0, 45.0, 180.0)] + [
    (p, antipode(p)) for p in (GeoPoint(0.0, 0.0), GeoPoint(-33.9, 151.2),
                               GeoPoint(48.85, 2.35), GeoPoint(89.5, -179.5))]


@pytest.mark.parametrize("trig", [np, _SinOneUlpOut()], ids=["numpy", "sin-one-ulp-out"])
def test_kernel_is_finite_where_h_rounds_above_one(monkeypatch, trig):
    # With sin rounded outward, sqrt(h) rounds above 1 at all but the last
    # pair: only the clamp keeps asin from returning NaN there.
    monkeypatch.setattr(estimation, "np", trig)
    for p, q in ANTIPODES:
        value = _Cloud([p]).mean_at_m(q)
        assert abs(value - math.pi * EARTH_RADIUS_M) <= ANTIPODAL_M
        assert abs(value - orthodromic_distance(p, q)) <= ANTIPODAL_M
