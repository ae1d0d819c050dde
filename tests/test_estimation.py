import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latloc.errors import EstimationError
from latloc.estimation import (
    EstimatedLocation,
    GridSearchConfig,
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
    orthodromic_distance,
)
from latloc.lateration import CandidatePoint, LandmarkCircle

FAST_GRID = GridSearchConfig(eps0_m=50_000.0, eps_min_m=500.0)


def cand(lat, lon, tag="pair_branch", pair=("a", "b")) -> CandidatePoint:
    return CandidatePoint(point=GeoPoint(lat, lon), source_pair=pair, case_tag=tag)


def mean_distance(p: GeoPoint, points) -> float:
    return sum(orthodromic_distance(p, q) for q in points) / len(points)


def test_config_validation():
    with pytest.raises(ValueError):
        GridSearchConfig(eps0_m=100.0, eps_min_m=500.0)
    with pytest.raises(ValueError):
        GridSearchConfig(eps_min_m=0.0)


@pytest.mark.parametrize("field", ["eps0_m", "eps_min_m"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_rejects_non_finite_spacing(field, bad):
    # NaN made every check false, and grid_center then ran zero steps.
    with pytest.raises(ValueError, match="finite"):
        GridSearchConfig(**{field: bad})


def test_grid_center_single_point():
    p = GeoPoint(48.0, 11.0)
    center = grid_center([p], FAST_GRID)
    assert orthodromic_distance(center, p) <= 2 * FAST_GRID.eps_min_m


def test_grid_center_two_points_geodesic_midpoint():
    a = GeoPoint(0.0, 0.0)
    b = GeoPoint(0.0, 8.0)
    center = grid_center([a, b], FAST_GRID)
    midpoint = GeoPoint(0.0, 4.0)
    # Any point on the connecting geodesic minimizes the mean, so compare
    # objectives rather than positions.
    assert mean_distance(center, [a, b]) <= mean_distance(midpoint, [a, b]) + FAST_GRID.eps_min_m


def test_grid_center_empty_cloud():
    with pytest.raises(EstimationError):
        grid_center([], FAST_GRID)


def test_grid_center_matches_dense_grid_oracle():
    rng = random.Random(21)
    origin = GeoPoint(46.0, 9.0)
    points = [
        destination_point(origin, rng.uniform(0, 360), rng.uniform(0, 250_000))
        for _ in range(50)
    ]
    found = grid_center(points, GridSearchConfig(eps0_m=100_000.0, eps_min_m=100.0))
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
    assert grid_center(points, FAST_GRID) == grid_center(points, FAST_GRID)


def test_spherical_centroid_symmetric_pair():
    c = spherical_centroid([GeoPoint(10, 0), GeoPoint(-10, 0)])
    assert c.lat == pytest.approx(0.0, abs=1e-9)
    assert c.lon == pytest.approx(0.0, abs=1e-9)


def test_filter_identical_points_keeps_center():
    points = [cand(45.0, 7.0) for _ in range(6)]
    kept, dropped = filter_outliers(points, FAST_GRID)
    assert len(kept) >= 3
    center = grid_center([c.point for c in kept], FAST_GRID)
    assert orthodromic_distance(center, GeoPoint(45.0, 7.0)) <= 2 * FAST_GRID.eps_min_m


def test_filter_drops_far_outlier():
    cluster = [cand(45.0 + 0.01 * i, 7.0) for i in range(9)]
    outlier = cand(30.0, -20.0)
    kept, dropped = filter_outliers(cluster + [outlier], FAST_GRID)
    # Round one drops ceil(10 / 4) = 3 farthest, round two ceil(7 / 4) = 2.
    assert outlier in dropped[:3]
    assert (len(kept), len(dropped)) == (5, 5)


def test_filter_never_drops_below_three():
    # 4 to 7 points reach 3 in the first round or the second; 8 stop at 4.
    for n, n_kept in [(3, 3), (4, 3), (5, 3), (6, 3), (7, 3), (8, 4)]:
        points = [cand(40.0 + i, 5.0 * i) for i in range(n)]
        kept, dropped = filter_outliers(points, FAST_GRID)
        assert (len(kept), len(dropped)) == (n_kept, n - n_kept)


def test_filter_drop_order_respects_distance():
    points = [cand(45.0, 7.0 + 0.5 * i) for i in range(8)]
    kept, dropped = filter_outliers(points, FAST_GRID)
    # Each round drops the quarter of its input farthest from that input's
    # grid center, in input order: 2 of 8, then 2 of 6.
    assert len(dropped) == 4
    remaining = points
    for round_dropped in (dropped[:2], dropped[2:]):
        center = grid_center([c.point for c in remaining], FAST_GRID)
        stay = [c for c in remaining if c not in round_dropped]
        assert [c for c in remaining if c in round_dropped] == round_dropped
        assert min(orthodromic_distance(center, c.point) for c in round_dropped) > \
            max(orthodromic_distance(center, c.point) for c in stay)
        remaining = stay
    assert remaining == kept


def test_filter_partition_is_complete():
    rng = random.Random(6)
    points = [cand(rng.uniform(40, 50), rng.uniform(0, 10)) for i in range(12)]
    kept, dropped = filter_outliers(points, FAST_GRID)
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
    result = estimate_target(exact_circles(target, centers), FAST_GRID)
    assert orthodromic_distance(result.point, target) <= max(2 * FAST_GRID.eps_min_m, 5000)


def test_estimate_ten_exact_circles():
    target = GeoPoint(47.0, 9.0)
    rng = random.Random(77)
    centers = [GeoPoint(rng.uniform(38, 58), rng.uniform(-8, 28)) for _ in range(10)]
    result = estimate_target(exact_circles(target, centers), FAST_GRID)
    assert orthodromic_distance(result.point, target) <= max(2 * FAST_GRID.eps_min_m, 5000)
    assert result.mean_residual_km < 50.0


def test_estimate_two_circles_pair_ambiguity():
    c1 = LandmarkCircle("a", GeoCircle(GeoPoint(0, 0), 700_000))
    c2 = LandmarkCircle("b", GeoCircle(GeoPoint(0, 10), 700_000))
    result = estimate_target([c1, c2], FAST_GRID)
    # Two mirror branches and no third landmark: the estimate is the grid
    # center of both by definition. The mean-distance objective is flat
    # along the geodesic joining the branches, so assert objective
    # optimality rather than a unique position.
    assert len(result.kept_points) == 2
    branches = [c.point for c in result.kept_points]
    assert result.point == grid_center(branches, FAST_GRID)
    midpoint = GeoPoint(0.0, 5.0)
    assert mean_distance(result.point, branches) <= \
        mean_distance(midpoint, branches) + FAST_GRID.eps_min_m


def test_estimate_requires_two_circles():
    with pytest.raises(EstimationError):
        estimate_target([LandmarkCircle("a", GeoCircle(GeoPoint(0, 0), 1000.0))], FAST_GRID)


def test_estimate_no_candidates_error():
    c1 = LandmarkCircle("a", GeoCircle(GeoPoint(0, 0), 10_000))
    c2 = LandmarkCircle("b", GeoCircle(GeoPoint(0, 40), 10_000))
    with pytest.raises(EstimationError, match="dropped"):
        estimate_target([c1, c2], FAST_GRID, gap_max_km=100.0)


def test_estimate_deterministic():
    target = GeoPoint(50.0, 12.0)
    rng = random.Random(3)
    centers = [GeoPoint(rng.uniform(40, 58), rng.uniform(-5, 25)) for _ in range(6)]
    circles = exact_circles(target, centers)
    assert estimate_target(circles, FAST_GRID) == estimate_target(circles, FAST_GRID)


def test_estimate_serializes():
    target = GeoPoint(50.0, 12.0)
    circles = exact_circles(target, [GeoPoint(45, 5), GeoPoint(55, 15), GeoPoint(45, 20)])
    result = estimate_target(circles, FAST_GRID)
    doc = result.to_dict()
    assert set(doc) == {"estimate", "kept_points", "dropped_points", "mean_residual_km"}
    assert json.loads(json.dumps(doc)) == doc


def test_document_writer_matches_json_on_an_estimate():
    target = GeoPoint(50.0, 12.0)
    circles = exact_circles(target, [GeoPoint(45, 5), GeoPoint(55, 15), GeoPoint(45, 20)])
    doc = estimate_target(circles, FAST_GRID).to_dict()
    assert estimate_document_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Floats json spells its own way, and the edges of float.__repr__'s formats.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-5, 9.999999999999999e-06,
               1e-7, 1e16, 1.2345678901234567e16, 1e300, math.nan, math.inf, -math.inf]
DOC_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
DOC_STRINGS = st.text(st.one_of(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9",
                                                 "\u2028", "\U0001f600"]),
                                st.characters()), max_size=6)
LATLON = st.fixed_dictionaries({"lat": DOC_FLOATS, "lon": DOC_FLOATS})
CANDIDATES = st.lists(st.fixed_dictionaries({
    "lat": DOC_FLOATS, "lon": DOC_FLOATS, "case_tag": DOC_STRINGS,
    "source_pair": st.lists(DOC_STRINGS, max_size=3), "weight": DOC_FLOATS,
}), max_size=4)
DOCUMENTS = st.fixed_dictionaries(
    {"estimate": LATLON, "kept_points": CANDIDATES, "dropped_points": CANDIDATES,
     "mean_residual_km": DOC_FLOATS},
    optional={"truth": LATLON, "error_km": DOC_FLOATS},
)


@settings(max_examples=300, deadline=None)
@given(doc=DOCUMENTS)
def test_document_writer_is_byte_identical_to_json(doc):
    assert estimate_document_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Oracle: the scalar grid search and filter, one objective evaluation per grid
# point and per candidate. The array code must reproduce them bit for bit.


class _ScalarCloud:
    def __init__(self, points):
        self.lat = np.radians([p.lat for p in points])
        self.lon = np.radians([p.lon for p in points])
        self.sin_lat = np.sin(self.lat)
        self.cos_lat = np.cos(self.lat)

    def mean_distance_m(self, p):
        phi = math.radians(p.lat)
        lam = math.radians(p.lon)
        dlon = self.lon - lam
        num = np.hypot(
            self.cos_lat * np.sin(dlon),
            math.cos(phi) * self.sin_lat - math.sin(phi) * self.cos_lat * np.cos(dlon),
        )
        den = math.sin(phi) * self.sin_lat + math.cos(phi) * self.cos_lat * np.cos(dlon)
        return float(np.mean(np.arctan2(num, den))) * EARTH_RADIUS_M


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


def scalar_grid_center(points, cfg):
    cloud = _ScalarCloud(points)
    best = spherical_centroid(points)
    best_obj = cloud.mean_distance_m(best)
    eps = cfg.eps0_m
    while eps >= cfg.eps_min_m:
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


def scalar_filter_outliers(points, grid_cfg):
    kept = list(points)
    dropped = []
    for _ in range(2):  # two rounds, each dropping the farthest 25%
        if len(kept) <= 3:
            break
        center = scalar_grid_center([c.point for c in kept], grid_cfg)
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


ORACLE_GRIDS = st.builds(
    GridSearchConfig,
    eps0_m=st.sampled_from([8_000.0, 20_000.0, 60_000.0]),
    eps_min_m=st.sampled_from([500.0, 2_000.0]),
)


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
@given(points=ORACLE_CLOUDS, cfg=ORACLE_GRIDS)
def test_grid_center_matches_scalar_oracle(points, cfg):
    assert bits(grid_center(points, cfg)) == bits(scalar_grid_center(points, cfg))


@settings(max_examples=40, deadline=None)
@given(points=ORACLE_CLOUDS, cfg=ORACLE_GRIDS)
def test_filter_outliers_matches_scalar_oracle(points, cfg):
    cands = [cand(p.lat, p.lon, pair=(f"a{i}", "b")) for i, p in enumerate(points)]
    kept, dropped = filter_outliers(cands, cfg)
    ref_kept, ref_dropped = scalar_filter_outliers(cands, cfg)
    # Identity, not equality: duplicate points must keep their input order.
    assert [id(c) for c in kept] == [id(c) for c in ref_kept]
    assert [id(c) for c in dropped] == [id(c) for c in ref_dropped]
