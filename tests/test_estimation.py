import json
import math
import random
import warnings

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
    _step_winner,
    estimate_document_json,
    estimate_target,
    filter_outliers,
    grid_center,
)
from latloc.geodesy import (
    EARTH_RADIUS_M,
    GeoCircle,
    GeoPoint,
    destination_point,
    normalize_lon,
    orthodromic_distance,
)
from latloc.lateration import CandidatePoint, Candidates, LandmarkCircle, all_candidates
from test_acceptance import C6_K, C6_N_NODES, C6_NOISE_MS, C6_RADIUS_KM, EUROPE
from test_lateration import circle_sets

def cand(lat, lon, tag="pair_branch", pair=("a", "b")) -> CandidatePoint:
    return CandidatePoint(point=GeoPoint(lat, lon), source_pair=pair, case_tag=tag)


def cloud_of(points) -> _Cloud:
    return _Cloud.of([p.lat for p in points], [p.lon for p in points])


def candidate_cloud(cands) -> _Cloud:
    return cloud_of([c.point for c in cands])


def mean_distance(p: GeoPoint, points) -> float:
    return sum(orthodromic_distance(p, q) for q in points) / len(points)


def test_grid_center_single_point():
    p = GeoPoint(48.0, 11.0)
    center = grid_center(cloud_of([p]))
    assert orthodromic_distance(center, p) <= 2 * EPS_MIN_M


def test_grid_center_two_points_geodesic_midpoint():
    a = GeoPoint(0.0, 0.0)
    b = GeoPoint(0.0, 8.0)
    center = grid_center(cloud_of([a, b]))
    midpoint = GeoPoint(0.0, 4.0)
    # Any point on the connecting geodesic minimizes the mean, so compare
    # objectives rather than positions.
    assert mean_distance(center, [a, b]) <= mean_distance(midpoint, [a, b]) + EPS_MIN_M


def test_grid_center_empty_cloud():
    with pytest.raises(EstimationError):
        grid_center(cloud_of([]))


def test_grid_center_matches_dense_grid_oracle():
    rng = random.Random(21)
    origin = GeoPoint(46.0, 9.0)
    points = [
        destination_point(origin, rng.uniform(0, 360), rng.uniform(0, 250_000))
        for _ in range(50)
    ]
    found = grid_center(cloud_of(points))
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
    assert grid_center(cloud_of(points)) == grid_center(cloud_of(points))


def test_spherical_centroid_symmetric_pair():
    c = cloud_of([GeoPoint(10, 0), GeoPoint(-10, 0)]).centroid()
    assert c.lat == pytest.approx(0.0, abs=1e-9)
    assert c.lon == pytest.approx(0.0, abs=1e-9)


def test_filter_identical_points_keeps_center():
    points = [cand(45.0, 7.0) for _ in range(6)]
    kept, dropped = filter_outliers(candidate_cloud(points))
    assert len(kept) >= 3
    center = grid_center(candidate_cloud([points[i] for i in kept]))
    assert orthodromic_distance(center, GeoPoint(45.0, 7.0)) <= 2 * EPS_MIN_M


def test_filter_drops_far_outlier():
    cluster = [cand(45.0 + 0.01 * i, 7.0) for i in range(9)]
    outlier = cand(30.0, -20.0)
    kept, dropped = filter_outliers(candidate_cloud(cluster + [outlier]))
    # Round one drops ceil(10 / 4) = 3 farthest, round two ceil(7 / 4) = 2.
    assert len(cluster) in dropped[:3]
    assert (len(kept), len(dropped)) == (5, 5)


def test_filter_never_drops_below_three():
    # 4 to 7 points reach 3 in the first round or the second; 8 stop at 4.
    for n, n_kept in [(3, 3), (4, 3), (5, 3), (6, 3), (7, 3), (8, 4)]:
        points = [cand(40.0 + i, 5.0 * i) for i in range(n)]
        kept, dropped = filter_outliers(candidate_cloud(points))
        assert (len(kept), len(dropped)) == (n_kept, n - n_kept)


def test_filter_drop_order_respects_distance():
    points = [cand(45.0, 7.0 + 0.5 * i) for i in range(8)]
    kept, dropped = (
        [points[i] for i in positions] for positions in filter_outliers(candidate_cloud(points)))
    # Each round drops the quarter of its input farthest from that input's
    # grid center, in input order: 2 of 8, then 2 of 6.
    assert len(dropped) == 4
    remaining = points
    for round_dropped in (dropped[:2], dropped[2:]):
        center = grid_center(candidate_cloud(remaining))
        stay = [c for c in remaining if c not in round_dropped]
        assert [c for c in remaining if c in round_dropped] == round_dropped
        assert min(orthodromic_distance(center, c.point) for c in round_dropped) > \
            max(orthodromic_distance(center, c.point) for c in stay)
        remaining = stay
    assert remaining == kept


def test_filter_partition_is_complete():
    rng = random.Random(6)
    points = [cand(rng.uniform(40, 50), rng.uniform(0, 10)) for i in range(12)]
    kept, dropped = filter_outliers(candidate_cloud(points))
    assert sorted(kept + dropped) == list(range(12))


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
    # center of both, as the solver gave their unit vectors, by definition.
    # The mean-distance objective is flat along the geodesic joining the
    # branches, so assert objective optimality rather than a unique position.
    assert len(kept_points(result)) == 2
    branches = [c.point for c in kept_points(result)]
    cloud = _Cloud.of([p.lat for p in branches], [p.lon for p in branches],
                      result.candidates.xyz[:, list(result.kept)])
    assert result.point == grid_center(cloud)
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
    doc = to_dict(result)
    assert set(doc) == {"estimate", "kept_points", "dropped_points", "mean_residual_km"}
    assert json.loads(json.dumps(doc)) == doc


def kept_points(est: EstimatedLocation) -> tuple[CandidatePoint, ...]:
    return tuple(map(est.candidates.__getitem__, est.kept))


def dropped_points(est: EstimatedLocation) -> tuple[CandidatePoint, ...]:
    return tuple(map(est.candidates.__getitem__, est.dropped))


def to_dict(est: EstimatedLocation) -> dict:
    """The estimate and its kept and dropped candidates as plain dicts,
    lists and floats: the document `latloc locate` writes, without the
    truth. Every candidate counts equally, so each carries weight 1.0."""
    def cands(points: tuple[CandidatePoint, ...]) -> list[dict]:
        return [{"lat": c.point.lat, "lon": c.point.lon, "source_pair": list(c.source_pair),
                 "case_tag": c.case_tag, "weight": 1.0} for c in points]
    return {"estimate": {"lat": est.point.lat, "lon": est.point.lon},
            "kept_points": cands(kept_points(est)), "dropped_points": cands(dropped_points(est)),
            "mean_residual_km": est.mean_residual_km}


def json_document(est: EstimatedLocation, truth: GeoPoint | None = None) -> str:
    """The writer's oracle: one indent-2 dump of to_dict(est), with the truth
    and its error when given."""
    doc = to_dict(est)
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
), max_size=4)


def columns(cands: list[CandidatePoint]) -> Candidates:
    return Candidates(tuple(c.point.lat for c in cands), tuple(c.point.lon for c in cands),
                      tuple(c.source_pair for c in cands), tuple(c.case_tag for c in cands))


@st.composite
def estimates(draw):
    """An estimate whose kept and dropped candidates are drawn, then
    interleaved into one candidate list in a drawn order."""
    kept, dropped = draw(CANDIDATES), draw(CANDIDATES)
    order = draw(st.permutations(range(len(kept) + len(dropped))))
    cands = [None] * len(order)
    for c, k in zip(kept + dropped, order):
        cands[k] = c
    return EstimatedLocation(draw(POINTS), columns(cands), tuple(order[:len(kept)]),
                             tuple(order[len(kept):]), draw(DOC_FLOATS))


ESTIMATES = estimates()


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
    for status, points in (("kept", kept_points(est)), ("dropped", dropped_points(est))):
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
# the oracle computes each kernel in that kernel's operation order, on unit
# vectors: the grid's scorer, and the filter's atan2 distances. A near-tie
# between two grid points or two candidates must not flip between them.


def _unit_vectors(points, xyz=None) -> list[tuple[float, float, float]]:
    """Each point's unit vector: xyz's, as the circle solver gave them, or
    from its degrees."""
    if xyz is not None:
        return xyz
    vectors = []
    for p in points:
        phi, lam = math.radians(p.lat), math.radians(p.lon)
        vectors.append((math.cos(phi) * math.cos(lam), math.cos(phi) * math.sin(lam),
                        math.sin(phi)))
    return vectors


class _ScalarCloud:
    def __init__(self, points, xyz=None):
        self.x, self.y, self.z = np.array(_unit_vectors(points, xyz)).T

    def grid_score_m(self, p):
        phi, lam = math.radians(p.lat), math.radians(p.lon)
        gx, gy, gz = math.cos(phi) * math.cos(lam), math.cos(phi) * math.sin(lam), math.sin(phi)
        cos = gx * self.x + gy * self.y + gz * self.z
        return float(np.mean(np.arccos(np.clip(cos, -1.0, 1.0)))) * EARTH_RADIUS_M

    def mean_distance_m(self, p):
        """R·atan2(|p × c|, p · c) for each cloud point c, with p's unit
        vector from math, then the mean."""
        phi, lam = math.radians(p.lat), math.radians(p.lon)
        px, py, pz = math.cos(phi) * math.cos(lam), math.cos(phi) * math.sin(lam), math.sin(phi)
        cross_x = py * self.z - pz * self.y
        cross_y = pz * self.x - px * self.z
        cross_z = px * self.y - py * self.x
        norm = np.sqrt(cross_x * cross_x + cross_y * cross_y + cross_z * cross_z)
        dot = px * self.x + py * self.y + pz * self.z
        return float(np.mean(np.arctan2(norm, dot) * EARTH_RADIUS_M))


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


def spherical_centroid(points, xyz=None):
    """3D Cartesian mean projected back onto the sphere."""
    x = y = z = 0.0
    for px, py, pz in _unit_vectors(points, xyz):
        x += px
        y += py
        z += pz
    norm = math.sqrt(x * x + y * y + z * z)
    if norm < 1e-12:
        return points[0]
    return GeoPoint(math.degrees(math.asin(z / norm)), math.degrees(math.atan2(y, x)))


def scalar_grid_center(points, xyz=None):
    cloud = _ScalarCloud(points, xyz)
    best = spherical_centroid(points, xyz)
    best_obj = cloud.grid_score_m(best)
    eps = 100_000.0  # the schedule: 100 km, halved while at least 500 m
    while eps >= 500.0:
        winner = None
        winner_key = None
        for cand_pt in _scalar_grid_offsets(best, eps):
            key = (cloud.grid_score_m(cand_pt), -cand_pt.lat, cand_pt.lon)
            if winner_key is None or key < winner_key:
                winner_key = key
                winner = cand_pt
        if winner is not None and winner_key[0] < best_obj:
            best = winner
            best_obj = winner_key[0]
        else:
            eps /= 2.0
    return best


def assert_same_or_tied(points, got, ref, xyz=None):
    """got, grid_center's point, is ref, the scalar oracle's, to the bit, or
    else the two tie under the oracle's scores within the scorer's per-point
    bound. The grid's scores come from one matrix product, whose dot may be
    fused (FMA) where the oracle's is not; the last bits then differ, which
    moves a search only where rounding alone separates two grid points."""
    if bits(got) == bits(ref):
        return
    cloud = _ScalarCloud(points, xyz)
    assert abs(cloud.grid_score_m(got) - cloud.grid_score_m(ref)) <= \
        scorer_bound_m(points, got) + scorer_bound_m(points, ref)


def checked_grid_center(points, xyz=None):
    """grid_center's point on the cloud of points with unit vectors xyz (or
    from their degrees), once assert_same_or_tied accepts it."""
    lat, lon = [p.lat for p in points], [p.lon for p in points]
    got = grid_center(_Cloud.of(lat, lon, None if xyz is None else np.array(xyz).T))
    assert_same_or_tied(points, got, scalar_grid_center(points, xyz), xyz)
    return got


def scalar_filter_outliers(points, xyz=None):
    """The kept and the dropped candidates, and the kept ones' unit vectors
    (xyz's, or from their degrees). Each round's center is checked_grid_center's,
    so that a tie the oracle rounds the other way cannot change what the
    round ranks; each candidate's distance to it is its own one-point cloud's
    mean."""
    kept = list(points)
    vectors = _unit_vectors([c.point for c in kept], xyz)
    dropped = []
    for _ in range(2):  # two rounds, each dropping the farthest 25%
        if len(kept) <= 3:
            break
        center = checked_grid_center([c.point for c in kept], vectors)
        n_drop = min(math.ceil(0.25 * len(kept)), len(kept) - 3)
        distance = [_ScalarCloud([c.point], [v]).mean_distance_m(center)
                    for c, v in zip(kept, vectors)]
        ranked = sorted(range(len(kept)), key=lambda i: (-distance[i], i))
        drop_idx = set(ranked[:n_drop])
        dropped.extend(kept[i] for i in sorted(drop_idx))
        kept = [c for i, c in enumerate(kept) if i not in drop_idx]
        vectors = [v for i, v in enumerate(vectors) if i not in drop_idx]
    return kept, dropped, vectors


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
    assert_same_or_tied(points, grid_center(cloud_of(points)), scalar_grid_center(points))


@settings(max_examples=40, deadline=None)
@given(points=ORACLE_CLOUDS)
def test_filter_outliers_matches_scalar_oracle(points):
    # The filter's cloud takes the oracle's own unit vectors, so both rank
    # the same bits.
    cands = [cand(p.lat, p.lon, pair=(f"a{i}", "b")) for i, p in enumerate(points)]
    vectors = _unit_vectors(points)
    cloud = _Cloud.of([p.lat for p in points], [p.lon for p in points], np.array(vectors).T)
    kept, dropped = ([cands[i] for i in positions] for positions in filter_outliers(cloud))
    ref_kept, ref_dropped, _ = scalar_filter_outliers(cands, vectors)
    # Identity, not equality: duplicate points must keep their input order.
    assert [id(c) for c in kept] == [id(c) for c in ref_kept]
    assert [id(c) for c in dropped] == [id(c) for c in ref_dropped]


@st.composite
def noisy_circles(draw):
    """3 to 8 landmarks up to 1 500 km from a target, their radii off by up
    to 30%: clouds with false branches for the filter to drop."""
    target = draw(ANYWHERE)
    circles = []
    for i in range(draw(st.integers(3, 8))):
        center = destination_point(target, draw(st.floats(0.0, 360.0)),
                                   draw(st.floats(10_000.0, 1_500_000.0)))
        radius_m = orthodromic_distance(center, target) * draw(st.floats(0.7, 1.3))
        circles.append(LandmarkCircle(f"l{i}", GeoCircle(center, radius_m)))
    return circles


def candidate_keys(cands) -> list:
    return [(c.source_pair, c.case_tag, c.point.lat.hex(), c.point.lon.hex()) for c in cands]


@settings(max_examples=25, deadline=None)
@given(circles=st.one_of(noisy_circles(), circle_sets()))
def test_estimate_target_matches_the_scalar_oracle(circles):
    # The cloud path from the solver's columns to the estimate against the
    # list path: the oracles on all_candidates' CandidatePoints and the unit
    # vectors the solver gave them.
    try:
        columns = all_candidates(circles)
    except ValueError as exc:
        with pytest.raises(type(exc)):
            estimate_target(circles)
        return
    if not columns:
        with pytest.raises(EstimationError, match="no candidate points"):
            estimate_target(circles)
        return
    est = estimate_target(circles)
    ref_kept, ref_dropped, ref_xyz = scalar_filter_outliers(list(columns), columns.xyz.T.tolist())
    ref_points = [c.point for c in ref_kept]
    assert_same_or_tied(ref_points, est.point, scalar_grid_center(ref_points, ref_xyz), ref_xyz)
    assert candidate_keys(kept_points(est)) == candidate_keys(ref_kept)
    assert candidate_keys(dropped_points(est)) == candidate_keys(ref_dropped)


def dragoon_circle_sets(monkeypatch) -> list[list[LandmarkCircle]]:
    """The circles of every estimate_target call run_experiment makes with
    dragoon placement on the criterion-6 worlds of seeds 0 and 1, 40 targets
    each."""
    from latloc import simulator

    recorded = []

    def record(circles):
        recorded.append(circles)
        return estimate_target(circles)

    monkeypatch.setattr(simulator, "estimate_target", record)
    for seed in (0, 1):
        topology = simulator.generate_topology(C6_N_NODES, EUROPE, C6_RADIUS_KM, seed=seed)
        world = simulator.SimWorld(topology, seed, simulator.DelayParams(stochastic_mean_ms=C6_NOISE_MS))
        simulator.run_experiment(world, C6_K, "dragoon", 40, seed=seed)
    return recorded


def test_estimates_move_with_a_longitude_shift_across_the_antimeridian(monkeypatch):
    # A longitude shift is a symmetry of the sphere and of the latitude /
    # longitude grid, so shifting every circle center shifts the estimate,
    # up to rounding: the shifts below carry the clouds of European targets
    # across the antimeridian, or a quarter of the way round.
    circle_sets = dragoon_circle_sets(monkeypatch)
    assert len(circle_sets) == 80
    for circles in circle_sets:
        point = estimate_target(circles).point
        for shift in (170.0, -175.5, 95.0):
            moved = [LandmarkCircle(c.landmark_id, GeoCircle(
                GeoPoint(c.circle.center.lat, normalize_lon(c.circle.center.lon + shift)),
                c.circle.radius_m)) for c in circles]
            expected = GeoPoint(point.lat, normalize_lon(point.lon + shift))
            assert orthodromic_distance(estimate_target(moved).point, expected) <= 1e-6


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
    cloud = cloud_of(points)
    centroid = cloud.centroid()
    assert bits(centroid) == bits(spherical_centroid(points))
    center_row, lats, lons = _grid(centroid, eps_m)
    assert (lats[center_row], lons[EXTENT]) == (centroid.lat, centroid.lon)
    score = cloud.grid_mean_m(lats, lons)[center_row * len(lons) + EXTENT]
    # Scored alone, the centroid is a one-point grid, a matrix-vector
    # product, which BLAS may round differently from a row of a larger grid:
    # the two scores agree within the scorer's declared bound.
    alone = cloud.grid_mean_m([centroid.lat], [centroid.lon])[0]
    assert abs(score - alone) <= scorer_bound_m(points, centroid)
    # At the center of a grid of another spacing, the same matrix product
    # scores the centroid to the bit.
    other_row, other_lats, other_lons = _grid(centroid, 2 * eps_m)
    assert (other_lats[other_row], other_lons[EXTENT]) == (centroid.lat, centroid.lon)
    other = cloud.grid_mean_m(other_lats, other_lons)[other_row * len(other_lons) + EXTENT]
    assert float.hex(score) == float.hex(other)
    # On the antipodal equator example every grid point scores pi * R / 2 up
    # to rounding, so rounding alone picks the winner.
    assert_same_or_tied(points, grid_center(cloud_of(points)), scalar_grid_center(points))


def test_centroid_score_cases_are_reached():
    # The examples above reach the cases they name.
    equator = cloud_of([GeoPoint(-0.0, 10.0), GeoPoint(0.0, -170.0)]).centroid()
    assert math.copysign(1.0, equator.lat) == -1.0
    south = cloud_of([GeoPoint(-89.99, 0.0), GeoPoint(-89.99, 90.0)]).centroid()
    assert _grid(south, EPS0_M)[0] < EXTENT
    assert cloud_of([GeoPoint(10.0, 180.0), GeoPoint(-10.0, 180.0)]).centroid().lon == 180.0


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
    assert _step_winner(obj.ravel().tolist(), center_row, lats, lons, best_obj) == expected


# ---------------------------------------------------------------------------
# The distance kernel's declared tolerance (the filter's distances and the
# residual). It computes atan2(|q × p|, q · p) on unit vectors, the angle
# geodesy.orthodromic_distance computes from degrees, and atan2 is well
# conditioned at every angle: per point the two differ by the rounding of
# the unit vectors, about an ulp of 1 in angle, at the query and at its
# antipode too. With the rounding of the sum and the mean, the means agree
# to within four ulps of the largest distance, pi * R.

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


@settings(max_examples=300, deadline=None)
@given(case=kernel_cases())
def test_kernel_is_within_declared_tolerance(case):
    points, queries = case
    cloud = cloud_of(points)
    hypot = hypot_mean_distances_m(points, queries).tolist()
    for q, ref in zip(queries, hypot):
        distances = cloud.distances_m(q)
        assert distances.shape == (len(points),)
        value = float(np.add.reduce(distances) / len(points))
        assert cloud.mean_at_m(q) == value
        assert abs(value - ref) <= ULPS_M
        assert abs(value - mean_distance(q, points)) <= 1e-6


class _TrigOneUlpOut:
    """math, except that cos and sin round one ulp away from zero, as a
    one-ulp-accurate libm may."""

    def __getattr__(self, name):
        return getattr(math, name)

    @staticmethod
    def cos(x):
        y = math.cos(x)
        return math.nextafter(y, math.copysign(math.inf, y))

    @staticmethod
    def sin(x):
        y = math.sin(x)
        return math.nextafter(y, math.copysign(math.inf, y))


# Exact antipodes, and pole pairs. The query's unit vector comes from math;
# the tests also run them with a cos and sin one ulp high, as another libm
# may round them.
ANTIPODES = [(GeoPoint(-90.0, lon), GeoPoint(90.0, normalize_lon(lon + 180.0)))
             for lon in (0.0, 45.0, 180.0)] + [
    (p, antipode(p)) for p in (GeoPoint(0.0, 0.0), GeoPoint(-33.9, 151.2),
                               GeoPoint(48.85, 2.35), GeoPoint(89.5, -179.5))]


@pytest.mark.parametrize("trig", [math, _TrigOneUlpOut()], ids=["math", "trig-one-ulp-out"])
def test_kernel_is_exact_on_a_point_and_at_its_antipode(monkeypatch, trig):
    # No clamp or clip: a point's distance to itself is 0 and to its
    # antipode pi * R, each within ULPS_M, however its cos and sin round.
    monkeypatch.setattr(estimation, "math", trig)
    for p, q in ANTIPODES:
        for cloud_point, query, expected in ((p, p, 0.0), (p, q, math.pi * EARTH_RADIUS_M)):
            value = cloud_of([cloud_point]).mean_at_m(query)
            assert math.isfinite(value)
            assert abs(value - expected) <= ULPS_M


# ---------------------------------------------------------------------------
# The grid scorer's declared tolerance. It takes the arccos of a cosine that
# rounds to within a few ulps of 1 of its true value, and arccos magnifies
# that error by 1 / sin of the angle: a point at distance d is off by up to
# 4 * ulp(1) * R / sin(d / R) beyond the reference's own rounding, ULPS_M
# (200 000 sampled pairs 1 km to 16 000 km apart, or that far from each
# other's antipode, stayed under 0.44 of this bound). A point within 1 km of
# the query or of its antipode has a cosine near +-1, where the error is
# about the arccos of 1 minus a few ulps: up to 0.16 m was seen there, so
# that band has a bound of its own, ANTIPODAL_M. The search compares only
# these scores; every distance latloc writes comes from the atan2 kernel.

ILL_CONDITIONED_M = 1_000.0
ANTIPODAL_M = 0.25


def score_in_grid(cloud, q) -> float:
    """The grid scorer's score of q, taken in a grid of two rows: a matrix
    product, as every search's grid is. A one-point grid would be a
    matrix-vector product, which BLAS may round differently."""
    return cloud.grid_mean_m([q.lat, q.lat + 1e-3], [q.lon])[0]


def scorer_bound_m(points, q) -> float:
    """The per-point bound of the grid scorer at query q, which also bounds
    the mean: set by the cloud point nearest to q or to its antipode."""
    far = antipode(q)
    d = min(min(orthodromic_distance(q, p), orthodromic_distance(far, p)) for p in points)
    if d < ILL_CONDITIONED_M:
        return ANTIPODAL_M
    return 4 * math.ulp(1.0) * EARTH_RADIUS_M / math.sin(d / EARTH_RADIUS_M) + ULPS_M


@settings(max_examples=300, deadline=None)
@given(case=kernel_cases())
@example(case=([GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0)], [GeoPoint(0.0, 0.0)]))
# The sampled pair nearest its bound, 1.57 km apart.
@example(case=([GeoPoint(6.608675063661659, -126.16878189808779)],
               [GeoPoint(6.613818735655789, -126.18206595517418)]))
def test_grid_scorer_is_within_declared_tolerance(case):
    points, queries = case
    cloud = cloud_of(points)
    for q, ref in zip(queries, hypot_mean_distances_m(points, queries).tolist()):
        assert abs(score_in_grid(cloud, q) - ref) <= scorer_bound_m(points, q)


def test_grid_scorer_on_a_cloud_of_k_50_size():
    # About as many points as 50 landmarks give (locate_scaling's --k 50),
    # where OpenBLAS may split the grid's product across threads: each score
    # stays within the declared bound, and repeated calls give the same list.
    rng = random.Random(50)
    origin = GeoPoint(47.0, 9.0)
    points = [destination_point(origin, rng.uniform(0.0, 360.0), rng.uniform(0.0, 1_500_000.0))
              for _ in range(2_300)]
    cloud = cloud_of(points)
    _, lats, lons = _grid(destination_point(origin, 30.0, 40_000.0), EPS0_M)
    got = cloud.grid_mean_m(lats, lons)
    queries = [GeoPoint(lat, lon) for lat in lats for lon in lons]
    assert len(got) == len(queries) == 49
    for q, value, ref in zip(queries, got, hypot_mean_distances_m(points, queries).tolist()):
        assert abs(value - ref) <= scorer_bound_m(points, q)
    for clip in (True, False, True):
        assert cloud.grid_mean_m(lats, lons, clip=clip) == got


@pytest.mark.parametrize("trig", [math, _TrigOneUlpOut()], ids=["math", "trig-one-ulp-out"])
def test_grid_scorer_is_finite_where_the_cosine_rounds_past_one(monkeypatch, trig):
    # With cos and sin rounded outward, a point's cosine to itself rounds
    # above 1 and to its antipode below -1: only the clip keeps arccos from
    # returning NaN there.
    monkeypatch.setattr(estimation, "math", trig)
    for p, q in ANTIPODES:
        for cloud_point, query, expected in ((p, p, 0.0), (p, q, math.pi * EARTH_RADIUS_M)):
            value = score_in_grid(cloud_of([cloud_point]), query)
            assert abs(value - expected) <= ANTIPODAL_M


def test_grid_center_rescores_with_the_clip_where_the_cosine_rounds_past_one(monkeypatch):
    # With cos and sin rounded outward, the first grid's center is a point of
    # these clouds or its antipode, where the unclipped cosine rounds past +-1
    # and leaves a NaN in the step's scores. The search must score such a step
    # again with the clip, find the point that a search that always clips
    # finds, and let no warning escape.
    monkeypatch.setattr(estimation, "math", _TrigOneUlpOut())
    clouds = [[p] for p, _ in ANTIPODES] + [[p, q] for p, q in ANTIPODES]
    scorer, clips = _Cloud.grid_mean_m, []

    def recorded(self, lats, lons, clip=True):
        clips.append(clip)
        return scorer(self, lats, lons, clip)

    monkeypatch.setattr(_Cloud, "grid_mean_m", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [bits(grid_center(cloud_of(points))) for points in clouds]
    assert False in clips and True in clips
    monkeypatch.setattr(_Cloud, "grid_mean_m", lambda self, lats, lons, clip=True:
                        scorer(self, lats, lons))
    assert got == [bits(grid_center(cloud_of(points))) for points in clouds]
