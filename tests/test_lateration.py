import collections
import logging
import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scalar_pairs
from destinations import destination_point
from latloc.errors import DegenerateCirclesError, LaterationError
from latloc.geodesy import (
    DEGENERATE_MESSAGE,
    EARTH_RADIUS_M,
    INTERSECTION_TOLERANCE_M,
    GeoCircle,
    GeoPoint,
    normalize_lon,
    orthodromic_distance,
)
from scalar_pairs import BOUNDARY_M
from latloc.lateration import (
    DEFAULT_GAP_MAX_KM,
    CandidatePoint,
    LandmarkCircle,
    all_candidates,
    build_circle,
)
from latloc.latency import LatencyModel, Measurement


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_all_candidates_rejects_non_finite_gap(bad):
    # A NaN gap made every "gap > gap_max" test false, so no pair was dropped.
    circles = [LandmarkCircle("a", km_circle(0, 0, 100)), LandmarkCircle("b", km_circle(0, 5, 100))]
    with pytest.raises(ValueError, match="gap_max_km must be finite"):
        all_candidates(circles, gap_max_km=bad)


def km_circle(lat, lon, r_km) -> GeoCircle:
    return GeoCircle(GeoPoint(lat, lon), r_km * 1000.0)


def one_pair(id1, c1, id2, c2, gap_max_km=DEFAULT_GAP_MAX_KM) -> list[CandidatePoint]:
    """The candidates of one circle pair; the solver takes the circles in id order."""
    return list(all_candidates([LandmarkCircle(id1, c1), LandmarkCircle(id2, c2)], gap_max_km))


def km_apart(d_km, r1_km, r2_km):
    c1 = km_circle(0, 0, r1_km)
    center2 = destination_point(GeoPoint(0, 0), 90.0, d_km * 1000)
    return c1, GeoCircle(center2, r2_km * 1000)


def test_build_circle_zero_distance_model():
    model = LatencyModel(p=100, q=1, n=1, m=0, fit_rss=0, sample_count=4)
    m = Measurement("l1", "t1", (0.2,), hop_count=1)
    circle = build_circle(GeoPoint(50, 8), model, m)
    assert circle.radius_m == pytest.approx(0.0)
    assert circle.center == GeoPoint(50, 8)


def test_build_circle_analytic_radius():
    model = LatencyModel(p=100, q=1, n=1, m=0, fit_rss=0, sample_count=4)
    rtt = 2 * (math.e - 1)  # zero hops, so effective latency is e - 1
    m = Measurement("l1", "t1", (rtt,), hop_count=0)
    circle = build_circle(GeoPoint(0, 0), model, m)
    assert circle.radius_m == pytest.approx(100_000.0, rel=1e-9)


def test_build_circle_radius_capped_at_antipode():
    model = LatencyModel(p=1e9, q=1, n=1, m=0, fit_rss=0, sample_count=4)
    m = Measurement("l1", "t1", (100.0,), hop_count=0)
    circle = build_circle(GeoPoint(0, 0), model, m)
    assert circle.radius_m == pytest.approx(math.pi * EARTH_RADIUS_M)


def test_gap_midpoint_candidate():
    c1, c2 = km_apart(1000, 400, 400)
    cands = one_pair("a", c1, "b", c2)
    assert len(cands) == 1
    assert cands[0].case_tag == "midpoint_gap"
    assert orthodromic_distance(c1.center, cands[0].point) == pytest.approx(500_000, abs=2.0)


def test_gap_midpoint_past_the_wrap_bound_is_on_the_antipodal_circles():
    # Two circles of 0.95 pi R about (0, 0) and (0, 30) are the circles of
    # 0.05 pi R about (0, 180) and (0, -150): their gap is centered on (0, -165).
    r_km = 0.95 * math.pi * EARTH_RADIUS_M / 1000.0
    (c,) = one_pair("a", km_circle(0, 0, r_km), "b", km_circle(0, 30, r_km),
                    gap_max_km=2000.0)
    assert c.case_tag == "midpoint_gap"
    assert orthodromic_distance(c.point, GeoPoint(0.0, -165.0)) < 1.0


def test_gap_beyond_threshold_dropped():
    c1, c2 = km_apart(3000, 400, 400)  # 2200 km perimeter gap
    assert one_pair("a", c1, "b", c2) == []
    assert len(one_pair("a", c1, "b", c2, gap_max_km=2500)) == 1


def test_tangent_candidate_at_midpoint():
    c1, c2 = km_apart(1000, 500, 500)
    cands = one_pair("a", c1, "b", c2)
    assert len(cands) == 1
    assert cands[0].case_tag == "tangent"
    midpoint = destination_point(c1.center, 90.0, 500_000)
    assert orthodromic_distance(cands[0].point, midpoint) < 2.0


def test_contained_shrinks_to_tangency():
    c1, c2 = km_apart(200, 900, 300)
    cands = one_pair("a", c1, "b", c2)
    assert len(cands) == 1
    assert cands[0].case_tag == "contained_tangent"
    # The tangent point sits beyond the inner center at the inner radius,
    # i.e. where the shrunk outer circle touches the inner one.
    point = cands[0].point
    assert orthodromic_distance(c2.center, point) == pytest.approx(300_000, abs=2.0)
    assert orthodromic_distance(c1.center, point) == pytest.approx(500_000, abs=2.0)


def test_pair_candidates_equatorial_symmetry():
    c1 = km_circle(0, 0, 700)
    c2 = km_circle(0, 10, 700)
    cands = one_pair("a", c1, "b", c2)
    assert len(cands) == 2
    assert all(c.case_tag == "pair_branch" for c in cands)
    assert cands[0].point.lat == pytest.approx(-cands[1].point.lat, abs=1e-6)
    assert cands[0].point.lat > 0  # northern branch first


def test_pair_candidates_argument_order_invariance():
    rng = random.Random(13)
    for _ in range(50):
        c1 = km_circle(rng.uniform(-60, 60), rng.uniform(-170, 170), rng.uniform(100, 2000))
        c2 = km_circle(rng.uniform(-60, 60), rng.uniform(-170, 170), rng.uniform(100, 2000))
        # Swapping the ids swaps the order the solver takes the circles in.
        ab = one_pair("a", c1, "b", c2)
        ba = one_pair("b", c1, "a", c2)
        assert len(ab) == len(ba)
        for x, y in zip(ab, ba):
            assert orthodromic_distance(x.point, y.point) <= 2.0
            assert x.source_pair == y.source_pair == ("a", "b")


def test_candidates_stay_in_constraint_region():
    rng = random.Random(23)
    for _ in range(50):
        d = rng.uniform(100, 3000)
        c1, c2 = km_apart(d, rng.uniform(50, 2000), rng.uniform(50, 2000))
        for cand in one_pair("a", c1, "b", c2, gap_max_km=1e9):
            gap = max(0.0, orthodromic_distance(c1.center, c2.center)
                      - c1.radius_m - c2.radius_m)
            bound = max(c1.radius_m, c2.radius_m) + gap + 2.0
            assert orthodromic_distance(c1.center, cand.point) <= bound
            assert orthodromic_distance(c2.center, cand.point) <= bound


def test_all_candidates_requires_two_circles():
    with pytest.raises(LaterationError):
        all_candidates([LandmarkCircle("a", km_circle(0, 0, 100))])


def test_all_candidates_counts_and_order():
    circles = [
        LandmarkCircle("c", km_circle(0, 4, 600)),
        LandmarkCircle("a", km_circle(0, 0, 600)),
        LandmarkCircle("b", km_circle(3, 2, 600)),
    ]
    cands = all_candidates(circles)
    pairs = [c.source_pair for c in cands]
    assert pairs == sorted(pairs)
    assert len(cands) <= 2 * 3


def test_all_candidates_combinatorial_bound():
    rng = random.Random(3)
    circles = [
        LandmarkCircle(f"l{i}", km_circle(rng.uniform(40, 55), rng.uniform(0, 20), 1500))
        for i in range(10)
    ]
    cands = all_candidates(circles, gap_max_km=1e9)
    assert len(cands) <= 2 * 45


def test_all_candidates_skips_degenerate_pair():
    circles = [
        LandmarkCircle("a", km_circle(10, 10, 500)),
        LandmarkCircle("b", km_circle(10, 10, 500)),
        LandmarkCircle("c", km_circle(10, 18, 500)),
    ]
    cands = all_candidates(circles)
    assert all(c.source_pair != ("a", "b") for c in cands)
    assert any(c.source_pair == ("a", "c") for c in cands)
    assert any(c.source_pair == ("b", "c") for c in cands)


def test_exact_radii_hit_true_target():
    # Circles with exact great-circle radii to a known point must intersect
    # at (or within geodesy tolerance of) that point for every pair.
    target = GeoPoint(47.3, 8.5)
    rng = random.Random(8)
    circles = []
    for i in range(5):
        center = GeoPoint(rng.uniform(40, 55), rng.uniform(-5, 20))
        circles.append(LandmarkCircle(f"l{i}", GeoCircle(center, orthodromic_distance(center, target))))
    cands = all_candidates(circles)
    by_pair = {}
    for c in cands:
        d = orthodromic_distance(c.point, target)
        by_pair[c.source_pair] = min(by_pair.get(c.source_pair, math.inf), d)
    assert len(by_pair) == 10
    assert all(d <= 2.0 for d in by_pair.values())


def test_all_candidates_rejects_a_repeated_landmark():
    # The solver pairs circles by position: a landmark with two circles was
    # paired with itself.
    circles = [LandmarkCircle("a", km_circle(0, 0, 100)), LandmarkCircle("b", km_circle(0, 3, 200)),
               LandmarkCircle("a", km_circle(0, 0, 300))]
    with pytest.raises(LaterationError, match="landmark 'a' has more than one circle"):
        all_candidates(circles)


# ---------------------------------------------------------------------------
# The solver against the scalar pair code it replaced (tests/scalar_pairs.py):
# the same cases and skipped pairs, except within rounding of a case
# boundary, points within scalar_pairs.point_bound_m, candidates in pair
# order.

PI_R = math.pi * EARTH_RADIUS_M
TAU = INTERSECTION_TOLERANCE_M

CENTERS = st.one_of(
    st.builds(GeoPoint, lat=st.floats(-90.0, 90.0), lon=st.floats(-180.0, 180.0)),
    st.builds(GeoPoint, lat=st.sampled_from([90.0, -90.0]) | st.floats(85.0, 90.0)
              | st.floats(-90.0, -85.0), lon=st.floats(-180.0, 180.0)),
    st.builds(GeoPoint, lat=st.floats(-70.0, 70.0),
              lon=st.floats(175.0, 180.0) | st.floats(-180.0, -175.0)),
)
RADII = st.floats(0.0, 2_000_000.0) | st.floats(0.8 * PI_R, PI_R) | st.sampled_from([0.0, PI_R])
# Offsets from a tolerance boundary, in meters: on it, just inside, just outside.
NEAR_TAU = st.sampled_from([0.0, -TAU, TAU, -1e-3, 1e-3]) | st.floats(-1.5 * TAU, 1.5 * TAU)


def _radius(r: float) -> float:
    return min(max(r, 0.0), PI_R)


@st.composite
def circle_sets(draw):
    """2-7 circles, each free or placed against an earlier one: tangent
    within the tolerance (either way), about the same center, equal within
    the tolerance, or with a gap near 1 000 km."""
    circles = [GeoCircle(draw(CENTERS), draw(RADII))]
    for _ in range(draw(st.integers(1, 6))):
        base = draw(st.sampled_from(circles))
        r = draw(RADII)
        kind = draw(st.sampled_from(["free", "external", "internal", "gap", "center", "equal"]))
        if kind == "free":
            circles.append(GeoCircle(draw(CENTERS), r))
            continue
        if kind == "center":
            circles.append(GeoCircle(base.center, r))
            continue
        if kind == "equal":
            d, r = draw(st.floats(0.0, 2.5 * TAU)), _radius(base.radius_m + draw(NEAR_TAU))
        elif kind == "external":
            d = base.radius_m + r + draw(NEAR_TAU)
        elif kind == "internal":
            d = abs(base.radius_m - r) + draw(NEAR_TAU)
        else:
            d = base.radius_m + r + DEFAULT_GAP_MAX_KM * 1000.0 + draw(st.floats(-5.0, 5.0))
        center = scalar_pairs.destination_point(base.center, draw(st.floats(0.0, 360.0)),
                                                min(max(d, 0.0), PI_R))
        circles.append(GeoCircle(center, r))
    order = draw(st.permutations(range(len(circles))))
    return [LandmarkCircle(f"l{k}", circles[k]) for k in order]


def compare_with_scalar(circles, gap_max_km) -> int:
    """Assert that all_candidates agrees with the scalar reference, pair by
    pair, and return the number of pairs classified differently, each of
    them within BOUNDARY_M of a boundary of the case rules."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("latloc.lateration")
    logger.addHandler(handler)
    try:
        cands = list(all_candidates(circles, gap_max_km=gap_max_km))
    finally:
        logger.removeHandler(handler)
    by_pair = collections.defaultdict(list)
    for c in cands:
        assert type(c.point.lat) is float and type(c.point.lon) is float
        assert normalize_lon(c.point.lon).hex() == c.point.lon.hex()
        by_pair[c.source_pair].append(c)
    assert list(by_pair) == sorted(by_pair)
    changed = 0
    for lc1, lc2 in combinations(sorted(circles, key=lambda lc: lc.landmark_id), 2):
        pair, c1, c2 = (lc1.landmark_id, lc2.landmark_id), lc1.circle, lc2.circle
        got = by_pair.pop(pair, [])
        skipped = f"skipping pair ({pair[0]}, {pair[1]}): {DEGENERATE_MESSAGE}" in messages
        try:
            want = scalar_pairs.pair_candidates(*pair[:1], c1, pair[1], c2, gap_max_km)
        except DegenerateCirclesError:
            want = None
        except ValueError:
            # The scalar destination formula rejects an internal tangency's
            # arc (d + r1 + r2) / 2 up to tau / 2 past pi * R.
            assert [c.case_tag for c in got] == ["tangent"]
            for c in (c1, c2):
                assert abs(orthodromic_distance(c.center, got[0].point) - c.radius_m) <= TAU
            continue
        if (skipped, [c.case_tag for c in got]) != (want is None, [c.case_tag for c in want or []]):
            assert scalar_pairs.boundary_margin_m(c1, c2, gap_max_km * 1000.0) <= BOUNDARY_M
            changed += 1
        elif want:
            scalar_pairs.check_points(c1, c2, [c.point for c in got], [c.point for c in want],
                                      gap_max_km * 1000.0)
    assert not by_pair
    return changed


@settings(max_examples=1000, deadline=None)
@given(circles=circle_sets(), gap_max_km=st.sampled_from([DEFAULT_GAP_MAX_KM, 1e9]))
def test_all_candidates_agrees_with_the_scalar_reference(circles, gap_max_km):
    compare_with_scalar(circles, gap_max_km)


def test_case_changes_from_the_scalar_reference_are_few():
    # The circle sets place circles on the case boundaries on purpose; a pair
    # classified differently there must stay rare.
    counts = collections.Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(circles=circle_sets())
    def sweep(circles):
        counts["changed"] += compare_with_scalar(circles, DEFAULT_GAP_MAX_KM)
        counts["pairs"] += math.comb(len(circles), 2)

    sweep()
    assert counts["changed"] <= 0.02 * counts["pairs"], counts


def _rotated(p: GeoPoint, shift: float) -> GeoPoint:
    return GeoPoint(p.lat, p.lon + shift)


@settings(max_examples=300, deadline=None)
@given(circles=circle_sets(), shift=st.floats(-360.0, 360.0) | st.sampled_from([180.0, -180.0]),
       rnd=st.randoms(use_true_random=False))
def test_candidates_turn_with_the_centers_and_ignore_landmark_order(circles, shift, rnd):
    # Turning every center about the polar axis, across the antimeridian
    # too, turns every candidate with it; shuffling the circles changes no
    # candidate, and swapping the ids, so that each pair is taken the other
    # way round, moves none beyond rounding.
    base = all_candidates(circles, gap_max_km=1e9)
    shuffled = list(circles)
    rnd.shuffle(shuffled)
    again = all_candidates(shuffled, gap_max_km=1e9)
    assert again == base and np.array_equal(again.xyz, base.xyz)
    ids = sorted(lc.landmark_id for lc in circles)
    swapped = dict(zip(ids, reversed(ids)))
    turned = [LandmarkCircle(lc.landmark_id, GeoCircle(_rotated(lc.circle.center, shift),
                                                       lc.circle.radius_m)) for lc in circles]
    renamed = [LandmarkCircle(swapped[lc.landmark_id], lc.circle) for lc in circles]
    circle_of = {lc.landmark_id: lc.circle for lc in circles}
    by_pair = collections.defaultdict(list)
    for c in base:
        by_pair[c.source_pair].append(c)
    # Each variant: its circles, the original id of each of its ids, and
    # where it should put an original candidate.
    for moved, original_id, move in ((turned, {i: i for i in ids}, lambda p: _rotated(p, shift)),
                                     (renamed, swapped, lambda p: p)):
        moved_by_pair = collections.defaultdict(list)
        for c in all_candidates(moved, gap_max_km=1e9):
            moved_by_pair[tuple(sorted(original_id[i] for i in c.source_pair))].append(c)
        for pair in set(by_pair) | set(moved_by_pair):
            got, want = moved_by_pair[pair], by_pair[pair]
            c1, c2 = circle_of[pair[0]], circle_of[pair[1]]
            if [c.case_tag for c in got] != [c.case_tag for c in want]:
                assert scalar_pairs.boundary_margin_m(c1, c2) <= BOUNDARY_M
                continue
            scalar_pairs.check_points(c1, c2, [c.point for c in got],
                                      [move(c.point) for c in want])


@settings(max_examples=500, deadline=None)
@given(center=st.builds(GeoPoint, lat=st.floats(-80.0, 80.0), lon=st.floats(-180.0, 180.0)),
       bearing=st.floats(0.0, 360.0), r1_km=st.floats(1.0, 2000.0), r2_km=st.floats(1.0, 2000.0),
       internal=st.booleans())
def test_candidate_moves_at_most_tau_across_a_tangency_boundary(center, bearing, r1_km, r2_km,
                                                                internal):
    # Centers 1 mm either side of d = r1 + r2 + tau (gap / external
    # tangency) or d = |r1 - r2| - tau (contained / internal tangency).
    r1, r2 = r1_km * 1000.0, r2_km * 1000.0
    if internal:
        assume(abs(r1 - r2) > TAU + 0.01)
        boundary, tags = abs(r1 - r2) - TAU, ["contained_tangent", "tangent"]
    else:
        boundary, tags = r1 + r2 + TAU, ["tangent", "midpoint_gap"]
    c1 = GeoCircle(center, r1)
    cands = []
    for delta in (-1e-3, 1e-3):
        c2 = GeoCircle(destination_point(center, bearing, boundary + delta), r2)
        (cand,) = one_pair("a", c1, "b", c2)
        cands.append(cand)
    assert [c.case_tag for c in cands] == tags
    assert orthodromic_distance(cands[0].point, cands[1].point) <= TAU
