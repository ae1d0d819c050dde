"""Collapse a candidate point cloud into one location estimate.

A local search on a fixed 7 x 7 grid minimizes the mean great-circle distance
to the cloud. Its spacing starts at 100 km and halves whenever no grid point
improves; the search ends when it falls below 500 m. Two filter
rounds first each discard the farthest 25% of the candidates from the running
center (false branches of two-point intersections, mostly).

Each step scores the whole grid in one array, masks the current center with
+inf and takes the minimum. When that minimum does not beat the center, the
step halves the spacing and needs no winner. Otherwise the search moves to
the minimum; only grid points whose scores are exactly equal to it count as
ties, and those break north-most, then west-most, then first in row-major
order. The first grid is centered on the spherical centroid, and its
center's score equals the centroid's bit for bit, so the centroid needs no
evaluation of its own.

_Cloud.mean_distance_m is the one copy of the objective arithmetic, for the
grid, the filter's distances and the residual. A query's latitude enters it
as two stacked row terms, [-sin φ, cos φ] scaling the cloud's cos φ' and
[cos φ, sin φ] scaling its sin φ', so one product and one sum give both the
atan2 numerator's b term and its denominator. Negation commutes with IEEE 754
rounding, so the stacked form computes the same bits as the plain one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .errors import EstimationError
from .geodesy import EARTH_RADIUS_M, GeoPoint, normalize_lon, orthodromic_distance
from .lateration import CandidatePoint, LandmarkCircle, all_candidates

# Filter schedule: rounds, each dropping this share of the kept candidates.
FILTER_ROUNDS = 2
DROP_FRACTION = 0.25
# Grid offsets run to +-EXTENT spacings in each axis: a 7 x 7 grid.
EXTENT = 3
STEPS = range(-EXTENT, EXTENT + 1)
# Grid spacing schedule: start at EPS0_M, halve until below EPS_MIN_M.
EPS0_M = 100_000.0
EPS_MIN_M = 500.0


@dataclass(frozen=True)
class EstimatedLocation:
    point: GeoPoint
    kept_points: tuple[CandidatePoint, ...]
    dropped_points: tuple[CandidatePoint, ...]
    mean_residual_km: float

    def to_dict(self) -> dict:
        """The estimate and its kept and dropped candidates as plain dicts,
        lists and floats: the document `latloc locate` writes. Every
        candidate counts equally, so each carries weight 1.0."""
        def cand(c: CandidatePoint) -> dict:
            return {
                "lat": c.point.lat, "lon": c.point.lon,
                "source_pair": list(c.source_pair), "case_tag": c.case_tag,
                "weight": 1.0,
            }
        return {
            "estimate": {"lat": self.point.lat, "lon": self.point.lon},
            "kept_points": [cand(c) for c in self.kept_points],
            "dropped_points": [cand(c) for c in self.dropped_points],
            "mean_residual_km": self.mean_residual_km,
        }

    def to_geojson(self) -> str:
        """A FeatureCollection any map viewer can render: the estimate, then
        the kept and the dropped candidates, as Point features.

        Written byte for byte as json.dumps(doc, indent=2, sort_keys=True)
        and a newline write it, by the helpers of estimate_document_json.
        """
        features = [_feature(self.point, '        "kind": "estimate",\n'
                             f'        "mean_residual_km": {_number(self.mean_residual_km)}')]
        for status, points in (("kept", self.kept_points), ("dropped", self.dropped_points)):
            features.extend(_feature(c.point, f'        "case_tag": {_string(c.case_tag)},\n'
                                     '        "kind": "candidate",\n'
                                     f'        "source_pair": {_pair(c.source_pair, "        ")},\n'
                                     f'        "status": "{status}"') for c in points)
        return ('{\n  "features": [\n' + ",\n".join(features)
                + '\n  ],\n  "type": "FeatureCollection"\n}\n')


def estimate_document_json(est: EstimatedLocation, truth: GeoPoint | None = None) -> str:
    """The document `latloc locate` writes, byte for byte as
    json.dumps(doc, indent=2, sort_keys=True) and a newline write it, where
    doc is est.to_dict() plus, when the target's position is known, "truth"
    and its great-circle "error_km" to the estimate.

    json's indent-2 encoder is pure Python, so this schema, like
    to_geojson's, has its own writer, which reads the estimate directly
    rather than through to_dict().
    Every number in it is a float, written as json writes floats; strings go
    through json's own ASCII escaper.
    """
    fields = [("dropped_points", _candidates(est.dropped_points))]
    if truth is not None:
        fields.append(("error_km", _number(orthodromic_distance(truth, est.point) / 1000.0)))
    fields += [("estimate", _latlon(est.point)),
               ("kept_points", _candidates(est.kept_points)),
               ("mean_residual_km", _number(est.mean_residual_km))]
    if truth is not None:
        fields.append(("truth", _latlon(truth)))
    return "{\n" + ",\n".join(f'  "{key}": {text}' for key, text in fields) + "\n}\n"


def _number(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _latlon(p: GeoPoint) -> str:
    return f'{{\n    "lat": {_number(p.lat)},\n    "lon": {_number(p.lon)}\n  }}'


def _candidates(cands: tuple[CandidatePoint, ...]) -> str:
    if not cands:
        return "[]"
    return "[\n" + ",\n".join(
        f'    {{\n      "case_tag": {_string(c.case_tag)},\n'
        f'      "lat": {_number(c.point.lat)},\n      "lon": {_number(c.point.lon)},\n'
        f'      "source_pair": {_pair(c.source_pair, "      ")},\n'
        f'      "weight": 1.0\n    }}'
        for c in cands) + "\n  ]"


def _pair(ids: tuple[str, str], indent: str) -> str:
    """A source pair as a list whose closing bracket is at indent."""
    return f"[\n{indent}  {_string(ids[0])},\n{indent}  {_string(ids[1])}\n{indent}]"


def _feature(point: GeoPoint, properties: str) -> str:
    """One GeoJSON Point feature at the features list's indent, around the
    already written lines of its properties."""
    return ('    {\n      "geometry": {\n        "coordinates": [\n'
            f'          {_number(point.lon)},\n          {_number(point.lat)}\n'
            '        ],\n        "type": "Point"\n      },\n'
            f'      "properties": {{\n{properties}\n      }},\n      "type": "Feature"\n    }}')


class _Cloud:
    """Cached radian arrays of a point cloud for mean-distance evaluation."""

    def __init__(self, points: list[GeoPoint]):
        self.lat = np.radians([p.lat for p in points])
        self.lon = np.radians([p.lon for p in points])
        self.sin_lat = np.sin(self.lat)
        self.cos_lat = np.cos(self.lat)

    def mean_distance_m(self, cos_terms, sin_terms, lam) -> np.ndarray:
        """Mean great-circle distance in meters from each query point to the cloud.

        Query points come as _query_terms gives them: their latitudes as the
        stacked row terms cos_terms = [-sin φ, cos φ] and sin_terms =
        [cos φ, sin φ], and their longitudes in radians. The three broadcast
        together against a trailing cloud axis, which the mean removes: a grid
        passes rows of latitude terms and a column of longitudes, so the
        longitude terms are computed once per column. Cloud terms come from
        numpy. The angle is the atan2 form of geodesy.orthodromic_distance,
        except that its numerator is sqrt(a² + b²) where geodesy uses
        math.hypot: the means agree with the hypot form's to within four ulps
        of pi * R, about 1.5e-8 m.

        One product of cos_terms with the cloud's cos φ' and cos Δλ gives
        -sin φ·cos φ'·cos Δλ and cos φ·cos φ'·cos Δλ together; adding
        sin_terms times sin φ' makes them b = cos φ·sin φ' - sin φ·cos φ'·cos Δλ
        and the denominator. As (-x)·y == -(x·y) and u + (-v) == u - v exactly
        in IEEE 754, these are the plain expressions' bits. That stacked
        product is the only allocation of the full broadcast shape (twice
        over); every later step writes into it with the same ufunc on the same
        operands as the plain expression, so the result is the same to the bit.
        """
        dlon = self.lon - lam
        cos_dlon = np.cos(dlon)
        a = self.cos_lat * np.sin(dlon)
        terms = cos_terms * self.cos_lat * cos_dlon
        terms += sin_terms * self.sin_lat
        b, den = terms[0], terms[1]
        b *= b
        a *= a
        np.add(a, b, out=b)
        np.sqrt(b, out=b)
        np.arctan2(b, den, out=b)
        # The sum and the division np.mean would make, without its overhead.
        return np.add.reduce(b, axis=-1) / len(self.lat) * EARTH_RADIUS_M

    def mean_at_m(self, point: GeoPoint) -> float:
        """Mean great-circle distance in meters from one point to the cloud."""
        return float(self.mean_distance_m(*_query_terms([point.lat], [point.lon]))[0])


def _query_terms(lats: list[float], lons: list[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arguments of _Cloud.mean_distance_m for query points given in
    degrees: the row terms [-sin φ, cos φ] and [cos φ, sin φ] of the
    latitudes, then the longitudes in radians, each with a trailing axis for
    the cloud. The i-th latitude goes with the i-th longitude. The values
    come from math, point by point: math and numpy may round differently."""
    phi = list(map(math.radians, lats))
    sin_phi = list(map(math.sin, phi))
    cos_phi = list(map(math.cos, phi))
    n = len(phi)
    # One array for all three, sliced and indexed rather than unpacked:
    # iterating over an array is slow.
    flat = np.array([*map(operator.neg, sin_phi), *cos_phi, *cos_phi, *sin_phi,
                     *map(math.radians, lons)])
    terms = flat[:4 * n].reshape(2, 2, n, 1)
    return terms[0], terms[1], flat[4 * n:].reshape(len(lons), 1)


def spherical_centroid(points: list[GeoPoint]) -> GeoPoint:
    """3D Cartesian mean projected back onto the sphere."""
    x = y = z = 0.0
    for p in points:
        phi = math.radians(p.lat)
        lam = math.radians(p.lon)
        x += math.cos(phi) * math.cos(lam)
        y += math.cos(phi) * math.sin(lam)
        z += math.sin(phi)
    norm = math.sqrt(x * x + y * y + z * z)
    if norm < 1e-12:
        return points[0]
    return GeoPoint(math.degrees(math.asin(z / norm)), math.degrees(math.atan2(y, x)))


def _grid(center: GeoPoint, eps_m: float) -> tuple[int, list[float], list[float], tuple]:
    """The search grid around center with spacing eps_m: the index of the
    center's row, the row latitudes (rows past +-90 degrees skipped), the
    column longitudes and their _query_terms, the row terms with one more axis
    so that rows and columns broadcast against each other."""
    dlat_deg = math.degrees(eps_m / EARTH_RADIUS_M)
    cos_lat = math.cos(math.radians(center.lat))
    dlon_deg = math.degrees(eps_m / (EARTH_RADIUS_M * max(cos_lat, 1e-6)))
    lats = [center.lat + i * dlat_deg for i in STEPS]
    # Rows past a pole are skipped; only those south of the center move it.
    center_row = EXTENT - sum(lat < -90.0 for lat in lats)
    lats = [lat for lat in lats if -90.0 <= lat <= 90.0]
    lons = [normalize_lon(center.lon + j * dlon_deg) for j in STEPS]
    cos_terms, sin_terms, lam = _query_terms(lats, lons)
    return center_row, lats, lons, (cos_terms[..., None], sin_terms[..., None], lam)


def grid_center(points: list[GeoPoint]) -> GeoPoint:
    """Point minimizing the mean great-circle distance to the cloud, found by
    local grid search from the spherical centroid, with spacing EPS0_M
    halved whenever no grid point improves, until it falls below EPS_MIN_M.

    Each step scores the whole grid around the current best point in one
    array and moves to the winner _step_winner picks, if any.
    """
    if not points:
        raise EstimationError("cannot center an empty point cloud")
    cloud = _Cloud(points)
    best = spherical_centroid(points)
    best_obj = None

    eps = EPS0_M
    while eps >= EPS_MIN_M:
        center_row, lats, lons, terms = _grid(best, eps)
        obj = cloud.mean_distance_m(*terms)
        if best_obj is None:
            # The first grid's center is the centroid to the bit (normalized
            # longitudes are fixed points of normalize_lon; a latitude of -0.0
            # becomes 0.0, which scores the same), so it scores as the centroid.
            best_obj = float(obj[center_row, EXTENT])
        winner = _step_winner(obj, center_row, lats, lons, best_obj)
        if winner is None:
            eps /= 2.0
        else:
            row, col = winner
            best = GeoPoint(lats[row], lons[col])
            best_obj = float(obj[row, col])
    return best


def _step_winner(obj: np.ndarray, center_row: int, lats: list[float], lons: list[float],
                 best_obj: float) -> tuple[int, int] | None:
    """The (row, col) of obj a grid step moves to, or None when no grid point
    scores below best_obj and the step halves its spacing instead.

    obj holds the scores of the grid with row latitudes lats and column
    longitudes lons; its center, at center_row and the middle column, is
    masked out. The lowest score wins. Exact ties, and only those, break
    north-most, then west-most, then first in row-major order.
    """
    ncols = len(lons)
    scores = obj.ravel().tolist()
    scores[center_row * ncols + EXTENT] = math.inf
    low = min(scores)
    if not low < best_obj:
        return None
    k = scores.index(low)
    if scores.count(low) > 1:
        ties = (i for i, score in enumerate(scores) if score == low)
        k = min(ties, key=lambda i: (-lats[i // ncols], lons[i % ncols]))
    return divmod(k, ncols)


def filter_outliers(points: list[CandidatePoint]) -> tuple[list[CandidatePoint], list[CandidatePoint]]:
    """Center the cloud and drop the farthest candidates, FILTER_ROUNDS times.

    Each round drops ceil(DROP_FRACTION * kept) points, never going below 3
    kept points. Returns (kept, dropped) with kept in original input order.
    """
    if not points:
        raise EstimationError("cannot filter an empty point cloud")
    kept = list(points)
    dropped: list[CandidatePoint] = []
    for _ in range(FILTER_ROUNDS):
        if len(kept) <= 3:
            break
        center = grid_center([c.point for c in kept])
        n_drop = min(math.ceil(DROP_FRACTION * len(kept)), len(kept) - 3)
        # The center stays on the cloud side: the atan2 form is not bitwise symmetric.
        dist = _Cloud([center]).mean_distance_m(
            *_query_terms([c.point.lat for c in kept], [c.point.lon for c in kept]))
        # Farthest first; the stable sort keeps ties in index order.
        drop = np.zeros(len(kept), dtype=bool)
        drop[np.argsort(-dist, kind="stable")[:n_drop]] = True
        dropped.extend(c for c, d in zip(kept, drop) if d)
        kept = [c for c, d in zip(kept, drop) if not d]
    return kept, dropped


def estimate_target(circles: list[LandmarkCircle]) -> EstimatedLocation:
    """Full estimation pipeline: pairwise candidates (pairs whose gap exceeds
    DEFAULT_GAP_MAX_KM dropped), outlier filter, grid center."""
    if len(circles) < 2:
        raise EstimationError(f"need at least 2 circles, got {len(circles)}")
    candidates = all_candidates(circles)
    if not candidates:
        raise EstimationError("every landmark pair was dropped; no candidate points")
    kept, dropped = filter_outliers(candidates)
    point = grid_center([c.point for c in kept])
    return EstimatedLocation(
        point=point,
        kept_points=tuple(kept),
        dropped_points=tuple(dropped),
        mean_residual_km=_Cloud([c.point for c in kept]).mean_at_m(point) / 1000.0,
    )
