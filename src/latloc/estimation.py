"""Collapse a candidate point cloud into one location estimate.

A local search on a fixed 7 x 7 grid minimizes the mean great-circle distance
to the cloud, halving its spacing whenever no grid point improves. Two filter
rounds first each discard the farthest 25% of the candidates from the running
center (false branches of two-point intersections, mostly).

Each step scores the whole grid in one array, masks the current center with
+inf and takes the minimum. When that minimum does not beat the center, the
step halves the spacing and needs no winner. Otherwise the search moves to
the minimum; only grid points whose scores are exactly equal to it count as
ties, and those break north-most, then west-most, then first in row-major
order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .errors import EstimationError
from .geodesy import EARTH_RADIUS_M, GeoPoint, normalize_lon
from .lateration import DEFAULT_GAP_MAX_KM, CandidatePoint, LandmarkCircle, all_candidates

# Filter schedule: rounds, each dropping this share of the kept candidates.
FILTER_ROUNDS = 2
DROP_FRACTION = 0.25
# Grid offsets run to +-EXTENT spacings in each axis: a 7 x 7 grid.
EXTENT = 3


@dataclass(frozen=True)
class GridSearchConfig:
    """Grid spacing schedule: start at eps0_m, halve until below eps_min_m."""

    eps0_m: float = 100_000.0
    eps_min_m: float = 500.0

    def __post_init__(self):
        # NaN fails every comparison, so test for the valid range, not the invalid one.
        if not (0 < self.eps_min_m <= self.eps0_m < math.inf):
            raise ValueError("need finite eps0_m >= eps_min_m > 0")


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
        the kept and the dropped candidates, as Point features."""
        def feature(point: GeoPoint, properties: dict) -> dict:
            return {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [point.lon, point.lat]},
                "properties": properties,
            }
        features = [feature(self.point, {"kind": "estimate",
                                         "mean_residual_km": self.mean_residual_km})]
        for status, points in (("kept", self.kept_points), ("dropped", self.dropped_points)):
            features.extend(feature(c.point, {
                "kind": "candidate", "status": status,
                "case_tag": c.case_tag, "source_pair": list(c.source_pair),
            }) for c in points)
        doc = {"type": "FeatureCollection", "features": features}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def estimate_document_json(doc: dict) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) and a newline, byte for
    byte, for the document `latloc locate` writes: EstimatedLocation.to_dict(),
    plus "error_km" and "truth" when the target's position is known.

    json's indent-2 encoder is pure Python, so this one schema has its own
    writer. Every number in it is a float, written as json writes floats;
    strings go through json's own ASCII escaper.
    """
    body = ",\n".join(f'  "{key}": {_DOCUMENT_FIELDS[key](doc[key])}' for key in sorted(doc))
    return "{\n" + body + "\n}\n"


def _number(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _latlon(p: dict) -> str:
    return f'{{\n    "lat": {_number(p["lat"])},\n    "lon": {_number(p["lon"])}\n  }}'


def _candidates(cands: list[dict]) -> str:
    if not cands:
        return "[]"
    return "[\n" + ",\n".join(
        f'    {{\n      "case_tag": {_string(c["case_tag"])},\n'
        f'      "lat": {_number(c["lat"])},\n      "lon": {_number(c["lon"])},\n'
        f'      "source_pair": {_strings(c["source_pair"])},\n'
        f'      "weight": {_number(c["weight"])}\n    }}'
        for c in cands) + "\n  ]"


def _strings(items: list[str]) -> str:
    if not items:
        return "[]"
    return "[\n" + ",\n".join("        " + _string(s) for s in items) + "\n      ]"


_DOCUMENT_FIELDS = {
    "dropped_points": _candidates,
    "error_km": _number,
    "estimate": _latlon,
    "kept_points": _candidates,
    "mean_residual_km": _number,
    "truth": _latlon,
}


class _Cloud:
    """Cached radian arrays of a point cloud for mean-distance evaluation."""

    def __init__(self, points: list[GeoPoint]):
        self.lat = np.radians([p.lat for p in points])
        self.lon = np.radians([p.lon for p in points])
        self.sin_lat = np.sin(self.lat)
        self.cos_lat = np.cos(self.lat)

    def mean_distance_m(self, sin_phi, cos_phi, lam) -> np.ndarray:
        """Mean great-circle distance in meters from each query point to the cloud.

        Query points come as the sines and cosines of their latitudes and
        their longitudes, in radians, as _query_trig gives them. The three
        broadcast together against a trailing cloud axis, which the mean
        removes: a grid passes rows of latitude terms and a column of
        longitudes, so the longitude terms are computed once per column.
        Cloud terms come from numpy. The angle is the atan2 form of
        geodesy.orthodromic_distance, except that its numerator is
        sqrt(a² + b²) where geodesy uses math.hypot: the means agree with the
        hypot form's to within four ulps of pi * R, about 1.5e-8 m.

        Only two arrays of the full broadcast shape are allocated, the two
        cos_lat * cos_dlon products; every later step writes into one of
        them with the same ufunc on the same operands as the plain
        expression, so the result is the same to the bit.
        """
        dlon = self.lon - lam
        sin_dlon = np.sin(dlon)
        cos_dlon = np.cos(dlon)
        a = self.cos_lat * sin_dlon
        num = sin_phi * self.cos_lat * cos_dlon
        den = cos_phi * self.cos_lat * cos_dlon
        np.subtract(cos_phi * self.sin_lat, num, out=num)  # b
        num *= num
        np.add(a * a, num, out=num)
        np.sqrt(num, out=num)
        np.add(sin_phi * self.sin_lat, den, out=den)
        np.arctan2(num, den, out=num)
        # The sum and the division np.mean would make, without its overhead.
        return np.add.reduce(num, axis=-1) / len(self.lat) * EARTH_RADIUS_M

    def mean_at_m(self, point: GeoPoint) -> float:
        """Mean great-circle distance in meters from one point to the cloud."""
        return float(self.mean_distance_m(*_query_trig([point.lat], [point.lon]))[0])


def _query_trig(lats: list[float],
                lons: list[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sin and cos of each latitude and the radians of each longitude, given in
    degrees, as arrays with a trailing axis for the cloud. The values come from
    math, point by point: math and numpy may round differently."""
    phi = [math.radians(x) for x in lats]
    return (np.array([math.sin(x) for x in phi])[:, None],
            np.array([math.cos(x) for x in phi])[:, None],
            np.array([math.radians(x) for x in lons])[:, None])


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


def _grid_axes(center: GeoPoint, eps_m: float) -> tuple[list[int], list[float], list[float]]:
    """Row offsets and latitudes (rows past +-90 degrees skipped) and column
    longitudes of the search grid around center."""
    dlat_deg = math.degrees(eps_m / EARTH_RADIUS_M)
    cos_lat = math.cos(math.radians(center.lat))
    dlon_deg = math.degrees(eps_m / (EARTH_RADIUS_M * max(cos_lat, 1e-6)))
    steps = range(-EXTENT, EXTENT + 1)
    rows = [(i, center.lat + i * dlat_deg) for i in steps]
    rows = [(i, lat) for i, lat in rows if -90.0 <= lat <= 90.0]
    lons = [normalize_lon(center.lon + j * dlon_deg) for j in steps]
    return [i for i, _ in rows], [lat for _, lat in rows], lons


def grid_center(points: list[GeoPoint], cfg: GridSearchConfig = GridSearchConfig()) -> GeoPoint:
    """Point minimizing the mean great-circle distance to the cloud, found by
    local grid search from the spherical centroid, with spacing halved
    whenever no grid point improves.

    Each step scores the whole grid around the current best point in one
    array and moves to the winner _step_winner picks, if any.
    """
    if not points:
        raise EstimationError("cannot center an empty point cloud")
    cloud = _Cloud(points)
    best = spherical_centroid(points)
    best_obj = cloud.mean_at_m(best)

    eps = cfg.eps0_m
    while eps >= cfg.eps_min_m:
        row_steps, lats, lons = _grid_axes(best, eps)
        sin_phi, cos_phi, lam = _query_trig(lats, lons)
        obj = cloud.mean_distance_m(sin_phi[:, None], cos_phi[:, None], lam)
        winner = _step_winner(obj, row_steps.index(0), lats, lons, best_obj)
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


def filter_outliers(points: list[CandidatePoint],
                    grid_cfg: GridSearchConfig = GridSearchConfig(),
                    ) -> tuple[list[CandidatePoint], list[CandidatePoint]]:
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
        center = grid_center([c.point for c in kept], grid_cfg)
        n_drop = min(math.ceil(DROP_FRACTION * len(kept)), len(kept) - 3)
        # The center stays on the cloud side: the atan2 form is not bitwise symmetric.
        dist = _Cloud([center]).mean_distance_m(
            *_query_trig([c.point.lat for c in kept], [c.point.lon for c in kept]))
        # Farthest first; the stable sort keeps ties in index order.
        drop = np.zeros(len(kept), dtype=bool)
        drop[np.argsort(-dist, kind="stable")[:n_drop]] = True
        dropped.extend(c for c, d in zip(kept, drop) if d)
        kept = [c for c, d in zip(kept, drop) if not d]
    return kept, dropped


def estimate_target(circles: list[LandmarkCircle],
                    grid_cfg: GridSearchConfig = GridSearchConfig(),
                    gap_max_km: float = DEFAULT_GAP_MAX_KM) -> EstimatedLocation:
    """Full estimation pipeline: pairwise candidates, outlier filter, grid center."""
    if len(circles) < 2:
        raise EstimationError(f"need at least 2 circles, got {len(circles)}")
    candidates = all_candidates(circles, gap_max_km=gap_max_km)
    if not candidates:
        raise EstimationError("every landmark pair was dropped; no candidate points")
    kept, dropped = filter_outliers(candidates, grid_cfg)
    point = grid_center([c.point for c in kept], grid_cfg)
    return EstimatedLocation(
        point=point,
        kept_points=tuple(kept),
        dropped_points=tuple(dropped),
        mean_residual_km=_Cloud([c.point for c in kept]).mean_at_m(point) / 1000.0,
    )
