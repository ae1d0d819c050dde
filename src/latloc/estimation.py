"""Collapse a candidate point cloud into one location estimate.

A local search on a fixed 7 x 7 grid minimizes the mean great-circle distance
to the cloud, halving its spacing whenever no grid point improves. Two filter
rounds first each discard the farthest 25% of the candidates from the running
center (false branches of two-point intersections, mostly).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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


class _Cloud:
    """Cached radian arrays of a point cloud for mean-distance evaluation."""

    def __init__(self, points: list[GeoPoint]):
        self.lat = np.radians([p.lat for p in points])
        self.lon = np.radians([p.lon for p in points])
        self.sin_lat = np.sin(self.lat)
        self.cos_lat = np.cos(self.lat)

    def mean_distance_m(self, lat, lon) -> np.ndarray:
        """Mean great-circle distance in meters from each query point to the cloud.

        lat and lon are degrees that broadcast together; the result has their
        broadcast shape. A grid passes a column of latitudes and a row of
        longitudes, so the longitude terms are computed once per column.
        Query-point sin/cos come from math, point by point, and cloud terms
        from numpy, in the atan2 form of geodesy.orthodromic_distance.
        """
        phi = _per_point(math.radians, lat)
        sin_phi = _per_point(math.sin, phi)[..., None]
        cos_phi = _per_point(math.cos, phi)[..., None]
        dlon = self.lon - _per_point(math.radians, lon)[..., None]
        sin_dlon = np.sin(dlon)
        cos_dlon = np.cos(dlon)
        num = np.hypot(
            self.cos_lat * sin_dlon,
            cos_phi * self.sin_lat - sin_phi * self.cos_lat * cos_dlon,
        )
        den = sin_phi * self.sin_lat + cos_phi * self.cos_lat * cos_dlon
        return np.mean(np.arctan2(num, den), axis=-1) * EARTH_RADIUS_M


def _per_point(f, values) -> np.ndarray:
    """f applied to each value; math and numpy may round differently."""
    a = np.asarray(values, dtype=float)
    return np.array([f(v) for v in a.ravel().tolist()]).reshape(a.shape)


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
    array. Ties between equally good grid points break north-most, then
    west-most, so the search is deterministic.
    """
    if not points:
        raise EstimationError("cannot center an empty point cloud")
    cloud = _Cloud(points)
    best = spherical_centroid(points)
    best_obj = float(cloud.mean_distance_m(best.lat, best.lon))

    eps = cfg.eps0_m
    while eps >= cfg.eps_min_m:
        row_steps, lats, lons = _grid_axes(best, eps)
        obj = cloud.mean_distance_m(np.array(lats)[:, None], lons)
        # Every grid point but the center, in row-major order.
        idx = np.delete(np.arange(obj.size), row_steps.index(0) * len(lons) + EXTENT)
        grid_lat = np.repeat(lats, len(lons))[idx]
        grid_lon = np.tile(lons, len(lats))[idx]
        k = idx[np.lexsort((grid_lon, -grid_lat, obj.ravel()[idx]))[0]]
        row, col = divmod(int(k), len(lons))
        if obj[row, col] < best_obj:
            best = GeoPoint(lats[row], lons[col])
            best_obj = float(obj[row, col])
        else:
            eps /= 2.0
    return best


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
            [c.point.lat for c in kept], [c.point.lon for c in kept])
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
    cloud = _Cloud([c.point for c in kept])
    return EstimatedLocation(
        point=point,
        kept_points=tuple(kept),
        dropped_points=tuple(dropped),
        mean_residual_km=float(cloud.mean_distance_m(point.lat, point.lon)) / 1000.0,
    )
