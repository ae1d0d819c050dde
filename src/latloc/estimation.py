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
order. The first grid is centered on the spherical centroid to the bit, so
its center's score is the centroid's, and the centroid needs no evaluation
of its own.

estimate_target builds one _Cloud of a target's candidates, with the unit
vectors (n-vectors; Gade 2010, "A non-singular horizontal position
representation", J. Navigation 63(3)) the circle solver gave them, and every
distance is taken on those vectors, a query point's (cos φ·cos λ,
cos φ·sin λ, sin φ) from math:

- _Cloud.grid_mean_m scores the grid search's steps. The cosine of the angle
  between a grid point and a cloud point is the dot product of their unit
  vectors, so a step's cosines are one matrix product, G @ xyz, of the
  grid's unit vectors, one row per grid point, with the cloud's x, y and z
  rows. The grid's sines and cosines come from math, once per row and once
  per column. Past the product, only the arccos and the row sum run at the
  full grid × cloud size; only a step where a cosine rounds past ±1 makes a
  clip.
- _Cloud.distances_m gives every distance latloc writes or ranks by: the
  filter's distances and the residual. It is the angle atan2(|q × p|, q · p),
  well conditioned at every separation, where an arccos of a cosine near ±1
  can be off by a decimetre.

The search compares only its own scores, so its scorer's rounding reaches an
output only where it changes which grid point wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .errors import EstimationError
from .geodesy import EARTH_RADIUS_M, GeoPoint, normalize_lon, orthodromic_distance, unit_vectors
# perfbench's tracer test builds the CandidatePoint list that filter_outliers
# still accepts from estimation.CandidatePoint.
from .lateration import CandidatePoint, Candidates, LandmarkCircle, all_candidates  # noqa: F401

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
    candidates: Candidates
    kept: tuple[int, ...]  # positions into candidates, in the filter's order
    dropped: tuple[int, ...]
    mean_residual_km: float

    def to_geojson(self) -> str:
        """A FeatureCollection any map viewer can render: the estimate, then
        the kept and the dropped candidates, as Point features.

        Written byte for byte as json.dumps(doc, indent=2, sort_keys=True)
        and a newline write it, by the helpers of estimate_document_json.
        """
        c = self.candidates
        tags, pairs = _texts(c, "        ")
        features = [_feature(self.point.lat, self.point.lon, '        "kind": "estimate",\n'
                             f'        "mean_residual_km": {_number(self.mean_residual_km)}')]
        for status, idx in (("kept", self.kept), ("dropped", self.dropped)):
            features.extend(_feature(c.lat[i], c.lon[i],
                                     f'        "case_tag": {tags[c.case_tag[i]]},\n'
                                     '        "kind": "candidate",\n'
                                     f'        "source_pair": {pairs[c.source_pair[i]]},\n'
                                     f'        "status": "{status}"') for i in idx)
        return ('{\n  "features": [\n' + ",\n".join(features)
                + '\n  ],\n  "type": "FeatureCollection"\n}\n')


def estimate_document_json(est: EstimatedLocation, truth: GeoPoint | None = None) -> str:
    """The document `latloc locate` writes, byte for byte as
    json.dumps(doc, indent=2, sort_keys=True) and a newline write it, where
    doc holds the "estimate", the "kept_points" and "dropped_points" (each
    candidate's lat, lon, source_pair, case_tag and a weight of 1.0: every
    candidate counts equally) and the "mean_residual_km", plus, when the
    target's position is known, "truth" and its great-circle "error_km" to
    the estimate.

    json's indent-2 encoder is pure Python, so this schema, like
    to_geojson's, has its own writer, which reads the candidate columns.
    Every number in it is a float, written as json writes floats; strings go
    through json's own ASCII escaper.
    """
    texts = _texts(est.candidates, "      ")
    fields = [("dropped_points", _candidates(est.candidates, est.dropped, *texts))]
    if truth is not None:
        fields.append(("error_km", _number(orthodromic_distance(truth, est.point) / 1000.0)))
    fields += [("estimate", _latlon(est.point)),
               ("kept_points", _candidates(est.candidates, est.kept, *texts)),
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


def _texts(c: Candidates, indent: str) -> tuple[dict, dict]:
    """The JSON text of each distinct case tag, and of each distinct source
    pair closing at indent: formatted once per document, not per candidate."""
    return ({tag: _string(tag) for tag in set(c.case_tag)},
            {ids: _pair(ids, indent) for ids in set(c.source_pair)})


def _candidates(c: Candidates, idx: tuple[int, ...], tags: dict, pairs: dict) -> str:
    if not idx:
        return "[]"
    return "[\n" + ",\n".join(
        f'    {{\n      "case_tag": {tags[c.case_tag[i]]},\n'
        f'      "lat": {_number(c.lat[i])},\n      "lon": {_number(c.lon[i])},\n'
        f'      "source_pair": {pairs[c.source_pair[i]]},\n'
        f'      "weight": 1.0\n    }}'
        for i in idx) + "\n  ]"


def _pair(ids: tuple[str, str], indent: str) -> str:
    """A source pair as a list whose closing bracket is at indent."""
    return f"[\n{indent}  {_string(ids[0])},\n{indent}  {_string(ids[1])}\n{indent}]"


def _feature(lat: float, lon: float, properties: str) -> str:
    """One GeoJSON Point feature at the features list's indent, around the
    already written lines of its properties."""
    return ('    {\n      "geometry": {\n        "coordinates": [\n'
            f'          {_number(lon)},\n          {_number(lat)}\n'
            '        ],\n        "type": "Point"\n      },\n'
            f'      "properties": {{\n{properties}\n      }},\n      "type": "Feature"\n    }}')


class _Cloud:
    """A point cloud as rows of one array, a column per point: latitude and
    longitude in degrees, then the unit vector x, y, z, whose contiguous
    (3, n) block xyz every distance reads."""

    def __init__(self, columns: np.ndarray):
        self.columns = columns
        self.lat, self.lon = columns[:2]
        self.xyz = columns[2:]

    @classmethod
    def of(cls, lat, lon, xyz: np.ndarray) -> _Cloud:
        """The cloud of the points at lat, lon in degrees, with unit vectors
        xyz (x, y and z rows)."""
        return cls(np.concatenate([np.array([lat, lon]), xyz]))

    def take(self, idx) -> _Cloud:
        # Rows stay contiguous, as columns[:, idx] would not keep them.
        return _Cloud(self.columns.take(idx, axis=1))

    def centroid(self) -> GeoPoint:
        """The 3D Cartesian mean projected back onto the sphere, or the first
        point if the mean is within 1e-12 of the center. As in a loop from 0.0,
        cumsum adds left to right and 0.0 + makes an all -0.0 sum 0.0."""
        x, y, z = (0.0 + np.cumsum(self.xyz, axis=1)[:, -1]).tolist()
        norm = math.sqrt(x * x + y * y + z * z)
        if norm < 1e-12:
            return GeoPoint(float(self.lat[0]), float(self.lon[0]))
        return GeoPoint(math.degrees(math.asin(z / norm)), math.degrees(math.atan2(y, x)))

    def distances_m(self, q: GeoPoint) -> np.ndarray:
        """Great-circle distance in meters from q to each cloud point p:
        R·atan2(|q × p|, q · p), with q's unit vector (cos φ·cos λ,
        cos φ·sin λ, sin φ) from math. atan2 is well conditioned at every
        angle, so each distance agrees with the atan2 form of
        geodesy.orthodromic_distance to within a few ulps of pi * R, at q and
        at its antipode too, where arccos and a haversine's asin are not."""
        phi, lam = math.radians(q.lat), math.radians(q.lon)
        cos_phi = math.cos(phi)
        qx, qy, qz = cos_phi * math.cos(lam), cos_phi * math.sin(lam), math.sin(phi)
        x, y, z = self.xyz
        cross = np.sqrt((qy * z - qz * y) ** 2 + (qz * x - qx * z) ** 2 + (qx * y - qy * x) ** 2)
        return np.arctan2(cross, qx * x + qy * y + qz * z) * EARTH_RADIUS_M

    def grid_mean_m(self, lats: list[float], lons: list[float], clip: bool = True) -> list[float]:
        """Mean great-circle distance in meters from each point of the grid
        with row latitudes lats and column longitudes lons, in degrees, to the
        cloud: the grid search's scores, as one flat list in row-major order.

        Each angle is the arccos of the dot product of the grid point's unit
        vector (cos φ·cos λ, cos φ·sin λ, sin φ), with its sines and cosines
        from math, once per row and once per column, and the cloud point's
        (x, y, z). All the grid's dot products are one BLAS matrix product,
        whose three-term dot may be fused (FMA; OpenBLAS's AVX2 and AVX-512
        kernels fuse it, older x86 kernels do not), so a cosine's last bits
        may differ from an unfused sum's, and a one-point grid, a
        matrix-vector product, may round differently from a row of a larger
        one.
        The cosine rounds to within a few ulps of 1, and arccos magnifies that
        by 1 / sin of the angle d / R: a point's distance agrees with the atan2
        form of geodesy.orthodromic_distance to within 4·ulp(1)·R / sin(d / R)
        plus four ulps of pi * R (under 4e-5 m) while it lies at least 1 km
        from the query and from its antipode, and to within 0.25 m otherwise.
        Near ±1 the cosine can round past ±1, where arccos gives NaN; clip
        clips it to [-1, 1] first. grid_center skips the clip under errstate.
        """
        phi = list(map(math.radians, lats))
        lam = list(map(math.radians, lons))
        m, r = len(lam), len(phi)
        # One array for all four sets of terms, sliced rather than unpacked.
        trig = np.array([*map(math.cos, lam), *map(math.sin, lam),
                         *map(math.cos, phi), *map(math.sin, phi)])
        grid = np.empty((r, m, 3))
        np.multiply(trig[2 * m:2 * m + r, None, None], trig[:2 * m].reshape(2, m).T,
                    out=grid[:, :, :2])
        grid[:, :, 2] = trig[2 * m + r:, None]
        cos = grid.reshape(r * m, 3) @ self.xyz
        if clip:
            np.clip(cos, -1.0, 1.0, out=cos)
        np.arccos(cos, out=cos)
        obj = np.add.reduce(cos, axis=-1)
        obj /= cos.shape[1]
        obj *= EARTH_RADIUS_M
        return obj.tolist()

    def mean_at_m(self, point: GeoPoint) -> float:
        """Mean great-circle distance in meters from one point to the cloud."""
        return float(np.add.reduce(self.distances_m(point)) / self.lat.size)


def _grid(center: GeoPoint, eps_m: float) -> tuple[int, list[float], list[float]]:
    """The search grid around center with spacing eps_m: the index of the
    center's row, the row latitudes (rows past +-90 degrees skipped) and the
    column longitudes, normalized as geodesy.normalize_lon normalizes them."""
    dlat_deg = math.degrees(eps_m / EARTH_RADIUS_M)
    cos_lat = math.cos(math.radians(center.lat))
    dlon_deg = math.degrees(eps_m / (EARTH_RADIUS_M * max(cos_lat, 1e-6)))
    lats = [center.lat + i * dlat_deg for i in STEPS]
    center_row = EXTENT
    if lats[0] < -90.0 or lats[-1] > 90.0:
        # Rows past a pole are skipped; only those south of the center move it.
        center_row -= sum(lat < -90.0 for lat in lats)
        lats = [lat for lat in lats if -90.0 <= lat <= 90.0]
    lons = [center.lon + j * dlon_deg for j in STEPS]
    if not -180.0 < lons[0] <= lons[-1] <= 180.0:
        # The grid crosses the antimeridian. In range, normalize_lon changes
        # only -0.0, which center.lon + j * dlon_deg never is.
        lons = list(map(normalize_lon, lons))
    return center_row, lats, lons


def grid_center(cloud: _Cloud) -> GeoPoint:
    """Point minimizing the mean great-circle distance to the cloud, found by
    local grid search from the spherical centroid, with spacing EPS0_M
    halved whenever no grid point improves, until it falls below EPS_MIN_M.

    Each step scores the whole grid around the current best point in one
    array (_Cloud.grid_mean_m) and moves to the winner _step_winner picks,
    if any. Steps skip the clip, under one errstate per search (a step's
    own would cost about 5% of it); a step whose scores hold a NaN, where a
    cosine rounded past +-1, is scored again with it: every score is clipped.
    """
    if not cloud.lat.size:
        raise EstimationError("cannot center an empty point cloud")
    best = cloud.centroid()
    best_obj = None

    eps = EPS0_M
    with np.errstate(invalid="ignore"):
        while eps >= EPS_MIN_M:
            center_row, lats, lons = _grid(best, eps)
            scores = cloud.grid_mean_m(lats, lons, clip=False)
            if math.isnan(sum(scores)):
                scores = cloud.grid_mean_m(lats, lons)
            if best_obj is None:
                # The first grid's center is the centroid to the bit (normalized
                # longitudes are fixed points of normalize_lon; a latitude of -0.0
                # becomes 0.0, which scores the same), so it scores as it.
                best_obj = scores[center_row * len(lons) + EXTENT]
            winner = _step_winner(scores, center_row, lats, lons, best_obj)
            if winner is None:
                eps /= 2.0
            else:
                row, col = winner
                best = GeoPoint(lats[row], lons[col])
                best_obj = scores[row * len(lons) + col]
    return best


def _step_winner(scores: list[float], center_row: int, lats: list[float], lons: list[float],
                 best_obj: float) -> tuple[int, int] | None:
    """The (row, col) of the grid a step moves to, or None when no grid point
    scores below best_obj and the step halves its spacing instead.

    scores holds the scores of the grid with row latitudes lats and column
    longitudes lons, flat in row-major order; its center, at center_row and
    the middle column, is masked out by overwriting it with +inf. The lowest
    score wins. Exact ties, and only those, break north-most, then
    west-most, then first in row-major order.
    """
    ncols = len(lons)
    scores[center_row * ncols + EXTENT] = math.inf
    low = min(scores)
    if not low < best_obj:
        return None
    k = scores.index(low)
    if scores.count(low) > 1:
        ties = (i for i, score in enumerate(scores) if score == low)
        k = min(ties, key=lambda i: (-lats[i // ncols], lons[i % ncols]))
    return divmod(k, ncols)


def filter_outliers(cloud: _Cloud) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Center the cloud and drop the candidates farthest from the center
    (_Cloud.distances_m), FILTER_ROUNDS times.

    Each round drops ceil(DROP_FRACTION * kept) points, never going below 3
    kept points. Returns (kept, dropped) as positions into the cloud: kept in
    input order, dropped round after round, each round's in input order.
    """
    if not isinstance(cloud, _Cloud):
        # A CandidatePoint list, as perfbench's tracer test passes; latloc
        # itself always passes a _Cloud.
        lat, lon = [c.point.lat for c in cloud], [c.point.lon for c in cloud]
        cloud = _Cloud.of(lat, lon, unit_vectors(lat, lon))
    if not cloud.lat.size:
        raise EstimationError("cannot filter an empty point cloud")
    kept = np.arange(cloud.lat.size)
    dropped: list[int] = []
    for _ in range(FILTER_ROUNDS):
        if len(kept) <= 3:
            break
        sub = cloud.take(kept)
        n_drop = min(math.ceil(DROP_FRACTION * len(kept)), len(kept) - 3)
        # Farthest first; the stable sort keeps ties in index order.
        far = np.sort(np.argsort(-sub.distances_m(grid_center(sub)), kind="stable")[:n_drop])
        dropped += kept[far].tolist()
        kept = np.delete(kept, far)
    return tuple(kept.tolist()), tuple(dropped)


def estimate_target(circles: list[LandmarkCircle]) -> EstimatedLocation:
    """Full estimation pipeline: pairwise candidates (pairs whose gap exceeds
    DEFAULT_GAP_MAX_KM dropped), outlier filter, grid center."""
    if len(circles) < 2:
        raise EstimationError(f"need at least 2 circles, got {len(circles)}")
    candidates = all_candidates(circles)
    if not candidates:
        raise EstimationError("every landmark pair was dropped; no candidate points")
    cloud = _Cloud.of(candidates.lat, candidates.lon, candidates.xyz)
    kept, dropped = filter_outliers(cloud)
    kept_cloud = cloud.take(kept)
    point = grid_center(kept_cloud)
    return EstimatedLocation(point, candidates, kept, dropped, kept_cloud.mean_at_m(point) / 1000.0)
