"""Latency-to-distance modelling.

Measured round-trip times are reduced to an effective one-way latency
(min RTT halved, minus a per-hop processing allowance), and each landmark
gets its own logarithmic distance curve

    distance_km = p * ln(q * latency_ms + n) + m

fitted to inter-landmark calibration samples. q and n enter the curve only
through their ratio, so the fit fixes n = 1 and solves by variable
projection (Golub & Pereyra 1973): for each q, (p, m) is a closed-form
linear least-squares solution, which leaves a one-dimensional search over
log q.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .errors import FitError, InsufficientDataError, ModelDomainError
from .geodesy import GeoPoint, orthodromic_distance

DEFAULT_PER_HOP_MS = 0.1


@dataclass(frozen=True)
class Measurement:
    """RTT probes from one landmark to one target, plus the traced hop count."""

    landmark_id: str
    target_id: str
    rtt_samples_ms: tuple[float, ...]
    hop_count: int

    def __post_init__(self):
        if not self.rtt_samples_ms:
            raise ValueError("measurement needs at least one RTT sample")
        if not all(math.isfinite(s) for s in self.rtt_samples_ms):
            raise ValueError("RTT samples must be finite")
        if any(s <= 0 for s in self.rtt_samples_ms):
            raise ValueError("RTT samples must be positive")
        if self.hop_count < 0:
            raise ValueError("hop count must be non-negative")
        object.__setattr__(self, "rtt_samples_ms", tuple(self.rtt_samples_ms))

    @property
    def min_rtt_ms(self) -> float:
        return min(self.rtt_samples_ms)


@dataclass(frozen=True)
class EffectiveLatency:
    """One-way latency in ms; clamped marks values that were forced up to 0."""

    value_ms: float
    clamped: bool


@dataclass(frozen=True)
class CalibrationSample:
    latency_ms: float
    distance_km: float

    def __post_init__(self):
        if not (math.isfinite(self.latency_ms) and math.isfinite(self.distance_km)):
            raise ValueError("calibration sample fields must be finite")
        if self.latency_ms < 0 or self.distance_km < 0:
            raise ValueError("calibration sample fields must be non-negative")


@dataclass(frozen=True)
class LatencyModel:
    """Fitted parameters of the logarithmic latency-distance curve."""

    p: float
    q: float
    n: float
    m: float
    fit_rss: float
    sample_count: int


def effective_latency(m: Measurement, per_hop_ms: float = DEFAULT_PER_HOP_MS) -> EffectiveLatency:
    """min(RTT)/2 minus the per-hop allowance, clamped below at zero.

    Noisy inputs can push the raw value negative; those are clamped and
    flagged rather than rejected.
    """
    raw = m.min_rtt_ms / 2.0 - per_hop_ms * m.hop_count
    if raw < 0:
        return EffectiveLatency(0.0, clamped=True)
    return EffectiveLatency(raw, clamped=False)


def predict_distance(model: LatencyModel, latency_ms: float) -> float:
    """Distance in km predicted by the curve, clamped below at 0 km."""
    arg = model.q * latency_ms + model.n
    if arg <= 0:
        raise ModelDomainError(
            f"latency {latency_ms} ms outside model domain (q*latency + n = {arg})"
        )
    return max(0.0, model.p * math.log(arg) + model.m)


# Scan of q, in decades of q * max(latency), every 0.1 decade. At 1e-9 the
# curve is a straight line over the samples to about a part in 1e9; at 1e15
# it is ln(latency) plus a constant. Fixed, so results are deterministic.
_SCAN_DECADES = np.linspace(-9.0, 15.0, 241)
_MIN_P = 1e-9


def _project(x: np.ndarray, dist: np.ndarray):
    """Least-squares (p, m) of dist = p*x + m for each row of x, with p held
    at or above _MIN_P, and the residuals of that fit."""
    x_mean = x.mean(axis=-1, keepdims=True)
    xc = x - x_mean
    d_mean = dist.mean()
    p = np.maximum((xc * (dist - d_mean)).sum(axis=-1) / (xc * xc).sum(axis=-1), _MIN_P)
    m = d_mean - p * x_mean[..., 0]
    return p, m, dist - p[..., None] * x - m[..., None]


def fit_model(samples: list[CalibrationSample], max_nfev: int = 200) -> LatencyModel:
    """Fit the logarithmic curve to calibration samples.

    Requires at least 4 samples with at least 4 distinct latencies. The
    curve is fitted as p * ln(q * latency + 1) + m. Every q of a fixed
    log-spaced scan gets its closed-form (p, m); one bounded trust-region
    least-squares solve then refines log q between the neighbours of the
    best scan point, and the better of the two is kept. Because the scan
    reaches curves that are straight lines to within a part in 1e9, the
    fit is as good as the linear abstraction. max_nfev caps the refining
    solve.

    The model stores n = 1 rather than q = 1: near-linear fits need
    q * latency << n, and p * ln(latency + n) with a huge n and p loses to
    rounding what p * ln(q * latency + 1) keeps.
    """
    if len(samples) < 4:
        raise InsufficientDataError(f"insufficient samples: {len(samples)} < 4")
    lat = np.array([s.latency_ms for s in samples], dtype=float)
    dist = np.array([s.distance_km for s in samples], dtype=float)
    if len(set(lat.tolist())) < 4:
        raise InsufficientDataError("degenerate samples: fewer than 4 distinct latencies")

    scale = float(lat.max())

    def residuals(decades: np.ndarray) -> np.ndarray:
        q = 10.0 ** decades[0] / scale
        return _project(np.log(q * lat + 1.0), dist)[2]

    q_scan = 10.0 ** _SCAN_DECADES / scale
    _, _, r = _project(np.log(np.multiply.outer(q_scan, lat) + 1.0), dist)
    rss = np.nan_to_num(np.sum(r * r, axis=-1), nan=math.inf)
    i = int(np.argmin(rss))
    decades = float(_SCAN_DECADES[i])
    lo = _SCAN_DECADES[max(i - 1, 0)]
    hi = _SCAN_DECADES[min(i + 1, len(_SCAN_DECADES) - 1)]
    # Central differences and tight tolerances: with the defaults the solve
    # can stop at a flat minimum up to 1e-8 (relative) above its RSS.
    res = least_squares(residuals, [decades], bounds=([lo], [hi]), method="trf",
                        jac="3-point", ftol=1e-15, xtol=1e-15, gtol=1e-15,
                        max_nfev=max_nfev)
    if float(np.sum(res.fun ** 2)) < rss[i]:
        decades = float(res.x[0])

    q = 10.0 ** decades / scale
    p, m, r = _project(np.log(q * lat + 1.0), dist)
    p, m, fit_rss = float(p), float(m), float(np.sum(r * r))
    if not all(math.isfinite(v) for v in (p, q, m, fit_rss)):
        raise FitError(f"curve fit gave non-finite parameters p={p}, q={q}, m={m}")
    return LatencyModel(p=p, q=q, n=1.0, m=m, fit_rss=fit_rss, sample_count=len(samples))


def calibrate_all(landmark_ids, measurements: list[Measurement],
                  positions: dict[str, GeoPoint],
                  per_hop_ms: float = DEFAULT_PER_HOP_MS) -> dict[str, LatencyModel]:
    """Fit one model per landmark from its measurements to the other landmarks.

    landmark_ids may be a LandmarkSet or any iterable of ids. Distances come
    from the known landmark positions.
    """
    ids = list(getattr(landmark_ids, "landmarks", landmark_ids))
    id_set = set(ids)
    models: dict[str, LatencyModel] = {}
    for lm in ids:
        samples = []
        for meas in measurements:
            if meas.landmark_id != lm or meas.target_id == lm:
                continue
            if meas.target_id not in id_set or meas.target_id not in positions:
                continue
            latency = effective_latency(meas, per_hop_ms).value_ms
            dist_km = orthodromic_distance(positions[lm], positions[meas.target_id]) / 1000.0
            samples.append(CalibrationSample(latency_ms=latency, distance_km=dist_km))
        try:
            models[lm] = fit_model(samples)
        except InsufficientDataError as exc:
            raise InsufficientDataError(f"landmark {lm!r}: {exc}") from exc
    return models


# ---------------------------------------------------------------------------
# Serialization

def measurements_to_csv(measurements: list[Measurement]) -> str:
    """CSV rows 'landmark_id,target_id,hops,rtt1,rtt2,...' (variable width)."""
    lines = ["landmark_id,target_id,hops,rtt_samples_ms"]
    for m in measurements:
        samples = ",".join(repr(s) for s in m.rtt_samples_ms)
        lines.append(f"{m.landmark_id},{m.target_id},{m.hop_count},{samples}")
    return "\n".join(lines) + "\n"


def measurements_from_csv(text: str) -> list[Measurement]:
    measurements = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("landmark_id"):
            continue
        parts = line.split(",")
        if len(parts) < 4:
            raise ValueError(f"measurement CSV line {lineno}: expected at least 4 fields")
        try:
            measurements.append(Measurement(
                landmark_id=parts[0],
                target_id=parts[1],
                hop_count=int(parts[2]),
                rtt_samples_ms=tuple(float(v) for v in parts[3:]),
            ))
        except ValueError as exc:
            raise ValueError(f"measurement CSV line {lineno}: {exc}") from exc
    return measurements


def models_to_json(models: dict[str, LatencyModel]) -> str:
    doc = {
        lm: {
            "p": model.p, "q": model.q, "n": model.n, "m": model.m,
            "fit_rss": model.fit_rss, "sample_count": model.sample_count,
        }
        for lm, model in models.items()
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def models_from_json(data: str) -> dict[str, LatencyModel]:
    doc = json.loads(data)
    return {
        lm: LatencyModel(
            p=float(v["p"]), q=float(v["q"]), n=float(v["n"]), m=float(v["m"]),
            fit_rss=float(v["fit_rss"]), sample_count=int(v["sample_count"]),
        )
        for lm, v in doc.items()
    }
