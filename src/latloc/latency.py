"""Latency-to-distance modelling.

Measured round-trip times are reduced to an effective one-way latency
(min RTT halved, minus a per-hop processing allowance), and each landmark
gets its own logarithmic distance curve

    distance_km = p * ln(q * latency_ms + n) + m

fitted to inter-landmark calibration samples by damped nonlinear least
squares with a fixed multi-start schedule.
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


# Multi-start grid for the nonlinear fit; fixed so results are deterministic.
_START_P = (10.0, 100.0)
_START_Q = (0.1, 1.0)


def _residuals(theta: np.ndarray, lat: np.ndarray, dist: np.ndarray) -> np.ndarray:
    p, q, n, m = theta
    return dist - (p * np.log(q * lat + n) + m)


def _linear_baseline(lat: np.ndarray, dist: np.ndarray) -> tuple[float, float]:
    """Least-squares slope/intercept of distance = a*latency + b."""
    a, b = np.polyfit(lat, dist, 1)
    return float(a), float(b)


def fit_model(samples: list[CalibrationSample], max_nfev: int = 200) -> LatencyModel:
    """Fit the logarithmic curve to calibration samples.

    Requires at least 4 samples with at least 4 distinct latencies. Runs a
    bounded trust-region least-squares solve from each multi-start point
    (plus one start seeded from the closed-form linear fit, so the result
    is never worse than the linear abstraction) and keeps the lowest
    residual sum of squares.
    """
    if len(samples) < 4:
        raise InsufficientDataError(f"insufficient samples: {len(samples)} < 4")
    lat = np.array([s.latency_ms for s in samples], dtype=float)
    dist = np.array([s.distance_km for s in samples], dtype=float)
    if len(set(lat.tolist())) < 4:
        raise InsufficientDataError("degenerate samples: fewer than 4 distinct latencies")

    mean_dist = float(dist.mean())
    starts = [
        np.array([p0, q0, 1.0, m0])
        for p0 in _START_P
        for q0 in _START_Q
        for m0 in (0.0, mean_dist)
    ]
    # Linear-equivalent start: with tiny q the curve is locally linear with
    # slope p*q, so the log model can always match the straight-line fit.
    a, b = _linear_baseline(lat, dist)
    if a > 0:
        q0 = 1e-9
        starts.append(np.array([a / q0, q0, 1.0, b]))

    lower = np.array([1e-9, 1e-12, 1e-12, -np.inf])
    upper = np.array([np.inf, np.inf, np.inf, np.inf])

    best = None
    best_rss = math.inf
    for x0 in starts:
        try:
            res = least_squares(
                _residuals, x0, args=(lat, dist), bounds=(lower, upper),
                method="trf", max_nfev=max_nfev, x_scale="jac",
            )
        except Exception:
            continue
        rss = float(np.sum(res.fun ** 2))
        if rss < best_rss:
            best_rss = rss
            best = res.x
    if best is None:
        raise FitError("curve fit failed to converge from every start point")

    p, q, n, m = (float(v) for v in best)
    return LatencyModel(p=p, q=q, n=n, m=m, fit_rss=best_rss, sample_count=len(samples))


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
