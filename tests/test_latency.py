import json
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from latloc import latency
from latloc.errors import FitError, InsufficientDataError, ModelDomainError
from latloc.geodesy import GeoPoint
from latloc.placement import dragoon_place
from latloc.simulator import DelayParams, SimWorld, calibration_mesh, generate_topology
from latloc.latency import (
    CalibrationSample,
    LatencyModel,
    Measurement,
    calibrate_all,
    effective_latency,
    fit_model,
    measurements_from_csv,
    measurements_to_csv,
    models_from_json,
    models_to_json,
    predict_distance,
)


def curve(p, q, n, m, latency):
    return p * math.log(q * latency + n) + m


def test_effective_latency_hop_correction():
    m = Measurement("l1", "t1", (25.0, 20.0, 22.5), hop_count=10)
    eff = effective_latency(m)
    assert eff.value_ms == pytest.approx(20.0 / 2 - 0.1 * 10)
    assert eff.value_ms == pytest.approx(9.0)
    assert not eff.clamped


def test_effective_latency_no_hops():
    m = Measurement("l1", "t1", (2.0,), hop_count=0)
    assert effective_latency(m).value_ms == pytest.approx(1.0)


def test_effective_latency_clamps_negative():
    m = Measurement("l1", "t1", (1.0,), hop_count=20)
    eff = effective_latency(m)
    assert eff.value_ms == 0.0
    assert eff.clamped


def test_effective_latency_min_policy():
    base = Measurement("l1", "t1", (10.0, 12.0), hop_count=2)
    extended = Measurement("l1", "t1", (10.0, 12.0, 50.0), hop_count=2)
    assert effective_latency(base) == effective_latency(extended)


def test_effective_latency_monotone_in_rtt_and_hops():
    lo = effective_latency(Measurement("l", "t", (10.0,), 3))
    hi = effective_latency(Measurement("l", "t", (12.0,), 3))
    assert lo.value_ms <= hi.value_ms
    more_hops = effective_latency(Measurement("l", "t", (10.0,), 5))
    assert more_hops.value_ms <= lo.value_ms


def test_measurement_validation():
    with pytest.raises(ValueError):
        Measurement("l", "t", (), 1)
    with pytest.raises(ValueError):
        Measurement("l", "t", (0.0,), 1)
    with pytest.raises(ValueError):
        Measurement("l", "t", (1.0,), -1)


def test_predict_distance_analytic_cases():
    model = LatencyModel(p=100, q=1, n=1, m=0, fit_rss=0, sample_count=4)
    assert predict_distance(model, 0.0) == pytest.approx(0.0)
    assert predict_distance(model, math.e - 1) == pytest.approx(100.0)
    model2 = LatencyModel(p=100, q=2, n=1, m=10, fit_rss=0, sample_count=4)
    assert predict_distance(model2, 5.0) == pytest.approx(100 * math.log(11) + 10, abs=0.01)


def test_predict_distance_domain_error_names_latency():
    model = LatencyModel(p=100, q=1, n=-5, m=0, fit_rss=0, sample_count=4)
    with pytest.raises(ModelDomainError, match="2.0"):
        predict_distance(model, 2.0)


def test_predict_distance_clamped_at_zero():
    model = LatencyModel(p=100, q=1, n=0.1, m=0, fit_rss=0, sample_count=4)
    assert predict_distance(model, 0.0) == 0.0


def test_predict_distance_monotone():
    model = LatencyModel(p=80, q=0.5, n=1.2, m=-3, fit_rss=0, sample_count=4)
    values = [predict_distance(model, x) for x in np.linspace(0, 50, 200)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def make_samples(p, q, n, m, latencies, noise_sigma=0.0, seed=0):
    rng = random.Random(seed)
    return [
        CalibrationSample(
            latency_ms=lat,
            distance_km=max(0.0, curve(p, q, n, m, lat) + rng.gauss(0, noise_sigma)),
        )
        for lat in latencies
    ]


def test_fit_recovers_noiseless_curve():
    latencies = list(np.linspace(1, 100, 20))
    samples = make_samples(100, 2, 1, 10, latencies)
    model = fit_model(samples)
    # Prediction agreement, not parameter recovery: the parameterization is
    # redundant, so only the curve itself is contractual.
    preds = np.array([predict_distance(model, lat) for lat in latencies])
    truth = np.array([curve(100, 2, 1, 10, lat) for lat in latencies])
    rms = float(np.sqrt(np.mean((preds - truth) ** 2)))
    assert rms <= 0.005 * float(np.mean(truth))
    assert model.fit_rss <= 1e-6 * len(samples)


def test_fit_insufficient_samples():
    samples = make_samples(100, 2, 1, 10, [1.0, 2.0, 3.0])
    with pytest.raises(InsufficientDataError, match="insufficient samples"):
        fit_model(samples)


def test_fit_degenerate_latencies():
    samples = [CalibrationSample(5.0, d) for d in (10.0, 20.0, 30.0, 40.0)]
    with pytest.raises(InsufficientDataError, match="distinct"):
        fit_model(samples)


def test_fit_with_gaussian_noise_held_out_rms():
    train_lat = list(np.linspace(1, 100, 20))
    samples = make_samples(100, 2, 1, 10, train_lat, noise_sigma=1.0, seed=42)
    model = fit_model(samples)
    held_out = np.linspace(2, 95, 40)
    preds = np.array([predict_distance(model, lat) for lat in held_out])
    truth = np.array([curve(100, 2, 1, 10, lat) for lat in held_out])
    rms = float(np.sqrt(np.mean((preds - truth) ** 2)))
    assert rms <= 5.0


def test_fit_deterministic():
    samples = make_samples(50, 1, 2, 5, list(np.linspace(1, 60, 15)), noise_sigma=2.0, seed=3)
    assert fit_model(samples) == fit_model(samples)


def test_fit_positive_p_and_valid_domain():
    samples = make_samples(100, 2, 1, 10, list(np.linspace(1, 100, 20)), noise_sigma=5.0, seed=9)
    model = fit_model(samples)
    assert model.p > 0
    for s in samples:
        assert model.q * s.latency_ms + model.n > 0


def test_fit_never_worse_than_every_start():
    latencies = list(np.linspace(0.5, 40, 25))
    samples = make_samples(120, 0.7, 1.5, -20, latencies, noise_sigma=3.0, seed=11)
    model = fit_model(samples)
    lat = np.array([s.latency_ms for s in samples])
    dist = np.array([s.distance_km for s in samples])
    for p0 in (10.0, 100.0):
        for q0 in (0.1, 1.0):
            for m0 in (0.0, float(dist.mean())):
                rss0 = float(np.sum((dist - (p0 * np.log(q0 * lat + 1.0) + m0)) ** 2))
                assert model.fit_rss <= rss0 + 1e-9


def full_mesh(landmark_points, hop_count=3):
    """Noise-free mesh where latency encodes exact distance at 100 km/ms."""
    from latloc.geodesy import orthodromic_distance
    measurements = []
    for a, pa in landmark_points.items():
        for b, pb in landmark_points.items():
            if a == b:
                continue
            d_km = orthodromic_distance(pa, pb) / 1000.0
            latency = d_km / 100.0
            rtt = 2 * (latency + 0.1 * hop_count)
            measurements.append(Measurement(a, b, (rtt, rtt + 1.0), hop_count))
    return measurements


def landmark_grid(k):
    rng = random.Random(17)
    return {f"lm{i:02d}": GeoPoint(rng.uniform(36, 59), rng.uniform(-9, 29)) for i in range(k)}


def test_calibrate_all_full_mesh_counts():
    points = landmark_grid(10)
    models = calibrate_all(points.keys(), full_mesh(points), points)
    assert len(models) == 10
    assert all(m.sample_count == 9 for m in models.values())


def test_calibrate_all_insufficient_peers_names_landmark():
    points = landmark_grid(4)
    mesh = [m for m in full_mesh(points) if not (m.landmark_id == "lm00" and m.target_id == "lm01")]
    with pytest.raises(InsufficientDataError, match="lm00"):
        calibrate_all(points.keys(), mesh, points)


def test_calibrate_all_beats_linear_baseline():
    points = landmark_grid(8)

    def stretch_mesh():
        # Latency grows sublinearly-inverted: short links carry a relatively
        # larger detour, giving the distance/latency relation real curvature.
        from latloc.geodesy import orthodromic_distance
        out = []
        for a, pa in points.items():
            for b, pb in points.items():
                if a == b:
                    continue
                d_km = orthodromic_distance(pa, pb) / 1000.0
                latency = (d_km + 0.15 * d_km ** 1.15) / 200.0
                out.append(Measurement(a, b, (2 * (latency + 0.2),), 2))
        return out

    mesh = stretch_mesh()
    models = calibrate_all(points.keys(), mesh, points)
    from latloc.geodesy import orthodromic_distance
    for lm, model in models.items():
        lat = np.array([
            effective_latency(m).value_ms for m in mesh if m.landmark_id == lm
        ])
        dist = np.array([
            orthodromic_distance(points[lm], points[m.target_id]) / 1000.0
            for m in mesh if m.landmark_id == lm
        ])
        a, b = np.polyfit(lat, dist, 1)
        linear_rss = float(np.sum((dist - (a * lat + b)) ** 2))
        assert model.fit_rss <= linear_rss * (1 + 1e-9)


def test_measurement_csv_roundtrip():
    measurements = [
        Measurement("l1", "t1", (10.0, 11.5), 3),
        Measurement("l2", "t1", (8.25,), 0),
    ]
    assert measurements_from_csv(measurements_to_csv(measurements)) == measurements


def test_measurement_csv_malformed_row_names_line():
    text = "landmark_id,target_id,hops,rtt_samples_ms\nl1,t1,3,10.0\nl2,t1,notanint,9.0\n"
    with pytest.raises(ValueError, match="line 3"):
        measurements_from_csv(text)



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_measurement_rejects_non_finite_samples(bad):
    with pytest.raises(ValueError, match="finite"):
        Measurement("l", "t", (5.0, bad), 1)


@pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
def test_measurement_csv_rejects_non_finite_rtt(field):
    with pytest.raises(ValueError, match="line 1"):
        measurements_from_csv(f"a,t,3,{field},5")

def test_models_json_roundtrip():
    models = {"l1": LatencyModel(1.5, 0.25, 1.0, -2.0, 0.5, 9)}
    assert models_from_json(models_to_json(models)) == models


# ---------------------------------------------------------------------------
# The variable-projection fit against the 4-parameter multi-start fitter it
# replaced, kept here as the reference.

def reference_fit(lat: np.ndarray, dist: np.ndarray) -> tuple[np.ndarray, float]:
    """Best (p, q, n, m) and RSS of bounded TRF solves of the full 4-parameter
    curve from a fixed 8-point start grid plus one start from the linear fit."""
    def residuals(theta):
        p, q, n, m = theta
        return dist - (p * np.log(q * lat + n) + m)

    mean_dist = float(dist.mean())
    starts = [
        np.array([p0, q0, 1.0, m0])
        for p0 in (10.0, 100.0) for q0 in (0.1, 1.0) for m0 in (0.0, mean_dist)
    ]
    a, b = np.polyfit(lat, dist, 1)
    if a > 0:
        starts.append(np.array([a / 1e-9, 1e-9, 1.0, b]))
    lower = np.array([1e-9, 1e-12, 1e-12, -np.inf])
    best, best_rss = None, math.inf
    for x0 in starts:
        try:
            res = least_squares(residuals, x0, bounds=(lower, np.full(4, np.inf)),
                                method="trf", max_nfev=200, x_scale="jac")
        except ValueError:
            continue
        rss = float(np.sum(res.fun ** 2))
        if rss < best_rss:
            best, best_rss = res.x, rss
    return best, best_rss


def model_rss(model: LatencyModel, lat: np.ndarray, dist: np.ndarray) -> float:
    return float(np.sum((dist - (model.p * np.log(model.q * lat + model.n) + model.m)) ** 2))


def assert_no_worse_than_reference(samples):
    lat = np.array([s.latency_ms for s in samples])
    dist = np.array([s.distance_km for s in samples])
    model = fit_model(samples)
    _, ref_rss = reference_fit(lat, dist)
    assert model.fit_rss <= ref_rss * (1 + 1e-8)
    # fit_rss is the RSS of the stored curve, as predict_distance evaluates it.
    assert model_rss(model, lat, dist) == pytest.approx(model.fit_rss, rel=1e-12, abs=1e-12)


EUROPE = (35.0, 60.0, -10.0, 30.0)


@pytest.mark.parametrize("world_seed", range(10))
def test_fit_no_worse_than_reference_on_criterion_6_meshes(world_seed, monkeypatch):
    topology = generate_topology(120, EUROPE, 400.0, seed=world_seed)
    world = SimWorld(topology, world_seed, DelayParams(stochastic_mean_ms=2.0))
    landmarks = list(dragoon_place(topology, 8).landmarks)
    fitted = []
    monkeypatch.setattr(latency, "fit_model", lambda samples: fitted.append(samples))
    calibrate_all(landmarks, calibration_mesh(world, landmarks), topology.positions)
    monkeypatch.undo()
    assert len(fitted) == 8
    for samples in fitted:
        assert_no_worse_than_reference(samples)


@st.composite
def noisy_log_curves(draw):
    """Sample sets from noisy log curves or near-straight lines, with
    repeated latencies, an exact zero latency, or exactly 4 samples."""
    shape = draw(st.sampled_from(["plain", "duplicates", "zero", "four"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 4 if shape == "four" else draw(st.integers(5, 30))
    if shape == "duplicates":
        base = rng.uniform(0.0, 60.0, 4)
        lat = np.concatenate([base, rng.choice(base, size - 4)])
    else:
        lat = rng.uniform(0.0, 60.0, size)
    if shape == "zero":
        lat[0] = 0.0
    lat = np.round(lat, 3)
    assume(len(set(lat.tolist())) >= 4)
    if draw(st.booleans()):
        # Near-linear: a line, optionally bent slightly upwards, which the
        # concave log curve can only approach as q -> 0.
        curve = (rng.uniform(10.0, 200.0) * lat + rng.uniform(0.0, 100.0)
                 + draw(st.sampled_from([0.0, 0.05])) * lat ** 2)
    else:
        p, m = rng.uniform(10.0, 300.0), rng.uniform(-100.0, 100.0)
        q, n = 10.0 ** rng.uniform(-3.0, 2.0), 10.0 ** rng.uniform(-2.0, 1.0)
        curve = p * np.log(q * lat + n) + m
    sigma = draw(st.sampled_from([0.01, 0.5, 5.0]))
    dist = np.maximum(curve + rng.normal(0.0, sigma, size), 0.0)
    return [CalibrationSample(float(l), float(d)) for l, d in zip(lat, dist)]


@settings(max_examples=40, deadline=None)
@given(samples=noisy_log_curves())
def test_fit_no_worse_than_reference_on_noisy_curves(samples):
    assert_no_worse_than_reference(samples)


def test_fit_model_propagates_solver_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken solver")

    monkeypatch.setattr(latency, "least_squares", broken)
    samples = make_samples(100, 2, 1, 10, list(np.linspace(1, 100, 20)))
    with pytest.raises(TypeError, match="broken solver"):
        fit_model(samples)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_calibration_sample_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        CalibrationSample(bad, 10.0)
    with pytest.raises(ValueError, match="finite"):
        CalibrationSample(1.0, bad)


def test_fit_non_finite_parameters_raise_fit_error(monkeypatch):
    samples = make_samples(100, 2, 1, 10, list(np.linspace(1, 100, 20)))
    monkeypatch.setattr(latency, "least_squares", lambda *args, **kwargs: SimpleNamespace(
        x=np.array([math.nan]), fun=np.zeros(len(samples))))
    with pytest.raises(FitError, match="non-finite"):
        fit_model(samples)


def test_old_style_models_load_and_predict_the_same():
    # A model file from the 4-parameter fitter, whose q and n were both free.
    lat = np.linspace(0.5, 40.0, 12)
    dist = 120.0 * np.log(0.7 * lat + 1.5) - 20.0
    (p, q, n, m), rss = reference_fit(lat, dist)
    assert q != 1.0 and n != 1.0
    text = json.dumps({"lm": {"p": p, "q": q, "n": n, "m": m,
                              "fit_rss": rss, "sample_count": 12}})
    model = models_from_json(text)["lm"]
    assert (model.p, model.q, model.n, model.m) == (p, q, n, m)
    for x in (0.0, 0.5, 7.25, 40.0):
        assert predict_distance(model, x) == max(0.0, p * math.log(q * x + n) + m)
