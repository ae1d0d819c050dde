"""The benchmark's workloads: how each builds its inputs from a seed, runs
one pass over its targets, and checks what the program returned.

Each workload's world is fixed: the graph and the calibration noise
(SimWorld.rng_seed) are drawn with WORLD_SEED, so the landmarks and fitted
models are fixed too. The harness seed draws a user's requests to that fixed
deployment. On c6_dragoon it is the experiment seed, which picks 100 of the
112 free nodes as targets; at seed 0 the run is the acceptance suite's seed-0
criterion-6 run. On locate_k16 the 200 targets are fixed (drawn with
WORLD_SEED) and the seed draws the noise of their probes, a fresh measurement
campaign against the same targets. Over seeds 0-9 that moves median error by
6% and p90 error by 4% (IQR over median); with 100 targets it moved them by
10% and 7%, and drawing 100 of the 284 free nodes by seed moved p90 error by
25%. When the seed also redrew the graph, median error on the criterion-6
world ranged from 87 to 275 km over seeds 0-9.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

from latloc import cli, latency, simulator
from latloc.latency import calibrate_all, measurements_to_csv, models_to_json
from latloc.placement import dragoon_place, objective_key
from latloc.simulator import (
    DelayParams,
    SimWorld,
    calibration_mesh,
    generate_topology,
    simulate_measurement,
)
from latloc.topology import topology_to_json

from checks import CheckError, check_error_km, check_finite_models, check_placement
from speed import ScaledClock

EUROPE = (35.0, 60.0, -10.0, 30.0)
WORLD_SEED = 0
NOISE_MEAN_MS = 2.0


@dataclass(frozen=True)
class Shape:
    n_nodes: int
    radius_km: float
    k: int
    n_targets: int


SHAPES = {
    "c6_dragoon": Shape(n_nodes=120, radius_km=400.0, k=8, n_targets=100),
    "locate_k16": Shape(n_nodes=300, radius_km=300.0, k=16, n_targets=200),
}

# Tiny shapes for the benchmark's own smoke tests.
SMOKE_SHAPES = {
    "c6_dragoon": Shape(n_nodes=30, radius_km=900.0, k=5, n_targets=4),
    "locate_k16": Shape(n_nodes=30, radius_km=900.0, k=5, n_targets=4),
}


@dataclass
class PassResult:
    """One pass over every target: a SHA-256 digest of the program's output
    bytes (kept instead of the bytes, so memory does not grow with the number
    of passes), the pass's wall time without the reference kernel, the same
    scaled to the reference host (None for a traced pass, which is not
    clocked), each target's scaled locate latency in target order (None for a
    traced pass), and the error of each located target."""

    output_digest: bytes
    raw_s: float
    scaled_s: float | None
    call_s: list[float] | None
    errors_km: list[float]
    attempted: int
    failed: int


def _clocked(fn, clock: ScaledClock, calls: list[tuple[float, int]]):
    """fn, starting a clock segment before each call and appending the wall
    time of the call and its segment's index to `calls`."""

    def clocked(*args, **kwargs):
        segment = clock.mark()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            calls.append((time.perf_counter() - start, segment))

    return clocked



def _world(shape: Shape) -> SimWorld:
    topology = generate_topology(shape.n_nodes, EUROPE, shape.radius_km, WORLD_SEED)
    return SimWorld(topology, WORLD_SEED, DelayParams(stochastic_mean_ms=NOISE_MEAN_MS))


class ExperimentWorkload:
    """One `run_experiment(strategy="dragoon")` call per pass. An untraced
    pass starts a clock segment at the start, before each least-squares
    solve of the calibration and before each target's `estimate_target`
    call, the step that locates it, wrapping both where their callers look
    them up; it times each `estimate_target` call."""

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.seed = seed

    def setup(self, workdir: Path, clock: ScaledClock) -> None:
        clock.mark()
        self.world = _world(self.shape)

    def run_pass(self, tracer=None) -> PassResult:
        if tracer is not None:
            tracer.request_id = "experiment"
            start = time.perf_counter()
            report = self._run()
            raw_s, scaled_s, call_s = time.perf_counter() - start, None, None
        else:
            clock, calls = ScaledClock(), []
            estimate_target, least_squares = simulator.estimate_target, latency.least_squares
            simulator.estimate_target = _clocked(estimate_target, clock, calls)
            latency.least_squares = _clocked(least_squares, clock, [])
            try:
                clock.mark()
                report = self._run()
                clock.stop()
            finally:
                simulator.estimate_target, latency.least_squares = estimate_target, least_squares
            raw_s, scaled_s = clock.raw_s(), clock.scaled_s()
            call_s = [c * clock.factor(i) for c, i in calls]
        failed = sum(1 for r in report.results if r.failure is not None)
        self.report = report
        digest = hashlib.sha256(report.to_json().encode()).digest()
        return PassResult(digest, raw_s, scaled_s, call_s, report.errors_km,
                          len(report.results), failed)

    def _run(self):
        s = self.shape
        # Looked up on the module so a tracer's wrapper sees the call.
        return simulator.run_experiment(self.world, s.k, "dragoon", s.n_targets, self.seed)

    def check(self) -> None:
        """Checks the last pass's report."""
        t = self.world.topology
        report = self.report
        if len(report.results) != self.shape.n_targets:
            raise CheckError(f"{len(report.results)} results for {self.shape.n_targets} targets")
        for r in report.results:
            p = t.positions[r.target_id]
            if (r.true_point.lat, r.true_point.lon) != (p.lat, p.lon):
                raise CheckError(f"{r.target_id}: truth is not the node's position")
            if r.failure is None:
                est = r.estimated_point
                check_error_km(r.target_id, (p.lat, p.lon), (est.lat, est.lon), r.error_km)
        landmarks = list(report.landmark_ids)
        check_placement(t.adjacency, landmarks, objective_key(t, landmarks))


class LocateWorkload:
    """`latloc locate` (cli.main, in process) once per target, closed loop.
    An untraced pass gives each call a clock segment of its own."""

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.seed = seed

    def setup(self, workdir: Path, clock: ScaledClock) -> None:
        """Places the landmarks, fits their models and writes the files each
        `latloc locate` call reads, starting a clock segment before each
        step, each least-squares solve and each target."""
        s = self.shape
        clock.mark()
        world = _world(s)
        t = world.topology
        clock.mark()
        landmarks = list(dragoon_place(t, s.k).landmarks)
        least_squares = latency.least_squares
        latency.least_squares = _clocked(least_squares, clock, [])
        try:
            models = calibrate_all(landmarks, calibration_mesh(world, landmarks), t.positions,
                                   per_hop_ms=world.delay.per_hop_ms)
        finally:
            latency.least_squares = least_squares
        check_finite_models(models)
        clock.mark()
        topo_path = workdir / "topology.json"
        models_path = workdir / "models.json"
        topo_path.write_text(topology_to_json(t), encoding="utf-8")
        models_path.write_text(models_to_json(models), encoding="utf-8")

        free = [nid for nid in t.node_ids if nid not in set(landmarks)]
        targets = sorted(random.Random(WORLD_SEED).sample(free, s.n_targets))
        probe_world = SimWorld(t, self.seed, world.delay)
        self.calls = []
        for target in targets:
            clock.mark()
            csv_path = workdir / f"{target}.csv"
            probes = [simulate_measurement(probe_world, lm, target) for lm in landmarks]
            csv_path.write_text(measurements_to_csv(probes), encoding="utf-8")
            p = t.positions[target]
            out_path = workdir / f"{target}.out.json"
            argv = ["locate", "--topology", str(topo_path), "--models", str(models_path),
                    "--measurements", str(csv_path), "--truth", f"{p.lat!r},{p.lon!r}",
                    "--out", str(out_path)]
            self.calls.append((target, (p.lat, p.lon), argv, out_path))

    def run_pass(self, tracer=None) -> PassResult:
        clock, raw_call_s, errors = ScaledClock(), [], []
        digest = hashlib.sha256()
        failed = 0
        self.docs = []
        for target, truth, argv, out_path in self.calls:
            out_path.unlink(missing_ok=True)
            if tracer is not None:
                tracer.request_id = target
            else:
                clock.mark()
            start = time.perf_counter()
            code = cli.main(argv)
            raw_call_s.append(time.perf_counter() - start)
            if tracer is None:
                clock.stop()
            if code != 0:
                failed += 1
                digest.update(b"failed\n")
                continue
            data = out_path.read_bytes()
            digest.update(data)
            doc = json.loads(data)
            self.docs.append((target, truth, doc))
            errors.append(doc["error_km"])
        raw_s, scaled_s, call_s = math.fsum(raw_call_s), None, None
        if tracer is None:
            call_s = [c * clock.factor(i) for i, c in enumerate(raw_call_s)]
            scaled_s = math.fsum(call_s)
        return PassResult(digest.digest(), raw_s, scaled_s, call_s, errors,
                          len(self.calls), failed)

    def check(self) -> None:
        """Checks the last pass's locate outputs."""
        for target, truth, doc in self.docs:
            if (doc["truth"]["lat"], doc["truth"]["lon"]) != truth:
                raise CheckError(f"{target}: truth not echoed back")
            est = doc["estimate"]
            check_error_km(target, truth, (est["lat"], est["lon"]), doc["error_km"])


def make_workload(name: str, seed: int, smoke: bool = False):
    shape = (SMOKE_SHAPES if smoke else SHAPES)[name]
    if name == "c6_dragoon":
        return ExperimentWorkload(shape, seed)
    return LocateWorkload(shape, seed)
