"""Synthetic measurement world for end-to-end evaluation.

Generates random geometric topologies with real coordinates, simulates RTT
probes with a deterministic delay floor (propagation along the shortest-hop
path plus per-hop processing) and optional exponential stochastic excess,
and runs full placement/calibration/localization experiments against known
ground truth.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass, field, replace

from .errors import LatlocError, PlacementError, SimulationError, TopologyError
from .estimation import FilterConfig, GridSearchConfig, estimate_target
from .geodesy import GeoPoint, orthodromic_distance
from .lateration import DEFAULT_GAP_MAX_KM, LandmarkCircle, build_circle
from .latency import Measurement, calibrate_all
# perfbench's tracer patches simulator.dragoon_place, so the name stays importable here.
from .placement import PLACEMENT_ALGORITHMS, LandmarkSet, dragoon_place, place_landmarks
from .topology import Topology, build_topology

PLACEMENT_STRATEGIES = (*PLACEMENT_ALGORITHMS, "random", "shortest_ping_only")


@dataclass(frozen=True)
class DelayParams:
    """Delay composition for simulated probes.

    propagation_speed_km_ms defaults to ~2/3 of lightspeed in fiber. A
    stochastic_mean_ms of None disables the stochastic component.
    """

    propagation_speed_km_ms: float = 200.0
    per_hop_ms: float = 0.1
    stochastic_mean_ms: float | None = None
    samples_per_probe: int = 10

    def __post_init__(self):
        if self.propagation_speed_km_ms <= 0:
            raise ValueError("propagation speed must be positive")
        if self.per_hop_ms < 0:
            raise ValueError("per-hop delay must be non-negative")
        if self.samples_per_probe < 1:
            raise ValueError("need at least one sample per probe")
        if self.stochastic_mean_ms is not None and self.stochastic_mean_ms <= 0:
            raise ValueError("stochastic mean must be positive (or None)")


@dataclass(frozen=True)
class SimWorld:
    topology: Topology
    rng_seed: int
    delay: DelayParams = field(default_factory=DelayParams)


@dataclass(frozen=True)
class OffGraphTarget:
    """A target not on the graph; it attaches to the nearest node through a
    virtual last-mile hop."""

    target_id: str
    point: GeoPoint


def generate_topology(n_nodes: int, bbox: tuple[float, float, float, float],
                      connection_radius_km: float, seed: int,
                      max_growth_steps: int = 12) -> Topology:
    """Random geometric graph: nodes uniform in bbox (lat_min, lat_max,
    lon_min, lon_max), edges between nodes within the connection radius.

    If the graph comes out disconnected the radius grows by 30% and the
    edges are rebuilt, up to max_growth_steps times.
    """
    if n_nodes < 1:
        raise SimulationError("need at least one node")
    lat_min, lat_max, lon_min, lon_max = bbox
    rng = random.Random(seed)
    nodes = []
    width = len(str(n_nodes - 1)) if n_nodes > 1 else 1
    for i in range(n_nodes):
        lat = rng.uniform(lat_min, lat_max)
        lon = rng.uniform(lon_min, lon_max)
        nodes.append((f"n{i:0{width}d}", GeoPoint(lat, lon)))

    radius_m = connection_radius_km * 1000.0
    for _ in range(max_growth_steps + 1):
        edges = [
            (u_id, v_id)
            for i, (u_id, u_pt) in enumerate(nodes)
            for v_id, v_pt in nodes[i + 1:]
            if orthodromic_distance(u_pt, v_pt) <= radius_m
        ]
        try:
            return build_topology(nodes, edges)
        except TopologyError:
            radius_m *= 1.3
    raise SimulationError(
        f"could not build a connected graph within {max_growth_steps} radius growths"
    )


def _derived_rng(world_seed: int, src: str, dst: str) -> random.Random:
    digest = hashlib.sha256(f"{world_seed}|{src}|{dst}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def shortest_hop_path(t: Topology, src: str, dst: str) -> list[str]:
    """BFS shortest path, deterministic via sorted neighbor expansion."""
    if src not in t.positions or dst not in t.positions:
        raise SimulationError(f"unknown endpoint {src!r} or {dst!r}")
    if src == dst:
        return [src]
    parent = {src: None}
    queue = [src]
    while queue:
        next_queue = []
        for u in queue:
            for v in t.adjacency[u]:
                if v not in parent:
                    parent[v] = u
                    if v == dst:
                        path = [v]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return list(reversed(path))
                    next_queue.append(v)
        queue = next_queue
    raise SimulationError(f"no path from {src!r} to {dst!r}")


def _path_length_km(t: Topology, path: list[str]) -> float:
    return sum(
        orthodromic_distance(t.positions[u], t.positions[v]) / 1000.0
        for u, v in zip(path, path[1:])
    )


def _nearest_node(t: Topology, point: GeoPoint) -> tuple[str, float]:
    best = min(
        t.node_ids,
        key=lambda nid: (orthodromic_distance(t.positions[nid], point), nid),
    )
    return best, orthodromic_distance(t.positions[best], point) / 1000.0


def simulate_measurement(world: SimWorld, src: str,
                         dst: str | OffGraphTarget) -> Measurement:
    """One probe: samples_per_probe RTT draws plus the traced hop count.

    Each RTT sample is twice the deterministic one-way delay plus one
    stochastic draw per direction, so every sample is at least the
    deterministic floor.
    """
    t = world.topology
    if isinstance(dst, OffGraphTarget):
        attach, extra_km = _nearest_node(t, dst.point)
        extra_hops = 1
        dst_key = dst.target_id
    else:
        attach, extra_km, extra_hops = dst, 0.0, 0
        dst_key = dst

    path = shortest_hop_path(t, src, attach)
    hops = len(path) - 1 + extra_hops
    length_km = _path_length_km(t, path) + extra_km
    delay = world.delay
    oneway_ms = length_km / delay.propagation_speed_km_ms + delay.per_hop_ms * hops

    rng = _derived_rng(world.rng_seed, src, dst_key)
    samples = []
    for _ in range(delay.samples_per_probe):
        noise = 0.0
        if delay.stochastic_mean_ms is not None:
            noise = rng.expovariate(1.0 / delay.stochastic_mean_ms)
            noise += rng.expovariate(1.0 / delay.stochastic_mean_ms)
        samples.append(2.0 * oneway_ms + noise)
    # Measurement requires positive samples; a zero-delay self-probe still
    # carries an epsilon of processing time.
    samples = [max(s, 1e-9) for s in samples]
    return Measurement(landmark_id=src, target_id=dst_key,
                       rtt_samples_ms=tuple(samples), hop_count=hops)


@dataclass(frozen=True)
class TargetResult:
    target_id: str
    true_point: GeoPoint
    estimated_point: GeoPoint | None
    error_km: float | None
    failure: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    strategy: str
    landmark_ids: tuple[str, ...]
    world_seed: int
    experiment_seed: int
    results: tuple[TargetResult, ...]

    @property
    def errors_km(self) -> list[float]:
        return [r.error_km for r in self.results if r.error_km is not None]

    def summary(self) -> dict:
        errors = sorted(self.errors_km)
        if not errors:
            return {"targets": len(self.results), "located": 0}
        p90 = errors[min(len(errors) - 1, math.ceil(0.9 * len(errors)) - 1)]
        return {
            "targets": len(self.results),
            "located": len(errors),
            "median_km": statistics.median(errors),
            "mean_km": statistics.fmean(errors),
            "p90_km": p90,
        }

    def to_json(self) -> str:
        doc = {
            "strategy": self.strategy,
            "landmarks": list(self.landmark_ids),
            "world_seed": self.world_seed,
            "experiment_seed": self.experiment_seed,
            "summary": self.summary(),
            "targets": [
                {
                    "target_id": r.target_id,
                    "true_lat": r.true_point.lat, "true_lon": r.true_point.lon,
                    "est_lat": None if r.estimated_point is None else r.estimated_point.lat,
                    "est_lon": None if r.estimated_point is None else r.estimated_point.lon,
                    "error_km": r.error_km,
                    "failure": r.failure,
                }
                for r in self.results
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = ["target_id,true_lat,true_lon,est_lat,est_lon,error_km,method"]
        for r in self.results:
            est_lat = "" if r.estimated_point is None else repr(r.estimated_point.lat)
            est_lon = "" if r.estimated_point is None else repr(r.estimated_point.lon)
            err = "" if r.error_km is None else repr(r.error_km)
            lines.append(
                f"{r.target_id},{r.true_point.lat!r},{r.true_point.lon!r},"
                f"{est_lat},{est_lon},{err},{self.strategy}"
            )
        return "\n".join(lines) + "\n"


def _place_landmarks(world: SimWorld, k: int, strategy: str, rng: random.Random) -> list[str]:
    t = world.topology
    if strategy == "random":
        return sorted(rng.sample(t.node_ids, k))
    algorithm = "dragoon" if strategy == "shortest_ping_only" else strategy
    return list(place_landmarks(t, k, algorithm).landmarks)


def calibration_mesh(world: SimWorld, landmark_ids: list[str]) -> list[Measurement]:
    """Directed inter-landmark measurements for every ordered pair."""
    return [
        simulate_measurement(world, a, b)
        for a in landmark_ids for b in landmark_ids if a != b
    ]


def run_experiment(world: SimWorld, k_landmarks: int, strategy: str,
                   n_targets: int, seed: int,
                   grid_cfg: GridSearchConfig | None = None,
                   filter_cfg: FilterConfig | None = None,
                   gap_max_km: float = DEFAULT_GAP_MAX_KM) -> ExperimentReport:
    """Place landmarks, calibrate models from the inter-landmark mesh, then
    locate random target nodes and score against ground truth.

    The shortest_ping_only strategy uses the same landmark placement as
    dragoon but maps each target to its minimum-RTT landmark instead of
    multilaterating.
    """
    if strategy not in PLACEMENT_STRATEGIES:
        raise SimulationError(f"unknown placement strategy {strategy!r}")
    if k_landmarks < 5:
        raise PlacementError("need k >= 5 (calibration requires >= 4 peers per landmark)")
    if n_targets < 1:
        raise SimulationError("need at least one target")

    t = world.topology
    rng = random.Random(seed)
    landmark_ids = _place_landmarks(world, k_landmarks, strategy, rng)
    positions = t.positions

    mesh = calibration_mesh(world, landmark_ids)
    models = None
    if strategy != "shortest_ping_only":
        models = calibrate_all(landmark_ids, mesh, positions,
                               per_hop_ms=world.delay.per_hop_ms)

    candidates = [nid for nid in t.node_ids if nid not in set(landmark_ids)]
    if len(candidates) < n_targets:
        raise SimulationError(
            f"only {len(candidates)} non-landmark nodes for {n_targets} targets"
        )
    targets = sorted(rng.sample(candidates, n_targets))

    results = []
    for target in targets:
        true_point = positions[target]
        probes = [simulate_measurement(world, lm, target) for lm in landmark_ids]
        try:
            if strategy == "shortest_ping_only":
                best = min(probes, key=lambda m: (m.min_rtt_ms, m.landmark_id))
                est = positions[best.landmark_id]
            else:
                circles = [
                    LandmarkCircle(m.landmark_id,
                                   build_circle(positions[m.landmark_id],
                                                models[m.landmark_id], m,
                                                per_hop_ms=world.delay.per_hop_ms))
                    for m in probes
                ]
                est = estimate_target(circles, grid_cfg, filter_cfg, gap_max_km).point
        except (LatlocError, ValueError) as exc:
            results.append(TargetResult(target, true_point, None, None, failure=str(exc)))
            continue
        error_km = orthodromic_distance(true_point, est) / 1000.0
        results.append(TargetResult(target, true_point, est, error_km))

    return ExperimentReport(
        strategy=strategy,
        landmark_ids=tuple(landmark_ids),
        world_seed=world.rng_seed,
        experiment_seed=seed,
        results=tuple(results),
    )
