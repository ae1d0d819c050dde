"""Command-line front end.

Subcommands: place, fit, locate, simulate, eval. Exit codes: 0 on success,
1 on validation/usage failure, 2 on I/O failure. All randomness comes from
explicit --seed flags with fixed defaults, so repeated runs are
byte-identical.

`locate` reads only the node positions from the topology file: a node fault
fails it as it fails `place`, but the edges are not parsed. Graph validation
(dangling, duplicate and self-loop edges, connectivity) happens in `place`
and `fit`. `main` builds its parser once per process, on its first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import LatlocError, UsageError
from .estimation import GridSearchConfig, estimate_document_json, estimate_target
from .geodesy import GeoPoint, orthodromic_distance
from .lateration import DEFAULT_GAP_MAX_KM, LandmarkCircle, build_circle
from .latency import (
    DEFAULT_PER_HOP_MS,
    calibrate_all,
    measurements_from_csv,
    models_from_json,
    models_to_json,
)
from .placement import PLACEMENT_ALGORITHMS, landmark_set_from_json, place_landmarks
from .simulator import (
    PLACEMENT_STRATEGIES,
    DelayParams,
    SimWorld,
    generate_topology,
    run_experiment,
)
from .topology import (
    load_positions_edgelist,
    load_positions_json,
    load_topology_edgelist,
    load_topology_json,
    topology_to_json,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str | None, content: str) -> None:
    if path is None:
        sys.stdout.write(content)
    else:
        Path(path).write_text(content, encoding="utf-8")


def _topology_texts(args) -> tuple[str, str | None]:
    """The topology file's text, and its node sidecar's in the edge-list format."""
    if args.format != "edge-list":
        return _read(args.topology), None
    if not args.nodes:
        raise UsageError("edge-list format requires --nodes sidecar file")
    return _read(args.topology), _read(args.nodes)


def _load_topology(args) -> "Topology":
    text, nodes = _topology_texts(args)
    return load_topology_json(text) if nodes is None else load_topology_edgelist(text, nodes)


def _load_positions(args) -> dict[str, GeoPoint]:
    """The topology's node positions, its edges left unread."""
    text, nodes = _topology_texts(args)
    return load_positions_json(text) if nodes is None else load_positions_edgelist(nodes)


def _grid_cfg(args) -> GridSearchConfig:
    return GridSearchConfig(eps0_m=args.eps0_m, eps_min_m=args.eps_min_m)


def cmd_place(args) -> int:
    t = _load_topology(args)
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    ls = place_landmarks(t, args.k, args.algorithm)
    _write(args.out, ls.to_json())
    if args.out is not None:
        print(f"placed {len(ls.landmarks)} landmarks: "
              f"max_hop={ls.max_hop} mean_hop={ls.mean_hop:.4f}")
    return 0


def cmd_fit(args) -> int:
    t = _load_topology(args)
    ls = landmark_set_from_json(_read(args.landmarks))
    for lm in ls.landmarks:
        if lm not in t.positions:
            raise UsageError(f"landmark {lm!r} not in topology")
    measurements = measurements_from_csv(_read(args.measurements))
    models = calibrate_all(ls.landmarks, measurements, t.positions, per_hop_ms=args.per_hop_ms)
    _write(args.out, models_to_json(models))
    if args.out is not None:
        print(f"fitted {len(models)} landmark models")
    return 0


def cmd_locate(args) -> int:
    truth = None
    if args.truth:
        try:
            lat_s, lon_s = args.truth.split(",")
            truth = GeoPoint(float(lat_s), float(lon_s))
        except ValueError as exc:
            raise UsageError(f"--truth must be 'lat,lon': {exc}") from exc
    positions = _load_positions(args)
    models = models_from_json(_read(args.models))
    measurements = measurements_from_csv(_read(args.measurements))
    circles = []
    for m in measurements:
        if m.landmark_id not in models:
            raise UsageError(f"no model for landmark {m.landmark_id!r}")
        if m.landmark_id not in positions:
            raise UsageError(f"landmark {m.landmark_id!r} not in topology")
        circles.append(LandmarkCircle(
            m.landmark_id,
            build_circle(positions[m.landmark_id], models[m.landmark_id], m,
                         per_hop_ms=args.per_hop_ms),
        ))
    if len(circles) < 2:
        raise UsageError(f"need measurements from >= 2 landmarks, got {len(circles)}")
    estimate = estimate_target(circles, _grid_cfg(args), gap_max_km=args.gap_max_km)

    doc = estimate.to_dict()
    if truth is not None:
        doc["truth"] = {"lat": truth.lat, "lon": truth.lon}
        doc["error_km"] = orthodromic_distance(truth, estimate.point) / 1000.0
    _write(args.out, estimate_document_json(doc))
    if args.geojson:
        _write(args.geojson, estimate.to_geojson())
    return 0


def _build_world(args) -> SimWorld:
    try:
        parts = [float(v) for v in args.bbox.split(",")]
        lat_min, lat_max, lon_min, lon_max = parts
    except ValueError as exc:
        raise UsageError(f"--bbox must be 'lat_min,lat_max,lon_min,lon_max': {exc}") from exc
    topology = generate_topology(args.n_nodes, (lat_min, lat_max, lon_min, lon_max),
                                 args.radius_km, args.world_seed)
    delay = DelayParams(
        per_hop_ms=args.per_hop_ms,
        # Only a number <= 0 turns noise off; NaN reaches DelayParams and is rejected.
        stochastic_mean_ms=None if args.noise_mean_ms <= 0 else args.noise_mean_ms,
        samples_per_probe=args.samples,
    )
    return SimWorld(topology=topology, rng_seed=args.world_seed, delay=delay)


def _run(world: SimWorld, args, strategy: str):
    return run_experiment(
        world, args.k, strategy, args.n_targets, args.seed,
        grid_cfg=_grid_cfg(args), gap_max_km=args.gap_max_km,
    )


def cmd_simulate(args) -> int:
    if args.n_targets < 1:
        raise UsageError(f"--n-targets must be >= 1, got {args.n_targets}")
    world = _build_world(args)
    if args.topology_out:
        _write(args.topology_out, topology_to_json(world.topology))
    report = _run(world, args, args.algorithm)
    _write(args.out, report.to_json())
    if args.csv_out:
        _write(args.csv_out, report.to_csv())
    if args.out is not None:
        s = report.summary()
        print(f"{args.algorithm}: located {s['located']}/{s['targets']} targets, "
              f"median {s.get('median_km', float('nan')):.1f} km")
    return 0


def cmd_eval(args) -> int:
    if args.n_targets < 1:
        raise UsageError(f"--n-targets must be >= 1, got {args.n_targets}")
    strategies = [s.strip() for s in args.algorithms.split(",") if s.strip()]
    for s in strategies:
        if s not in PLACEMENT_STRATEGIES:
            raise UsageError(f"unknown algorithm {s!r}; choose from {PLACEMENT_STRATEGIES}")
    if not strategies:
        raise UsageError("--algorithms is empty")
    world = _build_world(args)
    reports = {s: _run(world, args, s) for s in strategies}
    doc = {
        "world_seed": args.world_seed,
        "experiment_seed": args.seed,
        "methods": {s: r.to_dict() for s, r in reports.items()},
    }
    _write(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if args.csv_out:
        lines = []
        for i, (s, r) in enumerate(sorted(reports.items())):
            csv = r.to_csv().splitlines()
            lines.extend(csv if i == 0 else csv[1:])
        _write(args.csv_out, "\n".join(lines) + "\n")
    if args.out is not None:
        for s, r in sorted(reports.items()):
            summ = r.summary()
            print(f"{s}: median {summ.get('median_km', float('nan')):.1f} km "
                  f"({summ['located']}/{summ['targets']} located)")
    return 0


def _add_topology_args(p) -> None:
    p.add_argument("--topology", required=True, help="topology file path")
    p.add_argument("--format", choices=["json", "edge-list"], default="json")
    p.add_argument("--nodes", help="node sidecar file (edge-list format only)")


def _add_grid_args(p) -> None:
    p.add_argument("--eps0-m", type=float, default=GridSearchConfig.eps0_m,
                   help="initial grid spacing")
    p.add_argument("--eps-min-m", type=float, default=GridSearchConfig.eps_min_m,
                   help="terminal grid spacing")
    p.add_argument("--gap-max-km", type=float, default=DEFAULT_GAP_MAX_KM,
                   help="drop non-overlapping pairs with larger perimeter gap")


def _add_world_args(p) -> None:
    p.add_argument("--n-nodes", type=int, default=100)
    p.add_argument("--bbox", default="35,60,-10,30",
                   help="lat_min,lat_max,lon_min,lon_max")
    p.add_argument("--radius-km", type=float, default=600.0)
    p.add_argument("--world-seed", type=int, default=1)
    p.add_argument("--seed", type=int, default=1, help="experiment seed")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--n-targets", type=int, default=20)
    p.add_argument("--noise-mean-ms", type=float, default=0.0,
                   help="exponential stochastic delay mean; 0 disables noise")
    p.add_argument("--samples", type=int, default=DelayParams.samples_per_probe,
                   help="RTT samples per probe")
    p.add_argument("--per-hop-ms", type=float, default=DEFAULT_PER_HOP_MS)
    p.add_argument("--csv-out", help="also write a per-target CSV")


def build_parser() -> argparse.ArgumentParser:
    # The first two paragraphs of the module docstring are the help text.
    parser = _Parser(prog="latloc", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("place", help="choose landmark positions on a topology")
    _add_topology_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--algorithm", choices=list(PLACEMENT_ALGORITHMS), default="dragoon")
    p.add_argument("--out")

    p = sub.add_parser("fit", help="fit per-landmark latency-distance models")
    _add_topology_args(p)
    p.add_argument("--landmarks", required=True, help="landmark set JSON")
    p.add_argument("--measurements", required=True, help="inter-landmark CSV")
    p.add_argument("--per-hop-ms", type=float, default=DEFAULT_PER_HOP_MS)
    p.add_argument("--out")

    p = sub.add_parser("locate", help="estimate a target location from probes")
    _add_topology_args(p)
    p.add_argument("--models", required=True, help="fitted models JSON")
    p.add_argument("--measurements", required=True, help="target probe CSV")
    p.add_argument("--per-hop-ms", type=float, default=DEFAULT_PER_HOP_MS)
    _add_grid_args(p)
    p.add_argument("--truth", help="known target 'lat,lon' for error reporting")
    p.add_argument("--out")
    p.add_argument("--geojson", help="also write the cloud as GeoJSON")

    p = sub.add_parser("simulate", help="run one simulated experiment")
    _add_world_args(p)
    p.add_argument("--algorithm", choices=list(PLACEMENT_STRATEGIES), default="dragoon")
    _add_grid_args(p)
    p.add_argument("--topology-out", help="also write the generated topology JSON")
    p.add_argument("--out")

    p = sub.add_parser("eval", help="compare placement strategies on one world")
    _add_world_args(p)
    p.add_argument("--algorithms", default="dragoon,two_approx",
                   help="comma-separated strategies to compare")
    _add_grid_args(p)
    p.add_argument("--out")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses: built on the first call, then reused, since
    parse_args keeps no state between calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # Looked up by name when it runs rather than bound into the cached
        # parser, so a wrapper set on a cmd_* global later (perfbench's
        # tracer) still sees the call.
        return globals()[f"cmd_{args.command}"](args)
    except (LatlocError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
