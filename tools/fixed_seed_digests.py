"""Print one JSON line of SHA-256 digests of latloc's fixed-seed outputs.

    python3 tools/fixed_seed_digests.py [--root CHECKOUT] [--against FILE]

Two checkouts whose lines are equal produce byte-identical outputs. The
outputs are, with S running over SEEDS:

- place/{dragoon,two_approx}/k{1,5,16,40}: `latloc place` on
  generate_topology(300, EUROPE, 300 km, 0);
- simulate/seed{S}.{json,csv}: `latloc simulate --world-seed S --seed S
  --noise-mean-ms 2`, other flags at their defaults;
- eval/seed{S}.{json,csv}: `latloc eval` on the same world with all four
  strategies;
- run_experiment/{strategy}/seed{S}: ExperimentReport.to_json() on the
  criterion-6 world (n=120, 400 km, k=8, 100 targets, 2 ms noise, world and
  experiment seed S);
- fit/locate_k16: `latloc fit` on the locate_k16 world (the place world,
  k=16 dragoon landmarks, 2 ms noise, world seed 0) and its calibration mesh;
- locate_k16/seed{S}: all 200 `latloc locate` outputs on that world and
  those models, with probe-noise seed S, hashed in target order;
- locate_k16_geojson/seed{S}: the `--geojson` outputs of the same 200 calls,
  hashed in target order.

CLI commands run in process through latloc.cli.main, with their summary
lines on stdout discarded. --root selects the checkout whose src/ is
imported, so one script compares two commits. --against FILE compares the
digests with a line this script printed before, e.g. for another commit,
and exits 1 naming every key whose digest differs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

EUROPE = (35.0, 60.0, -10.0, 30.0)
STRATEGIES = ("dragoon", "two_approx", "random", "shortest_ping_only")
NOISE_MEAN_MS = 2.0
SEEDS = (0, 7331)  # the first benchmark seed and perfbench's held-out seed


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    p.add_argument("--against", help="a digest line to compare with")
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.root).resolve() / "src"))

    from latloc.cli import main as latloc_main
    from latloc.latency import measurements_to_csv
    from latloc.placement import dragoon_place
    from latloc.simulator import (
        DelayParams,
        SimWorld,
        calibration_mesh,
        generate_topology,
        run_experiment,
        simulate_measurement,
    )
    from latloc.topology import topology_to_json

    def cli(argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return latloc_main(argv)

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)

        def run(name: str, *cli_args: str, **outputs: str) -> dict[str, Path]:
            """Run one latloc command with each output flag in outputs
            (flag=digest-name suffix); digest the files and return their paths."""
            paths = {flag: d / f"{name.replace('/', '.')}.{flag}" for flag in outputs}
            argv = list(cli_args)
            for flag, path in paths.items():
                argv += [f"--{flag.replace('_', '-')}", str(path)]
            if cli(argv) != 0:
                raise SystemExit(f"latloc {' '.join(argv)} failed")
            for flag, suffix in outputs.items():
                digests[f"{name}{suffix}"] = sha(paths[flag].read_bytes())
            return paths

        t300 = generate_topology(300, EUROPE, 300.0, 0)
        topo_path = d / "topology.json"
        topo_path.write_text(topology_to_json(t300), encoding="utf-8")
        for algorithm in ("dragoon", "two_approx"):
            for k in (1, 5, 16, 40):
                run(f"place/{algorithm}/k{k}", "place", "--topology", str(topo_path),
                    "--k", str(k), "--algorithm", algorithm, out="")

        for s in SEEDS:
            world_flags = ["--world-seed", str(s), "--seed", str(s),
                           "--noise-mean-ms", str(NOISE_MEAN_MS)]
            run(f"simulate/seed{s}", "simulate", *world_flags, out=".json", csv_out=".csv")
            run(f"eval/seed{s}", "eval", *world_flags, "--algorithms", ",".join(STRATEGIES),
                out=".json", csv_out=".csv")

            world = SimWorld(generate_topology(120, EUROPE, 400.0, s), s,
                             DelayParams(stochastic_mean_ms=NOISE_MEAN_MS))
            for strategy in STRATEGIES:
                report = run_experiment(world, 8, strategy, 100, s)
                digests[f"run_experiment/{strategy}/seed{s}"] = sha(report.to_json().encode())

        # The locate_k16 world: landmarks and models are fitted once, at world seed 0.
        world = SimWorld(t300, 0, DelayParams(stochastic_mean_ms=NOISE_MEAN_MS))
        landmark_set = dragoon_place(t300, 16)
        landmarks = list(landmark_set.landmarks)
        (d / "landmarks.json").write_text(landmark_set.to_json(), encoding="utf-8")
        (d / "mesh.csv").write_text(measurements_to_csv(calibration_mesh(world, landmarks)),
                                    encoding="utf-8")
        models_path = run("fit/locate_k16", "fit", "--topology", str(topo_path), "--landmarks",
                          str(d / "landmarks.json"), "--measurements", str(d / "mesh.csv"),
                          out="")["out"]
        free = [nid for nid in t300.node_ids if nid not in set(landmarks)]
        targets = sorted(random.Random(0).sample(free, 200))
        csv_path, out_path, geo_path = d / "probes.csv", d / "locate.json", d / "locate.geojson"
        for s in SEEDS:
            probe_world = SimWorld(t300, s, world.delay)
            h, h_geo = hashlib.sha256(), hashlib.sha256()
            for target in targets:
                probes = [simulate_measurement(probe_world, lm, target) for lm in landmarks]
                csv_path.write_text(measurements_to_csv(probes), encoding="utf-8")
                p = t300.positions[target]
                argv = ["locate", "--topology", str(topo_path), "--models", str(models_path),
                        "--measurements", str(csv_path), "--truth", f"{p.lat!r},{p.lon!r}",
                        "--out", str(out_path), "--geojson", str(geo_path)]
                if cli(argv) != 0:
                    raise SystemExit(f"latloc locate failed for {target}")
                h.update(out_path.read_bytes())
                h_geo.update(geo_path.read_bytes())
            digests[f"locate_k16/seed{s}"] = h.hexdigest()
            digests[f"locate_k16_geojson/seed{s}"] = h_geo.hexdigest()

    print(json.dumps(digests, sort_keys=True))
    if args.against:
        want = json.loads(Path(args.against).read_text(encoding="utf-8"))
        differ = sorted(k for k in want.keys() | digests.keys() if want.get(k) != digests.get(k))
        for key in differ:
            print(f"differs: {key}", file=sys.stderr)
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
