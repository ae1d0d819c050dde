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
  k=16 dragoon landmarks, 2 ms noise, world seed 0) and its calibration mesh:
  the models file, each model with its landmark's position;
- locate_k16/seed{S}: all 200 `latloc locate` outputs on that world and
  those models, with probe-noise seed S, hashed in target order. The models
  carry every landmark's position, so these calls do not open the topology;
- locate_k16_geojson/seed{S}: the `--geojson` outputs of the same 200 calls,
  hashed in target order;
- lateration_cases: all_candidates on the fixed circle lists of
  lateration_cases(), which reach every intersection case, the tolerance
  boundaries, pairs past the wrap bound, gaps either side of gap_max_km,
  poles and the antimeridian; the fixed-seed worlds reach few of these.
  Their centers are placed with this script's own math-only destination
  formula, and every longitude is wrapped into (-180, 180] here, as a value
  that each latloc version's GeoPoint keeps unchanged, so every checkout
  solves the same circle lists;
- help/{latloc,place,fit,locate,simulate,eval}: the `--help` output of
  `latloc` and of each subcommand, wrapped at COLUMNS=80, which this script
  sets for its own process.

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
import logging
import math
import os
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


def wrap_lon(lon: float) -> float:
    """lon wrapped into (-180, 180] by lon % 360.0: a second wrap leaves the
    result unchanged, and so does any latloc version's GeoPoint."""
    lon = lon % 360.0
    return lon - 360.0 if lon > 180.0 else lon


def destination(lat: float, lon: float, bearing_deg: float, d_m: float,
                radius_m: float) -> tuple[float, float]:
    """(lat, lon) in degrees reached from (lat, lon) along the initial
    bearing after d_m meters on a sphere of radius radius_m, with the math
    module only (the spherical destination formula)."""
    sigma, theta = d_m / radius_m, math.radians(bearing_deg)
    phi1, lam1 = math.radians(lat), math.radians(lon)
    sin_phi2 = (math.sin(phi1) * math.cos(sigma)
                + math.cos(phi1) * math.sin(sigma) * math.cos(theta))
    sin_phi2 = max(-1.0, min(1.0, sin_phi2))
    y = math.sin(theta) * math.sin(sigma) * math.cos(phi1)
    x = math.cos(sigma) - math.sin(phi1) * sin_phi2
    return math.degrees(math.asin(sin_phi2)), math.degrees(lam1 + math.atan2(y, x))


def lateration_cases(geodesy, lateration) -> list[tuple[float, list]]:
    """(gap_max_km, circles) lists for all_candidates, ids unique per list."""
    GeoCircle = geodesy.GeoCircle
    pi_r = math.pi * geodesy.EARTH_RADIUS_M

    def point(lat, lon):
        lon = wrap_lon(lon)
        p = geodesy.GeoPoint(lat, lon)
        if p.lon != lon:
            raise SystemExit(f"GeoPoint changed the longitude {lon!r} to {p.lon!r}")
        return p

    def near(center, bearing, d_m, r_m):
        lat, lon = destination(center.lat, center.lon, bearing, d_m, geodesy.EARTH_RADIUS_M)
        return GeoCircle(point(lat, lon), r_m)

    def named(circles):
        return [lateration.LandmarkCircle(f"c{k:02d}", c) for k, c in enumerate(circles)]

    rng = random.Random(12)
    target = point(48.2, 11.1)
    europe = []
    for _ in range(12):
        c = point(rng.uniform(*EUROPE[:2]), rng.uniform(*EUROPE[2:]))
        europe.append(GeoCircle(c, geodesy.orthodromic_distance(c, target) * rng.uniform(0.7, 1.5)))

    o = point(10.0, 20.0)
    km = 1000.0
    tangent = [GeoCircle(o, 500 * km),
               near(o, 90.0, 1000 * km + 0.5, 500 * km),    # external, inside tau
               near(o, 200.0, 1000 * km - 0.7, 500 * km),   # external, overlapping by 0.7 m
               near(o, 10.0, 300 * km + 0.6, 800 * km),     # internal, larger second
               near(o, 300.0, 300 * km - 0.9, 200 * km),    # internal, larger first
               near(o, 45.0, 1000 * km + 1.001, 500 * km)]  # just past the tolerance: a gap
    contained = [GeoCircle(o, 500 * km),
                 GeoCircle(o, 200 * km),                    # same center
                 near(o, 150.0, 100 * km, 50 * km),
                 near(o, 60.0, 0.8, 500 * km + 1.2),        # equal within tau: skipped
                 near(o, 240.0, 1.5, 500 * km - 0.4)]       # equal within tau: skipped
    gaps = [GeoCircle(o, 400 * km),
            near(o, 0.0, 800 * km + 999 * km, 400 * km),    # gap 999 km: kept
            near(o, 180.0, 800 * km + 1001 * km, 400 * km)]  # gap 1 001 km: dropped
    wrapped = [GeoCircle(point(0.0, 0.0), 0.95 * pi_r),
               GeoCircle(point(0.0, 30.0), 0.95 * pi_r),
               GeoCircle(point(20.0, -100.0), 0.9 * pi_r),
               GeoCircle(point(-5.0, 170.0), pi_r),
               # a point circle at (5, -10) and a circle touching it within tau
               near(point(-5.0, 170.0), 30.0, pi_r - 4000 * km + 0.5, 4000 * km),
               GeoCircle(point(5.0, 10.0), 0.1 * pi_r)]
    poles = [GeoCircle(point(90.0, 0.0), 1000 * km),
             GeoCircle(point(89.9999999, 10.0), 1500 * km),
             GeoCircle(point(85.0, -120.0), 800 * km),
             GeoCircle(point(-90.0, 45.0), 3000 * km),
             GeoCircle(point(-89.5, 179.9), 500 * km),
             GeoCircle(point(-80.0, -170.0), 900 * km),
             GeoCircle(point(0.0, 179.95), 800 * km),
             GeoCircle(point(3.0, -179.0), 700 * km),
             GeoCircle(point(60.0, -179.99), 700 * km),
             GeoCircle(point(55.0, 178.0), 600 * km)]
    return [(1000.0, named(europe)), (1000.0, named(tangent)), (1000.0, named(contained)),
            (1000.0, named(gaps)), (5000.0, named(wrapped)), (2000.0, named(poles))]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    p.add_argument("--against", help="a digest line to compare with")
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.root).resolve() / "src"))
    # argparse wraps help text at the terminal width it reads from COLUMNS.
    os.environ["COLUMNS"] = "80"

    from latloc import geodesy, lateration
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

    # The skipped degenerate pairs' warnings are not part of the digest.
    logging.getLogger("latloc").addHandler(logging.NullHandler())
    lines = []
    for k, (gap_max_km, circles) in enumerate(lateration_cases(geodesy, lateration)):
        c = lateration.all_candidates(circles, gap_max_km=gap_max_km)
        for (a, b), tag, lat, lon in zip(c.source_pair, c.case_tag, c.lat, c.lon):
            lines.append(f"{k} {a} {b} {tag} {lat!r} {lon!r}\n")
    digests["lateration_cases"] = sha("".join(lines).encode())

    for command in ("latloc", "place", "fit", "locate", "simulate", "eval"):
        argv = ["--help"] if command == "latloc" else [command, "--help"]
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            try:
                code = latloc_main(argv)
            except SystemExit as exc:  # argparse exits after printing the help
                code = exc.code
        if code != 0:
            raise SystemExit(f"latloc {' '.join(argv)} exited {code}")
        digests[f"help/{command}"] = sha(text.getvalue().encode())

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
