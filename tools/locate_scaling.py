"""Time `latloc locate` in process on topologies of several sizes and print
one JSON line.

    python3 tools/locate_scaling.py [--root CHECKOUT] [--nodes 300,1000,3000] [--k 16]

For each size n the world is generate_topology(n, EUROPE, r, 0) with
r = 300 km * sqrt(300 / n), so that the mean degree stays about that of
perfbench's locate_k16 world (n = 300, 300 km) and the topology file grows
linearly with n. Its k dragoon landmarks (--k, 16 by default, as in
locate_k16) are fitted with `latloc fit` on their noisy calibration mesh
(2 ms mean), so the models file is the one the checkout writes. TARGETS
free nodes, drawn with seed 0, are probed once each (probe-noise seed 1),
and each is located with `latloc locate --topology ... --truth ...` through
latloc.cli.main, as perfbench calls it. The line gives, per n, the topology
file's size, the median over targets of each call's unscaled wall time (the
best of PASSES passes per target), the median over targets of one
all_candidates call on the target's circles (recorded in one more, untimed
pass, then timed alone, best of PASSES), and a SHA-256 digest of all the
locate outputs in target order, so two checkouts that print equal digests
wrote the same bytes. --root selects the checkout whose src/ is imported,
so two commits can be timed with the same script; alternate the runs, since
a shared host drifts.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

EUROPE = (35.0, 60.0, -10.0, 30.0)
TARGETS = 40
PASSES = 5


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    p.add_argument("--nodes", default="300,1000,3000", help="comma-separated topology sizes")
    p.add_argument("--k", type=int, default=16, help="landmarks per world")
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.root).resolve() / "src"))

    from latloc import cli, estimation
    from latloc.latency import measurements_to_csv
    from latloc.placement import dragoon_place
    from latloc.simulator import (
        DelayParams,
        SimWorld,
        calibration_mesh,
        generate_topology,
        simulate_measurement,
    )
    from latloc.topology import topology_to_json

    def run(argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([str(a) for a in argv])

    line = {}
    for n in (int(v) for v in args.nodes.split(",")):
        t = generate_topology(n, EUROPE, 300.0 * math.sqrt(300.0 / n), 0)
        world = SimWorld(t, 0, DelayParams(stochastic_mean_ms=2.0))
        ls = dragoon_place(t, args.k)
        landmarks = list(ls.landmarks)
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            topo, models = d / "topology.json", d / "models.json"
            topo.write_text(topology_to_json(t), encoding="utf-8")
            (d / "landmarks.json").write_text(ls.to_json(), encoding="utf-8")
            (d / "mesh.csv").write_text(
                measurements_to_csv(calibration_mesh(world, landmarks)), encoding="utf-8")
            if run(["fit", "--topology", topo, "--landmarks", d / "landmarks.json",
                    "--measurements", d / "mesh.csv", "--out", models]) != 0:
                raise SystemExit(f"latloc fit failed at n={n}")
            free = [nid for nid in t.node_ids if nid not in set(landmarks)]
            probe_world = SimWorld(t, 1, world.delay)
            calls = []
            for target in sorted(random.Random(0).sample(free, TARGETS)):
                csv = d / f"{target}.csv"
                csv.write_text(measurements_to_csv(
                    [simulate_measurement(probe_world, lm, target) for lm in landmarks]),
                    encoding="utf-8")
                pos = t.positions[target]
                out = d / f"{target}.out.json"
                calls.append((["locate", "--topology", topo, "--models", models,
                               "--measurements", csv, "--truth", f"{pos.lat!r},{pos.lon!r}",
                               "--out", out], out))
            best = [math.inf] * len(calls)
            for _ in range(PASSES):
                for i, (argv, _out) in enumerate(calls):
                    start = time.perf_counter()
                    code = cli.main([str(a) for a in argv])
                    best[i] = min(best[i], time.perf_counter() - start)
                    if code != 0:
                        raise SystemExit(f"latloc locate failed: {argv}")
            digest = hashlib.sha256(b"".join(out.read_bytes() for _argv, out in calls))
            line[f"n{n}"] = {
                "topology_kb": round(topo.stat().st_size / 1024, 1),
                "locate_ms_p50": round(1000 * statistics.median(best), 3),
                "all_candidates_ms_p50": round(1000 * statistics.median(
                    all_candidates_s(estimation, [argv for argv, _out in calls], run)), 4),
                "digest": digest.hexdigest(),
            }
    print(json.dumps(line, sort_keys=True))
    return 0


def all_candidates_s(estimation, calls: list[list], run) -> list[float]:
    """Per call in calls, the best of PASSES wall times of one
    all_candidates call on the circles it builds, recorded by running each
    call once with estimation.all_candidates wrapped."""
    real, recorded = estimation.all_candidates, []

    def record(circles, *args, **kwargs):
        recorded.append(circles)
        return real(circles, *args, **kwargs)

    estimation.all_candidates = record
    try:
        for argv in calls:
            run(argv)
    finally:
        estimation.all_candidates = real
    best = []
    for circles in recorded:
        times = []
        for _ in range(PASSES):
            start = time.perf_counter()
            real(circles)
            times.append(time.perf_counter() - start)
        best.append(min(times))
    return best


if __name__ == "__main__":
    sys.exit(main())
