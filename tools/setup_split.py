"""Time each step of the locate_k16 benchmark set-up and print one JSON line.

    python3 tools/setup_split.py [--root CHECKOUT] [--seed N]

The steps are imports (`import latloc.cli, latloc.simulator` in a fresh
child interpreter, which perfbench's setup_s includes; scipy is not among
them) and the ones perfbench's LocateWorkload.setup runs, on its world:
world (generate_topology, which builds the topology's CSR adjacency and
checks connectivity with one search), dragoon_place, calibration_mesh,
calibrate_all, and probes (simulate_measurement for every landmark and
target). perfbench
times the set-up as one number; this split shows which step a change moved.
Times are unscaled wall seconds, in a fresh interpreter per run;
imports_rss_mb is the child interpreter's peak RSS once the imports are
done. --root selects the checkout whose src/ and perfbench/ are imported, so
two commits can be timed with the same script.
"""

import argparse
import json
import random
import subprocess
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    p.add_argument("--seed", type=int, default=0, help="probe-noise seed, as perfbench's --seed")
    args = p.parse_args(argv)
    root = Path(args.root).resolve()
    steps = {}
    child = (f"import sys; sys.path.insert(0, {str(root / 'src')!r})\n"
             "import resource, time\n"
             "start = time.perf_counter()\n"
             "import latloc.cli, latloc.simulator\n"
             "print(time.perf_counter() - start, "
             "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         check=True).stdout.split()
    steps["imports"] = float(out[0])
    imports_rss_mb = int(out[1]) / 1024  # ru_maxrss is in KiB on Linux

    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    from latloc.latency import calibrate_all
    from latloc.placement import dragoon_place
    from latloc.simulator import SimWorld, calibration_mesh, simulate_measurement
    from workloads import SHAPES, WORLD_SEED, _world

    shape = SHAPES["locate_k16"]

    def timed(name, fn, *fn_args, **fn_kwargs):
        start = time.perf_counter()
        result = fn(*fn_args, **fn_kwargs)
        steps[name] = time.perf_counter() - start
        return result

    world = timed("world", _world, shape)
    t = world.topology
    landmarks = list(timed("dragoon_place", dragoon_place, t, shape.k).landmarks)
    mesh = timed("calibration_mesh", calibration_mesh, world, landmarks)
    timed("calibrate_all", calibrate_all, landmarks, mesh, t.positions,
          per_hop_ms=world.delay.per_hop_ms)
    free = [nid for nid in t.node_ids if nid not in set(landmarks)]
    targets = sorted(random.Random(WORLD_SEED).sample(free, shape.n_targets))
    probe_world = SimWorld(t, args.seed, world.delay)
    timed("probes", lambda: [simulate_measurement(probe_world, lm, target)
                             for target in targets for lm in landmarks])
    print(json.dumps({"root": str(root), "seed": args.seed, "steps_s": steps,
                      "imports_rss_mb": imports_rss_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
