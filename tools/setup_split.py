"""Time each step of the locate_k16 benchmark set-up and print one JSON line.

    python3 tools/setup_split.py [--root CHECKOUT] [--seed N]

The steps are the ones perfbench's LocateWorkload.setup runs, on its world:
world (generate_topology, which also builds the topology's CSR adjacency),
dragoon_place, calibration_mesh, calibrate_all, and probes
(simulate_measurement for every landmark and target). perfbench
times the set-up as one number; this split shows which step a change moved.
Times are unscaled wall seconds, in a fresh interpreter per run. --root
selects the checkout whose src/ and perfbench/ are imported, so two commits
can be timed with the same script.
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    p.add_argument("--seed", type=int, default=0, help="probe-noise seed, as perfbench's --seed")
    args = p.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    from latloc.latency import calibrate_all
    from latloc.placement import dragoon_place
    from latloc.simulator import SimWorld, calibration_mesh, simulate_measurement
    from workloads import SHAPES, WORLD_SEED, _world

    shape = SHAPES["locate_k16"]
    steps = {}

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
    print(json.dumps({"root": str(root), "seed": args.seed, "steps_s": steps}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
