"""Count and time the grid search's ε-steps on the benchmark's clouds and
print one JSON line.

    python3 tools/grid_steps.py [--root CHECKOUT]

The clouds are every grid_center input of the seed-0 c6_dragoon pass
(run_experiment on the criterion-6 world) and of the first 50 seed-0
locate_k16 calls (latloc locate, in process, on perfbench's set-up). For
each workload the line gives the grid_center calls, their ε-steps (one
_Cloud.mean_distance_m call each: the first grid's center supplies the
centroid's score), the median cloud size, the unscaled wall time per call
and per step (best of REPEATS replays of all its clouds), and, for the first
step around the centroid of a cloud of the median size, the time of building
its 7 x 7 grid (_grid: row and column coordinates and their query terms) and
of scoring it (_Cloud.mean_distance_m). perfbench reports grid_center totals
only; this shows what one step costs and how much of it the objective kernel
takes. The script exits 1 when a workload makes no grid_center call or no
step. --root selects the checkout whose src/ and perfbench/ are imported, so
two commits can be timed with the same script.
"""

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

LOCATE_CALLS = 50
REPEATS = 5


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    args = p.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    from latloc import cli, estimation, simulator
    from speed import ScaledClock
    from workloads import SHAPES, ExperimentWorkload, LocateWorkload

    def recorded(run) -> list:
        """The point lists grid_center receives while run() runs."""
        clouds, grid_center = [], estimation.grid_center

        def record(points, *rest):
            clouds.append((list(points), rest))
            return grid_center(points, *rest)

        estimation.grid_center = record
        try:
            run()
        finally:
            estimation.grid_center = grid_center
        return clouds

    def c6_run():
        w = ExperimentWorkload(SHAPES["c6_dragoon"], 0)
        w.setup(None, ScaledClock())
        s = w.shape
        simulator.run_experiment(w.world, s.k, "dragoon", s.n_targets, 0)

    def locate_run():
        with tempfile.TemporaryDirectory() as tmp:
            w = LocateWorkload(SHAPES["locate_k16"], 0)
            w.setup(Path(tmp), ScaledClock())
            for _, _, argv, _ in w.calls[:LOCATE_CALLS]:
                if cli.main(argv) != 0:
                    raise SystemExit(f"latloc {' '.join(argv)} failed")

    def steps(clouds) -> int:
        """ε-steps over one replay of every cloud: mean-distance evaluations."""
        count = 0
        method = estimation._Cloud.mean_distance_m

        def counted(self, *a):
            nonlocal count
            count += 1
            return method(self, *a)

        estimation._Cloud.mean_distance_m = counted
        try:
            for points, rest in clouds:
                estimation.grid_center(points, *rest)
        finally:
            estimation._Cloud.mean_distance_m = method
        return count

    def replay_s(clouds) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            for points, rest in clouds:
                estimation.grid_center(points, *rest)
            best = min(best, time.perf_counter() - start)
        return best

    def per_call_s(fn, *args) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(100):
                fn(*args)
            best = min(best, (time.perf_counter() - start) / 100)
        return best

    def first_step_s(points) -> tuple[float, float]:
        """Building and scoring the first 7 x 7 grid around points' centroid."""
        center = estimation.spherical_centroid(points)
        cloud = estimation._Cloud(points)
        _, _, _, terms = estimation._grid(center, 100_000.0)
        return (per_call_s(estimation._grid, center, 100_000.0),
                per_call_s(cloud.mean_distance_m, *terms))

    out = {"root": str(root)}
    for name, run in (("c6_dragoon", c6_run), ("locate_k16", locate_run)):
        clouds = recorded(run)
        if not clouds:
            print(f"{name}: grid_center was never called", file=sys.stderr)
            return 1
        n_steps = steps(clouds)
        if n_steps <= 0:
            print(f"{name}: {n_steps} ε-steps in {len(clouds)} grid_center calls",
                  file=sys.stderr)
            return 1
        total_s = replay_s(clouds)
        size = statistics.median(len(points) for points, _ in clouds)
        median_cloud = min((points for points, _ in clouds), key=lambda p: abs(len(p) - size))
        grid_s, kernel_s = first_step_s(median_cloud)
        out[name] = {
            "calls": len(clouds),
            "eps_steps": n_steps,
            "median_cloud_size": size,
            "ms_per_call": round(total_s / len(clouds) * 1e3, 4),
            "us_per_step": round(total_s / n_steps * 1e6, 2),
            "grid_us_per_step": round(grid_s * 1e6, 2),
            "kernel_us_per_step": round(kernel_s * 1e6, 2),
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
