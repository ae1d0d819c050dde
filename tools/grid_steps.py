"""Count and time the grid search's ε-steps on the benchmark's clouds and
print one JSON line.

    python3 tools/grid_steps.py [--root CHECKOUT] [--against CHECKOUT]

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

--against CHECKOUT compares two commits in one run. The clouds are recorded
once, with --root's code, and both checkouts' src/ replay the same clouds:
ROUNDS rounds of one child process per checkout, the side that runs first
alternating from round to round. For each workload the line then gives each
side's ε-steps and, per timing, the per-round figures and their median,
under "root" and "against". Single runs of this script vary by about 20% on
a shared host; alternating rounds on the same clouds resolve smaller
changes.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

LOCATE_CALLS = 50
REPEATS = 5
ROUNDS = 5
TIMINGS = ("ms_per_call", "us_per_step", "grid_us_per_step", "kernel_us_per_step")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    p.add_argument("--against", help="a second checkout to replay the same clouds with")
    args = p.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    from latloc import cli, estimation, simulator
    from speed import ScaledClock
    from workloads import SHAPES, ExperimentWorkload, LocateWorkload

    def recorded(run) -> list:
        """The point lists grid_center receives while run() runs."""
        clouds, grid_center = [], estimation.grid_center

        def record(points):
            clouds.append(list(points))
            return grid_center(points)

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

    clouds = {}
    for name, run in (("c6_dragoon", c6_run), ("locate_k16", locate_run)):
        clouds[name] = recorded(run)
        if not clouds[name]:
            print(f"{name}: grid_center was never called", file=sys.stderr)
            return 1
    if args.against is None:
        out = {"root": str(root)}
        for name, workload_clouds in clouds.items():
            timed = measure(estimation, name, workload_clouds)
            if timed is None:
                return 1
            out[name] = timed
        print(json.dumps(out))
        return 0
    return compare(root, Path(args.against).resolve(), clouds)


def measure(estimation, name: str, clouds: list) -> dict | None:
    """Steps and timings of grid_center over workload name's clouds, a list
    of GeoPoint lists, with estimation the latloc.estimation module to time."""
    count = 0
    method = estimation._Cloud.mean_distance_m

    def counted(self, *a):
        nonlocal count
        count += 1
        return method(self, *a)

    # ε-steps over one replay of every cloud: mean-distance evaluations.
    estimation._Cloud.mean_distance_m = counted
    try:
        for points in clouds:
            estimation.grid_center(points)
    finally:
        estimation._Cloud.mean_distance_m = method
    if count <= 0:
        print(f"{name}: {count} ε-steps in {len(clouds)} grid_center calls", file=sys.stderr)
        return None

    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for points in clouds:
            estimation.grid_center(points)
        best = min(best, time.perf_counter() - start)

    def per_call_s(fn, *args) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(100):
                fn(*args)
            best = min(best, (time.perf_counter() - start) / 100)
        return best

    # Building and scoring the first 7 x 7 grid around the centroid of a
    # cloud of the median size.
    size = statistics.median(len(points) for points in clouds)
    median_cloud = min(clouds, key=lambda p: abs(len(p) - size))
    center = estimation.spherical_centroid(median_cloud)
    _, _, _, terms = estimation._grid(center, 100_000.0)
    return {
        "calls": len(clouds),
        "eps_steps": count,
        "median_cloud_size": size,
        "ms_per_call": round(best / len(clouds) * 1e3, 4),
        "us_per_step": round(best / count * 1e6, 2),
        "grid_us_per_step": round(per_call_s(estimation._grid, center, 100_000.0) * 1e6, 2),
        "kernel_us_per_step": round(
            per_call_s(estimation._Cloud(median_cloud).mean_distance_m, *terms) * 1e6, 2),
    }


def compare(root: Path, against: Path, clouds: dict) -> int:
    """Replay clouds with both checkouts in alternating child processes and
    print both sides' figures."""
    sides = {"root": root, "against": against}
    runs = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clouds.json"
        path.write_text(json.dumps({name: [[(p.lat, p.lon) for p in points] for points in cl]
                                    for name, cl in clouds.items()}))
        order = list(sides)
        for _ in range(ROUNDS):
            for side in order:
                child = subprocess.run(
                    [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                     "import grid_steps; sys.exit(grid_steps.replay(sys.argv[2], sys.argv[3]))",
                     str(Path(__file__).resolve().parent), str(sides[side]), str(path)],
                    capture_output=True, text=True)
                if child.returncode != 0:
                    print(f"{side} ({sides[side]}): {child.stderr.strip()}", file=sys.stderr)
                    return 1
                runs[side].append(json.loads(child.stdout))
            order.reverse()
    out = {"root": str(root), "against": str(against), "rounds": ROUNDS}
    for name in clouds:
        first = runs["root"][0][name]
        out[name] = {"calls": first["calls"], "median_cloud_size": first["median_cloud_size"]}
        for side, side_runs in runs.items():
            figures = [r[name] for r in side_runs]
            out[name][side] = {"eps_steps": figures[0]["eps_steps"]} | {
                key: {"median": statistics.median(f[key] for f in figures),
                      "runs": [f[key] for f in figures]}
                for key in TIMINGS}
    print(json.dumps(out))
    return 0


def replay(root: str, clouds_path: str) -> int:
    """One child of --against: time the recorded clouds with root's src/ and
    print the figures of every workload as one JSON line."""
    sys.path.insert(0, str(Path(root) / "src"))
    from latloc import estimation
    from latloc.geodesy import GeoPoint

    out = {}
    for name, clouds in json.loads(Path(clouds_path).read_text()).items():
        timed = measure(estimation, name, [[GeoPoint(lat, lon) for lat, lon in points]
                                           for points in clouds])
        if timed is None:
            return 1
        out[name] = timed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
