"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload c6_dragoon --seed 0 --seconds 40 --trace 0

Run from the root of a latloc checkout; the package is imported from its
src/ directory. With --trace 0 the harness repeats untraced passes over the
workload's targets for about --seconds seconds and reports the end-to-end
metrics. With --trace 1 it runs a traced pass between two untraced ones,
requires their outputs to be byte-identical, writes the spans to
.bench_out/trace-<workload>-seed<seed>.json and reports the per-layer metrics.
Exit status: 0 when every output check passed, 1 when one failed (the result
line then says "correct": false), 2 when the package or an argument is
missing.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

# Set-up time runs from here, before the other imports.
SETUP_CLOCK = speed.ScaledClock()
SETUP_CLOCK.mark()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("c6_dragoon", "locate_k16")
SETUP_SAMPLES = 2
SETUP_TAIL_SAMPLES = 10

# Each end-to-end metric and its unit. Every time is scaled to the reference
# host (see speed.py), segment by segment: a timed pass, and a set-up, which
# starts a segment before the imports and at steps of the workload's set-up.
# locate_ms_p50 and
# locate_ms_p90 are percentiles over targets of each target's median locate
# call time over the run's passes. On c6_dragoon a target's locate call is
# its estimate_target call inside run_experiment; on locate_k16 it is one
# `latloc locate`.
END_TO_END = {
    "setup_s": "s",
    "experiment_s": "s",
    "locate_ms_p50": "ms",
    "locate_ms_p90": "ms",
    "locates_per_s": "1/s",
    "median_km": "km",
    "p90_km": "km",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith((".share", "_frac")):
        return "frac"
    if name.endswith(".rss_sum"):
        return "km2"
    return "count"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny shapes, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (one setup_s sample)")
    return p.parse_args(argv)


def import_harness():
    """Put the checkout's src/ first on the path and import the workloads.

    Exits with status 2, printing no result, when the package is absent."""
    src = ROOT / "src"
    if not (src / "latloc" / "__init__.py").is_file():
        print(f"error: no latloc package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import checks
    import tracing
    import workloads
    return checks, tracing, workloads


def p90(values):
    """Linear-interpolated 90th percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def nearest_rank_p90(values):
    """p90 the way ExperimentReport.summary computes it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(0.9 * len(ordered)) - 1)]


def child_setup_s(args) -> float:
    """One setup_s sample from a fresh interpreter, imports included."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_passes(workload, seconds):
    """Closed loop, one client: passes back to back for the whole number of
    passes that comes nearest `seconds`; the next pass is run while at least
    half of it would fit. Always at least one pass."""
    passes = []
    elapsed = 0.0
    while True:
        gc.collect()
        passes.append(workload.run_pass())
        elapsed += passes[-1].raw_s
        if elapsed + statistics.median(p.raw_s for p in passes) / 2 > seconds:
            return passes


def end_to_end(passes, setup_samples):
    experiment_s = statistics.median(p.scaled_s for p in passes)
    # Each target's median over the passes, so one call a transient stall hit
    # does not move the percentiles.
    call_ms = [1000.0 * statistics.median(calls) for calls in zip(*(p.call_s for p in passes))]
    errors = passes[0].errors_km
    values = {
        "setup_s": statistics.median(setup_samples),
        "experiment_s": experiment_s,
        "locate_ms_p50": statistics.median(call_ms),
        "locate_ms_p90": p90(call_ms),
        "locates_per_s": (passes[0].attempted - passes[0].failed) / experiment_s,
        "median_km": statistics.median(errors),
        "p90_km": nearest_rank_p90(errors),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{len(passes)} passes of {len(call_ms)} locate calls, unscaled median pass "
          f"{statistics.median(p.raw_s for p in passes):.3f} s", file=sys.stderr)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    checks, tracing, workloads = import_harness()
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make_workload(args.workload, args.seed, smoke=args.smoke)
        workload.setup(workdir, SETUP_CLOCK)
        SETUP_CLOCK.stop()
        SETUP_CLOCK.sample(SETUP_TAIL_SAMPLES)
        setup_raw_s, setup_s = SETUP_CLOCK.raw_s(), SETUP_CLOCK.scaled_s()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "unscaled_s": setup_raw_s}))
            return 0

        problems = []
        if args.trace == 0:
            samples = [setup_s] + [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
            print(f"{args.workload}: setup samples {[round(s, 3) for s in samples]}, "
                  f"unscaled {setup_raw_s:.3f} s here", file=sys.stderr)
            passes = timed_passes(workload, args.seconds)
            values = end_to_end(passes, samples)
            units = END_TO_END
        else:
            # Untraced passes on both sides of the traced one, so the first
            # pass's warm-up does not count as negative tracing overhead.
            before = workload.run_pass()
            with tracing.Tracer() as tracer:
                traced = workload.run_pass(tracer)
            after = workload.run_pass()
            plain_s = statistics.fmean([before.raw_s, after.raw_s])
            tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
            for models in tracer.models:
                try:
                    checks.check_finite_models(models)
                except checks.CheckError as exc:
                    problems.append(str(exc))
            passes = [before, traced, after]
            values = tracer.metrics()
            values["trace.overhead_frac"] = traced.raw_s / plain_s - 1.0
            print(f"{args.workload}: untraced passes {before.raw_s:.3f} s and "
                  f"{after.raw_s:.3f} s, traced pass {traced.raw_s:.3f} s, "
                  f"{len(tracer.spans)} spans", file=sys.stderr)
            units = {name: per_layer_unit(name) for name in values}

        if len({p.output_digest for p in passes}) != 1:
            problems.append("passes over the same inputs gave different outputs"
                            + (" (traced vs untraced)" if args.trace else ""))
        try:
            workload.check()
        except checks.CheckError as exc:
            problems.append(str(exc))
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)

        result = {
            "correct": not problems,
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(p.failed for p in passes),
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }
        print(json.dumps(result))
        return 1 if problems else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
