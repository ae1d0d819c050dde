"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload at tiny shapes through the same command
the benchmark uses, so they take tens of seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from checks import CheckError, check_error_km, check_placement, haversine_km  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402
from run import end_to_end  # noqa: E402
from speed import ScaledClock  # noqa: E402
from workloads import PassResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def span(i, parent, start, end):
    return Span(i, parent, "r", f"s{i}", start, end)


def test_self_time_subtracts_nested_children():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 1, 2.0, 3.0),
             span(3, 0, 6.0, 7.5)]
    own = self_times(spans)
    assert own == {0: pytest.approx(5.5), 1: pytest.approx(2.0),
                   2: pytest.approx(1.0), 3: pytest.approx(1.5)}


def test_self_time_counts_overlapping_children_once():
    # Children [1, 5] and [3, 8] cover [1, 8]; a child running past the
    # parent's end only covers up to the parent's end.
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 5.0), span(2, 0, 3.0, 8.0),
             span(3, 0, 9.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_tracer_restores_functions_and_counts_calls():
    import latloc.estimation as estimation
    from latloc.geodesy import GeoPoint

    original = estimation.grid_center
    with Tracer() as tracer:
        assert estimation.grid_center is not original
        estimation.filter_outliers(
            [estimation.CandidatePoint(GeoPoint(float(i), 0.0), ("a", "b"), "pair_branch")
             for i in range(8)])
    assert estimation.grid_center is original
    m = tracer.metrics()
    assert m["estimation.filter_outliers.calls"] == 1
    assert m["estimation.grid_center.calls"] == 2
    assert m["estimation.filter_outliers.dropped"] == 2 + 2
    assert m["estimation.filter_outliers.s"] >= m["estimation.grid_center.s"]


def test_wrapper_counts_and_reraises_exceptions():
    tracer = Tracer()

    def fails():
        raise ValueError("boom")

    wrapped = tracer.wrap("latency.least_squares", fails)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.counters["latency.least_squares.raised"] == 1
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer.metrics()["latency.least_squares.raised"] == 1


def test_clock_scales_each_segment_by_its_local_kernel_median():
    # The kernel took the reference 3 ms for the first twelve samples, then
    # 6 ms, so a segment far into the slow stretch counts half its time.
    clock = ScaledClock()
    clock.kernel_s = [0.003] * 12 + [0.006] * 12
    clock.segments_s = [1.0] * 24
    assert clock.factor(0) == 1.0
    assert clock.factor(23) == 0.5
    assert clock.factor(12) == 0.5  # window 7..17 holds six slow samples of eleven
    assert clock.raw_s() == 24.0
    assert clock.scaled_s() == pytest.approx(sum(clock.factor(i) for i in range(24)))


def test_clock_counts_only_open_segments():
    clock = ScaledClock()
    assert clock.mark() == 0
    assert clock.mark() == 1
    clock.stop()
    assert len(clock.kernel_s) == 2 and len(clock.segments_s) == 2


def test_end_to_end_takes_medians_of_scaled_passes():
    passes = [PassResult(b"d", 9.0, 4.0, [0.1, 0.3], [10.0, 30.0], 2, 0),
              PassResult(b"d", 9.0, 6.0, [0.2, 0.4], [10.0, 30.0], 2, 0)]
    m = end_to_end(passes, [1.0, 3.0, 2.0])
    assert m["experiment_s"] == pytest.approx(5.0)
    assert m["locate_ms_p50"] == pytest.approx(250.0)
    assert m["locates_per_s"] == pytest.approx(2 / 5.0)
    assert m["setup_s"] == 2.0
    assert m["median_km"] == 20.0


def test_error_check_uses_haversine():
    truth, est = (48.0, 11.0), (52.5, 13.4)
    check_error_km("t", truth, est, haversine_km(*truth, *est))
    with pytest.raises(CheckError):
        check_error_km("t", truth, est, haversine_km(*truth, *est) + 0.01)
    with pytest.raises(CheckError):
        check_error_km("t", truth, (float("nan"), 13.4), 1.0)


def test_placement_check_rejects_wrong_objective_and_improvable_sets():
    # Path a-b-c-d-e: landmark c is optimal for k=1, landmark a is not.
    adjacency = {"a": ("b",), "b": ("a", "c"), "c": ("b", "d"), "d": ("c", "e"), "e": ("d",)}
    assert check_placement(adjacency, ["c"], (2, 6)) == (2, 6)
    with pytest.raises(CheckError):
        check_placement(adjacency, ["c"], (2, 5))
    with pytest.raises(CheckError):
        check_placement(adjacency, ["a"], (4, 10))
