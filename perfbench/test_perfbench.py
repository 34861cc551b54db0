"""Self-tests of the benchmark, on its tiny input size.

    python3 -m pytest -q perfbench/test_perfbench.py

The repository's own suite (``testpaths = tests``) does not collect this
file; it takes about a minute, most of it in the fit workload.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker  # noqa: E402
from tracing import LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, analyze_inputs, sweep_inputs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
_RUNS = {}


def bench(workload, trace, seed=1, fresh=False):
    """Result line of one tiny run (cached unless ``fresh``)."""
    key = (workload, trace, seed)
    if fresh or key not in _RUNS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert out.returncode == 0, out.stderr
        _RUNS[key] = json.loads(out.stdout.strip().splitlines()[-1])
    return _RUNS[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_benchmark_lists_every_layer_metric():
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert names == list(LAYER_UNITS) + ["trace.overhead_ops_per_s"]


def test_analyze_never_reaches_the_forward_model():
    metrics = bench("analyze", 1)["metrics"]
    assert metrics["faddeeva.points"]["value"] == 0
    assert metrics["forward.predict.calls"]["value"] == 0
    assert metrics["ingest.bytes_read"]["value"] > 0


@pytest.mark.parametrize("workload", ["sweep", "fit"])
def test_counts_repeat_exactly(workload):
    names = ("faddeeva.points", "forward.predict.calls",
             "wavepacket.widenings", "fitting.iterations_per_fit")
    first = bench(workload, 1)["metrics"]
    second = bench(workload, 1, fresh=True)["metrics"]
    for name in names:
        assert first[name]["value"] == second[name]["value"], name
    assert first["forward.predict.calls"]["value"] > 0


@pytest.mark.parametrize("mode", ["plain", "digests", "traced"])
def test_malformed_histogram_row_is_a_failed_op(tmp_path, mode):
    inputs = analyze_inputs(1, "tiny", tmp_path)
    csv_path = Path(inputs[0].argv[1])
    lines = csv_path.read_text().splitlines()
    lines[2] = "0.8,not-a-number"
    csv_path.write_text("\n".join(lines) + "\n")
    workload = WORKLOADS["analyze"]
    if mode == "traced":
        result = worker.traced_run(workload, inputs, 0.0,
                                   tmp_path / "spans.jsonl")
        assert result["attempted"] == len(inputs)
        assert result["failed"] == 1
        assert result["outputs_identical"]
        assert len(result["failures"]) == 1
        label, error = result["failures"][0].split(": ", 1)
        assert label == inputs[0].label
    else:
        records = worker.run_ops(workload, inputs, n_ops=len(inputs),
                                 digests=mode == "digests")
        assert len(records) == len(inputs)
        assert all(r["error"] is None for r in records[1:])
        # every op's output directory is gone once its check has run
        assert [p for inp in inputs for p in inp.out.glob("*")] == []
        if mode == "digests":
            assert records[0]["digest"] is None
            assert all(r["digest"] for r in records[1:])
        error = records[0]["error"]
    assert error.startswith("exit status 3")


def test_op_times_are_scaled_by_the_calibrations_around_them():
    records = [{"t0": 10.0, "s": 1.0}, {"t0": 20.0, "s": 1.0}]
    # two readings around each op: the host is half as fast at the second
    cals = [(9.0, 0.002), (11.5, 0.002), (19.0, 0.004), (21.5, 0.004)]
    worker._scale(records, cals, 0.002)
    assert [r["s_ref"] for r in records] == [1.0, 0.5]


def test_traced_self_times_fit_in_wall_time():
    inputs = sweep_inputs(1, "tiny")
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        records = worker.run_ops(WORKLOADS["sweep"], inputs,
                                 n_ops=len(inputs), tracer=tracer)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert all(r["error"] is None for r in records)
    self_times = tracer.self_times()
    assert min(self_times) >= 0.0
    assert sum(self_times) <= wall
    layers = tracer.layer_metrics()
    assert sum(v for k, v in layers.items() if k.endswith(".self_s")) <= wall


def test_uninstall_restores_the_program():
    import biphoton.fitting
    import biphoton.forward
    import biphoton.kernels
    before = (biphoton.forward.predict, biphoton.fitting.predict,
              biphoton.kernels.gaussian_pole_integral)
    tracer = Tracer()
    tracer.install()
    assert biphoton.fitting.predict is not before[1]
    assert biphoton.fitting.predict is biphoton.forward.predict
    tracer.uninstall()
    assert (biphoton.forward.predict, biphoton.fitting.predict,
            biphoton.kernels.gaussian_pole_integral) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
