"""Benchmark of the biphoton package: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  Every run happens in fresh worker processes (worker.py): with
``--trace 0`` set-up is timed in five of them (two that stop after
set-up, the measured one, then two more) and the median is
``setup_s``.  With ``--trace 1`` a single worker gives the per-layer
metrics of a traced pass.

Every timing in ``BENCHMARK.json`` is scaled to the reference host's
speed, which each worker reads with a calibration (see worker.py), so
that the host's own changes of speed cancel; the plain wall-clock
figures are printed and recorded as ``wall_*``.  The last line of standard output is the
JSON result; the lines before it print every figure by name with its
unit.  A fuller record (environment, failures, untraced figures) goes to
``perfbench/out/<workload>-seed<n>-trace<t>.json``.

The exit status is 0 only when every worker ran and reported.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SETUP_SAMPLES = 5
# a run must end within 180 s; workers get what is left of this budget
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """A worker failed to start, crashed or did not report."""


def _worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # one process, one thread: keep BLAS from starting a pool
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _lines(proc, deadline):
    """Yield the stdout lines of ``proc``; BenchError once ``deadline`` passes."""
    buf = b""
    while True:
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield line.decode()
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([proc.stdout], [], [],
                                               remaining)[0]:
            raise BenchError("worker timed out")
        chunk = os.read(proc.stdout.fileno(), 1 << 16)
        if not chunk:
            if buf:
                yield buf.decode()
            return
        buf += chunk


def _worker(args, deadline, setup_only):
    """Run one worker.

    Returns its set-up seconds, the host's speed just after set-up
    relative to the reference host's, and its JSON report (None with
    ``setup_only``).
    """
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size,
           "--workdir", str(OUT / f"work-{os.getpid()}-{time.time_ns()}")]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, bufsize=0)
    try:
        lines = _lines(proc, deadline)
        if next(lines, None) != "READY":
            raise BenchError("worker failed during set-up")
        setup_s = time.perf_counter() - t0
        speed = next(lines, "")
        if not speed.startswith("SPEED "):
            raise BenchError("worker did not read the host's speed")
        rest = list(lines)
        status = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        if status != 0:
            raise BenchError(f"worker exited with status {status}")
        return (setup_s, float(speed.split()[1]),
                None if setup_only else json.loads(rest[-1]))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest():
    """SHA-256 over src/, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed):
    import numpy
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run(args):
    """Run one workload; returns (metrics with units, full record)."""
    if not (ROOT / "src" / "biphoton").is_dir():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        _, _, report = _worker(args, deadline, setup_only=False)
        wanted = BENCHMARK["per_layer"]
        values = report["layers"]
        setups = []
    else:
        # half the set-up samples before the measured worker and half
        # after it, so that they spread over the whole run
        setups = [_worker(args, deadline, setup_only=True)[:2]
                  for _ in range(SETUP_SAMPLES // 2)]
        setup_s, speed, report = _worker(args, deadline, setup_only=False)
        setups.append((setup_s, speed))
        setups += [_worker(args, deadline, setup_only=True)[:2]
                   for _ in range(SETUP_SAMPLES - len(setups))]
        report["wall_setup_s"] = statistics.median(s for s, _ in setups)
        wanted = BENCHMARK["end_to_end"]
        values = {**report, "setup_s": statistics.median(
            s * speed for s, speed in setups)}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "size": args.size,
              "environment": environment(args.seed),
              "setup_samples_s_speed": setups, "metrics": metrics,
              "report": report}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return metrics, record


def print_figures(workload, metrics, report):
    """One line per figure: workload, name, value, unit; then failures.

    ``failed_ratio``, ``op_ms_p90`` (where a run has at least 100 ops)
    and the wall-clock figures are printed with the metrics of
    BENCHMARK.json but are not gated.
    """
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    rows.append(("failed_ratio", report["failed_ratio"], "ratio"))
    if "layers" not in report:
        units = {"op_ms_p90": "ms", "wall_setup_s": "s",
                 "wall_ops_per_s": "1/s", "wall_op_ms_p50": "ms",
                 "wall_op_ms_p90": "ms"}
        rows += [(name, report[name], unit) for name, unit in units.items()
                 if name in report]
    for name, value, unit in rows:
        print(f"{workload} {name} {value!r} {unit}")
    for failure in report["failures"]:
        print(f"{workload} failed: {failure}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few small inputs, for the self-tests")
    args = parser.parse_args(argv)
    try:
        metrics, record = run(args)
    except (BenchError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = record["report"]
    print_figures(args.workload, metrics, report)
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
