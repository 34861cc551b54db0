"""One workload in one fresh process: set up, say READY, run, report.

Started by run.py with ``src/`` on PYTHONPATH.  After set-up (imports and
input generation) it prints ``READY``; with ``--setup-only`` it exits
there, so run.py can time set-up several times.  Otherwise it runs the
closed loop (one op in flight, no extra threads) and prints one JSON
line with the per-op records' summary as its last line.

With ``--trace 0`` ops run untraced for ``--seconds`` (in whole passes over
the inputs, or in exactly one, where the workload asks for it).  With
``--trace 1`` a fixed set of inputs runs untraced in whole passes for
half of ``--seconds``, then once more with every layer wrapped by
tracing.Tracer.  The traced pass must reproduce the untraced outputs bit
for bit, and its op count is fixed, so its counts repeat exactly across
runs of one seed.

The host's speed changes by up to 2x over seconds to minutes, whatever
the program does.  So the worker reads it: it runs the workload's
calibration (a fixed piece of work) before the first op, between ops
at least every CAL_EVERY_S, and after the last, and scales each op's
time by the calibrations around it to the reference host's speed.
``ops_per_s`` and ``op_ms_*`` are figures of the scaled times;
``wall_*`` are the same figures of the plain wall times.
"""

import argparse
import bisect
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# how often the host's speed is read between ops, and how far from an op
# a reading may be to count for it
CAL_EVERY_S = 0.5
CAL_WINDOW_S = 2.0
# calibrations that read the host's speed right after set-up
SETUP_CALIBRATIONS = 9


def _import_program():
    """Import every biphoton module from this checkout's ``src/``."""
    import biphoton
    src = (ROOT / "src").resolve()
    if src not in Path(biphoton.__file__).resolve().parents:
        raise ImportError(f"biphoton was imported from {biphoton.__file__}, "
                          f"not from {src}")
    for name in ("cli", "config", "faddeeva", "fitting", "forward", "ingest",
                 "kernels", "observables", "params", "units", "wavepacket"):
        __import__(f"biphoton.{name}")


def calibrate(workload):
    """(start, seconds) of one run of the workload's calibration."""
    func, _ = workload.calibration
    t0 = time.perf_counter()
    func()
    return t0, time.perf_counter() - t0


def _scale(records, cals, ref_s):
    """Give each record ``speed``, the host's speed at it relative to the
    reference host's, and ``s_ref``, its time at the reference speed.

    The speed at an op is the mean of the calibrations that started
    within CAL_WINDOW_S of it, and always of the last one before it and
    the first one after it.
    """
    starts = [t for t, _ in cals]
    for r in records:
        end = r["t0"] + r["s"]
        before = bisect.bisect_right(starts, r["t0"]) - 1
        after = bisect.bisect_left(starts, end)
        lo = min(before, bisect.bisect_left(starts, r["t0"] - CAL_WINDOW_S))
        hi = max(after, bisect.bisect_right(starts, end + CAL_WINDOW_S) - 1)
        near = [c for _, c in cals[lo:hi + 1]]
        r["speed"] = ref_s / statistics.fmean(near)
        r["s_ref"] = r["s"] * r["speed"]


def run_ops(workload, inputs, *, seconds=None, n_ops=None, tracer=None,
            digests=False):
    """Closed loop over ``inputs`` (cycled); returns one record per op.

    Stops after ``n_ops`` ops, or once ``seconds`` have passed: at the
    next op boundary, or at the next end of a pass over ``inputs`` if the
    workload stops at the end of a pass.  Only the op call is timed; the
    check and the release of the op's output run between ops.  An op
    that raises, returns a failure status or misses its check is a
    failed op; the loop goes on.  Only a correct op gets a digest.
    """
    records = []
    cals = [calibrate(workload)]
    start = time.perf_counter()
    i = 0
    while True:
        inp = inputs[i % len(inputs)]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.call(inp)
            else:
                out = tracer.run_op(i, workload.call, inp)
            error = None
        except Exception as exc:    # a raising op is a failed op
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if error is None:
            error = workload.check(inp, out)
        digest = None
        if digests and error is None:
            try:
                digest = workload.digest(inp, out)
            except Exception as exc:    # so is one whose outputs are gone
                error = f"digest: {type(exc).__name__}: {exc}"
        # free the output, and what the op left on disk, before the next
        # op, so the peak RSS is the program's and not one op's output
        # held over into the next
        if out is not None:
            workload.release(inp, out)
        del out
        records.append({"label": inp.label, "t0": t0, "s": elapsed,
                        "error": error, "digest": digest})
        if time.perf_counter() - cals[-1][0] >= CAL_EVERY_S:
            cals.append(calibrate(workload))
        i += 1
        if n_ops is not None and i >= n_ops:
            break
        if (seconds is not None and time.perf_counter() - start >= seconds
                and not (workload.stop == "pass" and i % len(inputs))):
            break
    cals.append(calibrate(workload))
    _scale(records, cals, workload.calibration[1])
    return records


def summarize(records):
    """End-to-end figures of a list of op records."""
    failed = [r for r in records if r["error"] is not None]
    out = {
        "attempted": len(records),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(records),
        "timed_s": sum(r["s"] for r in records),
        # the host's speed over the run, relative to the reference host's
        "host_speed": statistics.median(r["speed"] for r in records),
        "failures": [f"{r['label']}: {r['error']}" for r in failed[:5]],
    }
    for prefix, key in (("", "s_ref"), ("wall_", "s")):
        times = [r[key] for r in records]
        out[prefix + "ops_per_s"] = len(times) / sum(times)
        out[prefix + "op_ms_p50"] = 1e3 * statistics.median(times)
        # a percentile is reported only with at least ten samples beyond it
        if len(times) >= 100:
            out[prefix + "op_ms_p90"] = (
                1e3 * statistics.quantiles(times, n=10)[-1])
    return out


def traced_run(workload, inputs, seconds, out_path):
    """Untraced passes, then one traced pass; per-layer metrics and checks."""
    from tracing import Tracer

    ref = run_ops(workload, inputs, n_ops=len(inputs), digests=True)
    untraced = list(ref)
    while sum(r["s"] for r in untraced) < seconds / 2.0:
        untraced += run_ops(workload, inputs, n_ops=len(inputs))
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(workload, inputs, n_ops=len(inputs), tracer=tracer,
                         digests=True)
    finally:
        tracer.uninstall()
    tracer.write(out_path)
    differs = [r["digest"] != t["digest"] for r, t in zip(ref, traced)]
    plain, with_trace = summarize(untraced), summarize(traced)
    layers = tracer.layer_metrics()
    layers["trace.overhead_ops_per_s"] = (plain["ops_per_s"]
                                          - with_trace["ops_per_s"])
    return {
        **with_trace,
        # an op whose traced output differs from its untraced one failed
        "failed": sum(d or t["error"] is not None
                      for d, t in zip(differs, traced)),
        "layers": layers,
        "untraced": plain,
        "outputs_identical": not any(differs),
        "spans": len(tracer.spans),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.build(args.seed, args.size, workdir)
        print("READY", flush=True)
        # the host's speed just after set-up, relative to the reference
        # host's, which scales the set-up time
        cal = statistics.median(calibrate(workload)[1]
                                for _ in range(SETUP_CALIBRATIONS))
        print(f"SPEED {workload.calibration[1] / cal!r}", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = traced_run(workload, workload.trace_inputs(inputs),
                                args.seconds,
                                workdir.parent / f"{args.workload}-seed"
                                f"{args.seed}.spans.jsonl")
        elif workload.stop == "once":
            result = summarize(run_ops(workload, inputs, n_ops=len(inputs)))
        else:
            result = summarize(run_ops(workload, inputs, seconds=args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
