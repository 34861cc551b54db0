"""Run every workload untraced and print its end-to-end figures by name.

    python3 perfbench/report.py --seed 1 --seconds 35

Prints one line per workload and figure: the workload, the name, the
value and the unit.  The figures are ``setup_s``, ``ops_per_s``,
``op_ms_p50``, ``peak_rss_mb``, ``failed_ratio`` and ``op_ms_p90``
(where a run has at least 100 ops).  The exit status is 1 if a run
fails or any op fails.
"""

import argparse
import sys
from types import SimpleNamespace

from run import BENCHMARK, WORKLOADS, BenchError, print_figures, run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        try:
            metrics, record = run(SimpleNamespace(
                workload=workload, seed=args.seed, seconds=args.seconds,
                trace=0, size="full"))
        except BenchError as exc:
            print(f"{workload} error: {exc}")
            status = 1
            continue
        print_figures(workload, metrics, record["report"])
        if record["report"]["failed"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
