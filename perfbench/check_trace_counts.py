"""Check that traced runs are repeatable: two traced runs at one seed must give
identical counts (every `.calls`, `solver.modes`, `solver.fft_bytes`,
`weyl.weyl_space.misses`, `dirac_ops.monogenic_basis.size`, `cli.checks`).

    python3 perfbench/check_trace_counts.py [--workload W ...] [--seed N]

Run from the root of a checkout.  Exits 1 and lists the differing counts if
any count differs, 0 otherwise.  Commands that fail their gate are reported
but are not a mismatch: they are the benchmark's `failed` count.
"""

import argparse
import os
import sys
import time

from envinfo import child_env
from run import run_worker
from workloads import WORKLOADS

EXACT = ("solver.modes", "solver.fft_bytes", "weyl.weyl_space.misses",
         "dirac_ops.monogenic_basis.size", "cli.checks", "cli.checks_failed")


def counts(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(".calls") or k in EXACT}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    root = os.getcwd()
    env = child_env(root)
    ok = True
    for workload in args.workload or sorted(WORKLOADS):
        runs = []
        for _ in range(2):
            deadline = time.monotonic() + 600
            runs.append(run_worker(root, env, deadline, "--mode", "trace",
                                   "--workload", workload, "--seed", str(args.seed)))
        first, second = (counts(r["metrics"]) for r in runs)
        diff = {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys()
                if first.get(k) != second.get(k)}
        failed = [r["failed"] for r in runs]
        status = "MISMATCH" if diff else "ok"
        print(f"{workload}: {len(first)} counts, failed commands {failed}: {status}")
        for key in sorted(diff):
            print(f"  {key}: {diff[key][0]} != {diff[key][1]}")
        ok = ok and not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
