"""diraclab benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload {solve,verify-poly,verify-symbolic}
        --seed N --seconds T --trace {0,1}

Run from the root of a checkout; the package is imported from its `src`.
Each workload runs `diraclab.cli.main(argv)` in a fresh worker process, one
command at a time (a closed loop with a single client), with one BLAS thread
(at most the core count).

--trace 0 reports the end-to-end metrics: set-up seconds (minimum over
several fresh processes), median warm iteration seconds, items per second
and the peak RSS of the timed process.  --trace 1 reports per-layer self
time and call counts from a run whose public functions are wrapped in spans,
plus the tracing overhead; its spans are written to `.perfbench/`.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it records the environment and the
raw samples.  The exit code is non-zero, with no result line, when the
checkout has no `src/diraclab` or a worker process fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from envinfo import THREAD_VARS, child_env, environment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Every run must end within this many seconds.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def run_worker(root, env, deadline, *args):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    # The worker starts set-up processes of its own: run it in a session of
    # its own, so a timeout ends them too.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def spec_metrics(root, key):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[key]]


def measure(root, env, deadline, workload, seed, seconds):
    run = run_worker(root, env, deadline, "--mode", "run", "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds))
    setups = run["setup_samples"]
    metrics = {
        # Set-up is under a second of cold code, and interference on the host
        # only ever adds to it, so the minimum is the figure noise moves least.
        "setup_s": (min(setups), "s"),
        "wall_s": (run["wall_s"], "s"),
        # work of one iteration over the median seconds of one iteration
        "items_per_s": (run["items"] / len(run["iteration_walls"]) / run["wall_s"],
                        "1/s"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
    }
    detail = {"setup_samples": setups, "iteration_walls": run["iteration_walls"],
              "items": run["items"], "failures": run["failures"],
              "ops_failed_frac": run["failed"] / run["attempted"]}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return run["attempted"], run["failed"], metrics, detail


def trace(root, env, deadline, workload, seed):
    out_path = os.path.join(root, ".perfbench", f"trace-{workload}.json")
    run = run_worker(root, env, deadline, "--mode", "trace", "--workload", workload,
                     "--seed", str(seed), "--trace-out", out_path)
    detail = {"layer_share": run["layer_share"], "failures": run["failures"],
              "traced_wall_s": run["traced_wall_s"],
              "untraced_wall_s": run["untraced_wall_s"],
              "peak_rss_mib": run["peak_rss_mib"], "spans_file": out_path}
    return run["attempted"], run["failed"], run["metrics"], detail


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "diraclab", "__init__.py")):
        print("no src/diraclab in the current directory; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    env = child_env(root)
    for var in THREAD_VARS:  # so the environment record sees the workers' setting
        os.environ[var] = env[var]
    try:
        wanted = spec_metrics(root, "per_layer" if args.trace else "end_to_end")
        if args.trace:
            attempted, failed, metrics, detail = trace(root, env, deadline,
                                                       args.workload, args.seed)
        else:
            attempted, failed, metrics, detail = measure(
                root, env, deadline, args.workload, args.seed, args.seconds)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    if sorted(metrics) != sorted(wanted):
        print(f"metrics {sorted(set(metrics) ^ set(wanted))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({"environment": environment(root, args.seed),
                      "workload": args.workload, "trace": args.trace, **detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: metrics[k] for k in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
