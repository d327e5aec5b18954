"""Collect perfbench runs into one BENCH_<label>.json file.

    python3 benchmarks/bench.py --label NAME [--base DIR] [--pairs 10]
        [--seed 101] [--previous BENCH_old.json]

For each seed S = --seed, --seed + 1, ... (--pairs of them) and each
workload W of BENCHMARK.json, runs `perfbench/run.py --workload W --seed S
--seconds T --trace 0` from the root of this checkout, T being
BENCHMARK.json's `run_seconds`.  With `--base DIR` (another checkout, such as
the parent commit, run with its own perfbench) every run is paired with the
same run there, the two sides taking turns to go first, because the host's
speed drifts over minutes.  These figures are perfbench's, only collected.
The base's absolute path must be as long as this checkout's (clone both
sides to paths of equal length), or the collection is refused with exit 2
before any run: `solve`'s peak RSS moves with the path's length alone
(154.3 against 157.9 MiB for the same code at roots of 10 and 24
characters).

Before the pairs, each side also runs its tier-1 tests WHOLE_RUNS times and
then `diraclab verify --scope all --seed 0` WHOLE_RUNS times, each in a fresh
process, the sides taking turns to go first in each loop.  The verify runs
have their own loop: on a 2-vCPU x86-64 VM, one that came straight after a
tier-1 run read 2.0-3.7 s where alone it read about 1.3 s, and a one-off host
delay can take a single run from 0.6 to 1.7 s.  The file records every run's
wall time, the tests' summary line and the verify process's peak RSS, and per
side the median and quartiles of each.

The file, written at the root of this checkout, holds the environment line
of the first run, every run's end-to-end metrics, and per workload the
median and quartiles of each metric (peak RSS included) for this checkout
and the base, with the number of pairs this checkout wins.  With
`--previous`, it also holds the relative change of each median against that
earlier BENCH file.  Exit code 1 if a run is not `correct` (its gate
failed) or a tier-1 or verify run exits nonzero; a perfbench run that ends
with no result line stops the collection.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def perfbench(root, workload, seed, seconds):
    """One `--trace 0` run: its environment line and its metric values."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench failed in {root}: {workload}, seed {seed}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update(correct=result["correct"], failed=result["failed"])
    return json.loads(lines[-2])["environment"], values


#: fresh-process tier-1 runs, and then `verify --scope all` runs, per side
WHOLE_RUNS = 3


def tier1_run(root):
    """One tier-1 run of a checkout: its wall time, exit code and summary line."""
    t = time.perf_counter()
    tests = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                           cwd=root, env=_env(root), capture_output=True, text=True)
    return {"tier1_wall_s": time.perf_counter() - t, "tier1_exit": tests.returncode,
            "tier1_summary": (tests.stdout.strip().splitlines() or [""])[-1]}


def verify_run(root):
    """One `verify --scope all --seed 0` run of a checkout: its wall time, exit
    code and peak RSS."""
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "diraclab.cli", "verify", "--scope",
                             "all", "--seed", "0"], cwd=root, env=_env(root),
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
    return {"verify_all_wall_s": time.perf_counter() - t,
            "verify_all_exit": os.waitstatus_to_exitcode(status),
            "verify_all_peak_rss_mib": usage.ru_maxrss / 1024.0}


def _env(root):
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def _alternating(sides, run):
    """WHOLE_RUNS calls of `run` per side, the sides taking turns to go first."""
    runs = {side: [] for side, _ in sides}
    for i in range(WHOLE_RUNS):
        for side, root in sides[::-1] if i % 2 else sides:
            runs[side].append(run(root))
            print(f"{side}: {runs[side][-1]}", file=sys.stderr)
    return runs


def whole_runs(sides):
    """All tier-1 runs, then all verify runs, each loop alternating; every run
    and, per side, the median and quartiles of each measure."""
    tier1 = _alternating(sides, tier1_run)
    verify = _alternating(sides, verify_run)
    return {side: {"summary": {**summary(tier1[side], ["tier1_wall_s"]),
                               **summary(verify[side], ["verify_all_wall_s",
                                                        "verify_all_peak_rss_mib"])},
                   "tier1_runs": tier1[side], "verify_runs": verify[side]}
            for side, _ in sides}


def summary(runs, metrics):
    """Median and quartiles of each metric over a list of runs."""
    out = {}
    for name in metrics:
        values = [r[name] for r in runs]
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": statistics.median(values), "quartiles": [q[0], q[2]]}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--base", help="checkout to pair every run with")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=101)
    p.add_argument("--previous", help="earlier BENCH file to compare medians with")
    args = p.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label) or args.pairs < 1:
        p.error("--label takes letters, digits, '_', '.', '-'; --pairs must be >= 1")
    if args.base and len(os.path.abspath(args.base)) != len(ROOT):
        p.error(f"--base {os.path.abspath(args.base)} must have an absolute path as long "
                f"as this checkout's, {ROOT} ({len(ROOT)} characters)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    previous = None
    if args.previous:
        with open(args.previous) as fh:
            previous = json.load(fh)
    sides = [("change", ROOT)] + ([("base", os.path.abspath(args.base))] if args.base else [])
    whole = whole_runs(sides)
    runs = {w: [] for w in workloads}
    env = {}
    for i in range(args.pairs):
        seed = args.seed + i
        for w in workloads:
            pair = {"seed": seed}
            for side, root in sides[::-1] if i % 2 else sides:  # take turns first
                env_line, pair[side] = perfbench(root, w, seed, seconds)
                env.setdefault(side, env_line)
                print(f"{w} seed {seed} {side}: {pair[side]}", file=sys.stderr)
            runs[w].append(pair)

    out = {"label": args.label,
           "command": f"perfbench/run.py --workload W --seed S --seconds {seconds:g}"
                      " --trace 0",
           "environment": env["change"], "whole_runs": whole, "workloads": {}}
    if args.base:
        out["base_environment"] = env["base"]
    for w, pairs in runs.items():
        entry = {"seeds": [r["seed"] for r in pairs],
                 "change": summary([r["change"] for r in pairs], better)}
        if args.base:
            entry["base"] = summary([r["base"] for r in pairs], better)
            entry["change_wins"] = {
                name: sum((r["change"][name] < r["base"][name]) == (b == "lower")
                          and r["change"][name] != r["base"][name] for r in pairs)
                for name, b in better.items()}
        entry["runs"] = pairs
        out["workloads"][w] = entry
    if previous:
        out["against"] = {"label": previous["label"], "relative_change": {
            w: {name: out["workloads"][w]["change"][name]["median"]
                / previous["workloads"][w]["change"][name]["median"] - 1.0
                for name in better}
            for w in workloads if w in previous["workloads"]}}
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(path)
    ok = all(r[side]["correct"] for pairs in runs.values() for r in pairs
             for side, _ in sides)
    ok &= all(r["tier1_exit"] == 0 for w in whole.values() for r in w["tier1_runs"])
    ok &= all(r["verify_all_exit"] == 0 for w in whole.values() for r in w["verify_runs"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
