"""Collect perfbench runs into one BENCH_<label>.json file.

    python3 benchmarks/bench.py --label NAME [--base DIR] [--pairs 10]
        [--seed 101] [--previous BENCH_old.json]

For each seed S = --seed, --seed + 1, ... (--pairs of them) and each
workload W of BENCHMARK.json, runs `perfbench/run.py --workload W --seed S
--seconds T --trace 0` from the root of this checkout, T being
BENCHMARK.json's `run_seconds`.  With `--base DIR` (another checkout, such as
the parent commit, run with its own perfbench) every run is paired with the
same run there, the two sides taking turns to go first, because the host's
speed drifts over minutes.  Nothing is timed here: the figures are
perfbench's, only collected.

The file, written at the root of this checkout, holds the environment line
of the first run, every run's end-to-end metrics, and per workload the
median and quartiles of each metric (peak RSS included) for this checkout
and the base, with the number of pairs this checkout wins.  With
`--previous`, it also holds the relative change of each median against that
earlier BENCH file.  Exit code 1 if a run is not `correct` (its gate
failed); a run that ends with no result line stops the collection.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

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
           "environment": env["change"], "workloads": {}}
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
    return 0 if all(r[side]["correct"] for pairs in runs.values() for r in pairs
                    for side, _ in sides) else 1


if __name__ == "__main__":
    sys.exit(main())
