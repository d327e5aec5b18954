"""Check that this checkout and another write the same reports, timings aside.

    python3 benchmarks/same_reports.py --base DIR

Runs the fixed command list of :func:`commands` through
`diraclab.cli.main(argv)` in one fresh process per checkout, with that
checkout's `src` on PYTHONPATH, and compares each command's exit code and
report, the report read by `perfbench/workloads.canonical_report` (which
drops the `timings` block).  The list:

* every command of the `verify-poly` and `verify-symbolic` workloads at
  seeds 1, 3 and 5;
* `verify --scope all` at seeds 0-3;
* `verify --scope weyl --k 6`, a k past the suite's sweep of 2..5;
* `verify --scope boundary` at (k, n) = (2,1), (3,1), (4,2), (4,3), (2,4)
  and `verify --scope complex --samples 70` at (2,3), (3,3), (4,3), (3,1),
  (2,4), both at seeds 0 and 7;
* `verify --scope ellipticity` at (k, n) = (4,3), seed 0, and (2,4), seed 1,
  where s = 2 and 4, so symbol products mix spinor components;
* `solve --N 16 --sweep 8,12,16` and `solve --N 32 --sweep 16,24,32` at
  k = n = 2, where s = 1, `solve --k 2 --n 3 --N 8` (s = 2) and
  `solve --k 3 --n 1 --N 12` (three blocks), and `solve --k 2 --n 2 --N 32
  --break-compat`, which exits 4 with its compatibility error.

A command listed twice (the workloads' `weyl` commands take no seed) runs
once.  Exit code 0 if every command agrees, 1 naming each one that does not.
Each differing command is classified: `same verdicts` when the exit code,
the report's `pass` and every check's name, tolerance and pass flag agree,
in order, else `verdicts differ`; either way with the largest |delta| among
the checks' `value` fields, paired in order, and the largest |delta| among
all numeric leaves outside `timings` found at the same key path in both
reports, with that path (such as `metrics.zero_mode_rel`), so that moves in
diagnostics show as well as moves in check values.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import canonical_report, make_workload  # noqa: E402

#: runs the argv lists read from stdin; writes [exit code, stdout] per command
CHILD = r"""
import contextlib, io, json, sys, traceback
from diraclab import cli
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:
        code, buf = None, io.StringIO(traceback.format_exc())
    out.append([code, buf.getvalue()])
json.dump(out, sys.stdout)
"""


def commands():
    """The fixed command list, each argv once, in order."""
    cmds = [list(c.argv) for name in ("verify-poly", "verify-symbolic")
            for seed in (1, 3, 5) for c in make_workload(name, seed).commands]
    cmds += [["verify", "--scope", "all", "--seed", str(s)] for s in range(4)]
    cmds += [["verify", "--scope", "weyl", "--k", "6"]]
    for seed in ("0", "7"):
        cmds += [["verify", "--scope", "boundary", "--k", str(k), "--n", str(n),
                  "--seed", seed] for k, n in ((2, 1), (3, 1), (4, 2), (4, 3), (2, 4))]
        cmds += [["verify", "--scope", "complex", "--k", str(k), "--n", str(n),
                  "--samples", "70", "--seed", seed]
                 for k, n in ((2, 3), (3, 3), (4, 3), (3, 1), (2, 4))]
    cmds += [["verify", "--scope", "ellipticity", "--k", "4", "--n", "3", "--seed", "0"],
             ["verify", "--scope", "ellipticity", "--k", "2", "--n", "4", "--seed", "1"],
             ["solve", "--N", "16", "--sweep", "8,12,16"],
             ["solve", "--k", "2", "--n", "3", "--N", "8"],
             ["solve", "--k", "3", "--n", "1", "--N", "12"],
             ["solve", "--N", "32", "--sweep", "16,24,32"],
             ["solve", "--k", "2", "--n", "2", "--N", "32", "--break-compat"]]
    return [list(c) for c in dict.fromkeys(map(tuple, cmds))]


def run(root, cmds):
    """One fresh process of checkout `root`: [exit code, stdout] per command."""
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(cmds),
                          cwd=root, env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
                          capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"the commands did not run in {root}")
    return json.loads(proc.stdout)


def _report(text):
    """The report minus `timings`, or the raw text if it is not JSON."""
    try:
        return canonical_report(text)[0]
    except ValueError:
        return text


def differing(cmds, ours, base):
    """The commands whose exit code or report differs between the two runs,
    each with its two [exit code, stdout] pairs."""
    return [(argv, a, b) for argv, a, b in zip(cmds, ours, base)
            if a[0] != b[0] or _report(a[1]) != _report(b[1])]


def _parsed(text):
    """The report as a dict, or None if the output is not a JSON object."""
    try:
        report = json.loads(text)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def _checks(text):
    return (_parsed(text) or {}).get("checks") or []


def verdicts(code, text):
    """The exit code, the report's `pass`, and each check's name, tolerance
    and pass flag, in order; a non-JSON output is its own verdict."""
    report = _parsed(text)
    if report is None:
        return code, text
    return code, report.get("pass"), [(c.get("name"), c.get("tolerance"), c.get("pass"))
                                      for c in report.get("checks") or []]


def largest_move(ours, base):
    """The largest |delta| between the checks' numeric `value` fields, paired
    in order."""
    pairs = zip(_checks(ours[1]), _checks(base[1]))
    return max((abs(a["value"] - b["value"]) for a, b in pairs
                if all(isinstance(c.get("value"), (int, float)) for c in (a, b))),
               default=0.0)


def _leaves(node, path=""):
    """(key path, value) of every numeric leaf of a parsed JSON value."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


def largest_leaf_move(ours, base):
    """The largest |delta| between numeric leaves at the same key path of the
    two reports, `timings` left out, and the first path where it occurs
    ("" when no such leaf moves)."""
    a, b = (dict(_leaves({key: value for key, value in (_parsed(text) or {}).items()
                          if key != "timings"}))
            for _, text in (ours, base))
    moves = [(abs(a[path] - b[path]), path) for path in a if path in b]
    return max(moves, key=lambda move: move[0], default=(0.0, ""))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="checkout to compare reports with")
    args = p.parse_args(argv)
    cmds = commands()
    bad = differing(cmds, run(ROOT, cmds), run(os.path.abspath(args.base), cmds))
    for argv, ours, base in bad:
        same = "same verdicts" if verdicts(*ours) == verdicts(*base) else "verdicts differ"
        move, path = largest_leaf_move(ours, base)
        print(f"differs: {' '.join(argv)}: {same}, "
              f"largest |delta value| {largest_move(ours, base):.2e}, "
              f"largest |delta| {move:.2e}" + (f" at {path}" if move else ""))
    print(f"{len(cmds)} commands, {len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
