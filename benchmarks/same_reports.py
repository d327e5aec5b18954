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
  k = n = 2, where s = 1, and `solve --k 2 --n 3 --N 8` (s = 2) and
  `solve --k 3 --n 1 --N 12` (three blocks).

A command listed twice (the workloads' `weyl` commands take no seed) runs
once.  Exit code 0 if every command agrees, 1 naming each one that does not.
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
             ["solve", "--N", "32", "--sweep", "16,24,32"]]
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
    """The commands whose exit code or report differs between the two runs."""
    return [argv for argv, (c1, t1), (c2, t2) in zip(cmds, ours, base)
            if c1 != c2 or _report(t1) != _report(t2)]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="checkout to compare reports with")
    args = p.parse_args(argv)
    cmds = commands()
    bad = differing(cmds, run(ROOT, cmds), run(os.path.abspath(args.base), cmds))
    for argv in bad:
        print("differs: " + " ".join(argv))
    print(f"{len(cmds)} commands, {len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
