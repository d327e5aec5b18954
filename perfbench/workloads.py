"""Workload definitions: the commands each workload runs and how to gate them.

A workload is a list of `diraclab` command lines built from the seed, plus the
cold builds (`build_clifford`, `weyl_space`) its commands need, which are paid
once per process and measured as set-up.  Why each workload was chosen is in
BENCHMARK.json and perfbench/README.md.  Nothing here imports numpy or
diraclab, so the set-up clock starts before either is loaded.
"""

import json
import math
import random
from dataclasses import dataclass

WEYL_TAGS = ("21", "22", "311")
#: Bump radius and cell size of `diraclab solve` at its defaults.
SOLVE_RADIUS = 0.6
SOLVE_L = 2 * math.pi


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    expect_exit: int


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    clifford_ns: tuple
    weyl_builds: tuple


def _solve(seed):
    # The bump ball must keep one radius of clearance inside the cell, so the
    # centre is drawn in [2r, L - 2r]^4.  repr() round-trips the float exactly.
    rng = random.Random(seed)
    lo, hi = 2 * SOLVE_RADIUS, SOLVE_L - 2 * SOLVE_RADIUS
    center = ",".join(repr(rng.uniform(lo, hi)) for _ in range(4))
    base = ("solve", "--k", "2", "--n", "2", "--N", "32", "--center", center)
    return Workload(
        name="solve",
        commands=(
            Command("solve-N32-sweep", base + ("--sweep", "16,24,32"), 0),
            Command("solve-break-compat", base + ("--break-compat",), 4),
        ),
        clifford_ns=(2,),
        weyl_builds=((2, "21"),),
    )


def _verify_poly(seed):
    s = str(seed)
    # The complex suite runs for n = 2 only.  For n = 3 it fails at about one
    # seed in 20 to 40 on correct operator values: `checks_complex` divides the
    # D1/D2'' form-agreement and membership residuals by the output's norm,
    # and when the output of a random field vanishes that norm is roundoff
    # (~1e-15), so the ratio is ~1.  For n = 2 vanishing outputs are exact
    # zeros.  60 samples keep the suite's share of the iteration near what
    # six (k, n) pairs at 25 samples had.
    cmds = [
        Command(f"complex-{k}{n}",
                ("verify", "--scope", "complex", "--k", str(k), "--n", str(n),
                 "--samples", "60", "--seed", s), 0)
        for k, n in ((2, 2), (3, 2), (4, 2))
    ]
    cmds += [
        Command(f"boundary-{k}{n}",
                ("verify", "--scope", "boundary", "--k", str(k), "--n", str(n),
                 "--samples", "20", "--seed", s), 0)
        for k, n in ((2, 2), (2, 3), (3, 2), (3, 3))
    ]
    return Workload(
        name="verify-poly",
        commands=tuple(cmds),
        clifford_ns=(2, 3),
        weyl_builds=tuple((k, lam) for k in (2, 3, 4) for lam in WEYL_TAGS),
    )


def _verify_symbolic(seed):
    s = str(seed)
    cmds = [Command("clifford-10",
                    ("verify", "--scope", "clifford", "--n", "10", "--seed", s), 0)]
    cmds += [Command(f"weyl-{k}", ("verify", "--scope", "weyl", "--k", str(k)), 0)
             for k in (2, 3, 4, 5)]
    cmds += [
        Command(f"ellipticity-{k}{n}",
                ("verify", "--scope", "ellipticity", "--k", str(k), "--n", str(n),
                 "--samples", "200", "--seed", s), 0)
        for k, n in ((3, 2), (3, 3), (2, 2), (2, 3))
    ]
    return Workload(
        name="verify-symbolic",
        commands=tuple(cmds),
        clifford_ns=tuple(range(1, 11)),
        weyl_builds=tuple((k, lam) for k in (2, 3, 4, 5) for lam in WEYL_TAGS),
    )


WORKLOADS = {
    "solve": _solve,
    "verify-poly": _verify_poly,
    "verify-symbolic": _verify_symbolic,
}


def make_workload(name, seed):
    """Workload `name` with its inputs drawn from `seed` (a non-negative int)."""
    return WORKLOADS[name](seed)


def cold_builds(workload, diraclab):
    """Run the workload's cold builds through the package's public names."""
    for n in workload.clifford_ns:
        diraclab.build_clifford(n)
    for k, lam in workload.weyl_builds:
        diraclab.weyl.weyl_space(k, lam)


def canonical_report(text):
    """The report minus its `timings` block, in a byte-comparable form."""
    report = json.loads(text)
    report.pop("timings", None)
    return json.dumps(report, sort_keys=True), report


def gate(command, code, report):
    """Return a list of reasons the command's outcome is wrong (empty if right)."""
    problems = []
    if code != command.expect_exit:
        problems.append(f"exit {code}, expected {command.expect_exit}")
    if command.expect_exit == 4:
        if report.get("error") != "compatibility":
            problems.append("rejection is not a compatibility error")
        return problems
    if report.get("pass") is not True:
        problems.append("report pass is not true")
    checks = report.get("checks") or []
    if not checks:
        problems.append("report has no checks")
    failing = [c.get("name") for c in checks if c.get("pass") is not True]
    if failing:
        problems.append(f"failing checks: {failing}")
    return problems


def items(report):
    """Completed work in a report.

    A solve counts the grid modes of every solve that returned: N^(kn) for
    the main solve plus one grid per sweep row (a rejected solve has no
    report, so it counts none).  A verify counts its passing checks.
    """
    if report.get("command") == "solve":
        p = report["parameters"]
        kn = p["k"] * p["n"]
        total = p["N"] ** kn
        for check in report.get("checks", ()):
            for row in check.get("sweep", ()):
                total += row["N"] ** kn
        return total
    if report.get("command") == "verify":
        return sum(c.get("pass") is True for c in report.get("checks", ()))
    return 0
