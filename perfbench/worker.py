"""One fresh process of the benchmark: set-up, then timed or traced iterations.

    python3 perfbench/worker.py --mode {setup,run,trace} --workload W --seed S
        [--seconds T] [--trace-out PATH]

The checkout's `src` must be on PYTHONPATH.  Prints one JSON object as the
last line of stdout.  Commands go through `diraclab.cli.main(argv)` in this
process, one at a time, with their stdout captured as the report.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from envinfo import environment
from spans import LAYERS, Tracer
from workloads import canonical_report, cold_builds, gate, items, make_workload

LAYER_FUNCTIONS = {
    "clifford": ("build_clifford",),
    "weyl": ("young_symmetrizer", "check_membership", "principal_angles"),
    "tensoridx": ("terms_matrix",),
    "fields": ("random_field", "make_field", "PolyField.membership_residual"),
    "dirac_ops": ("nabla", "d0", "d0_star", "d1", "d1_projector", "d2p",
                  "d2p_projector", "d2pp", "d2pp_projector", "laplacian",
                  "delta_op", "monogenic_basis"),
    "symbols": ("build_bundle", "verify_exactness", "kernel_identity_check",
                "intertwine_check", "green_inverse_residual", "hodge_eig_bounds"),
    "solver": ("solve_d0", "apply_spectral", "make_bump", "bump_dirac_data",
               "anchor_exterior", "hartogs_report", "resolution_sweep"),
    "boundary": ("restrict_and_test", "pi1_kernel_check", "apply_z", "apply_t",
                 "defining_polynomial"),
}
CLI_FUNCTIONS = ("main", "run_solve", "checks_clifford", "checks_weyl",
                 "checks_complex", "checks_ellipticity", "checks_boundary")
# Set-up is sampled in fresh processes spread evenly over the timed run, one
# at a time between commands, because the host's speed drifts over seconds and
# a burst of samples sees only one moment of it.  A run takes about
# SETUP_BUDGET_S of samples, at least SETUP_MIN and at most SETUP_MAX.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 15, 4.0


def timed_setup(workload):
    """Import the package and run the workload's cold builds; seconds taken."""
    t0 = time.perf_counter()
    import diraclab
    import diraclab.cli
    cold_builds(workload, diraclab)
    return diraclab, time.perf_counter() - t0


class Runner:
    """Runs a workload's commands and gates every report before timing counts."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.reference = {}
        self.seconds = {}   # label -> [seconds, passed] per run of the command
        self.items = 0
        self.attempted = 0
        self.failures = []
        self.checks = 0
        self.checks_failed = 0

    def command(self, cmd):
        """Run one command, gate its report and record its time; True if it passed."""
        buf = io.StringIO()
        code = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(cmd.argv))
        except Exception:  # a crash is a failed command; keep measuring
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - t0
        self.attempted += 1
        report = {}
        if code is None:
            problems = ["raised an exception"]
        else:
            try:
                text, report = canonical_report(buf.getvalue())
            except ValueError:
                problems = ["report is not JSON"]
            else:
                problems = gate(cmd, code, report)
                if self.reference.setdefault(cmd.label, text) != text:
                    problems.append("report differs from the first iteration")
        checks = report.get("checks") or []
        self.checks += len(checks)
        self.checks_failed += sum(c.get("pass") is not True for c in checks)
        self.items += items(report)
        self.seconds.setdefault(cmd.label, []).append((seconds, not problems))
        if problems:
            self.failures.append({"command": cmd.label, "problems": problems})
            print(f"FAILED {cmd.label}: {problems}", file=sys.stderr)
        return not problems

    def iteration(self, tracer=None, between=None):
        """Run every command once, calling `between()` after each outside
        its timing; seconds taken by the commands."""
        wall = 0.0
        for cmd in self.workload.commands:
            span = tracer.span(f"bench.{cmd.label}") if tracer else contextlib.nullcontext()
            with span:
                self.command(cmd)
            wall += self.seconds[cmd.label][-1][0]
            if between is not None:
                between()
        return wall

    def median_wall(self, skip):
        """Sum over commands of each command's median seconds, leaving out
        the first `skip` runs of each (warm-up).

        Only runs of a command that passed its gate count, unless none did
        (the run then reports correct = false anyway).
        """
        total = 0.0
        for runs in self.seconds.values():
            runs = runs[skip:]
            passed = [t for t, ok in runs if ok]
            total += statistics.median(passed or [t for t, _ in runs])
        return total

    def summary(self):
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures}


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_setup_s(workload, seed):
    """Set-up seconds of a fresh process of this script."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--mode", "setup",
         "--workload", workload.name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_timed(workload, seed, seconds):
    """Set up, then iterate until the commands have taken about `seconds`,
    sampling set-up in fresh processes between commands.

    The first iteration is a warm-up and is left out of `wall_s`; at least
    two more follow, so every timed command has a median of two or more and
    every report is compared with a later one.  This process's own set-up
    compiles the bytecode in a new checkout, so it is not a sample; it only
    sets how many samples the budget buys.
    """
    diraclab, own_setup_s = timed_setup(workload)
    wanted = min(SETUP_MAX, max(SETUP_MIN, round(SETUP_BUDGET_S / own_setup_s)))
    interval = seconds / wanted
    setups = []
    runner = Runner(diraclab.cli, workload)
    walls = []
    start = time.perf_counter()

    def sample_setup():
        while (len(setups) < wanted
               and time.perf_counter() - start >= len(setups) * interval):
            setups.append(fresh_setup_s(workload, seed))

    while True:
        walls.append(runner.iteration(between=sample_setup))
        # stop before an iteration that would take the commands' time past
        # `seconds` (set-up samples not counted)
        if len(walls) >= 3 and sum(walls) * (len(walls) + 1) / len(walls) > seconds:
            break
    while len(setups) < wanted:
        setups.append(fresh_setup_s(workload, seed))
    out = runner.summary()
    out.update(setup_samples=setups, iteration_walls=walls,
               wall_s=runner.median_wall(1), items=runner.items,
               peak_rss_mib=peak_rss_mib())
    return out


def _hooks():
    def solve_d0(tracer, args, kwargs, result):
        f = args[0] if args else kwargs["f"]
        tracer.count("solver.fft_bytes", f.values.size * 16)
        if result is not None:
            u = result[0].values
            tracer.count("solver.fft_bytes", u.size * 16)
            tracer.count("solver.modes", u.size // u.shape[-1])

    def apply_spectral(tracer, args, kwargs, result):
        fld = args[1] if len(args) > 1 else kwargs["fld"]
        tracer.count("solver.fft_bytes", fld.values.size * 16)
        if result is not None:
            tracer.count("solver.fft_bytes", result.values.size * 16)

    def monogenic_basis(tracer, args, kwargs, result):
        if result is not None:
            tracer.count("dirac_ops.monogenic_basis.size", len(result))

    return {"solver.solve_d0": solve_d0, "solver.apply_spectral": apply_spectral,
            "dirac_ops.monogenic_basis": monogenic_basis}


def layer_metrics(tracer, checks, cache_delta, overhead_s):
    """Per-layer metrics from the traced set-up and iteration.

    `checks` is (records, failing records) in the traced iteration's reports.
    """
    totals = tracer.totals()
    zero = (0, 0.0, 0.0)
    m = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            calls, _, self_s = totals.get(f"{layer}.{name}", zero)
            m[f"{layer}.{name}.self_s"] = (self_s, "s")
            m[f"{layer}.{name}.calls"] = (calls, "count")
    for name in CLI_FUNCTIONS:
        m[f"cli.{name}.self_s"] = (totals.get(f"cli.{name}", zero)[2], "s")
    m["cli.checks"] = (checks[0], "count")
    m["cli.checks_failed"] = (checks[1], "count")

    hits, misses = cache_delta
    m["weyl.weyl_space.self_s"] = (totals.get("weyl.weyl_space", zero)[2], "s")
    m["weyl.weyl_space.misses"] = (misses, "count")
    m["weyl.weyl_space.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                      "ratio")

    modes = tracer.counters.get("solver.modes", 0)
    solve_s = totals.get("solver.solve_d0", zero)[1]
    m["solver.modes"] = (modes, "count")
    m["solver.fft_bytes"] = (tracer.counters.get("solver.fft_bytes", 0), "bytes")
    m["solver.modes_per_s"] = (modes / solve_s if solve_s else 0.0, "1/s")
    bundles, bundle_s, _ = totals.get("symbols.build_bundle", zero)
    m["symbols.bundles_per_s"] = (bundles / bundle_s if bundle_s else 0.0, "1/s")
    m["dirac_ops.monogenic_basis.size"] = (
        tracer.counters.get("dirac_ops.monogenic_basis.size", 0), "count")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_s) in totals.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += self_s
    for layer, self_s in layer_self.items():
        m[f"{layer}.self_s"] = (self_s, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m, layer_self


def run_traced(workload, root, seed, trace_out):
    """Traced set-up, an untraced warm-up iteration, then one traced and one
    untraced warm iteration.  The per-layer figures cover the two traced
    steps; the overhead is the traced warm iteration minus the untraced one.
    """
    import diraclab
    import diraclab.cli

    cached = diraclab.weyl.weyl_space  # the lru_cache object, read before wrapping
    tracer = Tracer(diraclab)
    hooks = _hooks()
    runner = Runner(diraclab.cli, workload)

    def traced(label, step):
        """Run `step` with the tracer installed; its result and the
        (hits, misses) it added to `weyl_space`'s cache."""
        before = cached.cache_info()
        tracer.install(hooks)
        try:
            with tracer.span(label):
                result = step()
        finally:
            tracer.remove()
        after = cached.cache_info()
        return result, (after.hits - before.hits, after.misses - before.misses)

    _, setup_cache = traced("bench.setup", lambda: cold_builds(workload, diraclab))
    runner.iteration()  # warm-up
    checks_before = (runner.checks, runner.checks_failed)
    traced_wall, iteration_cache = traced("bench.iteration",
                                          lambda: runner.iteration(tracer))
    checks = (runner.checks - checks_before[0],
              runner.checks_failed - checks_before[1])
    untraced_wall = runner.iteration()
    cache_delta = tuple(a + b for a, b in zip(setup_cache, iteration_cache))
    metrics, layer_self = layer_metrics(tracer, checks, cache_delta,
                                        traced_wall - untraced_wall)
    total_self = sum(layer_self.values())
    shares = {k: v / total_self if total_self else 0.0 for k, v in layer_self.items()}
    if trace_out:
        os.makedirs(os.path.dirname(trace_out) or ".", exist_ok=True)
        with open(trace_out, "w") as fh:
            json.dump({"environment": environment(root, seed), "workload": workload.name,
                       "layer_share": shares, **tracer.dump()}, fh)
    out = runner.summary()
    out.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
               layer_share=shares, traced_wall_s=traced_wall,
               untraced_wall_s=untraced_wall, peak_rss_mib=peak_rss_mib())
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace-out", default=None)
    args = p.parse_args(argv)
    workload = make_workload(args.workload, args.seed)
    if args.mode == "setup":
        _, setup_s = timed_setup(workload)
        out = {"setup_s": setup_s}
    elif args.mode == "run":
        out = run_timed(workload, args.seed, args.seconds)
    else:
        out = run_traced(workload, os.getcwd(), args.seed, args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
