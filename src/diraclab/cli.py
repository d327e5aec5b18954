"""Command-line front end: verification sweeps and the torus solve.

Two subcommands:

``diraclab verify --scope {clifford,weyl,complex,ellipticity,boundary,all}``
    Runs the selected identity suite and emits a JSON report with one record
    per check.  Exit code 0 when every check passes, 1 otherwise.

``diraclab solve --k 2 --n 2 --N 32``
    Runs bump -> d0 -> solve -> exterior-anchored recovery on the periodic
    cell and reports recovery, residual and exterior-decay metrics.

Exit codes: 0 pass, 1 check failure, 2 usage error, 3 resource limit,
4 compatibility violation; a failed certification (an ArithmeticError) prints
``{"error": "certification", ...}`` and exits 1.  An output file that cannot
be written (``verify --out``, ``solve --out`` or ``solve --report-out``, say
in a missing directory) prints ``{"error": "output", ...}`` and exits 2; the
paths are checked before any suite or solve runs.
Reports are deterministic for a fixed seed, except for the "timings" block.
"""

import argparse
import contextlib
import errno
import json
import os
import resource
import sys
import time

import numpy as np

from . import __version__, boundary, dirac_ops, solver, symbols, weyl
from .clifford import build_clifford, delta_symbol, dirac_symbol
from .fields import (draw_width, keyed_norms, keyed_residuals, member_norms, random_keyed,
                     stack)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_COMPAT = 4


class OutputError(Exception):
    """An output file of the command could not be written."""


@contextlib.contextmanager
def _output():
    """Raise an OSError of the enclosed write as an :class:`OutputError`."""
    try:
        yield
    except OSError as exc:
        raise OutputError(str(exc)) from exc


def _check_outputs(*paths):
    """Raise an :class:`OutputError` for the first output that cannot be
    written: its directory is missing or not writable, or it is a directory.

    Called before any work, so a bad path costs no solve or suite."""
    for path in filter(None, paths):
        folder = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(folder):
            code = errno.ENOENT
        elif os.path.isdir(path):
            code = errno.EISDIR
        elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise OutputError(str(OSError(code, os.strerror(code), path)))


def _check(name, certifies, value, tol, ok=None, **extra):
    if ok is None:
        ok = bool(value <= tol)
    rec = {"name": name, "certifies": certifies, "value": value,
           "tolerance": tol, "pass": bool(ok)}
    rec.update(extra)
    return rec


def _worst(name, certifies, values, tol, witness=lambda i: {"sample": i}, **extra):
    """A check on the largest of the per-sample `values`; its record carries
    `extra`, then ``witness(i)`` of that value's index i."""
    i = int(np.argmax(values))
    return _check(name, certifies, float(values[i]), tol, **extra, witness=witness(i))


# ---------------------------------------------------------------------------
# verify scopes


def checks_clifford(n_max, seed):
    rng = np.random.default_rng(seed)
    out = []
    for n in range(1, n_max + 1):
        rep = build_clifford(n)
        s = rep.s_dim
        eye = np.eye(s)
        gp, gm = rep.gamma_plus, rep.gamma_minus
        # every pair (j, k) at once: entries in {0, +-1, +-i} make each
        # product an exact Gaussian integer
        delta = 2.0 * np.eye(n)[:, :, None, None] * eye
        anti = max(np.abs(prod + prod.swapaxes(0, 1) + delta).max()
                   for prod in (gm[:, None] @ gp[None, :], gp[:, None] @ gm[None, :]))
        skew = np.abs(gp.conj().swapaxes(1, 2) + gm).max()
        expected = 1 if n == 1 else (2 ** (n // 2 - 1) if n % 2 == 0 else 2 ** ((n - 1) // 2))
        out.append(_check(f"anticommutation n={n}",
                          "g_j g_k + g_k g_j = -2 delta_jk Id", anti, 1e-12))
        out.append(_check(f"skew_adjoint n={n}", "g_j^H = -g_j", skew, 1e-12))
        out.append(_check(f"spinor_dim n={n}", "dim S = 2^floor((n-1)/2) (1 for n=1)",
                          float(abs(s - expected)), 0.0, ok=s == expected, dim=s))
        xi = rng.standard_normal(n)
        xi2 = rng.standard_normal(n)
        a, b = rng.standard_normal(2)
        (p1, p2, pl), (m1, m2, _) = dirac_symbol(rep, np.stack([xi, xi2, a * xi + b * xi2]))
        lin = np.abs(pl - a * p1 - b * p2).max()
        out.append(_check(f"symbol_linearity n={n}", "symbol linear in xi", lin, 1e-12))
        comp = np.abs(m1 @ p1 - (xi @ xi) * eye).max()
        out.append(_check(f"symbol_square n={n}", "xi- xi+ = |xi|^2 Id", comp, 1e-12))
        polar = np.abs(m1 @ p2 + m2 @ p1 - 2.0 * (xi @ xi2) * eye).max()
        out.append(_check(f"symbol_polarized n={n}",
                          "xi xi' + xi' xi = 2 <xi, xi'> Id", polar, 1e-12))
        ds = delta_symbol(rep, xi, xi2)
        out.append(_check(f"delta_symbol n={n}", "anticommutator scalar = 2 <xi_B, xi_C>",
                          abs(ds - 2.0 * float(xi @ xi2)), 1e-12))
    return out


def checks_weyl(k):
    out = []
    for lam in ("21", "22", "311"):
        ws = weyl.weyl_space(k, lam)
        # exact in the group algebra: each gap is 0.0 exactly when its identity holds
        exact = weyl.exact_checks(k, lam)
        out.append(_check(f"projector_idempotent lam={lam} k={k}",
                          "C^2 = C", exact["projector_idempotent"], 1e-10))
        out.append(_check(f"symmetrizer_idempotent lam={lam} k={k}",
                          "normalized Young symmetrizer squares to itself",
                          exact["symmetrizer_idempotent"], 1e-10))
        same = exact["image_equality"]
        out.append(_check(f"image_equality lam={lam} k={k}",
                          "C = Y in Q[S_m] (so CY = Y, YC = C, tr Y = tr C)",
                          same, 1e-8,
                          ok=exact["trace_y"] == exact["trace_c"] and same <= 1e-8))
        oracle = weyl.weyl_dim(k, lam)
        out.append(_check(f"module_dimension lam={lam} k={k}",
                          "projector rank = Weyl dimension formula",
                          float(abs(ws.dim - oracle)), 0.0, ok=ws.dim == oracle,
                          measured=ws.dim, oracle=oracle))
        if ws.dim > 0:
            cols = ws.basis.reshape((k,) * ws.m + (ws.dim,))
            diff = np.empty_like(cols)

            def defect(op, perm):
                # max |cols -/+ cols.transpose(perm)| and its entry, all in one
                # buffer: at k = 5 each fresh (k^m, dim) temporary is 3 MiB of new pages
                op(cols, cols.transpose(perm), out=diff)
                at = np.unravel_index(np.argmax(np.abs(diff, out=diff)), diff.shape)
                return float(diff[at]), {
                    "transpose": list(perm[:-1]),
                    "relation": "symmetric" if op is np.subtract else "skew",
                    "column": int(at[-1]), "index": [int(i) for i in at[:-1]]}

            if lam == "21":
                value, witness = defect(np.subtract, (0, 2, 1, 3))
                out.append(_check(f"basis_symmetry lam=21 k={k}",
                                  "members symmetric in the last two indices",
                                  value, 1e-10, witness=witness))
            if lam == "311":
                value, witness = max((defect(np.subtract, (0, 3, 2, 1, 4, 5)),
                                      defect(np.subtract, (0, 1, 2, 4, 3, 5)),
                                      defect(np.add, (2, 1, 0, 3, 4, 5))),
                                     key=lambda d: d[0])
                out.append(_check(f"basis_symmetry lam=311 k={k}",
                                  "symmetric in slots 2,4,5; skew in slots 1,3",
                                  value, 1e-10, witness=witness))
    return out


#: samples evaluated per operator pass; bounds the suite's memory at any --samples
COMPLEX_BLOCK = 64


#: role -> (value space, degree, terms) of the complex suite's random fields,
#: in the order each sample draws them
COMPLEX_ROLES = {"f": ("V0", 4, 6), "F": ("V1", 4, 6), "h2": ("V2", 2, 5),
                 "g": ("V0", 3, 4)}


def _complex_draws(rng, k, n, samples):
    """The random fields of `samples` samples, from one ``rng.random`` call.

    Row i of the (samples, width) uniforms is sample i: the columns of f, F,
    h2 (k >= 3 only: for k = 2 the order-5 branch does not exist) and g
    (:func:`~diraclab.fields.draw_width` each).  Each role's columns become
    one sample-keyed field.
    """
    roles = [role for role in COMPLEX_ROLES if k >= 3 or role != "h2"]
    widths = [draw_width(k, n, *COMPLEX_ROLES[role]) for role in roles]
    u = rng.random((samples, sum(widths)))
    inputs = {}
    for role, cols in zip(roles, np.split(u, np.cumsum(widths)[:-1], axis=1)):
        space, degree, nterms = COMPLEX_ROLES[role]
        inputs[role] = random_keyed(k, n, space, cols, degree, nterms)
    return inputs


def _complex_block(rng, k, n, rep, samples):
    """The next `samples` samples' residuals by check key, one operator pass
    per check."""
    inputs = _complex_draws(rng, k, n, samples)

    def norms(f):
        return keyed_norms(f, samples)

    def residuals(f):
        return keyed_residuals(f, samples)

    f, F, g = inputs["f"], inputs["F"], inputs["g"]
    fn, Fn = np.maximum(norms(f), 1e-300), np.maximum(norms(F), 1e-300)
    df = dirac_ops.d0(f, rep)
    values = {"d1d0": norms(dirac_ops.d1(df, rep)) / fn,
              "laplace": norms(dirac_ops.d0_star(df, rep) - dirac_ops.laplacian(f, rep)) / fn}
    h = dirac_ops.d1(F, rep)
    agree = [norms(h - dirac_ops.d1_projector(F, rep)) / Fn]
    member = [residuals(h) / Fn]
    if k >= 3:
        values["d2pd1"] = norms(dirac_ops.d2p(h, rep)) / Fn
        values["d2ppd1"] = norms(dirac_ops.d2pp(h, rep)) / Fn
        h2 = inputs["h2"]
        h2n = np.maximum(norms(h2), 1e-300)
        a, c = dirac_ops.d2p(h2, rep), dirac_ops.d2pp(h2, rep)
        agree += [norms(a - dirac_ops.d2p_projector(h2, rep)) / h2n,
                  norms(c - dirac_ops.d2pp_projector(h2, rep)) / h2n]
        member += [residuals(a) / h2n, residuals(c) / h2n]
    values["agree"], values["member"] = np.max(agree, axis=0), np.max(member, axis=0)
    values["commute"] = (norms(dirac_ops.delta_nabla_commutator(g, rep))
                         / np.maximum(norms(g), 1e-300))
    return values


def complex_values(k, n, samples, seed):
    """Each sample's residuals by check key.

    The samples are drawn in order from one rng and evaluated in blocks of
    at most :data:`COMPLEX_BLOCK`, one operator pass per check and block, so
    memory does not grow with `samples`.  Residuals are relative to the
    input: an output that vanishes analytically has a norm of pure roundoff.
    """
    rep = build_clifford(n)
    rng = np.random.default_rng(seed)
    blocks = [_complex_block(rng, k, n, rep, min(COMPLEX_BLOCK, samples - start))
              for start in range(0, samples, COMPLEX_BLOCK)]
    return {key: np.concatenate([b[key] for b in blocks]) for key in blocks[0]}


def checks_complex(k, n, samples, seed):
    """The complex identities on random fields; each record's witness is the
    sample of its worst value."""
    if samples < 1:
        raise ValueError("the complex suite needs at least one sample")
    values = complex_values(k, n, samples, seed)

    def worst(key, name, certifies, tol):
        return _worst(f"{name} k={k} n={n}", certifies, values[key], tol)

    out = [worst("d1d0", "d1_after_d0", "D1 D0 = 0", 1e-9),
           worst("laplace", "adjoint_laplacian", "D0* D0 = Laplacian", 1e-9)]
    if k >= 3:
        out += [worst("d2pd1", "d2p_after_d1", "D2' D1 = 0", 1e-9),
                worst("d2ppd1", "d2pp_after_d1", "D2'' D1 = 0", 1e-9)]
    out += [worst("agree", "form_agreement", "direct operator forms = projector forms",
                  1e-10),
            worst("member", "output_membership",
                  "operator outputs lie in their value spaces", 1e-10),
            worst("commute", "delta_commutation", "Delta_BC nabla_A = nabla_A Delta_BC",
                  1e-9)]
    return out


def _unit_xi(rng, k, n, count):
    """`count` unit frequencies whose first block has norm >= 0.3.

    They are the rows, and rng ends in the state, that drawing one frequency
    at a time and rejecting would give: each round draws only as many rows as
    are still missing."""
    rows = np.empty((0, k * n))
    while len(rows) < count:
        xi = rng.standard_normal((count - len(rows), k * n))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        keep = np.linalg.norm(xi[:, :n], axis=1) >= 0.3
        rows = np.concatenate([rows, xi[keep]])
    return rows


def _max_abs(*stacks):
    """Per sample, the largest entry magnitude over stacks of matrices."""
    return np.max([np.abs(m).max(axis=(-2, -1)) for m in stacks], axis=0)


def checks_ellipticity(k, n, samples, seed):
    if samples < 1:
        raise ValueError("the ellipticity suite needs at least one sample")
    rep = build_clifford(n)
    xi = _unit_xi(np.random.default_rng(seed), k, n, samples)
    b = symbols.build_bundle(rep, k, xi)
    out = []

    def at(i):
        return {"sample": i, "xi": xi[i].tolist()}

    rpt = symbols.verify_exactness(b)
    ranks = {"rank_sigma0": rpt.rank_sigma0, "dim_ker_sigma1": rpt.dim_ker_sigma1,
             "rank_sigma1": rpt.rank_sigma1, "dim_ker_order5": rpt.dim_ker_order5}
    # generic ranks are the same at every xi: a sample whose ranks differ
    # from those of sample 0 fails like an inexact one
    bad = ~rpt.ok
    for r in ranks.values():
        if r is not None:
            bad |= r != r[0]
    w = int(np.argmax(bad))
    comp = [b.sigma1 @ b.sigma0]
    if b.has_order5:
        comp += [b.sigma2p @ b.sigma1, b.sigma2pp @ b.sigma1]
    out.append(_worst(f"symbol_complex k={k} n={n}", "sigma_{j+1} sigma_j = 0",
                      _max_abs(*comp), 1e-10, at))
    out.append(_worst(
        f"symbol_exactness k={k} n={n}",
        "ker sigma0 = 0; ker sigma1 = im sigma0; joint ker at slot 2 = im sigma1",
        bad, 0.0, at,
        ranks={"dims": rpt.dims,
               **{key: None if r is None else int(r[w]) for key, r in ranks.items()}}))
    if k >= 3:
        out.append(_worst(f"kernel_identity k={k} n={n}",
                          "|xi_0|^2 Theta_ABC reconstructed from Theta_00*",
                          symbols.kernel_identity_check(b), 1e-9, at))
    inter = symbols.intertwine_check(b)
    scale = np.linalg.norm(b.sigma1, axis=(-2, -1)) * np.linalg.norm(b.L1, axis=(-2, -1))
    out.append(_worst(f"green_intertwine k={k} n={n}", "L2 sigma1 = sigma1 L1",
                      inter / np.maximum(scale, 1e-300), 1e-10, at))
    out.append(_worst(f"green_inverse k={k} n={n}", "L_j L_j^{-1} = Id",
                      symbols.green_inverse_residual(b), 1e-10, at))
    double = symbols.build_bundle(rep, k, 2.0 * xi[:5])
    homog = [_max_abs(a - 16.0 * m[:5]) / np.maximum(_max_abs(m[:5]), 1e-300)
             for a, m in ((double.L0, b.L0), (double.L1, b.L1), (double.L2, b.L2))]
    out.append(_worst(f"hodge_homogeneity k={k} n={n}", "L_j(2 xi) = 16 L_j(xi)",
                      np.max(homog, axis=0), 1e-10, at))
    bounds = symbols.hodge_eig_bounds(b)
    lowest = {m: int(np.argmin(lo)) for m, (lo, _) in bounds.items()}
    eig_min = {m: float(bounds[m][0][i]) for m, i in lowest.items()}
    pd_ok = all(lo > 0 for lo in eig_min.values())
    out.append(_check(f"hodge_positive k={k} n={n}",
                      "L_j positive definite on unit frequencies",
                      0.0 if pd_ok else 1.0, 0.0, ok=pd_ok, eig_min=eig_min,
                      eig_max={m: float(hi.max()) for m, (_, hi) in bounds.items()},
                      witness={m: at(i) for m, i in lowest.items()}))
    return out


def _boundary_charts(k, n):
    """The (label, chart) pairs the boundary suite runs on."""
    if n >= 2:
        tilted = boundary.tilted_chart(k, n)
    else:
        tilt = np.zeros((k, n))
        tilt[1, 0] = 1.0
        tilted = boundary.tilted_chart(k, n, tilt)
    return [("flat", boundary.flat_chart(k, n)), ("tilted", tilted)]


def checks_boundary(k, n, samples, seed):
    if samples < 1:
        raise ValueError("the boundary suite needs at least one sample")
    rng = np.random.default_rng(seed)
    rep = build_clifford(n)
    out = []
    mono = dirac_ops.monogenic_basis(rep, k, n, degree=3)
    for label, chart in _boundary_charts(k, n):
        phi = boundary.defining_polynomial(chart, rep)  # one member per basis spinor
        tf, zs = boundary.tangential_frame(chart, rep, phi)
        phi_kill = float(max(member_norms(g).max() for g in (tf,) + zs))
        out.append(_check(f"frame_tangency chart={label} k={k} n={n}",
                          "Z_mu phi = 0 and T phi = 0", phi_kill, 1e-12))
        rpt = boundary.restrict_and_test(mono, chart, rep)
        tm = (np.maximum(rpt["z_residual"], rpt["zt_residual"])
              / np.maximum(rpt["input_norm"], 1e-300))
        out.append(_worst(f"tangential_monogenicity chart={label} k={k} n={n}",
                          "restrictions of monogenic fields satisfy Z f = 0, Z T f = 0",
                          tm, 1e-10, lambda i: {"member": i},
                          basis_size=mono.vals.shape[1]))
        # row i of one draw is sample i: the uniforms of F, then those of F'
        width = draw_width(k, n, "V0", 3, 5)
        u = rng.random((samples, 2 * width))
        F, Fp = (random_keyed(k, n, "V0", u[:, :width], 3, 5),
                 random_keyed(k, n, "V0", u[:, width:], 3, 5))
        scale = keyed_norms(F, samples) + keyed_norms(Fp, samples)
        pk = (boundary.pi1_kernel_check(chart, rep, stack(F, samples), stack(Fp, samples))
              / np.maximum(scale, 1e-300))
        out.append(_worst(f"pi1_kernel chart={label} k={k} n={n}",
                          "canonical zero-Cauchy data maps to zero", pk, 1e-10))
    return out


#: scope -> (suite(k, n, args), the (k, n) pairs `--scope all` runs, in order);
#: a single scope runs once at (--k, --n).  The clifford suite sweeps n = 1..n,
#: and the weyl suite has no n.
_SWEEPS = {
    "clifford": (lambda k, n, a: checks_clifford(n, a.seed), [(None, 10)]),
    "weyl": (lambda k, n, a: checks_weyl(k), [(kk, None) for kk in (2, 3, 4, 5)]),
    "complex": (lambda k, n, a: checks_complex(k, n, a.samples, a.seed),
                [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]),
    "ellipticity": (lambda k, n, a: checks_ellipticity(k, n, a.samples, a.seed),
                    [(3, 2), (3, 3), (2, 2), (2, 3)]),
    "boundary": (lambda k, n, a: checks_boundary(k, n, min(a.samples, 20), a.seed),
                 [(2, 2), (2, 3), (3, 2), (3, 3)]),
}


def _report(command, t0, parameters, checks, timings, **metrics):
    """The report both commands write, and its exit code: the tool, the
    command, its parameters, the solve's `metrics`, the checks, whether all
    pass, and the timings, which open with the wall time since t0 and close
    with the process's peak resident set so far."""
    report = {"tool": "diraclab", "version": __version__, "command": command,
              "parameters": parameters, **metrics, "checks": checks,
              "pass": all(c["pass"] for c in checks),
              "timings": {"wall_s": time.perf_counter() - t0, **timings,
                          "ru_maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}}
    return report, EXIT_PASS if report["pass"] else EXIT_FAIL


def run_verify(args):
    t0 = time.perf_counter()
    if args.n is None:
        args.n = 10 if args.scope == "clifford" else 2
    checks, suite_s = [], {}
    for key in _SWEEPS if args.scope == "all" else [args.scope]:
        suite, pairs = _SWEEPS[key]
        t_suite = time.perf_counter()
        for k, n in pairs if args.scope == "all" else [(args.k, args.n)]:
            checks.extend(suite(k, n, args))
        suite_s[key] = time.perf_counter() - t_suite
    parameters = {
        "scope": args.scope,
        "k": args.k,
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
    }
    # seconds per suite
    return _report("verify", t0, parameters, checks, {"suite_s": suite_s})


def run_solve(args):
    t0 = time.perf_counter()
    rep = build_clifford(args.n)
    center = (
        np.array([float(x) for x in args.center.split(",")])
        if args.center
        else None
    )
    stages = {}
    u, metrics = solver.recover_bump(
        rep, args.k, args.n, args.N, L=args.L, radius=args.radius,
        center=center, tol=args.tol, break_compat=args.break_compat,
        timings=stages,
    )
    if args.out:
        with _output():
            solver.dump_field(u, args.out)
    del u  # the sweep runs without it, which lowers its memory peak
    checks = [
        _check("bump_recovery", "u = D0* D0 D0* G1 (D0 phi) recovers phi",
               metrics["recovery_rel_l2"], 1e-6, witness=metrics["recovery_witness"]),
        _check("dirac_residual", "D0 u = f on the grid",
               metrics["dirac_residual_rel_l2"], 1e-8,
               witness=metrics["dirac_residual_witness"]),
        _check("exterior_vanishing", "u vanishes outside the data support",
               metrics["hartogs"]["ratio"], 1e-6, witness=metrics["exterior_witness"]),
    ]
    sweep_rows, row_timings = [], []
    t_sweep = time.perf_counter()
    if args.sweep:
        ns = [int(x) for x in args.sweep.split(",")]
        sweep_rows = solver.resolution_sweep(
            rep, args.k, args.n, ns, L=args.L, radius=args.radius, center=center
        )
        row_timings = [row.pop("timings") for row in sweep_rows]
        errs = [r["recovery_rel_l2"] for r in sweep_rows]
        checks.append(_check("sweep_monotone",
                             "recovery error decreases with resolution",
                             0.0, 0.0,
                             ok=all(a > b for a, b in zip(errs, errs[1:])),
                             sweep=sweep_rows))
    stages["sweep_s"] = time.perf_counter() - t_sweep
    stages["sweep_rows_s"] = [t["s"] for t in row_timings]
    for key in ("fft_planes", "regions"):
        stages[key] += sum(t[key] for t in row_timings)
    parameters = {
        "k": args.k, "n": args.n, "N": args.N, "L": args.L,
        "radius": args.radius, "tol": args.tol,
        "center": args.center, "sweep": args.sweep,
        "break_compat": args.break_compat,
    }
    # stage times of the main solve and the sweep (and of each sweep row), the
    # main grid's parts per grid pass, the component planes transformed and
    # the grid passes run by the whole command, and the main grid's modes
    stages["modes"] = args.N ** (args.k * args.n)
    return _report("solve", t0, parameters, checks, stages, metrics=metrics)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diraclab",
        description="verification sweeps and torus solves for the first "
        "segment of the Dirac complex",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run an identity suite")
    v.add_argument("--scope", default="all",
                   choices=["clifford", "weyl", "complex", "ellipticity",
                            "boundary", "all"])
    v.add_argument("--k", type=int, default=3, help="number of vector variables")
    v.add_argument("--n", type=int, default=None,
                   help="spatial dimension; the clifford scope sweeps 1..n "
                        "(defaults: 10 for clifford, 2 elsewhere)")
    v.add_argument("--samples", type=int, default=25)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None, help="write the JSON report here")

    s = sub.add_parser("solve", help="solve D0 u = f for bump data")
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--N", type=int, default=32, help="grid points per axis")
    s.add_argument("--L", type=float, default=float(2 * np.pi))
    s.add_argument("--radius", type=float, default=0.6)
    s.add_argument("--center", default=None, help="comma separated, default cell center")
    s.add_argument("--tol", type=float, default=1e-6)
    s.add_argument("--sweep", default=None,
                   help="comma separated resolutions for a convergence study")
    s.add_argument("--break-compat", action="store_true",
                   help="negate the last block of f = D0 phi, so that D1 f != 0, "
                        "to exercise the compatibility guard")
    s.add_argument("--out", default=None, help="dump the solution field here")
    s.add_argument("--report-out", default=None, help="write the JSON report here")
    return parser


def _validate(parser, args):
    if args.command == "verify":
        if args.k < 2:
            parser.error("k must be at least 2")
        if args.n is not None and args.n < 1:
            parser.error("n must be at least 1")
    else:
        if args.k < 2 or args.n < 1 or args.N < 4:
            parser.error("need k >= 2, n >= 1, N >= 4")
        if args.sweep:
            ns = args.sweep.split(",")
            if not (all(x.strip().isdecimal() and int(x) >= 4 for x in ns)
                    and all(int(a) < int(b) for a, b in zip(ns, ns[1:]))):
                # sweep_monotone compares the rows in the order given
                parser.error("--sweep takes comma separated integers >= 4, as --N "
                             "does, in increasing order")
        # nan would pass every `> tol` guard silently, and nan or inf geometry
        # would run a meaningless solve
        for flag in ("L", "radius", "tol"):
            if not (np.isfinite(getattr(args, flag)) and getattr(args, flag) > 0):
                parser.error(f"--{flag} must be finite and > 0")
        if args.center:
            try:
                finite = np.isfinite([float(x) for x in args.center.split(",")]).all()
            except ValueError:
                finite = False
            if not finite:
                parser.error("--center takes comma separated finite numbers")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    out_path = args.report_out if args.command == "solve" else args.out
    try:
        if args.command == "verify":
            _check_outputs(out_path)
            report, code = run_verify(args)
        else:
            _check_outputs(args.out, out_path)
            report, code = run_solve(args)
        text = json.dumps(report, indent=2)
        if out_path:
            with _output(), open(out_path, "w") as fh:
                fh.write(text + "\n")
    except OutputError as exc:
        print(json.dumps({"error": "output", "detail": str(exc)}))
        return EXIT_USAGE
    except solver.ResourceLimitError as exc:
        print(json.dumps({"error": "resource-limit", "detail": str(exc)}))
        return EXIT_RESOURCE
    except solver.CompatibilityError as exc:
        print(json.dumps({"error": "compatibility", "detail": str(exc)}))
        return EXIT_COMPAT
    except ValueError as exc:
        print(json.dumps({"error": "usage", "detail": str(exc)}))
        return EXIT_USAGE
    except ArithmeticError as exc:  # a certification inside a suite or the solve
        print(json.dumps({"error": "certification", "detail": str(exc)}))
        return EXIT_FAIL
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
