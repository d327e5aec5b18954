"""Command-line front end: verification sweeps and the torus solve.

Two subcommands:

``diraclab verify --scope {clifford,weyl,complex,ellipticity,boundary,all}``
    Runs the selected identity suite and emits a JSON report with one record
    per check.  Exit code 0 when every check passes, 1 otherwise.

``diraclab solve --k 2 --n 2 --N 32``
    Runs bump -> d0 -> solve -> exterior-anchored recovery on the periodic
    cell and reports recovery, residual and exterior-decay metrics.

Exit codes: 0 pass, 1 check failure, 2 usage error, 3 resource limit,
4 compatibility violation.  Reports are deterministic for a fixed seed,
except for the "timings" block.
"""

import argparse
import json
import resource
import sys
import time

import numpy as np

from . import __version__, boundary, dirac_ops, solver, symbols, weyl
from .clifford import build_clifford, delta_symbol, dirac_symbol
from .fields import keyed, keyed_norms, keyed_residuals, random_field

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_COMPAT = 4


def _check(name, certifies, value, tol, ok=None, **extra):
    if ok is None:
        ok = bool(value <= tol)
    rec = {"name": name, "certifies": certifies, "value": value,
           "tolerance": tol, "pass": bool(ok)}
    rec.update(extra)
    return rec


# ---------------------------------------------------------------------------
# verify scopes


def checks_clifford(n_max, samples, seed):
    rng = np.random.default_rng(seed)
    out = []
    for n in range(1, n_max + 1):
        rep = build_clifford(n)
        s = rep.s_dim
        eye = np.eye(s)
        anti = 0.0
        for j in range(n):
            for k_ in range(n):
                delta = 2.0 * eye if j == k_ else 0.0
                anti = max(
                    anti,
                    np.abs(rep.gamma_minus[j] @ rep.gamma_plus[k_]
                           + rep.gamma_minus[k_] @ rep.gamma_plus[j] + delta).max(),
                    np.abs(rep.gamma_plus[j] @ rep.gamma_minus[k_]
                           + rep.gamma_plus[k_] @ rep.gamma_minus[j] + delta).max(),
                )
        skew = max(
            np.abs(rep.gamma_plus[j].conj().T + rep.gamma_minus[j]).max()
            for j in range(n)
        )
        expected = 1 if n == 1 else (2 ** (n // 2 - 1) if n % 2 == 0 else 2 ** ((n - 1) // 2))
        out.append(_check(f"anticommutation n={n}",
                          "g_j g_k + g_k g_j = -2 delta_jk Id", anti, 1e-12))
        out.append(_check(f"skew_adjoint n={n}", "g_j^H = -g_j", skew, 1e-12))
        out.append(_check(f"spinor_dim n={n}", "dim S = 2^floor((n-1)/2) (1 for n=1)",
                          float(abs(s - expected)), 0.0, ok=s == expected, dim=s))
        xi = rng.standard_normal(n)
        xi2 = rng.standard_normal(n)
        a, b = rng.standard_normal(2)
        p1, m1 = dirac_symbol(rep, xi)
        p2, m2 = dirac_symbol(rep, xi2)
        pl, _ = dirac_symbol(rep, a * xi + b * xi2)
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
    expected_n = {"21": 3.0, "22": 12.0, "311": 20.0}
    for lam in ("21", "22", "311"):
        ws = weyl.weyl_space(k, lam)
        # exact in the group algebra: residuals are 0.0 when the identity holds
        exact = weyl.exact_checks(k, lam)
        out.append(_check(f"projector_idempotent lam={lam} k={k}",
                          "C^2 = C", exact["projector_idempotent"], 1e-10))
        out.append(_check(f"symmetrizer_idempotent lam={lam} k={k}",
                          "normalized Young symmetrizer squares to itself",
                          exact["symmetrizer_idempotent"], 1e-10))
        same = exact["image_equality"]
        out.append(_check(f"image_equality lam={lam} k={k}",
                          "image(C) = image(Young symmetrizer): CY = Y, YC = C, "
                          "tr Y = tr C", same, 1e-8,
                          ok=exact["trace_y"] == exact["trace_c"] and same <= 1e-8))
        oracle = weyl.weyl_dim(k, lam)
        out.append(_check(f"module_dimension lam={lam} k={k}",
                          "projector rank = Weyl dimension formula",
                          float(abs(ws.dim - oracle)), 0.0, ok=ws.dim == oracle,
                          measured=ws.dim, oracle=oracle,
                          young_eigenvalue=weyl.young_eigenvalue(k, lam),
                          expected_eigenvalue=expected_n[lam]))
        if ws.dim > 0:
            cols = ws.basis.reshape((k,) * ws.m + (ws.dim,))
            if lam == "21":
                sym = float(np.abs(cols - cols.transpose(0, 2, 1, 3)).max())
                out.append(_check(f"basis_symmetry lam=21 k={k}",
                                  "members symmetric in the last two indices",
                                  sym, 1e-10))
            if lam == "311":
                worst = 0.0
                for perm in ((0, 3, 2, 1, 4, 5), (0, 1, 2, 4, 3, 5)):
                    worst = max(worst, float(np.abs(cols - cols.transpose(perm)).max()))
                skewv = float(np.abs(cols + cols.transpose(2, 1, 0, 3, 4, 5)).max())
                out.append(_check(f"basis_symmetry lam=311 k={k}",
                                  "symmetric in slots 2,4,5; skew in slots 1,3",
                                  max(worst, skewv), 1e-10))
    return out


#: samples evaluated per operator pass; bounds the suite's memory at any --samples
COMPLEX_BLOCK = 64


def _complex_draws(rng, k, n, rep, samples):
    """The random inputs of `samples` samples, drawn one sample at a time.

    Per sample the rng draws f (V0), F (V1), h2 (V2, k >= 3 only), g (V0)
    and then the indices B, C, A of the commutation check; each role's
    fields come back as one sample-keyed field, the indices as (samples, 3).
    """
    roles = {"f": [], "F": [], "h2": [], "g": []}
    slots = []
    for _ in range(samples):
        roles["f"].append(random_field(rng, k, n, "V0", rep, degree=4, nterms=6))
        roles["F"].append(random_field(rng, k, n, "V1", rep, degree=4, nterms=6))
        if k >= 3:  # for k = 2 the order-5 branch does not exist
            roles["h2"].append(random_field(rng, k, n, "V2", rep, degree=2, nterms=5))
        roles["g"].append(random_field(rng, k, n, "V0", rep, degree=3, nterms=4))
        slots.append([int(rng.integers(0, k)) for _ in range(3)])
    return {role: keyed(fields) for role, fields in roles.items() if fields}, np.array(slots)


def _complex_block(rng, k, n, rep, samples):
    """The next `samples` samples' residuals by check key, one operator pass
    per check."""
    inputs, slots = _complex_draws(rng, k, n, rep, samples)

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
    commute = dirac_ops.delta_nabla(g, rep, slots) - dirac_ops.nabla_delta(g, rep, slots)
    values["commute"] = norms(commute) / np.maximum(norms(g), 1e-300)
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
        i = int(np.argmax(values[key]))
        return _check(f"{name} k={k} n={n}", certifies, float(values[key][i]), tol,
                      witness={"sample": i})

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


def _unit_xi(rng, k, n, count, min_first_block=0.0):
    """`count` unit frequencies whose first block has norm >= min_first_block.

    They are the rows, and rng ends in the state, that drawing one frequency
    at a time and rejecting would give: each round draws only as many rows as
    are still missing."""
    rows = np.empty((0, k * n))
    while len(rows) < count:
        xi = rng.standard_normal((count - len(rows), k * n))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        keep = np.linalg.norm(xi[:, :n], axis=1) >= min_first_block
        rows = np.concatenate([rows, xi[keep]])
    return rows


def _witness(xi, i):
    return {"sample": int(i), "xi": xi[i].tolist()}


def _worst_check(name, certifies, xi, values, tol):
    """A check on the largest of the per-sample values, with its witness."""
    i = int(np.argmax(values))
    return _check(name, certifies, float(values[i]), tol, witness=_witness(xi, i))


def _max_abs(*stacks):
    """Per sample, the largest entry magnitude over stacks of matrices."""
    return np.max([np.abs(m).max(axis=(-2, -1)) for m in stacks], axis=0)


def checks_ellipticity(k, n, samples, seed):
    if samples < 1:
        raise ValueError("the ellipticity suite needs at least one sample")
    rep = build_clifford(n)
    xi = _unit_xi(np.random.default_rng(seed), k, n, samples, min_first_block=0.3)
    b = symbols.build_bundle(rep, k, xi)
    out = []

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
    out.append(_worst_check(f"symbol_complex k={k} n={n}", "sigma_{j+1} sigma_j = 0",
                            xi, _max_abs(*comp), 1e-10))
    out.append(_check(
        f"symbol_exactness k={k} n={n}",
        "ker sigma0 = 0; ker sigma1 = im sigma0; joint ker at slot 2 = im sigma1",
        float(bad.any()), 0.0, ok=not bad.any(),
        ranks={"dims": rpt.dims,
               **{key: None if r is None else int(r[w]) for key, r in ranks.items()}},
        witness=_witness(xi, w),
    ))
    if k >= 3:
        out.append(_worst_check(f"kernel_identity k={k} n={n}",
                                "|xi_0|^2 Theta_ABC reconstructed from Theta_00*",
                                xi, symbols.kernel_identity_check(b), 1e-9))
    inter = symbols.intertwine_check(b)
    scale = np.linalg.norm(b.sigma1, axis=(-2, -1)) * np.linalg.norm(b.L1, axis=(-2, -1))
    out.append(_worst_check(f"green_intertwine k={k} n={n}", "L2 sigma1 = sigma1 L1",
                            xi, inter / np.maximum(scale, 1e-300), 1e-10))
    out.append(_worst_check(f"green_inverse k={k} n={n}", "L_j L_j^{-1} = Id",
                            xi, symbols.green_inverse_residual(b), 1e-10))
    double = symbols.build_bundle(rep, k, 2.0 * xi[:5])
    homog = [_max_abs(a - 16.0 * m[:5]) / np.maximum(_max_abs(m[:5]), 1e-300)
             for a, m in ((double.L0, b.L0), (double.L1, b.L1), (double.L2, b.L2))]
    out.append(_worst_check(f"hodge_homogeneity k={k} n={n}", "L_j(2 xi) = 16 L_j(xi)",
                            xi, np.max(homog, axis=0), 1e-10))
    bounds = symbols.hodge_eig_bounds(b)
    if not b.has_order5:
        del bounds["L2"]
    lowest = {m: int(np.argmin(lo)) for m, (lo, _) in bounds.items()}
    eig_min = {m: float(bounds[m][0][i]) for m, i in lowest.items()}
    pd_ok = all(lo > 0 for lo in eig_min.values())
    out.append(_check(f"hodge_positive k={k} n={n}",
                      "L_j positive definite on unit frequencies",
                      0.0 if pd_ok else 1.0, 0.0, ok=pd_ok, eig_min=eig_min,
                      eig_max={m: float(hi.max()) for m, (_, hi) in bounds.items()},
                      witness={m: _witness(xi, i) for m, i in lowest.items()}))
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
        phi_kill = 0.0
        for t in range(rep.s_dim):
            spinor = np.zeros(rep.s_dim, dtype=complex)
            spinor[t] = 1.0
            phi = boundary.defining_polynomial(chart, rep, spinor)
            for mu in range(1, k):
                phi_kill = max(phi_kill, boundary.apply_z(chart, rep, mu, phi).norm())
            phi_kill = max(phi_kill, boundary.apply_t(chart, rep, phi).norm())
        out.append(_check(f"frame_tangency chart={label} k={k} n={n}",
                          "Z_mu phi = 0 and T phi = 0", phi_kill, 1e-12))
        rpt = boundary.restrict_and_test(mono, chart, rep)
        tm = (np.maximum(rpt["z_residual"], rpt["zt_residual"])
              / np.maximum(rpt["input_norm"], 1e-300))
        i = int(np.argmax(tm))
        out.append(_check(f"tangential_monogenicity chart={label} k={k} n={n}",
                          "restrictions of monogenic fields satisfy Z f = 0, Z T f = 0",
                          float(tm[i]), 1e-10, basis_size=len(mono),
                          witness={"member": i}))
        # sample i is the pair of draws 2i (F) and 2i + 1 (F')
        draws = [random_field(rng, k, n, "V0", rep, degree=3, nterms=5)
                 for _ in range(2 * samples)]
        Fs, Fps = draws[0::2], draws[1::2]
        scale = [F.norm() + Fp.norm() for F, Fp in zip(Fs, Fps)]
        pk = boundary.pi1_kernel_check(chart, rep, Fs, Fps) / np.maximum(scale, 1e-300)
        i = int(np.argmax(pk))
        out.append(_check(f"pi1_kernel chart={label} k={k} n={n}",
                          "canonical zero-Cauchy data maps to zero", float(pk[i]), 1e-10,
                          witness={"sample": i}))
    return out


_ALL_SWEEPS = {
    "clifford": lambda a: checks_clifford(10, a.samples, a.seed),
    "weyl": lambda a: [c for kk in (2, 3, 4, 5) for c in checks_weyl(kk)],
    "complex": lambda a: [
        c
        for (kk, nn) in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3))
        for c in checks_complex(kk, nn, a.samples, a.seed)
    ],
    "ellipticity": lambda a: [
        c
        for (kk, nn) in ((3, 2), (3, 3), (2, 2), (2, 3))
        for c in checks_ellipticity(kk, nn, a.samples, a.seed)
    ],
    "boundary": lambda a: [
        c
        for (kk, nn) in ((2, 2), (2, 3), (3, 2), (3, 3))
        for c in checks_boundary(kk, nn, min(a.samples, 20), a.seed)
    ],
}


_SCOPE_SWEEPS = {
    "clifford": lambda a: checks_clifford(max(a.n, 1), a.samples, a.seed),
    "weyl": lambda a: checks_weyl(a.k),
    "complex": lambda a: checks_complex(a.k, a.n, a.samples, a.seed),
    "ellipticity": lambda a: checks_ellipticity(a.k, a.n, a.samples, a.seed),
    "boundary": lambda a: checks_boundary(a.k, a.n, min(a.samples, 20), a.seed),
}


def run_verify(args):
    t0 = time.perf_counter()
    if args.n is None:
        args.n = 10 if args.scope == "clifford" else 2
    if args.scope == "all":
        sweeps = _ALL_SWEEPS
    else:
        sweeps = {args.scope: _SCOPE_SWEEPS[args.scope]}
    checks, suite_s = [], {}
    for key, sweep in sweeps.items():
        t_suite = time.perf_counter()
        checks.extend(sweep(args))
        suite_s[key] = time.perf_counter() - t_suite
    report = {
        "tool": "diraclab",
        "version": __version__,
        "command": "verify",
        "parameters": {
            "scope": args.scope,
            "k": args.k,
            "n": args.n,
            "samples": args.samples,
            "seed": args.seed,
        },
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        # seconds per suite, and the process's peak resident set so far
        "timings": {"wall_s": time.perf_counter() - t0, "suite_s": suite_s,
                    "ru_maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss},
    }
    return report, EXIT_PASS if report["pass"] else EXIT_FAIL


def run_solve(args):
    t0 = time.perf_counter()
    rep = build_clifford(args.n)
    center = (
        np.array([float(x) for x in args.center.split(",")])
        if args.center
        else None
    )
    stages = {}
    u, phi, metrics = solver.recover_bump(
        rep, args.k, args.n, args.N, L=args.L, radius=args.radius,
        center=center, tol=args.tol, break_compat=args.break_compat,
        timings=stages,
    )
    del phi  # not read here; freeing it lowers the sweep's memory peak
    checks = [
        _check("bump_recovery", "u = D0* D0 D0* G1 (D0 phi) recovers phi",
               metrics["recovery_rel_l2"], 1e-6),
        _check("dirac_residual", "D0 u = f on the grid",
               metrics["dirac_residual_rel_l2"], 1e-8),
    ]
    hart = metrics["hartogs"]
    if hart.get("ratio") is not None:
        checks.append(_check("exterior_vanishing",
                             "u vanishes outside the data support",
                             hart["ratio"], 1e-6))
    sweep_rows = []
    t_sweep = time.perf_counter()
    if args.sweep:
        ns = [int(x) for x in args.sweep.split(",")]
        sweep_rows = solver.resolution_sweep(
            rep, args.k, args.n, ns, L=args.L, radius=args.radius, center=center
        )
        errs = [r["recovery_rel_l2"] for r in sweep_rows]
        checks.append(_check("sweep_monotone",
                             "recovery error decreases with resolution",
                             0.0, 0.0,
                             ok=all(a > b for a, b in zip(errs, errs[1:])),
                             sweep=sweep_rows))
    stages["sweep_s"] = time.perf_counter() - t_sweep
    if args.out:
        solver.dump_field(u, args.out)
    report = {
        "tool": "diraclab",
        "version": __version__,
        "command": "solve",
        "parameters": {
            "k": args.k, "n": args.n, "N": args.N, "L": args.L,
            "radius": args.radius, "tol": args.tol,
            "center": args.center, "sweep": args.sweep,
            "break_compat": args.break_compat,
        },
        "metrics": metrics,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        # stage times of the main solve and the sweep, and the main grid's modes
        "timings": {"wall_s": time.perf_counter() - t0, **stages,
                    "modes": args.N ** (args.k * args.n)},
    }
    return report, EXIT_PASS if report["pass"] else EXIT_FAIL


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
                   help="corrupt the data to exercise the compatibility guard")
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        if args.command == "verify":
            report, code = run_verify(args)
        else:
            report, code = run_solve(args)
    except solver.ResourceLimitError as exc:
        print(json.dumps({"error": "resource-limit", "detail": str(exc)}))
        return EXIT_RESOURCE
    except solver.CompatibilityError as exc:
        print(json.dumps({"error": "compatibility", "detail": str(exc)}))
        return EXIT_COMPAT
    except ValueError as exc:
        print(json.dumps({"error": "usage", "detail": str(exc)}))
        return EXIT_USAGE
    text = json.dumps(report, indent=2)
    out_path = getattr(args, "out", None)
    if args.command == "solve":
        out_path = args.report_out
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
