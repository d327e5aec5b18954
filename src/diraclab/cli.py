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
import sys
import time

import numpy as np

from . import __version__, boundary, dirac_ops, solver, symbols, weyl
from .clifford import build_clifford, delta_symbol, dirac_symbol
from .fields import random_field

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
        pnorm = np.linalg.norm(ws.projector)
        idem = np.linalg.norm(ws.projector @ ws.projector - ws.projector)
        idem = idem / pnorm if pnorm > 0 else 0.0
        out.append(_check(f"projector_idempotent lam={lam} k={k}",
                          "C^2 = C", float(idem), 1e-10))
        ym = weyl.young_symmetrizer(k, lam)
        ynorm = np.linalg.norm(ym)
        yidem = np.linalg.norm(ym @ ym - ym) / ynorm if ynorm > 0 else 0.0
        out.append(_check(f"symmetrizer_idempotent lam={lam} k={k}",
                          "normalized Young symmetrizer squares to itself",
                          float(yidem), 1e-10))
        ybasis = weyl._image_basis(ym)
        dims_equal = ybasis.shape[1] == ws.dim
        if dims_equal and ws.dim > 0:
            ang = float(weyl.principal_angles(ws.basis, ybasis).max())
        else:
            ang = 0.0 if dims_equal else float("inf")
        out.append(_check(f"image_equality lam={lam} k={k}",
                          "image(C) = image(Young symmetrizer)", ang, 1e-8,
                          ok=dims_equal and ang <= 1e-8))
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


def checks_complex(k, n, samples, seed, with_d2):
    rng = np.random.default_rng(seed)
    rep = build_clifford(n)
    out = []
    worst = {"d1d0": 0.0, "d2pd1": 0.0, "d2ppd1": 0.0, "agree": 0.0,
             "member": 0.0, "laplace": 0.0, "commute": 0.0}
    for _ in range(samples):
        f = random_field(rng, k, n, "V0", rep, degree=4, nterms=6)
        fn = max(f.norm(), 1e-300)
        df = dirac_ops.d0(f, rep)
        worst["d1d0"] = max(worst["d1d0"], dirac_ops.d1(df, rep).norm() / fn)
        lap = dirac_ops.d0_star(df, rep) - dirac_ops.laplacian(f, rep)
        worst["laplace"] = max(worst["laplace"], lap.norm() / fn)

        F = random_field(rng, k, n, "V1", rep, degree=4, nterms=6)
        Fn = max(F.norm(), 1e-300)
        h = dirac_ops.d1(F, rep)
        hp = dirac_ops.d1_projector(F, rep)
        # residuals are relative to the input: an output that vanishes
        # analytically has a norm of pure roundoff
        worst["agree"] = max(worst["agree"], (h - hp).norm() / Fn)
        worst["member"] = max(worst["member"], h.membership_residual() / Fn)
        if with_d2:
            worst["d2pd1"] = max(worst["d2pd1"], dirac_ops.d2p(h, rep).norm() / Fn)
            worst["d2ppd1"] = max(worst["d2ppd1"], dirac_ops.d2pp(h, rep).norm() / Fn)
            h2 = random_field(rng, k, n, "V2", rep, degree=2, nterms=5)
            h2n = max(h2.norm(), 1e-300)
            a = dirac_ops.d2p(h2, rep)
            b = dirac_ops.d2p_projector(h2, rep)
            worst["agree"] = max(worst["agree"], (a - b).norm() / h2n)
            c = dirac_ops.d2pp(h2, rep)
            d = dirac_ops.d2pp_projector(h2, rep)
            worst["agree"] = max(worst["agree"], (c - d).norm() / h2n)
            worst["member"] = max(
                worst["member"],
                a.membership_residual() / h2n,
                c.membership_residual() / h2n,
            )
        g = random_field(rng, k, n, "V0", rep, degree=3, nterms=4)
        bidx = int(rng.integers(0, k))
        cidx = int(rng.integers(0, k))
        aidx = int(rng.integers(0, k))
        lhs = dirac_ops.delta_op(bidx, cidx, dirac_ops.nabla(aidx, g, rep), rep)
        rhs = dirac_ops.nabla(aidx, dirac_ops.delta_op(bidx, cidx, g, rep), rep)
        worst["commute"] = max(worst["commute"], (lhs - rhs).norm() / max(g.norm(), 1e-300))
    out.append(_check(f"d1_after_d0 k={k} n={n}", "D1 D0 = 0", worst["d1d0"], 1e-9))
    out.append(_check(f"adjoint_laplacian k={k} n={n}", "D0* D0 = Laplacian",
                      worst["laplace"], 1e-9))
    if with_d2:
        out.append(_check(f"d2p_after_d1 k={k} n={n}", "D2' D1 = 0",
                          worst["d2pd1"], 1e-9))
        out.append(_check(f"d2pp_after_d1 k={k} n={n}", "D2'' D1 = 0",
                          worst["d2ppd1"], 1e-9))
    out.append(_check(f"form_agreement k={k} n={n}",
                      "direct operator forms = projector forms",
                      worst["agree"], 1e-10))
    out.append(_check(f"output_membership k={k} n={n}",
                      "operator outputs lie in their value spaces",
                      worst["member"], 1e-10))
    out.append(_check(f"delta_commutation k={k} n={n}",
                      "Delta_BC nabla_A = nabla_A Delta_BC",
                      worst["commute"], 1e-9))
    return out


def _unit_xi(rng, k, n, min_first_block=0.0):
    while True:
        xi = rng.standard_normal(k * n)
        xi /= np.linalg.norm(xi)
        if np.linalg.norm(xi[:n]) >= min_first_block:
            return xi


def checks_ellipticity(k, n, samples, seed):
    rng = np.random.default_rng(seed)
    rep = build_clifford(n)
    out = []
    worst = {"comp": 0.0, "kernel": 0.0, "inter": 0.0, "green": 0.0, "homog": 0.0}
    ranks_ok = True
    eig_lo, eig_hi = {}, {}
    for i in range(samples):
        xi = _unit_xi(rng, k, n, min_first_block=0.3)
        bundle = symbols.build_bundle(rep, k, xi)
        worst["comp"] = max(worst["comp"],
                            float(np.abs(bundle.sigma1 @ bundle.sigma0).max()))
        if bundle.has_order5:
            worst["comp"] = max(
                worst["comp"],
                float(np.abs(bundle.sigma2p @ bundle.sigma1).max()),
                float(np.abs(bundle.sigma2pp @ bundle.sigma1).max()),
            )
        rpt = symbols.verify_exactness(bundle)
        ranks_ok = ranks_ok and rpt.ok
        if bundle.has_order5:
            worst["kernel"] = max(worst["kernel"], symbols.kernel_identity_check(bundle, rep))
        inter = symbols.intertwine_check(bundle)
        scale = np.linalg.norm(bundle.sigma1) * np.linalg.norm(bundle.L1)
        worst["inter"] = max(worst["inter"], inter / max(scale, 1e-300))
        worst["green"] = max(worst["green"], symbols.green_inverse_residual(bundle))
        for name, (lo, hi) in symbols.hodge_eig_bounds(bundle).items():
            if not bundle.has_order5 and name == "L2":
                continue
            eig_lo[name] = min(eig_lo.get(name, np.inf), lo)
            eig_hi[name] = max(eig_hi.get(name, -np.inf), hi)
        if i < 5:
            double = symbols.build_bundle(rep, k, 2.0 * xi)
            for a, b in ((double.L0, bundle.L0), (double.L1, bundle.L1),
                         (double.L2, bundle.L2)):
                if a.shape[0] == 0:
                    continue
                h = np.abs(a - 16.0 * b).max() / max(np.abs(b).max(), 1e-300)
                worst["homog"] = max(worst["homog"], float(h))
    last = symbols.verify_exactness(symbols.build_bundle(rep, k, _unit_xi(rng, k, n, 0.3)))
    out.append(_check(f"symbol_complex k={k} n={n}",
                      "sigma_{j+1} sigma_j = 0", worst["comp"], 1e-10))
    out.append(_check(
        f"symbol_exactness k={k} n={n}",
        "ker sigma0 = 0; ker sigma1 = im sigma0; joint ker at slot 2 = im sigma1",
        0.0 if ranks_ok else 1.0, 0.0, ok=ranks_ok,
        ranks={"dims": last.dims, "rank_sigma0": last.rank_sigma0,
               "dim_ker_sigma1": last.dim_ker_sigma1,
               "rank_sigma1": last.rank_sigma1,
               "dim_ker_order5": last.dim_ker_order5},
    ))
    if k >= 3:
        out.append(_check(f"kernel_identity k={k} n={n}",
                          "|xi_0|^2 Theta_ABC reconstructed from Theta_00*",
                          worst["kernel"], 1e-9))
    out.append(_check(f"green_intertwine k={k} n={n}", "L2 sigma1 = sigma1 L1",
                      worst["inter"], 1e-10))
    out.append(_check(f"green_inverse k={k} n={n}", "L_j L_j^{-1} = Id",
                      worst["green"], 1e-10))
    out.append(_check(f"hodge_homogeneity k={k} n={n}", "L_j(2 xi) = 16 L_j(xi)",
                      worst["homog"], 1e-10))
    pd_ok = all(lo > 0 for lo in eig_lo.values())
    out.append(_check(f"hodge_positive k={k} n={n}",
                      "L_j positive definite on unit frequencies",
                      0.0 if pd_ok else 1.0, 0.0, ok=pd_ok,
                      eig_min={m: eig_lo[m] for m in sorted(eig_lo)},
                      eig_max={m: eig_hi[m] for m in sorted(eig_hi)}))
    return out


def checks_boundary(k, n, samples, seed):
    rng = np.random.default_rng(seed)
    rep = build_clifford(n)
    out = []
    charts = [("flat", boundary.flat_chart(k, n))]
    if n >= 2:
        charts.append(("tilted", boundary.tilted_chart(k, n)))
    else:
        tilt = np.zeros((k, n))
        tilt[1, 0] = 1.0
        charts.append(("tilted", boundary.tilted_chart(k, n, tilt)))
    mono = dirac_ops.monogenic_basis(rep, k, n, degree=3)
    for label, chart in charts:
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
        tm = 0.0
        for f in mono:
            rpt = boundary.restrict_and_test(f, chart, rep)
            tm = max(tm, max(rpt["z_residual"], rpt["zt_residual"])
                     / max(rpt["input_norm"], 1e-300))
        out.append(_check(f"tangential_monogenicity chart={label} k={k} n={n}",
                          "restrictions of monogenic fields satisfy Z f = 0, Z T f = 0",
                          tm, 1e-10, basis_size=len(mono)))
        pk = 0.0
        for _ in range(samples):
            F = random_field(rng, k, n, "V0", rep, degree=3, nterms=5)
            Fp = random_field(rng, k, n, "V0", rep, degree=3, nterms=5)
            pk = max(pk, boundary.pi1_kernel_check(chart, rep, F, Fp)
                     / max(F.norm() + Fp.norm(), 1e-300))
        out.append(_check(f"pi1_kernel chart={label} k={k} n={n}",
                          "canonical zero-Cauchy data maps to zero", pk, 1e-10))
    return out


_ALL_SWEEPS = {
    "clifford": lambda a: checks_clifford(10, a.samples, a.seed),
    "weyl": lambda a: [c for kk in (2, 3, 4, 5) for c in checks_weyl(kk)],
    "complex": lambda a: [
        c
        for (kk, nn) in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3))
        for c in checks_complex(kk, nn, a.samples, a.seed, kk >= 3)
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


def run_verify(args):
    t0 = time.perf_counter()
    if args.n is None:
        args.n = 10 if args.scope == "clifford" else 2
    if args.scope == "all":
        checks = []
        for key in ("clifford", "weyl", "complex", "ellipticity", "boundary"):
            checks.extend(_ALL_SWEEPS[key](args))
    elif args.scope == "clifford":
        checks = checks_clifford(max(args.n, 1), args.samples, args.seed)
    elif args.scope == "weyl":
        checks = checks_weyl(args.k)
    elif args.scope == "complex":
        with_d2 = args.with_d2 or args.k >= 3
        checks = checks_complex(args.k, args.n, args.samples, args.seed, with_d2)
    elif args.scope == "ellipticity":
        checks = checks_ellipticity(args.k, args.n, args.samples, args.seed)
    elif args.scope == "boundary":
        checks = checks_boundary(args.k, args.n, min(args.samples, 20), args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.scope)
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
        "timings": {"wall_s": time.perf_counter() - t0},
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
    u, phi, metrics = solver.recover_bump(
        rep, args.k, args.n, args.N, L=args.L, radius=args.radius,
        center=center, tol=args.tol, break_compat=args.break_compat,
    )
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
        "timings": {"wall_s": time.perf_counter() - t0},
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
    v.add_argument("--with-d2", action="store_true",
                   help="require the order-5 branch checks (needs k >= 3)")
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
        if args.with_d2 and args.k < 3:
            parser.error("the order-5 branch checks require k >= 3")
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
