"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all) and
then asserts, so a red criterion is visible both ways.
"""

import json
import os
import time

import numpy as np
import pytest
from conftest import (
    dense,
    dense_image_basis,
    principal_angles,
    random_field,
    square_defect,
    terms_matrix,
)

from diraclab import build_clifford, weyl
from diraclab import boundary as bnd
from diraclab import dirac_ops as ops
from diraclab import solver, symbols
from diraclab.cli import _unit_xi, main


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")


def test_criterion_1_clifford():
    t0 = time.perf_counter()
    worst_anti = worst_skew = 0.0
    for n in range(1, 11):
        rep = build_clifford(n)
        eye = np.eye(rep.s_dim)
        for j in range(n):
            for k in range(n):
                target = -2.0 * eye if j == k else 0.0
                worst_anti = max(
                    worst_anti,
                    np.abs(rep.gamma_minus[j] @ rep.gamma_plus[k]
                           + rep.gamma_minus[k] @ rep.gamma_plus[j] - target).max(),
                    np.abs(rep.gamma_plus[j] @ rep.gamma_minus[k]
                           + rep.gamma_plus[k] @ rep.gamma_minus[j] - target).max(),
                )
            worst_skew = max(
                worst_skew,
                np.abs(rep.gamma_plus[j].conj().T + rep.gamma_minus[j]).max(),
            )
    wall = time.perf_counter() - t0
    ok = worst_anti <= 1e-12 and worst_skew <= 1e-12 and wall < 5.0
    _report(1, "clifford n=1..10", ok,
            f"anti={worst_anti:.2e} skew={worst_skew:.2e} wall={wall:.2f}s")
    assert worst_anti <= 1e-12
    assert worst_skew <= 1e-12
    assert wall < 5.0


def test_criterion_2_weyl():
    # the k^m x k^m matrices come from the test oracle, dense or as sparse
    # rows; the library's own values are exact in the group algebra and must
    # read 0.0
    t0 = time.perf_counter()
    worst_idem = worst_angle = worst_exact = 0.0
    dims_ok = True
    for k in (2, 3, 4, 5):
        for lam in ("21", "22", "311"):
            ws = weyl.weyl_space(k, lam)
            # the squares from sparse rows: each row has at most 36 nonzeros
            for x in (weyl.projector_terms(lam), weyl.young_terms(lam)):
                defect, xn = square_defect(x, k)
                if xn > 0:
                    worst_idem = max(worst_idem, defect / xn)
            ym = terms_matrix(weyl.young_terms(lam), k)
            ybasis = dense_image_basis(ym)
            dims_ok = dims_ok and ws.dim == weyl.weyl_dim(k, lam) == ybasis.shape[1]
            if ws.dim:
                worst_angle = max(
                    worst_angle, float(principal_angles(ws.basis, ybasis).max())
                )
            exact = weyl.exact_checks(k, lam)
            worst_exact = max(worst_exact, exact["projector_idempotent"],
                              exact["symmetrizer_idempotent"], exact["image_equality"])
            dims_ok = dims_ok and exact["trace_c"] == exact["trace_y"] == ws.dim
    degenerate_ok = (
        weyl.weyl_space(2, "22").dim == 1 and weyl.weyl_space(2, "311").dim == 0
    )
    wall = time.perf_counter() - t0
    ok = (worst_idem <= 1e-10 and worst_angle <= 1e-8 and worst_exact == 0.0
          and dims_ok and degenerate_ok and wall < 30.0)
    _report(2, "weyl k=2..5", ok,
            f"idem={worst_idem:.2e} angle={worst_angle:.2e} exact={worst_exact:.1e} "
            f"dims_ok={dims_ok} wall={wall:.2f}s")
    assert worst_idem <= 1e-10
    assert worst_angle <= 1e-8
    assert worst_exact == 0.0
    assert dims_ok and degenerate_ok
    assert wall < 30.0


def _form_gap(direct, projector, source):
    # gap between the direct and the projector form of an operator, relative
    # to the output; an output below 1e-6 of its input is analytically zero
    # and its norm is roundoff, so there the gap is taken relative to the input
    scale = direct.norm()
    if scale < 1e-6 * source.norm():
        scale = source.norm()
    return (direct - projector).norm() / max(scale, 1e-300)


def test_criterion_3_complex_property():
    t0 = time.perf_counter()
    rngs = np.random.default_rng(3)
    worst_complex = worst_agree = 0.0
    for k in (2, 3, 4):
        for n in (2, 3):
            rep = build_clifford(n)
            for _ in range(25):
                f = random_field(rngs, k, n, "V0", degree=4, nterms=6)
                worst_complex = max(
                    worst_complex,
                    ops.d1(ops.d0(f, rep), rep).norm() / max(f.norm(), 1e-300),
                )
                F = random_field(rngs, k, n, "V1", degree=4, nterms=6)
                h = ops.d1(F, rep)
                worst_agree = max(worst_agree, _form_gap(h, ops.d1_projector(F, rep), F))
                if k >= 3:
                    Fn = max(F.norm(), 1e-300)
                    worst_complex = max(
                        worst_complex,
                        ops.d2p(h, rep).norm() / Fn,
                        ops.d2pp(h, rep).norm() / Fn,
                    )
                    hr = random_field(rngs, k, n, "V2", degree=2, nterms=4)
                    worst_agree = max(
                        worst_agree,
                        _form_gap(ops.d2p(hr, rep), ops.d2p_projector(hr, rep), hr),
                        _form_gap(ops.d2pp(hr, rep), ops.d2pp_projector(hr, rep), hr),
                    )
    wall = time.perf_counter() - t0
    ok = worst_complex <= 1e-9 and worst_agree <= 1e-10 and wall < 60.0
    _report(3, "complex property", ok,
            f"compose={worst_complex:.2e} agree={worst_agree:.2e} wall={wall:.2f}s")
    assert worst_complex <= 1e-9
    assert worst_agree <= 1e-10
    assert wall < 60.0


def test_criterion_4_ellipticity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_kernel = worst_homog = worst_inter = 0.0
    ranks_ok = True
    eig_records = {}
    for k, n in ((3, 2), (3, 3), (2, 2), (2, 3)):
        rep = build_clifford(n)
        # 100 unit frequencies with first block >= 0.3, in the rng order of
        # drawing and rejecting one at a time; one stacked bundle holds them
        xi = _unit_xi(rng, k, n, 100)
        bundle = symbols.build_bundle(rep, k, xi)
        ranks_ok = ranks_ok and bool(symbols.verify_exactness(bundle)[1].all())
        if bundle.has_order5:
            worst_kernel = max(worst_kernel, symbols.kernel_identity_check(bundle).max())
        scale = (np.linalg.norm(bundle.sigma1, axis=(-2, -1))
                 * np.linalg.norm(bundle.L1, axis=(-2, -1)))
        inter = symbols.intertwine_check(bundle) / np.maximum(scale, 1e-300)
        worst_inter = max(worst_inter, inter.max())
        for name, (lo, hi) in symbols.hodge_eig_bounds(bundle).items():
            eig_records[(k, n, name)] = [float(lo.min()), float(hi.max())]
        double = symbols.build_bundle(rep, k, 2.0 * xi[:3])
        for a, b in ((double.L0, bundle.L0[:3]), (double.L1, bundle.L1[:3]),
                     (double.L2, bundle.L2[:3])):
            if a.size:
                worst_homog = max(
                    worst_homog,
                    (np.abs(a - 16.0 * b).max(axis=(-2, -1))
                     / np.maximum(np.abs(b).max(axis=(-2, -1)), 1e-300)).max(),
                )
    pd_ok = all(rec[0] > 0 for rec in eig_records.values())
    wall = time.perf_counter() - t0
    ok = (ranks_ok and worst_kernel <= 1e-9 and pd_ok and worst_homog <= 1e-10
          and worst_inter <= 1e-10 and wall < 120.0)
    bounds_txt = "; ".join(
        f"{k}{n}:{name}=[{lo:.3g},{hi:.3g}]"
        for (k, n, name), (lo, hi) in sorted(eig_records.items())
    )
    _report(4, "ellipticity", ok,
            f"ranks_ok={ranks_ok} kernel={worst_kernel:.2e} homog={worst_homog:.2e} "
            f"inter={worst_inter:.2e} wall={wall:.2f}s eig {bounds_txt}")
    assert ranks_ok
    assert worst_kernel <= 1e-9
    assert pd_ok
    assert worst_homog <= 1e-10
    assert worst_inter <= 1e-10
    assert wall < 120.0


def test_criterion_5_solver():
    t0 = time.perf_counter()
    rep = build_clifford(2)
    u, metrics = solver.recover_bump(rep, 2, 2, 32, radius=0.6)
    sweep = solver.resolution_sweep(rep, 2, 2, (16, 24, 32), radius=0.6)
    errs = [row["recovery_rel_l2"] for row in sweep]
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    wall = time.perf_counter() - t0
    ok = (metrics["recovery_rel_l2"] <= 1e-6
          and metrics["dirac_residual_rel_l2"] <= 1e-8
          and metrics["hartogs"]["ratio"] <= 1e-6
          and monotone and wall < 600.0)
    _report(5, "solver", ok,
            f"recovery={metrics['recovery_rel_l2']:.2e} "
            f"residual={metrics['dirac_residual_rel_l2']:.2e} "
            f"exterior={metrics['hartogs']['ratio']:.2e} "
            f"sweep={[f'{e:.3g}' for e in errs]} wall={wall:.2f}s")
    assert metrics["recovery_rel_l2"] <= 1e-6
    assert metrics["dirac_residual_rel_l2"] <= 1e-8
    assert metrics["hartogs"]["ratio"] <= 1e-6
    assert monotone
    assert wall < 600.0


@pytest.mark.skipif(
    not os.environ.get("DIRACLAB_EXTENDED"),
    reason="optional extended configuration (set DIRACLAB_EXTENDED=1)",
)
def test_criterion_5_extended_nongating():
    rep = build_clifford(2)
    u, metrics = solver.recover_bump(rep, 3, 2, 12, radius=0.6)
    _report(5, "solver extended k=3", True,
            f"recovery={metrics['recovery_rel_l2']:.2e} (non-gating)")


def test_criterion_6_boundary():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst_tm = worst_pi1 = 0.0
    for k in (2, 3):
        for n in (2, 3):
            rep = build_clifford(n)
            tilt = np.zeros((k, n))
            tilt[0, 1] = 1.0
            tilt[1, 0] = 0.5
            charts = [bnd.flat_chart(k, n), bnd.tilted_chart(k, n, tilt)]
            basis = ops.monogenic_basis(rep, k, n, degree=3)
            for chart in charts:
                rpt = bnd.restrict_and_test(basis, chart, rep)
                worst_tm = max(
                    worst_tm,
                    float((np.maximum(rpt["z_residual"], rpt["zt_residual"])
                           / np.maximum(rpt["input_norm"], 1e-300)).max()),
                )
                draws = [random_field(rng, k, n, "V0", degree=3, nterms=5)
                         for _ in range(40)]
                Fs, Fps = draws[0::2], draws[1::2]
                scale = [F.norm() + Fp.norm() for F, Fp in zip(Fs, Fps)]
                worst_pi1 = max(
                    worst_pi1,
                    float((bnd.pi1_kernel_check(chart, rep, dense(Fs), dense(Fps))
                           / np.maximum(scale, 1e-300)).max()),
                )
    wall = time.perf_counter() - t0
    ok = worst_tm <= 1e-10 and worst_pi1 <= 1e-10 and wall < 30.0
    _report(6, "boundary", ok,
            f"tangential={worst_tm:.2e} pi1={worst_pi1:.2e} wall={wall:.2f}s")
    assert worst_tm <= 1e-10
    assert worst_pi1 <= 1e-10
    assert wall < 30.0


def test_criterion_7_determinism(capsys):
    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        report = json.loads(out)
        report.pop("timings")
        return code, json.dumps(report, sort_keys=True)

    verify_args = ["verify", "--scope", "ellipticity", "--k", "3", "--n", "2",
                   "--samples", "5", "--seed", "42"]
    code1, rep1 = run(verify_args)
    code2, rep2 = run(verify_args)
    solve_args = ["solve", "--k", "2", "--n", "2", "--N", "8"]
    code3, sol1 = run(solve_args)
    code4, sol2 = run(solve_args)
    ok = rep1 == rep2 and sol1 == sol2 and code1 == code2 == code3 == code4 == 0
    _report(7, "determinism", ok,
            f"verify identical={rep1 == rep2} solve identical={sol1 == sol2}")
    assert rep1 == rep2
    assert sol1 == sol2
