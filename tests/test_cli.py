import json

import numpy as np
import pytest

from diraclab.cli import (
    EXIT_COMPAT,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_RESOURCE,
    EXIT_USAGE,
    checks_complex,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_clifford_sweeps_all_dimensions(capsys):
    code, report = run_cli(capsys, "verify", "--scope", "clifford")
    assert code == EXIT_PASS and report["pass"]
    names = [c["name"] for c in report["checks"]]
    assert "anticommutation n=1" in names
    assert "anticommutation n=10" in names


def test_clifford_checks_match_the_pairwise_loop(monkeypatch):
    # the batched anticommutation and skew-adjointness values equal the loop
    # over pairs (j, k) bit for bit, also on broken gammas whose defects are
    # nonzero Gaussian integers: the products stay exact
    from types import SimpleNamespace

    from diraclab import build_clifford, cli

    def broken(n):
        rep = build_clifford(n)
        gp, gm = rep.gamma_plus.copy(), rep.gamma_minus.copy()
        # the same entry of both blocks of gamma_{n-1}: the largest defect
        # moves if either check transposes the wrong axes
        gp[-1, 0, -1] += 1 + 2j
        gm[-1, 0, -1] += 1j
        return SimpleNamespace(n=n, s_dim=rep.s_dim, gamma_plus=gp, gamma_minus=gm)

    monkeypatch.setattr(cli, "build_clifford", broken)
    checks = {c["name"]: c["value"] for c in cli.checks_clifford(6, 0)}
    for n in range(1, 7):
        rep = broken(n)
        gp, gm, eye = rep.gamma_plus, rep.gamma_minus, np.eye(rep.s_dim)
        anti = max(np.abs(a[j] @ b[k] + a[k] @ b[j] + (2.0 * eye if j == k else 0.0)).max()
                   for j in range(n) for k in range(n) for a, b in ((gm, gp), (gp, gm)))
        skew = max(np.abs(gp[j].conj().T + gm[j]).max() for j in range(n))
        assert anti > 0 and checks[f"anticommutation n={n}"] == anti
        assert skew > 0 and checks[f"skew_adjoint n={n}"] == skew


def test_verify_complex_low_dimension(capsys):
    # the whole algebra degenerates gracefully at n=1 (one gamma, 1x1 blocks)
    code, report = run_cli(
        capsys, "verify", "--scope", "complex", "--k", "3", "--n", "1",
        "--samples", "3",
    )
    assert code == EXIT_PASS and report["pass"]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [("verify", "--scope", "weyl", "--k", "2"),
                                  ("solve", "--N", "8")])
def test_reports_are_strict_json(argv, capsys):
    # NaN and Infinity are Python's JSON extensions, which a strict parser
    # refuses; k = 2 covers the rank-0 (3,1,1) module
    main(list(argv))
    report = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert report["checks"]


def test_solve_malformed_center_is_usage_error(capsys):
    code = main(["solve", "--k", "2", "--n", "2", "--N", "8",
                 "--center", "1.0,2.0"])
    capsys.readouterr()
    assert code == 2


def test_verify_weyl_k2(capsys):
    code, report = run_cli(capsys, "verify", "--scope", "weyl", "--k", "2")
    assert code == EXIT_PASS and report["pass"]
    dims = {
        c["name"]: c["measured"]
        for c in report["checks"]
        if c["name"].startswith("module_dimension")
    }
    assert dims == {
        "module_dimension lam=21 k=2": 2,
        "module_dimension lam=22 k=2": 1,
        "module_dimension lam=311 k=2": 0,
    }


def test_verify_complex_small(capsys):
    code, report = run_cli(
        capsys, "verify", "--scope", "complex", "--k", "3", "--n", "2",
        "--samples", "5", "--seed", "7",
    )
    assert code == EXIT_PASS
    names = [c["name"] for c in report["checks"]]
    assert any(name.startswith("d2pp_after_d1") for name in names)
    assert all(c["pass"] for c in report["checks"])
    # for k = 2 the order-5 branch does not exist and has no records
    code, report = run_cli(
        capsys, "verify", "--scope", "complex", "--k", "2", "--n", "2",
        "--samples", "5", "--seed", "7",
    )
    assert code == EXIT_PASS
    names = [c["name"].split()[0] for c in report["checks"]]
    assert "d1_after_d0" in names
    assert not {"d2p_after_d1", "d2pp_after_d1"} & set(names)


def test_verify_rejects_bad_ranges(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--k", "1"])
    assert err.value.code == 2
    # a suite over random samples certifies nothing without one
    for scope in ("complex", "ellipticity", "boundary"):
        code, report = run_cli(capsys, "verify", "--scope", scope, "--samples", "0")
        assert code == 2 and report["error"] == "usage", scope


def test_reports_deterministic(capsys):
    verify = [["verify", "--scope", scope, "--k", k, "--n", "2", "--samples", "4",
               "--seed", "11"]
              for scope, k in (("ellipticity", "2"), ("boundary", "2"), ("complex", "3"))]
    solve = ["solve", "--k", "2", "--n", "2", "--N", "8", "--sweep", "8,10"]
    for args in (*verify, solve):
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        timings = first.pop("timings")
        second.pop("timings")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    # the solve's stage times, mode count, part count, transform and region
    # counts and peak resident set live only in the timings block
    assert set(timings) == {"wall_s", "data_s", "fft_s", "multiplier_s", "certify_s",
                            "anchor_s", "residual_s", "sweep_s", "sweep_rows_s", "modes",
                            "workers", "fft_planes", "regions", "ru_maxrss_kib"}
    assert timings["modes"] == 8**4
    # the main solve transforms five planes: phi forward, u_hat back, and for
    # the residual check u forward and f_hat - sigma0 u_hat's two back; the
    # solve of each of the two sweep rows three
    assert timings["fft_planes"] == 5 + 2 * 3
    assert type(timings["regions"]) is int and timings["regions"] > 0
    rows = timings.pop("sweep_rows_s")
    assert len(rows) == 2 and all(s >= 0.0 for s in rows)
    assert sum(rows) <= timings["sweep_s"]
    assert all(timings[key] >= 0.0 for key in timings)
    assert not set(timings) & set(first["metrics"])


def test_report_key_order_is_fixed(capsys):
    # both reports open with the tool, the command and its parameters, the
    # solve's metrics next, then the checks, pass and timings, which open with
    # the wall time and close with the peak resident set; same_reports.py
    # compares reports with sort_keys, so it cannot see an order change
    head, tail = ["tool", "version", "command", "parameters"], ["checks", "pass", "timings"]
    _, verify = run_cli(capsys, "verify", "--scope", "weyl", "--k", "2")
    _, solve = run_cli(capsys, "solve", "--N", "8")
    assert list(verify) == head + tail
    assert list(solve) == head + ["metrics"] + tail
    assert list(verify["parameters"]) == ["scope", "k", "n", "samples", "seed"]
    assert list(solve["parameters"]) == ["k", "n", "N", "L", "radius", "tol", "center",
                                         "sweep", "break_compat"]
    assert list(verify["timings"]) == ["wall_s", "suite_s", "ru_maxrss_kib"]
    assert list(solve["timings"])[0] == "wall_s"
    assert list(solve["timings"])[-2:] == ["modes", "ru_maxrss_kib"]


def test_verify_timings_per_suite(capsys):
    # per-suite seconds and the peak resident set live only in timings
    _, single = run_cli(capsys, "verify", "--scope", "weyl", "--k", "2")
    assert set(single["timings"]) == {"wall_s", "suite_s", "ru_maxrss_kib"}
    assert set(single["timings"]["suite_s"]) == {"weyl"}
    assert single["timings"]["ru_maxrss_kib"] > 0
    _, every = run_cli(capsys, "verify", "--scope", "all", "--samples", "1")
    suites = every["timings"]["suite_s"]
    assert list(suites) == ["clifford", "weyl", "complex", "ellipticity", "boundary"]
    assert 0.0 <= sum(suites.values()) <= every["timings"]["wall_s"]


def test_ellipticity_witnesses_replay(capsys):
    # each check names the sample and frequency of its worst value; a
    # single-frequency bundle at that xi gives the reported value again
    from diraclab import build_clifford, symbols
    from diraclab.cli import _unit_xi

    _, report = run_cli(capsys, "verify", "--scope", "ellipticity", "--k", "3",
                        "--n", "2", "--samples", "30", "--seed", "5")
    checks = {c["name"].split()[0]: c for c in report["checks"]}
    drawn = _unit_xi(np.random.default_rng(5), 3, 2, 30)
    rep = build_clifford(2)

    def replay(witness):
        assert witness["xi"] == drawn[witness["sample"]].tolist()
        return symbols.build_bundle(rep, 3, np.array(witness["xi"]))

    positive = checks["hodge_positive"]
    assert set(positive["witness"]) == {"L0", "L1", "L2"}
    for name, witness in positive["witness"].items():
        lo, _ = symbols.hodge_eig_bounds(replay(witness))[name]
        assert abs(lo - positive["eig_min"][name]) <= 1e-12
    for name, check in (("kernel_identity", symbols.kernel_identity_check),
                        ("green_inverse", symbols.green_inverse_residual)):
        value = check(replay(checks[name]["witness"]))
        assert abs(value - checks[name]["value"]) <= 1e-12
    b = replay(checks["symbol_complex"]["witness"])
    comp = max(np.abs(b.sigma1 @ b.sigma0).max(), np.abs(b.sigma2p @ b.sigma1).max(),
               np.abs(b.sigma2pp @ b.sigma1).max())
    assert abs(comp - checks["symbol_complex"]["value"]) <= 1e-12


def assert_worst(check, replayed, witness):
    # the witness replays the reported value, and no input has a larger one
    assert abs(replayed[witness] - check["value"]) <= 1e-12 * check["value"]
    assert max(replayed) <= check["value"] * (1 + 1e-12)


@pytest.mark.parametrize("k, n, N", [(2, 2, 12), (2, 3, 6)])
def test_solve_witnesses_replay(k, n, N, capsys, tmp_path):
    # bump_recovery names the grid point and component of the largest
    # |u - phi|, exterior_vanishing those of the largest exterior |u|; the
    # dumped solution and the bump rebuilt from the report's parameters give
    # both again bit for bit, and the exterior one the check's value
    from diraclab import build_clifford, solver

    path = tmp_path / "u.bin"
    code, report = run_cli(capsys, "solve", "--k", str(k), "--n", str(n), "--N", str(N),
                           "--out", str(path))
    assert code == EXIT_PASS
    checks, metrics = {c["name"]: c for c in report["checks"]}, report["metrics"]
    cell, radius = report["parameters"]["L"], report["parameters"]["radius"]
    center = np.full(k * n, cell / 2)
    u = solver.load_field(path)
    phi = solver.make_bump(build_clifford(n), k, n, N, cell, center, radius)
    diff = u.planes - phi.planes
    mod2 = diff.real**2 + diff.imag**2
    at = checks["bump_recovery"]["witness"]
    assert at == metrics["recovery_witness"]
    assert mod2[(at["component"], *at["point"])] == mod2.max() > 0
    at, hartogs = checks["exterior_vanishing"]["witness"], metrics["hartogs"]
    assert at == metrics["exterior_witness"]
    assert solver.exterior_mask(u, center, radius).reshape(u.planes.shape[1:])[tuple(at["point"])]
    assert np.abs(u.planes[(at["component"], *at["point"])]) == hartogs["exterior_max"]
    assert hartogs["exterior_max"] / hartogs["global_max"] == checks["exterior_vanishing"]["value"]


def test_boundary_witnesses_replay(capsys):
    # each boundary check names the basis member or sample of its worst
    # value; a one-element stack of that input gives the reported value again
    from diraclab import boundary, build_clifford, dirac_ops
    from diraclab.cli import _boundary_charts

    from conftest import dense, members, random_field

    k, n, samples, seed = 3, 2, 6, 5
    _, report = run_cli(capsys, "verify", "--scope", "boundary", "--k", str(k),
                        "--n", str(n), "--samples", str(samples), "--seed", str(seed))
    checks = {c["name"]: c for c in report["checks"]}
    rep = build_clifford(n)
    basis = dirac_ops.monogenic_basis(rep, k, n, degree=3)
    rng = np.random.default_rng(seed)
    for label, chart in _boundary_charts(k, n):
        # the charts draw their samples from one generator, in chart order
        draws = [random_field(rng, k, n, "V0", degree=3, nterms=5)
                 for _ in range(2 * samples)]
        values = []
        for f in members(basis):
            rpt = boundary.restrict_and_test(dense([f]), chart, rep)
            values.append(max(rpt["z_residual"][0], rpt["zt_residual"][0])
                          / rpt["input_norm"][0])
        check = checks[f"tangential_monogenicity chart={label} k={k} n={n}"]
        assert_worst(check, values, check["witness"]["member"])
        values = [boundary.pi1_kernel_check(chart, rep, dense([F]), dense([Fp]))[0]
                  / (F.norm() + Fp.norm())
                  for F, Fp in zip(draws[0::2], draws[1::2])]
        check = checks[f"pi1_kernel chart={label} k={k} n={n}"]
        assert_worst(check, values, check["witness"]["sample"])


COMPLEX_KEYS = {"d1_after_d0": "d1d0", "adjoint_laplacian": "laplace",
                "d2p_after_d1": "d2pd1", "d2pp_after_d1": "d2ppd1",
                "form_agreement": "agree", "output_membership": "member",
                "delta_commutation": "commute"}


def test_complex_witnesses_replay(capsys):
    # each complex check names the sample of its worst value; the one-sample
    # oracle, re-drawing the samples at the report's seed, gives that value
    from conftest import complex_sample
    from diraclab import build_clifford

    k, n, samples, seed = 3, 2, 8, 9
    _, report = run_cli(capsys, "verify", "--scope", "complex", "--k", str(k),
                        "--n", str(n), "--samples", str(samples), "--seed", str(seed))
    rng = np.random.default_rng(seed)
    rep = build_clifford(n)
    drawn = [complex_sample(rng, k, n, rep) for _ in range(samples)]
    assert [c["name"].split()[0] for c in report["checks"]] == list(COMPLEX_KEYS)
    for check in report["checks"]:
        key = COMPLEX_KEYS[check["name"].split()[0]]
        assert_worst(check, [v[key] for v in drawn], check["witness"]["sample"])


def test_batched_complex_values_match_oracle():
    # `verify --scope all --seed 0` runs these six (k, n) pairs at 25 samples;
    # the one-pass values equal the one-sample oracle's bit for bit, and each
    # check's witness is the oracle's argmax
    from conftest import complex_sample
    from diraclab import build_clifford
    from diraclab.cli import complex_values

    samples, seed = 25, 0
    for k, n in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)):
        rng = np.random.default_rng(seed)
        rep = build_clifford(n)
        oracle = [complex_sample(rng, k, n, rep) for _ in range(samples)]
        values = complex_values(k, n, samples, seed)
        assert set(values) == set(oracle[0])
        for key, batched in values.items():
            ref = np.array([v[key] for v in oracle])
            assert batched.tobytes() == ref.tobytes(), (k, n, key)
        for check in checks_complex(k, n, samples, seed):
            ref = [v[COMPLEX_KEYS[check["name"].split()[0]]] for v in oracle]
            assert check["witness"]["sample"] == int(np.argmax(ref))
            assert check["value"] == max(ref)


def test_complex_blocks_continue_the_draws(monkeypatch):
    # past one block the next block goes on drawing from the same rng: with
    # blocks of 3, eight samples still equal the oracle's bit for bit
    from conftest import complex_sample
    from diraclab import build_clifford, cli

    k, n, samples, seed = 3, 2, 8, 4
    monkeypatch.setattr(cli, "COMPLEX_BLOCK", 3)
    rng = np.random.default_rng(seed)
    rep = build_clifford(n)
    oracle = [complex_sample(rng, k, n, rep) for _ in range(samples)]
    for key, batched in cli.complex_values(k, n, samples, seed).items():
        assert batched.tobytes() == np.array([v[key] for v in oracle]).tobytes(), key


class CountingRng:
    """A generator that records the name of every call made on it."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            self._log.append(name)
            return method(*args, **kwargs)

        return call


@pytest.mark.parametrize("k", [2, 3])
def test_each_block_draws_with_one_rng_call(k, monkeypatch):
    # a complex block of any size, and a boundary chart, make one rng.random
    # call; 70 samples are two complex blocks, and the boundary suite has two
    # charts
    from diraclab import cli

    log, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: CountingRng(default_rng(seed), log))
    cli.complex_values(k, 2, 70, 3)
    assert log == ["random", "random"]
    del log[:]
    cli.checks_boundary(k, 2, 4, 3)
    assert log == ["random", "random"]


def test_verify_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "verify", "--scope", "weyl", "--k", "3", "--out", str(out)
    )
    assert code == EXIT_PASS
    on_disk = json.loads(out.read_text())
    assert on_disk["command"] == "verify"


def output_error(capsys, *argv):
    """Run a command whose output path is unwritable: exit 2 and one JSON
    line naming the output error, with no report printed."""
    code = main(list(argv))
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_USAGE and len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "output" and "No such file or directory" in error["detail"]


def test_verify_unwritable_out(tmp_path, monkeypatch, capsys):
    # the path is checked before the suite runs
    from diraclab import cli

    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "checks_weyl", no_suite)
    output_error(capsys, "verify", "--scope", "weyl", "--k", "3",
                 "--out", str(tmp_path / "missing" / "report.json"))


@pytest.mark.parametrize("flag", ["--out", "--report-out"])
def test_solve_unwritable_out(flag, tmp_path, monkeypatch, capsys):
    # both the field dump and the report are checked before any solve runs
    from diraclab import solver

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(solver, "recover_bump", no_solve)
    monkeypatch.setattr(solver, "resolution_sweep", no_solve)
    output_error(capsys, "solve", "--k", "2", "--n", "2", "--N", "8", "--sweep", "4,8",
                 flag, str(tmp_path / "missing" / "out"))
    assert not (tmp_path / "missing").exists()


def test_output_that_is_a_directory(tmp_path, capsys):
    code = main(["verify", "--scope", "weyl", "--k", "2", "--out", str(tmp_path)])
    error = json.loads(capsys.readouterr().out)
    assert code == EXIT_USAGE and error["error"] == "output"
    assert "Is a directory" in error["detail"]


def test_complex_residuals_relative_to_input():
    # sample 4 at this seed has a D2'' output of norm ~4e-15 (pure roundoff)
    # from an input of norm ~16: residuals divided by that output's norm
    # would read ~1 (0.95 for form agreement) although both operator routes
    # are right
    checks = checks_complex(3, 3, 25, 1)
    assert all(c["pass"] for c in checks), checks


def test_solve_small_grid(tmp_path, capsys):
    dump = tmp_path / "u.bin"
    code, report = run_cli(
        capsys, "solve", "--k", "2", "--n", "2", "--N", "8", "--out", str(dump)
    )
    assert code == EXIT_PASS and report["pass"]
    assert report["metrics"]["recovery_rel_l2"] <= 1e-6
    assert dump.exists()
    from diraclab.solver import load_field

    u = load_field(dump)
    assert u.N == 8 and u.space == "V0"


def test_solve_break_compat_exit_code(capsys):
    # the corruption (f's last block negated) is mean-free, so the
    # compatibility guard (not the zero-frequency guard) is the one that
    # rejects it
    code, report = run_cli(capsys, "solve", "--k", "2", "--n", "2", "--N", "8",
                           "--break-compat")
    assert code == EXIT_COMPAT
    assert report["error"] == "compatibility"
    assert report["detail"].startswith("compatibility defect too large")


def test_solve_break_compat_under_a_loose_tol_fails_its_residual(capsys):
    # a --tol above the defect lets the broken data through: the solve runs
    # on f = (nabla_0 phi, -nabla_1 phi), whose mean is exactly 0, and D0 u
    # misses f, so the residual check fails (exit 1) and names its worst
    # point; a second run writes the same report outside its timings
    argv = ("solve", "--k", "2", "--n", "2", "--N", "16", "--break-compat", "--tol", "2")
    reports = []
    for _ in range(2):
        code, report = run_cli(capsys, *argv)
        assert code == EXIT_FAIL and not report["pass"]
        report.pop("timings")
        reports.append(report)
    assert reports[0] == reports[1]
    metrics = reports[0]["metrics"]
    assert metrics["zero_mode_rel"] == 0.0 and 0.7 <= metrics["compat_rel"] <= 0.95
    residual, = (c for c in reports[0]["checks"] if c["name"] == "dirac_residual")
    assert not residual["pass"] and set(residual["witness"]) == {"point", "component"}


@pytest.mark.parametrize("sweep", ["0,8", "3,8", "1,2", "8,x", "8,,12", "8.0", "12,2",
                                   "16,8", "8,8"])
def test_solve_rejects_bad_sweep_before_solving(sweep, monkeypatch, capsys):
    # each sweep resolution obeys the --N rule (an integer >= 4), and they
    # increase strictly, as sweep_monotone reads them: a bad sweep is a usage
    # error (exit 2) before any solve runs
    from diraclab import solver

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(solver, "recover_bump", no_solve)
    monkeypatch.setattr(solver, "resolution_sweep", no_solve)
    with pytest.raises(SystemExit) as err:
        main(["solve", "--k", "2", "--n", "2", "--N", "8", "--sweep", sweep])
    assert err.value.code == 2
    assert "--sweep takes comma separated integers >= 4" in capsys.readouterr().err


def test_solve_memory_cap_exit_code(monkeypatch, capsys):
    monkeypatch.setenv("DIRACLAB_MEM_LIMIT_GIB", "0.0001")
    code = main(["solve", "--k", "2", "--n", "2", "--N", "16"])
    capsys.readouterr()
    assert code == EXIT_RESOURCE


@pytest.mark.parametrize("flags, message", [
    (("--tol", "nan", "--break-compat"), "--tol must be finite and > 0"),
    (("--tol", "0"), "--tol must be finite and > 0"),
    (("--L", "nan"), "--L must be finite and > 0"),
    (("--L", "inf"), "--L must be finite and > 0"),
    (("--radius", "nan"), "--radius must be finite and > 0"),
    (("--radius", "-0.5"), "--radius must be finite and > 0"),
    (("--center", "nan,3,3,3"), "--center takes comma separated finite numbers"),
    (("--center", "3,inf,3,3"), "--center takes comma separated finite numbers"),
    (("--center", "3,x,3,3"), "--center takes comma separated finite numbers"),
])
def test_solve_rejects_nonfinite_flags_before_solving(flags, message, monkeypatch, capsys):
    # a nan --tol would switch the compatibility guard off (no `> nan` is
    # true), and nan or inf geometry would run a meaningless solve: each is a
    # usage error (exit 2) naming its flag before any grid is built
    from diraclab import solver

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(solver, "recover_bump", no_solve)
    with pytest.raises(SystemExit) as err:
        main(["solve", "--k", "2", "--n", "2", "--N", "8", *flags])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("scope", ["weyl", "ellipticity"])
def test_verify_weyl_memory_cap_exit_code(scope, monkeypatch, capsys):
    # the Weyl bases are dense (k^m, dim) arrays: over the cap, verify exits 3
    # as solve does; cleared caches make k = 5 build again, and the cap
    # refuses before anything large is allocated
    from diraclab import symbols, weyl

    caches = (weyl.weyl_space, symbols._sigma1_constants, symbols._order5_constants)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setenv("DIRACLAB_MEM_LIMIT_GIB", "0.0001")
    try:
        code, report = run_cli(capsys, "verify", "--scope", scope, "--k", "5")
    finally:
        for cache in caches:
            cache.cache_clear()
    assert code == EXIT_RESOURCE
    assert report["error"] == "resource-limit"
    assert report["detail"].startswith("Weyl module")


def test_verify_complex_memory_cap_exit_code(monkeypatch, capsys):
    # the derivative stacks grow with k: over the cap, counted for the
    # stack-sized arrays that d2pp holds at once, verify exits 3 with its
    # JSON error before the stack is allocated
    monkeypatch.setenv("DIRACLAB_MEM_LIMIT_GIB", "0.0001")
    code, report = run_cli(capsys, "verify", "--scope", "complex", "--k", "4", "--n", "2",
                           "--samples", "4")
    assert code == EXIT_RESOURCE
    assert report["error"] == "resource-limit"
    assert report["detail"].startswith("derivative stack")


@pytest.mark.parametrize("argv, target", [
    (("solve", "--k", "2", "--n", "2", "--N", "8"), "solver._certify_recovery_identity"),
    (("verify", "--scope", "ellipticity", "--k", "3", "--samples", "2"),
     "symbols.kernel_identity_check"),
])
def test_failed_certification_exit_code(monkeypatch, capsys, argv, target):
    # a certification's ArithmeticError is exit 1 with an error record, not
    # a traceback
    import diraclab

    module, name = target.split(".")

    def fail(*args):
        raise ArithmeticError("certification failed")

    monkeypatch.setattr(getattr(diraclab, module), name, fail)
    code, report = run_cli(capsys, *argv)
    assert code == EXIT_FAIL
    assert report == {"error": "certification", "detail": "certification failed"}


def test_check_records_carry_identity_labels(capsys):
    _, report = run_cli(capsys, "verify", "--scope", "weyl", "--k", "2")
    for check in report["checks"]:
        assert check["certifies"]
        assert isinstance(check["certifies"], str)
    assert report["pass"] == all(c["pass"] for c in report["checks"])
