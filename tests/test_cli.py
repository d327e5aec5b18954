import json

import numpy as np
import pytest

from diraclab.cli import (
    EXIT_COMPAT,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_RESOURCE,
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


def test_verify_complex_low_dimension(capsys):
    # the whole algebra degenerates gracefully at n=1 (one gamma, 1x1 blocks)
    code, report = run_cli(
        capsys, "verify", "--scope", "complex", "--k", "3", "--n", "1",
        "--samples", "3",
    )
    assert code == EXIT_PASS and report["pass"]


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
    # the solve's stage times and mode count live only in the timings block
    assert set(timings) == {"wall_s", "fft_s", "multiplier_s", "certify_s",
                            "anchor_s", "sweep_s", "modes"}
    assert timings["modes"] == 8**4
    assert all(timings[key] >= 0.0 for key in timings)
    assert not set(timings) & set(first["metrics"])


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
    drawn = _unit_xi(np.random.default_rng(5), 3, 2, 30, min_first_block=0.3)
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


def test_boundary_witnesses_replay(capsys):
    # each boundary check names the basis member or sample of its worst
    # value; a one-element stack of that input gives the reported value again
    from diraclab import boundary, build_clifford, dirac_ops, random_field
    from diraclab.cli import _boundary_charts

    k, n, samples, seed = 3, 2, 6, 5
    _, report = run_cli(capsys, "verify", "--scope", "boundary", "--k", str(k),
                        "--n", str(n), "--samples", str(samples), "--seed", str(seed))
    checks = {c["name"]: c for c in report["checks"]}
    rep = build_clifford(n)
    basis = dirac_ops.monogenic_basis(rep, k, n, degree=3)
    rng = np.random.default_rng(seed)
    for label, chart in _boundary_charts(k, n):
        # the charts draw their samples from one generator, in chart order
        draws = [random_field(rng, k, n, "V0", rep, degree=3, nterms=5)
                 for _ in range(2 * samples)]
        values = []
        for f in basis:
            rpt = boundary.restrict_and_test([f], chart, rep)
            values.append(max(rpt["z_residual"][0], rpt["zt_residual"][0])
                          / rpt["input_norm"][0])
        check = checks[f"tangential_monogenicity chart={label} k={k} n={n}"]
        assert_worst(check, values, check["witness"]["member"])
        values = [boundary.pi1_kernel_check(chart, rep, [F], [Fp])[0] / (F.norm() + Fp.norm())
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


def test_verify_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "verify", "--scope", "weyl", "--k", "3", "--out", str(out)
    )
    assert code == EXIT_PASS
    on_disk = json.loads(out.read_text())
    assert on_disk["command"] == "verify"


def test_complex_residuals_relative_to_input():
    # sample 12 at this seed has a D2'' output of norm ~3e-15 (pure roundoff)
    # from an input of norm ~14: residuals divided by that output's norm
    # would read ~1 although both operator routes are right
    checks = checks_complex(3, 3, 25, 3)
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
    # the corruption is mean-free, so the compatibility guard (not the
    # zero-frequency guard) is the one that rejects it
    code, report = run_cli(capsys, "solve", "--k", "2", "--n", "2", "--N", "8",
                           "--break-compat")
    assert code == EXIT_COMPAT
    assert report["error"] == "compatibility"
    assert report["detail"].startswith("compatibility defect too large")


def test_solve_memory_cap_exit_code(monkeypatch, capsys):
    monkeypatch.setenv("DIRACLAB_MEM_LIMIT_GIB", "0.0001")
    code = main(["solve", "--k", "2", "--n", "2", "--N", "16"])
    capsys.readouterr()
    assert code == EXIT_RESOURCE


def test_check_records_carry_identity_labels(capsys):
    _, report = run_cli(capsys, "verify", "--scope", "weyl", "--k", "2")
    for check in report["checks"]:
        assert check["certifies"]
        assert isinstance(check["certifies"], str)
    assert report["pass"] == all(c["pass"] for c in report["checks"])
