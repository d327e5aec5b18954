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


def test_verify_order5_guard_exits_usage():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--scope", "complex", "--k", "2", "--n", "2", "--with-d2"])
    assert err.value.code == 2


def test_verify_rejects_bad_ranges():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--k", "1"])
    assert err.value.code == 2


def test_reports_deterministic(capsys):
    args = ["verify", "--scope", "ellipticity", "--k", "2", "--n", "2",
            "--samples", "4", "--seed", "11"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    first.pop("timings")
    second.pop("timings")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


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
    checks = checks_complex(3, 3, 25, 3, True)
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
    code = main(["solve", "--k", "2", "--n", "2", "--N", "8", "--break-compat"])
    capsys.readouterr()
    assert code == EXIT_COMPAT


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
