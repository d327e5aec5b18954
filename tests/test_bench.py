import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench", os.path.join(ROOT, "benchmarks", "bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_whole_runs_alternate_and_keep_every_run(monkeypatch):
    # all tier-1 runs first, then the verify runs in their own loop, the sides
    # taking turns to go first in each; one slow run moves the median of three
    # by nothing, and the quartiles show it
    bench = load_bench()
    order = []

    def fake_tier1(root):
        order.append(("tier1", root))
        return {"tier1_wall_s": 9.0, "tier1_exit": 0, "tier1_summary": "ok"}

    def fake_verify(root):
        order.append(("verify", root))
        slow = root == "b" and len(order) == 2 * bench.WHOLE_RUNS + 3
        return {"verify_all_wall_s": 1.7 if slow else 0.6 + 0.01 * len(order),
                "verify_all_exit": 0, "verify_all_peak_rss_mib": 70.0}

    monkeypatch.setattr(bench, "tier1_run", fake_tier1)
    monkeypatch.setattr(bench, "verify_run", fake_verify)
    out = bench.whole_runs([("change", "a"), ("base", "b")])
    assert bench.WHOLE_RUNS >= 3
    turns = ["a", "b", "b", "a", "a", "b"][:2 * bench.WHOLE_RUNS]
    assert order == [("tier1", r) for r in turns] + [("verify", r) for r in turns]
    for side in ("change", "base"):
        assert len(out[side]["tier1_runs"]) == len(out[side]["verify_runs"]) == bench.WHOLE_RUNS
    base = [r["verify_all_wall_s"] for r in out["base"]["verify_runs"]]
    wall = out["base"]["summary"]["verify_all_wall_s"]
    assert 1.7 in base and wall["median"] < 1.0 and wall["quartiles"][1] == 1.7
    assert out["change"]["summary"]["tier1_wall_s"] == {"median": 9.0, "quartiles": [9.0, 9.0]}


def test_base_at_another_path_length_runs_nothing(monkeypatch, capsys):
    # the peak RSS moves with the checkout's path length, so a base whose
    # absolute path is longer or shorter is refused before any run
    bench = load_bench()

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    for name in ("tier1_run", "verify_run", "perfbench"):
        monkeypatch.setattr(bench, name, no_run)
    for base in (bench.ROOT + "x", bench.ROOT[:-1]):
        with pytest.raises(SystemExit) as err:
            bench.main(["--label", "t", "--base", base, "--pairs", "1"])
        assert err.value.code == 2
        assert "must have an absolute path as long" in capsys.readouterr().err


def load_same_reports():
    spec = importlib.util.spec_from_file_location(
        "same_reports", os.path.join(ROOT, "benchmarks", "same_reports.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_reports_names_every_differing_command(monkeypatch, capsys):
    # timings may differ; a check value, a diagnostic, an exit code, a pass
    # flag or a non-JSON output that differs names its command, classified by
    # whether the verdicts (exit code, pass, each check's name, tolerance and
    # pass flag) agree, with the largest check value change and the largest
    # change of any numeric leaf outside timings, with its key path; one
    # fresh process runs per checkout
    same = load_same_reports()
    cmds = same.commands()
    assert len(cmds) == len(set(map(tuple, cmds))) == 74
    for k, n in (("5", "2"), ("4", "4")):
        assert ["verify", "--scope", "ellipticity", "--k", k, "--n", n, "--samples", "60",
                "--seed", "2"] in cmds
    assert ["solve", "--k", "2", "--n", "2", "--N", "32", "--break-compat"] in cmds
    assert ["solve", "--N", "16", "--sweep", "8,12,16"] in cmds
    assert ["verify", "--scope", "weyl", "--k", "6"] in cmds
    assert ["verify", "--scope", "all", "--seed", "3"] in cmds
    runs = []

    def fake_run(root, argvs):
        runs.append(root)
        out = []
        for i, argv in enumerate(argvs):
            check = {"name": "c", "value": 1.0, "tolerance": 1e-10, "pass": True}
            report = {"command": argv[0], "checks": [check], "pass": True,
                      "metrics": {"zero_mode_rel": 0.0, "sweep": [{"N": 8}]},
                      "timings": {"wall_s": float(len(runs))}}
            code = 0
            if root != same.ROOT:  # the base
                if i == 1:
                    check["value"] = 1.0 + 2**-52
                if i == 2:
                    report["metrics"]["zero_mode_rel"] = 8.4e-19
                if i == 4:
                    code = 1
                if i == 9:
                    check["pass"] = False
            text = "Traceback" if i == 7 and root != same.ROOT else json.dumps(report)
            out.append([code, text])
        return out

    monkeypatch.setattr(same, "run", fake_run)
    assert same.main(["--base", "elsewhere"]) == 1
    assert runs == [same.ROOT, os.path.abspath("elsewhere")]
    lines = capsys.readouterr().out.splitlines()
    kinds = {1: "same verdicts, largest |delta value| 2.22e-16, "
                "largest |delta| 2.22e-16 at checks[0].value",
             2: "same verdicts, largest |delta value| 0.00e+00, "
                "largest |delta| 8.40e-19 at metrics.zero_mode_rel",
             4: "verdicts differ, largest |delta value| 0.00e+00, largest |delta| 0.00e+00",
             7: "verdicts differ, largest |delta value| 0.00e+00, largest |delta| 0.00e+00",
             9: "verdicts differ, largest |delta value| 0.00e+00, largest |delta| 0.00e+00"}
    assert lines == [f"differs: {' '.join(cmds[i])}: {kind}" for i, kind in kinds.items()] + [
        f"{len(cmds)} commands, 5 differ"]
    monkeypatch.setattr(same, "run", lambda root, argvs: [[0, "{}"]] * len(argvs))
    assert same.main(["--base", "elsewhere"]) == 0
