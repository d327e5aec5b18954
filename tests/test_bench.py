import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench", os.path.join(ROOT, "benchmarks", "bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_whole_runs_alternate_and_keep_every_run(monkeypatch):
    # several fresh-process runs per side, the sides taking turns to go
    # first; one slow run moves the median of three by nothing
    bench = load_bench()
    order = []

    def fake(root):
        order.append(root)
        slow = root == "b" and len(order) == 3
        return {"tier1_wall_s": 9.0, "tier1_exit": 0, "tier1_summary": "ok",
                "verify_all_wall_s": 1.7 if slow else 0.6 + 0.01 * len(order),
                "verify_all_exit": 0, "verify_all_peak_rss_mib": 70.0}

    monkeypatch.setattr(bench, "whole_run", fake)
    out = bench.whole_runs([("change", "a"), ("base", "b")])
    assert bench.WHOLE_RUNS >= 3
    assert order == ["a", "b", "b", "a", "a", "b"][:2 * bench.WHOLE_RUNS]
    assert [len(out[side]["runs"]) for side in ("change", "base")] == [bench.WHOLE_RUNS] * 2
    base = [r["verify_all_wall_s"] for r in out["base"]["runs"]]
    assert 1.7 in base and out["base"]["median"]["verify_all_wall_s"] < 1.0
    assert out["change"]["median"]["tier1_wall_s"] == 9.0
