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
