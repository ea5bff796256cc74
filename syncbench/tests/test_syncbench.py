"""Unit tests of the benchmark's own logic (no simulator needed).

    python3 -m pytest syncbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import common  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# ------------------------------ tail percentile ------------------------- #

@pytest.mark.parametrize("n, pct", [
    (19, 0.0), (20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
    (1000, 99.0), (10_000, 99.9), (100_000, 99.99)])
def test_tail_keeps_ten_samples_beyond(n, pct):
    values = [float(i) for i in range(n)]
    got_pct, value, count = common.tail(values)
    assert got_pct == pct
    assert count == n
    if pct:
        beyond = sum(v > value for v in values)
        assert beyond >= common.TAIL_MIN_BEYOND
        # The next ladder step up would leave fewer than ten beyond.
        higher = [p for p in common.TAIL_LADDER if p > pct]
        if higher:
            rank = -(-higher[0] * n // 100)
            assert n - rank < common.TAIL_MIN_BEYOND
    else:
        assert value == 0.0


def test_tail_ignores_input_order():
    values = [float(i) for i in range(500)]
    assert common.tail(values) == common.tail(values[::-1])


# -------------------------------- self time ----------------------------- #

def root_wall(spans):
    return sum(end - start for _n, start, end, parent, _op in spans
               if parent < 0)


def test_self_times_sum_exactly_to_root_wall():
    spans = [
        ["op", 0, 1000, -1, 0],
        ["core.measure", 100, 700, 0, 0],
        ["core.prime", 150, 300, 1, 0],
        ["core.measure", 320, 500, 1, 0],
        ["experiments.sweep", 720, 990, 0, 0],
        ["op", 2000, 2600, -1, 1],
        ["core.measure", 2001, 2599, 5, 1],
    ]
    own = tracing.self_times(spans)
    assert sum(own.values()) == root_wall(spans) == 1600
    assert own["core.prime"] == 150
    assert own["core.measure"] == (600 - 150 - 180) + 180 + 598


def test_tracer_wraps_and_restores():
    class Layer:
        def leaf(self, x):
            return x + 1

        def outer(self, x):
            return self.leaf(x) * 2

    original = Layer.__dict__["outer"]
    tracer = tracing.Tracer()
    tracer.install([(Layer, "outer", "experiments.sweep"),
                    (Layer, "leaf", "core.measure")])
    for op_id in range(3):
        with tracer.op(op_id):
            assert Layer().outer(op_id) == 2 * (op_id + 1)
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original
    own = tracing.self_times(tracer.spans)
    assert set(own) == {"op", "experiments.sweep", "core.measure"}
    assert sum(own.values()) == root_wall(tracer.spans)
    assert tracer.calls == {"Layer.outer": 3, "Layer.leaf": 3}
    metrics = run.layer_metrics(own, 3)
    parts = sum(v for k, v in metrics.items() if k != "traced_op_ms")
    assert parts == pytest.approx(metrics["traced_op_ms"], rel=1e-12)
    # Layers without spans are reported, as measured zeros.
    assert set(metrics) == set(run.SPAN_METRIC.values()) | {"traced_op_ms"}
    assert metrics["service.submit_ms"] == 0.0


def test_tracer_hooks_see_each_call():
    class Pool:
        def execute(self, x):
            return {"x": x}

    tracer = tracing.Tracer()
    seen = []

    def leave(index, result):
        seen.append(tracer.spans[index][0])
        return {**result, "left": True}

    tracer.install([(Pool, "execute", "service.ipc")], hooks={
        "service.ipc": (lambda: seen.append("enter"), leave)})
    with tracer.op(0):
        assert Pool().execute(1) == {"x": 1, "left": True}
    tracer.uninstall()
    assert seen == ["enter", "service.ipc"]


def test_per_layer_reports_every_metric_on_any_workload():
    own = {"op": 1_000_000, "core.measure": 3_000_000}
    counters = {"engine.measurements": 10, "engine.attempts": 40,
                "engine.retries": 4}
    out = run.per_layer(own, 2, counters, {}, [1.5, 2.5], [1.0] * 5)
    assert set(out) == set(run.PER_LAYER)
    assert out["core.attempts_per_measurement"] == 4.0
    assert out["core.retry_ratio"] == 0.1
    assert out["traced_op_ms"] == 2.0 and out["untraced_op_ms"] == 2.0
    assert out["cuda.passes"] == 0.0 and out["service.requests"] == 0.0


# ---------------------------------- ratios ------------------------------ #

def test_ratio_is_reported_with_its_base():
    assert common.ratio_with_base("x.hit_ratio", 3, 4, "x.lookups") == {
        "x.hit_ratio": 0.75, "x.lookups": 4.0}
    assert common.ratio_with_base("x.hit_ratio", 0, 0, "x.lookups") == {
        "x.hit_ratio": 0.0, "x.lookups": 0.0}


def test_every_ratio_metric_has_a_reported_base():
    ratios = {name for name, unit in run.PER_LAYER.items()
              if unit in ("ratio", "us")}
    assert ratios == set(run.RATIO_BASES)
    for base in run.RATIO_BASES.values():
        assert base in run.PER_LAYER


def test_benchmark_json_lists_every_metric():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


# ------------------------------ correctness gate ------------------------ #

def _fake_matrix_spawn(digest):
    def spawn(script, args):
        assert script == "matrix_child.py"
        return 0.25, {"op_ms": [1500.0, 600.0, 610.0],
                      "unit_ms": [100.0] * 18, "units": 576,
                      "digests": [digest] * 3, "rss_mb": 70.0}
    return spawn


def _matrix_run(tmp_path):
    args = type("Args", (), {"seed": 3, "seconds": 0.0, "trace": 0})()
    return run.Run(args, tmp_path)


def test_pinned_digest_passes(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "spawn", _fake_matrix_spawn(run.MATRIX_DIGEST))
    bench = _matrix_run(tmp_path)
    run.run_matrix(bench)
    assert bench.failed == 0 and bench.attempted == 3


def test_tampered_pinned_digest_turns_correct_false(monkeypatch, tmp_path,
                                                   capsys):
    monkeypatch.setattr(run, "spawn", _fake_matrix_spawn(run.MATRIX_DIGEST))
    monkeypatch.setattr(run, "MATRIX_DIGEST", "0" * 64)
    monkeypatch.setattr(run, "warm_bytecode", lambda: None)
    monkeypatch.setattr(run, "apply_program_env", lambda: None)
    monkeypatch.setattr(run.signal, "signal", lambda *args: None)
    monkeypatch.setattr(run, "RUNS_DIR", tmp_path / "runs")
    assert run.main(["--workload", "matrix", "--seed", "1",
                     "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 3 and result["attempted"] == 3
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_canonical_bytes_sees_float_and_array_changes():
    np = pytest.importorskip("numpy")
    a = {"cycles": 1.0, "values": np.arange(4)}
    assert common.canonical_bytes(a) == common.canonical_bytes(
        {"values": np.arange(4), "cycles": 1.0})
    assert common.canonical_bytes(a) != common.canonical_bytes(
        {"cycles": 1.0 + 2 ** -40, "values": np.arange(4)})
    assert common.canonical_bytes(a) != common.canonical_bytes(
        {"cycles": 1.0, "values": np.arange(4) * 2})


def test_program_env_drops_tier_switches(monkeypatch):
    monkeypatch.setenv("SYNCPERF_DISPATCH", "off")
    monkeypatch.setenv("SYNCPERF_ENGINE", "reference")
    monkeypatch.setenv("SYNCPERF_PLAN_CACHE", "/nonexistent")
    env = common.program_env()
    assert not [k for k in env if k.startswith("SYNCPERF_")]
    assert env["PYTHONPATH"] == str(common.ROOT / "src")


# -------------------------------- steadiness ---------------------------- #

def test_steady_fails_a_move_in_either_direction():
    import steady
    assert steady.verdict(0.05, +0.30, 0.25) == "FAIL MOVED"
    assert steady.verdict(0.05, -0.30, 0.25) == "FAIL MOVED"
    assert steady.verdict(0.05, -0.20, 0.25) == "ok"


def test_steady_checks_the_spread_of_setup_s(capsys):
    import steady
    spec = {"end_to_end": [{"name": "setup_s", "bound": 0.25},
                           {"name": "cold_ms", "bound": 0.25}]}

    def runs(values):
        return [{"metrics": {"setup_s": {"value": v}, "cold_ms":
                             {"value": 10.0}}} for v in values]

    steady_sets = {"matrix": [runs([1.0, 1.0, 1.0, 1.0]),
                              runs([1.0, 1.0, 1.0, 1.0])]}
    assert steady.report(spec, steady_sets)
    wide = {"matrix": [runs([0.5, 1.0, 1.0, 1.5]),
                       runs([1.0, 1.0, 1.0, 1.0])]}
    assert not steady.report(spec, wide)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[1] == "setup_s"  # setup_s rows come first
