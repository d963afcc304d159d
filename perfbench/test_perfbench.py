"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the repository root: python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run  # imports seqdetect from this checkout's src/
import spans
import workloads
from seqdetect import engine

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_times_of_a_synthetic_nest_sum_to_the_outer_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def estimate_signal_set(state):
        clock.advance(1.0)

    estimate = tracer.wrap("engine.estimate_signal_set", estimate_signal_set)

    def sup_loglik_error_sets(state, kind):
        clock.advance(2.0)
        estimate(state)
        clock.advance(0.5)

    sup = tracer.wrap("engine.sup_loglik_error_sets", sup_loglik_error_sets)

    def check_stop(state, thresholds, kind):
        clock.advance(3.0)
        sup(state, kind)

    check = tracer.wrap("engine.check_stop", check_stop)

    check(None, None, engine.TestKind.CONSTRAINED)
    check(None, None, engine.TestKind.UNCONSTRAINED)
    sup(None, kind=engine.TestKind.CONSTRAINED)  # outer span of its own

    def self_s(name):
        calls, total, child = tracer.totals[name]
        return total - child

    assert tracer.totals["engine.check_stop"] == [2, 13.0, 7.0]
    assert tracer.totals["engine.sup_loglik_error_sets.constrained"] == [2, 7.0, 2.0]
    assert tracer.totals["engine.sup_loglik_error_sets.unconstrained"] == [1, 3.5, 1.0]
    assert tracer.totals["engine.estimate_signal_set"] == [3, 3.0, 0.0]
    assert "engine.sup_loglik_error_sets" not in tracer.totals
    outer = tracer.totals["engine.check_stop"][1] + 3.5  # the direct sup call
    assert sum(self_s(name) for name in tracer.totals) == pytest.approx(outer)
    assert clock.now == pytest.approx(outer)


def test_installed_wrappers_are_restored_and_record_the_engine_layers(tmp_path):
    seqdetect = sys.modules["seqdetect"]
    original = seqdetect.engine.update
    config = workloads.WORKLOADS["desk_fig1"].make_config(1, 2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    tracer = spans.Tracer(samples=("engine.run_to_decision",))
    with spans.installed(tracer, seqdetect, tmp_path):
        assert seqdetect.engine.update is not original
        task = workloads.prepare(workloads.WORKLOADS["desk_fig1"], path)
        seqdetect.montecarlo.run_experiment(task, workers=1)
    assert seqdetect.engine.update is original
    assert tracer.totals["engine.run_to_decision"][0] == 16
    assert len(tracer.samples["engine.run_to_decision"]) == 16
    assert tracer.totals["models.sample"][0] == 2 * tracer.totals["engine.update"][0]
    assert tracer.totals["cli.load_config"][0] == 1


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_named_metric_with_its_unit(workload, monkeypatch):
    monkeypatch.setattr(run, "MIN_CALLS", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    small = replace(workloads.WORKLOADS[workload], trials=3, trace_trials=3)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(small, workloads.DEFAULT_SEED, 0.0, trace)
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert result["attempted"] >= 1
        assert 0 <= result["failed"] <= result["attempted"]
        assert result["machine"]["nproc"] >= 1
        assert result["machine"]["seed"] == workloads.DEFAULT_SEED
        assert len(result["machine"]["loadavg_end"]) == 3
        if small.workers > 1:  # worker-count invariance holds at any size
            assert not [f for f in result["failures"] if "differ" in f]


def test_without_the_program_it_fails_before_printing_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_fig1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "seqdetect" in proc.stderr
