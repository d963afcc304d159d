import math
import os
import random
from itertools import product

import numpy as np
import pytest

from seqdetect import montecarlo
from seqdetect.engine import TestKind, Thresholds, run_to_decision
from seqdetect.errors import ConfigError
from seqdetect.models import Family, JointParameter, ParameterSpace, StreamModel
from seqdetect.montecarlo import (
    ExperimentConfig,
    _resolve_workers,
    approx_ess,
    derive_trial_seed,
    run_experiment,
    thresholds_from_levels,
)

GAUSS = StreamModel(Family.GAUSSIAN, ParameterSpace.gaussian_indifference(0.1))
TRUTH = JointParameter((0.5, -0.5))


def small_config(**over):
    base = dict(
        model=GAUSS,
        theta=TRUTH,
        kinds=(TestKind.CONSTRAINED, TestKind.UNCONSTRAINED),
        thresholds=(Thresholds(2.0, 2.0),),
        trials=20,
        base_seed=123,
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestThresholdsFromLevels:
    def test_ln_twenty(self):
        th = thresholds_from_levels(0.05, 0.05)
        assert th.log_a == pytest.approx(math.log(20.0), abs=1e-12)
        assert th.log_a == pytest.approx(2.995732273553991, abs=1e-12)
        assert th.log_b == th.log_a

    def test_asymmetric(self):
        th = thresholds_from_levels(0.1, 0.01)
        assert th.log_a == pytest.approx(-math.log(0.1), abs=1e-15)
        assert th.log_b == pytest.approx(-math.log(0.01), abs=1e-15)

    def test_domain(self):
        for a, b in ((0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.5)):
            with pytest.raises(ConfigError):
                thresholds_from_levels(a, b)


class TestDeriveTrialSeed:
    def test_deterministic(self):
        assert derive_trial_seed(7, 11) == derive_trial_seed(7, 11)

    def test_range_and_spread(self):
        seeds = set()
        for trial in range(10_000):
            s = derive_trial_seed(42, trial)
            assert 0 <= s < (1 << 64)
            seeds.add(s)
        assert len(seeds) == 10_000

    def test_sensitive_to_every_index(self):
        a = derive_trial_seed(1, 3)
        assert a != derive_trial_seed(2, 3)
        assert a != derive_trial_seed(1, 4)

    def test_pinned_values(self):
        # Every seeded result in the project rests on these values.
        assert [derive_trial_seed(20260819, t) for t in (0, 1, 999)] == [
            6897687693330465308, 10301940027309992171, 15444398632087770345,
        ]

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            derive_trial_seed(1, -1)


class TestExperimentConfig:
    def test_valid(self):
        cfg = small_config()
        assert cfg.n_max == 10**6

    def test_kinds_validation(self):
        with pytest.raises(ConfigError):
            small_config(kinds=())
        with pytest.raises(ConfigError):
            small_config(kinds=(TestKind.CONSTRAINED, TestKind.CONSTRAINED))

    def test_thresholds_must_be_distinct(self):
        # Summaries are keyed by thresholds and kind, so a repeated pair
        # would stand for two cells under one key.
        with pytest.raises(ConfigError, match="duplicate threshold pairs"):
            small_config(thresholds=(Thresholds(2.0, 2.0), Thresholds(2.0, 2.0)))
        small_config(thresholds=(Thresholds(2.0, 2.0), Thresholds(2.0, 3.0)))

    def test_thresholds_and_counts(self):
        with pytest.raises(ConfigError):
            small_config(thresholds=())
        with pytest.raises(ConfigError):
            small_config(trials=0)
        with pytest.raises(ConfigError):
            small_config(n_max=0)

    def test_truth_must_lie_in_space(self):
        with pytest.raises(ConfigError):
            small_config(theta=JointParameter((0.5, 0.0)))

    def test_constrained_kind_needs_coupled_truth(self):
        loose = JointParameter((0.5, 0.7))
        with pytest.raises(ConfigError):
            small_config(theta=loose)
        # The baseline alone accepts it.
        small_config(theta=loose, kinds=(TestKind.UNCONSTRAINED,))


class TestApproxEss:
    def test_kind_selects_constants(self):
        # Coupled constants (0.26) for the constrained cell, per-stream ones
        # (0.18) for the baseline.
        cfg = small_config(thresholds=(Thresholds(10.0, 10.0),), trials=1)
        con, unc = run_experiment(cfg, workers=1)
        assert con.approx_ess == pytest.approx(10.0 / 0.26, rel=1e-12)
        assert unc.approx_ess == pytest.approx(10.0 / 0.18, rel=1e-12)

    def test_nonpositive_threshold_gives_nan(self):
        assert math.isnan(approx_ess(0.26, 0.26, Thresholds(0.0, 1.0)))
        assert math.isnan(approx_ess(0.26, 0.26, Thresholds(1.0, -2.0)))

    def test_unconstrained_alone_on_uncoupled_truth(self):
        # The baseline needs only per-stream constants, which exist without
        # coupling: KL(-0.5, 0.1) = KL(0.5, -0.1) = 0.18.
        cfg = small_config(
            theta=JointParameter((0.5, 0.7, -0.5)), kinds=(TestKind.UNCONSTRAINED,), trials=4
        )
        (s,) = run_experiment(cfg, workers=1)
        assert math.isfinite(s.approx_ess)
        assert s.approx_ess == pytest.approx(2.0 / 0.18, rel=1e-12)


class TestRunExperiment:
    def test_cell_order_thresholds_major(self):
        cfg = small_config(
            thresholds=(Thresholds(1.0, 1.0), Thresholds(2.0, 2.0)), trials=5
        )
        out = run_experiment(cfg, workers=1)
        assert [(s.log_a, s.kind) for s in out] == [
            (1.0, TestKind.CONSTRAINED),
            (1.0, TestKind.UNCONSTRAINED),
            (2.0, TestKind.CONSTRAINED),
            (2.0, TestKind.UNCONSTRAINED),
        ]

    def test_single_trial_degenerate_se(self):
        cfg = small_config(trials=1, kinds=(TestKind.CONSTRAINED,))
        (s,) = run_experiment(cfg, workers=1)
        assert s.trials == 1
        assert s.ess == float(s.ess)
        assert s.ess_se == 0.0
        assert s.ess >= 1.0

    def test_one_worker_runs_every_cell_as_one_batch(self, monkeypatch):
        jobs, batches = [], []
        run_batch, run_trials = montecarlo._run_batch, montecarlo.engine.run_trials

        def recording_job(config, start, stop):
            jobs.append((start, stop))
            return run_batch(config, start, stop)

        def recording_batch(model, theta, cells, rngs, n_max):
            batches.append((list(cells), len(rngs)))
            return run_trials(model, theta, cells, rngs, n_max)

        monkeypatch.setattr(montecarlo, "_run_batch", recording_job)
        monkeypatch.setattr(montecarlo.engine, "run_trials", recording_batch)
        run_experiment(small_config(), workers=1)
        assert jobs == [(0, 20)]
        th = Thresholds(2.0, 2.0)
        assert batches == [([(th, TestKind.CONSTRAINED), (th, TestKind.UNCONSTRAINED)], 20)]

    @pytest.mark.parametrize(
        "thetas", [(-0.1, -0.1), (0.1, -0.1), (0.1, 0.1)], ids=["empty", "partial", "full"]
    )
    def test_every_cell_runs_on_the_cell_zero_seeds(self, thetas):
        # Cells share each trial's generator, seeded from (base_seed, 0, trial):
        # each cell's row is run_to_decision's decisions for that cell on it,
        # with the error flags taken as set differences of the selected set
        # and the truth's signal set.  An empty signal set rules out type II
        # errors and a full one type I errors; on the indifference boundary
        # the other type occurs, and the partial set makes both, in the same
        # trials too.
        cfg = small_config(
            theta=JointParameter(thetas), thresholds=(Thresholds(1.0, 1.0), Thresholds(2.0, 3.0))
        )
        truth = cfg.theta.signal_set(cfg.model.space)
        want = []
        for th, kind in product(cfg.thresholds, cfg.kinds):
            rngs = [random.Random(derive_trial_seed(123, i)) for i in range(20)]
            decisions = [run_to_decision(cfg.model, cfg.theta, th, kind, rng) for rng in rngs]
            want.append([
                (d.stopped_at, d.truncated, bool(d.selected - truth), bool(truth - d.selected))
                for d in decisions
            ])
        want = np.array(want, dtype=float).transpose(2, 0, 1)
        assert want[2].any() == (len(truth) < cfg.theta.k) and want[3].any() == bool(truth)
        np.testing.assert_array_equal(montecarlo._run_batch(cfg, 0, 20), want, strict=True)

    def test_worker_count_does_not_change_results(self):
        # 19 trials across four cells: one job of all trials at 1 worker,
        # uneven trial ranges at 2 (10 + 9) and 3 (7 + 7 + 5), each job
        # running all four cells, so each cell's records are joined from
        # every job.
        cfg = small_config(
            thresholds=(Thresholds(1.0, 1.0), Thresholds(2.0, 2.0)), trials=19
        )
        serial = run_experiment(cfg, workers=1)
        assert run_experiment(cfg, workers=2) == serial
        assert run_experiment(cfg, workers=3) == serial

    @pytest.mark.parametrize("trials, workers, pools", [(10, 6, [5]), (1, 4, []), (19, 2, [2])])
    def test_pool_holds_one_process_per_job(self, monkeypatch, trials, workers, pools):
        # A forking pool starts all of its processes at the first submit, so
        # it is sized to the jobs: 10 trials at 6 workers make 5 jobs of 2,
        # and one job runs in this process.  A stand-in pool records its size
        # and maps in this process, so no process starts.
        opened = []

        class InlinePool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
        cfg = small_config(trials=trials)
        assert run_experiment(cfg, workers=workers) == run_experiment(cfg, workers=1)
        assert opened == pools

    def test_ess_grows_with_threshold(self):
        cfg = small_config(
            kinds=(TestKind.CONSTRAINED,),
            thresholds=(Thresholds(2.0, 2.0), Thresholds(5.0, 5.0)),
            trials=200,
            base_seed=9,
        )
        low, high = run_experiment(cfg, workers=1)
        assert low.ess < high.ess

    def test_truncation_accounting(self):
        cfg = small_config(
            kinds=(TestKind.CONSTRAINED,),
            thresholds=(Thresholds(1e9, 1e9),),
            trials=6,
            n_max=2,
        )
        with pytest.warns(UserWarning, match="truncated"):
            (s,) = run_experiment(cfg, workers=1)
        assert s.truncated == 6
        assert math.isnan(s.ess)
        assert math.isnan(s.ess_se)
        # Forced decisions at n = 2 still feed the error tallies.
        assert s.fwer1 == s.n_type1 / 6
        assert s.fwer2 == s.n_type2 / 6

    def test_rate_interval_formula(self):
        cfg = small_config(kinds=(TestKind.CONSTRAINED,), trials=50, base_seed=77)
        (s,) = run_experiment(cfg, workers=1)
        p = s.n_type1 / 50
        assert s.fwer1 == p
        assert s.fwer1_ci == pytest.approx(
            1.959963984540054 * math.sqrt(p * (1 - p) / 50), abs=1e-15
        )
        assert s.fwer1_certifiable == (s.n_type1 >= 10)

    def test_sixty_four_stream_constrained_run(self):
        theta = JointParameter.coupled(64, range(0, 64, 2), 0.5, -0.5)
        config = small_config(theta=theta, kinds=(TestKind.CONSTRAINED,), trials=2)
        (s,) = run_experiment(config, workers=1)
        assert s.truncated == 0
        assert math.isfinite(s.ess) and s.ess >= 1.0
        assert math.isfinite(s.approx_ess)

    def test_bad_worker_count(self):
        with pytest.raises(ConfigError):
            run_experiment(small_config(), workers=0)

    def test_env_worker_parse_error(self, monkeypatch):
        monkeypatch.setenv("SEQDETECT_THREADS", "many")
        with pytest.raises(ConfigError):
            run_experiment(small_config(trials=2))

    def test_default_worker_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("SEQDETECT_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _resolve_workers(None) == 1

    def test_env_worker_honored(self, monkeypatch):
        monkeypatch.setenv("SEQDETECT_THREADS", "1")
        out = run_experiment(small_config(trials=4))
        assert len(out) == 2
