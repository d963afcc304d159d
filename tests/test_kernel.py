"""The batched kernel (engine.run_trials) against the scalar engine.

The kernel reproduces random.Random's draws in bulk and every floating-point
operation of update/check_stop in the same order, so the tolerance is zero:
its arrays (stop times, truncation flags, selected sets) must equal, entry
for entry, those of the decisions run_to_decision returns on the same seeds,
for both families.  The last tests run the kernel on a truth off the coupled
space, where only the unconstrained test keeps its familywise guarantee, and
on the coupled truth at the indifference boundary, where both keep it.
"""
import math
import random
import tracemalloc
from collections import Counter
from itertools import islice, product

import numpy as np
import pytest
import scalar_reference

from seqdetect import engine, montecarlo
from seqdetect.engine import TestKind, Thresholds, run_to_decision, run_trials
from seqdetect.errors import ConfigError
from seqdetect.models import (
    Family,
    JointParameter,
    ParameterSpace,
    Region,
    StreamModel,
    sup_stat_loglik,
)

GAUSS = StreamModel(Family.GAUSSIAN, ParameterSpace.gaussian_indifference(0.1))
BERN = StreamModel(Family.BERNOULLI, ParameterSpace(0.05, 0.4, 0.6, 0.95))
# validate's tight reference model: nearly every fit sits on a region bound,
# so most Bernoulli fits repeat one of four values.
TIGHT = StreamModel(Family.BERNOULLI, ParameterSpace(0.40, 0.45, 0.55, 0.60))
# A signal region that starts below zero, where the fit of a zero mean is not
# the lower signal endpoint at which init starts every lagged estimate.
BELOW_ZERO = StreamModel(Family.GAUSSIAN, ParameterSpace(-2.0, -0.8, -0.3, 2.0))


def _rngs(seeds):
    return [random.Random(s) for s in seeds]


def _truth(model, k, signal_set):
    hi, lo = (0.5, -0.5) if model.family is Family.GAUSSIAN else (0.7, 0.3)
    signal_set = frozenset(signal_set)
    return JointParameter.coupled(
        k, signal_set, hi if signal_set else None, lo if len(signal_set) < k else None
    )


def _as_arrays(decisions, k):
    """run_to_decision's decisions, one list per cell, as the arrays that
    run_trials returns: stop times (floats) and truncation flags, cells x
    trials, and the selected sets, cells x trials x K."""
    return (
        np.array([[d.stopped_at for d in cell] for cell in decisions], dtype=float),
        np.array([[d.truncated for d in cell] for cell in decisions], dtype=bool),
        np.array(
            [[[i in d.selected for i in range(k)] for d in cell] for cell in decisions],
            dtype=bool,
        ),
    )


def _assert_arrays_equal(got, want):
    """Equal run_trials arrays: the same shapes, dtypes and entries, exactly."""
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w, strict=True)


def _assert_same(model, theta, thresholds, kind, seeds, n_max):
    """run_trials against run_to_decision, truncated trials included.  Each
    caller's ``n_max`` is a few times its case's longest stop, so that a
    kernel defect which delays a stop fails at once rather than running on
    to the default limit."""
    want = [
        run_to_decision(model, theta, thresholds, kind, rng, n_max=n_max)
        for rng in _rngs(seeds)
    ]
    got = run_trials(model, theta, [(thresholds, kind)], _rngs(seeds), n_max=n_max)
    _assert_arrays_equal(got, _as_arrays([want], theta.k))
    return got


class TestDraws:
    # 2,730 normals fill a K = 2 block of 1,365 steps, as validate's drift
    # check draws them; 2,731 leaves that block's last sine pending.
    @pytest.mark.parametrize("count", [1, 2, 3, 8, 33, 2_730, 2_731])
    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("theta", [0.5, -0.1])
    def test_normals_equal_successive_gauss_calls(self, count, pending, theta):
        ours, ref = _rngs(range(5)), _rngs(range(5))
        if pending:  # a pending gauss_next on some generators only
            for i in (0, 3):
                ours[i].gauss(0.0, 1.0)
                ref[i].gauss(0.0, 1.0)
        x = theta + engine._draw_normals(ours, count)
        assert x.tolist() == [[r.gauss(theta, 1.0) for _ in range(count)] for r in ref]
        assert [r.getstate() for r in ours] == [r.getstate() for r in ref]

    def test_pending_value_carries_across_calls(self):
        ours, ref = _rngs([7]), _rngs([7])
        got = []
        for count in (3, 1, 4, 5):  # odd counts leave a value pending
            got += engine._draw_normals(ours, count)[0].tolist()
        assert got == [ref[0].gauss(0.0, 1.0) for _ in range(13)]
        assert ours[0].getstate() == ref[0].getstate()
        assert ours[0].gauss_next is not None

    # Equal counts per generator, and unequal ones with a generator that
    # draws nothing.
    @pytest.mark.parametrize(
        "counts",
        [[1] * 3, [2] * 3, [5] * 3, [64] * 3, [0, 3, 64]],
        ids=["1", "2", "5", "64", "0-3-64"],
    )
    def test_uniforms_equal_successive_random_calls(self, counts):
        ours, ref = _rngs(range(3)), _rngs(range(3))
        u = engine._draw_uniforms(ours, counts)
        assert u.tolist() == [r.random() for r, c in zip(ref, counts) for _ in range(c)]
        assert [r.getstate() for r in ours] == [r.getstate() for r in ref]


def test_logs_at_are_the_libm_logs_of_every_entry():
    rng = np.random.default_rng(3)
    u = rng.uniform(0.05, 0.95, 20_000)
    log = np.array([math.log(v) for v in u.tolist()])
    log1m = np.array([math.log1p(-v) for v in u.tolist()])
    # Values where numpy's logs round differently from libm's.
    differs = u[(np.log(u) != log) | (np.log1p(-u) != log1m)]
    assert differs.size
    sp = BERN.space
    bounds = [sp.theta0_lo, sp.theta0_hi, sp.theta1_lo, sp.theta1_hi]
    # Every value twice, in a random order, on three axes as in a block.
    values = np.concatenate((bounds, differs, u[:100]))
    theta = rng.permutation(np.tile(values, 2)).reshape(2, 1, -1)
    got = engine._logs_at(BERN, theta)
    assert [a.shape for a in got] == [theta.shape] * 2
    assert got[0].ravel().tolist() == [math.log(v) for v in theta.ravel().tolist()]
    assert got[1].ravel().tolist() == [math.log1p(-v) for v in theta.ravel().tolist()]
    assert engine._logs_at(GAUSS, theta) == ()


@pytest.mark.parametrize("region", list(Region))
def test_bernoulli_region_suprema_are_the_scalar_ones(region):
    # Every count up to 300 with every sum, and an empty statistic.  Some
    # fits s/n fall where numpy's log, and others where its log1p, rounds
    # differently from libm's, so a kernel log taken outside libm shows in
    # the last bit.  (Up to 100, the log's differences vanish in the sums.)
    n = np.repeat(np.arange(301.0), np.arange(1, 302))
    s = np.concatenate([np.arange(m + 1.0) for m in range(301)])
    lo, hi = BERN.space.region_bounds(region)
    fit = np.clip(s[n > 0] / n[n > 0], lo, hi)
    assert (np.log(fit) != [math.log(v) for v in fit.tolist()]).any()
    assert (np.log1p(-fit) != [math.log1p(-v) for v in fit.tolist()]).any()
    got = engine._region_sup(BERN, n[:, None], s[:, None], region)[:, 0]
    want = [sup_stat_loglik(BERN, int(c), v, region) for c, v in zip(n.tolist(), s.tolist())]
    assert got.tolist() == want


# (count, stream sums) states where an edge candidate other than the swap
# decides a supremum: at K = 3 only in the last bit, where it ties another
# candidate; at K = 6 the miss family is won by T_4 without its weakest member.
_DECISIVE = {
    (Family.BERNOULLI, 3): [(8, [4.0, 1.0, 4.0])],
    (Family.GAUSSIAN, 6): [(4, [4 * m for m in (0.06, 0.05, -0.01, -0.02, -2.0, -2.0)])],
}


def _assert_suprema_equal_the_scalar_ones(kind, model, k):
    """Bit-identical estimate and (logL0, logL1) on random states, tied sums
    included, laid out as _advance passes them: (trials x steps x K) sums at
    a (steps x 1) count.  Trial 0 has an empty estimate and trial 1 a full
    one at every step (a = 0 and a = K), where the kernel has no weakest
    member or no strongest outsider."""
    rng = random.Random(k)
    decisive = _DECISIVE.get((model.family, k), [])
    counts = [n for n, _ in decisive] + [rng.randint(1, 40) for _ in range(6)]
    sums = []
    for trial in range(12):
        row = []
        for step, n in enumerate(counts):
            if trial == 2 and step < len(decisive):
                s = decisive[step][1]
            elif model.family is Family.GAUSSIAN:
                pool = [rng.gauss(0.0, 1.0) * n for _ in range(3)]
                s = [
                    n * ((-1.0, 1.0)[trial] + rng.gauss(0.0, 0.2)) if trial < 2
                    else rng.choice(pool) if rng.random() < 0.4
                    else rng.gauss(0.0, 1.2) * n
                    for _ in range(k)
                ]
            else:
                low, high = ((0, n // 4), (n - n // 4, n), (0, n))[min(trial, 2)]
                s = [float(rng.randint(low, high)) for _ in range(k)]
            row.append(s)
        sums.append(row)
    estimates, want = [], []
    for row in sums:
        for n, s in zip(counts, row):
            state = engine.EngineState(model, s, 0.0, n)
            estimates.append(engine.estimate_signal_set(state))
            want.append(engine.sup_loglik_error_sets(state, kind))
    count = np.array(counts, dtype=float)[:, None]
    sums = np.array(sums)
    member, [(l0, l1)] = engine._scores(model, count, sums, [kind])
    assert [frozenset(np.flatnonzero(m).tolist()) for m in member.reshape(-1, k)] == estimates
    assert not member[0].any() and member[1].all()
    assert l0.shape == l1.shape == sums.shape[:2]
    assert list(zip(l0.ravel().tolist(), l1.ravel().tolist())) == want


_STREAMS = pytest.mark.parametrize("k", [*range(1, 11), 16, 32])
_MODELS = pytest.mark.parametrize("model", [GAUSS, BERN], ids=["gaussian", "bernoulli"])


@_MODELS
@_STREAMS
def test_coupled_suprema_equal_the_scalar_ones(model, k):
    _assert_suprema_equal_the_scalar_ones(TestKind.CONSTRAINED, model, k)


@_MODELS
@_STREAMS
def test_free_suprema_equal_the_scalar_ones(model, k):
    _assert_suprema_equal_the_scalar_ones(TestKind.UNCONSTRAINED, model, k)


@_STREAMS
def test_coupled_suprema_score_one_table(monkeypatch, k):
    # The top and the edge sets in one table of 2K candidates, a signal and
    # a noise region supremum: two _region_sup calls at every K, whatever
    # the estimates' sizes.  The candidates run along the table's leading
    # axis, the rows after it.
    calls = []
    region_sup = engine._region_sup

    def counted(*args):
        calls.append(args)
        return region_sup(*args)

    monkeypatch.setattr(engine, "_region_sup", counted)
    s = np.tile(np.arange(float(k)), (3, 1))
    member = s >= np.array([[k], [k / 2], [0]])
    engine._coupled_sups(GAUSS, np.full((3, 1), 3.0), s, member)
    assert len(calls) == 2
    assert all(args[1].shape == args[2].shape == (2 * k, 3) for args in calls)


def test_bernoulli_tables_score_few_candidates_through_libm(monkeypatch):
    # The wide Bernoulli benchmark config: ten streams, log 5, both kinds.
    # Of the 2K candidates a trial-step, only those whose numpy-log value
    # comes close to a family's maximum go through libm (about 2 in 20).
    entries = {"table": 0, "libm": 0}
    coupled_sups, region_sup = engine._coupled_sups, engine._region_sup

    def counted_table(model, n, s, member):
        entries["table"] += 2 * s.shape[-1] * s[..., 0].size
        return coupled_sups(model, n, s, member)

    def counted_libm(model, n, s, region):
        if region is Region.SIGNAL:  # each entry's noise group follows
            entries["libm"] += s.size
        return region_sup(model, n, s, region)

    monkeypatch.setattr(engine, "_coupled_sups", counted_table)
    monkeypatch.setattr(engine, "_region_sup", counted_libm)
    theta = _truth(BERN, 10, range(1, 6))
    cells = [(Thresholds(5.0, 5.0), kind) for kind in TestKind]
    rngs = _rngs(montecarlo.derive_trial_seed(20260819, t) for t in range(20))
    run_trials(BERN, theta, cells, rngs, 2_000)  # longest stop: 455 steps
    assert 0 < entries["libm"] <= 0.2 * entries["table"], entries


class TestKernelMatchesScalar:
    @pytest.mark.parametrize("kind", list(TestKind))
    @pytest.mark.parametrize(
        "k, signal_set, seeds, n_max",
        [
            (1, {0}, 40, 500),
            (2, {1}, 60, 500),
            (3, {0, 2}, 40, 800),
            (8, {0, 3, 5}, 15, 1_500),
            (12, range(0, 12, 2), 8, 2_000),
        ],
    )
    def test_gaussian(self, kind, k, signal_set, seeds, n_max):
        # Longest stops: 127, 128, 188, 371 and 458 steps.
        theta = _truth(GAUSS, k, signal_set)
        _assert_same(GAUSS, theta, Thresholds(log_a=3.0, log_b=4.0), kind, range(seeds), n_max)

    @pytest.mark.parametrize("kind", list(TestKind))
    def test_gaussian_thirty_two_streams(self, kind):
        # 33-wide tables: a 16-step block holds 7 trials, so these 4 run as
        # one chunk, in blocks of up to 31 steps.  Longest stop: 1,159 steps.
        theta = _truth(GAUSS, 32, range(0, 32, 3))
        _assert_same(GAUSS, theta, Thresholds(log_a=2.0, log_b=1.0), kind, range(4), 4_000)

    @pytest.mark.parametrize("kind", list(TestKind))
    def test_gaussian_thirty_two_streams_half_signals(self, kind):
        # 64 candidates a step, and stops far into the run: the constrained
        # ones at 287 to 392 steps, the unconstrained at 936 to 1,248.
        theta = _truth(GAUSS, 32, range(1, 17))
        _assert_same(GAUSS, theta, Thresholds(log_a=20.0, log_b=20.0), kind, range(3), 5_000)

    @pytest.mark.parametrize("kind", list(TestKind))
    @pytest.mark.parametrize("signal_set", [set(), {0, 1, 2}])
    def test_empty_and_full_signal_sets(self, kind, signal_set):
        # Longest stop: 188 steps.
        theta = _truth(GAUSS, 3, signal_set)
        _assert_same(GAUSS, theta, Thresholds(log_a=2.0, log_b=5.0), kind, range(30), 800)

    @pytest.mark.parametrize("kind", list(TestKind))
    def test_zero_thresholds(self, kind):
        # Longest stop: 112 steps.
        theta = _truth(GAUSS, 2, {1})
        stopped_at, _, _ = _assert_same(
            GAUSS, theta, Thresholds(log_a=0.0, log_b=0.0), kind, range(40), 500
        )
        assert stopped_at.min() <= 2

    @pytest.mark.parametrize("kind", list(TestKind))
    @pytest.mark.parametrize(
        "model, k, signal_set, seeds, n_max",
        [(GAUSS, 8, {0, 3, 5}, 40, 1_600), (BERN, 10, range(5), 30, 1_600)],
        ids=["gaussian", "bernoulli"],
    )
    def test_rounds_in_several_chunks(self, monkeypatch, kind, model, k, signal_set, seeds, n_max):
        # More live trials than a 16-step block holds (28 at K = 8, 23 at
        # K = 10), so rounds run in two equal chunks until trials leave.
        # Longest stops: 369 and 404 steps.
        blocks = _record_blocks(monkeypatch)
        thresholds = Thresholds(log_a=3.0, log_b=2.0)
        _assert_same(model, _truth(model, k, signal_set), thresholds, kind, range(seeds), n_max)
        chunks = Counter(n for _, _, n, _, _ in blocks)
        assert max(chunks.values()) >= 2, chunks

    @pytest.mark.parametrize("kind", list(TestKind))
    # At K = 256 a block holds 15 trial-steps, fewer than a 16-step block of
    # one trial, so every chunk is one trial.
    @pytest.mark.parametrize("k", [3, 256])
    def test_negative_thresholds_stop_at_the_first_step(self, monkeypatch, kind, k):
        blocks = _record_blocks(monkeypatch)
        theta = _truth(GAUSS, k, {1})
        stopped_at, _, _ = _assert_same(
            GAUSS, theta, Thresholds(log_a=-1e9, log_b=-1e9), kind, range(10), 10
        )
        assert (stopped_at == 1).all()
        assert all(len(rngs) * steps <= engine._block_rows(k) for _, rngs, _, steps, _ in blocks)

    @pytest.mark.parametrize("kind", list(TestKind))
    @pytest.mark.parametrize("n_max", [1, 37])
    def test_truncation(self, kind, n_max):
        # 12 live trials of K = 2 would fill a block of 113 steps, so blocks
        # grow by the factor of 2 from 16 steps: 37 falls inside the second
        # block (steps 17 to 48), which is cut there.
        theta = _truth(GAUSS, 2, {1})
        stopped_at, truncated, _ = _assert_same(
            GAUSS, theta, Thresholds(log_a=30.0, log_b=30.0), kind, range(12), n_max
        )
        assert truncated.all() and (stopped_at == n_max).all()

    @pytest.mark.parametrize("kind", list(TestKind))
    # Longest stops: 114 and 402 steps.
    @pytest.mark.parametrize(
        "k, signal_set, seeds, n_max", [(2, {0}, 60, 500), (10, range(5), 6, 1_500)]
    )
    def test_bernoulli(self, kind, k, signal_set, seeds, n_max):
        theta = _truth(BERN, k, signal_set)
        _assert_same(BERN, theta, Thresholds(log_a=3.0, log_b=2.0), kind, range(seeds), n_max)

    @pytest.mark.parametrize("kind", list(TestKind))
    def test_bernoulli_tight_regions(self, kind):
        # Longest stop: 796 steps.
        theta = JointParameter.coupled(2, frozenset({0}), 0.55, 0.45)
        _assert_same(TIGHT, theta, Thresholds(log_a=3.0, log_b=2.0), kind, range(30), 3_000)

    @pytest.mark.parametrize("kind", list(TestKind))
    @pytest.mark.parametrize("k, signal_set", [(2, {0}), (3, {0, 2})])
    def test_signal_region_below_zero(self, kind, k, signal_set):
        # A zero mean clips to 0 in the signal region [-0.3, 2], not to its
        # lower end, so the first step scores at init's estimate only by the
        # kernel's n = 0 rule.  Longest stops: 27 to 64 steps.
        theta = JointParameter.coupled(k, frozenset(signal_set), 0.4, -1.2)
        thresholds = Thresholds(log_a=3.0, log_b=2.0)
        _assert_same(BELOW_ZERO, theta, thresholds, kind, range(30), 300)

    def test_rejects_bad_arguments(self):
        theta = _truth(GAUSS, 2, {1})
        with pytest.raises(ConfigError):
            run_trials(GAUSS, theta, [(Thresholds(1.0, 1.0), TestKind.CONSTRAINED)], _rngs([1]), 0)
        outside = JointParameter((0.5, 0.0))
        with pytest.raises(ConfigError):
            run_trials(GAUSS, outside, [(Thresholds(1.0, 1.0), TestKind.CONSTRAINED)], _rngs([1]))


# The desk_fig1 cells: thresholds-major, kinds-minor.
DESK_CELLS = list(product([Thresholds(c, c) for c in (2.0, 5.0, 10.0, 20.0)], TestKind))


def test_blocks_run_few_steps_past_the_stops(monkeypatch):
    # The desk_fig1 truth and cells, 100 trials as one batch.  A 16-step
    # block holds 85 trials at K = 2, so each round splits the live trials
    # into as few chunks as such blocks hold, equal to within one trial,
    # and every chunk's block fills the element budget: 15 blocks, where
    # chunks of 85 and 15 trials over 16 steps took 22.  Blocks sized to
    # the live count keep the steps drawn and scored within 1.25x the steps
    # up to each trial's latest stop among the cells.  Longest stop: 253
    # steps.
    theta = _truth(GAUSS, 2, {0})
    blocks = _record_blocks(monkeypatch)
    rngs = _rngs(montecarlo.derive_trial_seed(20260819, t) for t in range(100))
    stopped_at, truncated, _ = run_trials(GAUSS, theta, DESK_CELLS, rngs, n_max=1_000)
    assert not truncated.any()
    widths = {}
    for _, block_rngs, n, steps, _ in blocks:
        widths.setdefault(n, []).append(len(block_rngs))
        assert len(block_rngs) * steps <= engine._block_rows(2)
    assert max(map(len, widths.values())) >= 2
    assert all(max(w) - min(w) <= 1 for w in widths.values()), widths
    assert len(blocks) <= 16
    drawn = sum(len(block_rngs) * steps for _, block_rngs, _, steps, _ in blocks)
    stops = stopped_at.max(0).sum()
    assert drawn <= 1.25 * stops, (drawn, stops)


def test_stop_test_peak_grows_little_with_the_cells():
    # The desk_fig1 truth, 100 trials as one batch, both kinds at equal
    # thresholds spread over [2, 20].  Each kind's stop test runs on its own
    # cells, with no stack of every cell's margins, so four times the cells
    # keep the traced peak within 1.5x (2.4x with such a stack).
    theta = _truth(GAUSS, 2, {0})

    def peak(pairs):
        cells = list(product([Thresholds(c, c) for c in np.linspace(2.0, 20.0, pairs)], TestKind))
        rngs = _rngs(montecarlo.derive_trial_seed(20260819, t) for t in range(100))
        tracemalloc.start()
        try:
            run_trials(GAUSS, theta, cells, rngs, n_max=2_000)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(5)  # numpy's one-time allocations, outside the measured calls
    few, many = peak(5), peak(20)
    assert many <= 1.5 * few, (few, many)


def _record_blocks(monkeypatch):
    """Record each block: its cells, generators, start count n and steps,
    and per kind the number of trials whose suprema it took.  The block's
    generators are those its observations were drawn from."""
    blocks, drawn_from = [], []
    observations, advance, error_sups = engine._observations, engine._advance, engine._error_sups

    def drawing(model, thetas, rngs, shape):
        drawn_from.append(rngs)
        return observations(model, thetas, rngs, shape)

    def advancing(model, x, cells, *args):
        blocks.append((cells, drawn_from[-1], args[-1], x.shape[1], {}))
        return advance(model, x, cells, *args)

    def scoring(model, kind, count, s, *args):
        blocks[-1][-1][kind] = len(s)
        return error_sups(model, kind, count, s, *args)

    monkeypatch.setattr(engine, "_observations", drawing)
    monkeypatch.setattr(engine, "_advance", advancing)
    monkeypatch.setattr(engine, "_error_sups", scoring)
    return blocks


def _scoring_paths(blocks, kind):
    """How the blocks with a cell of ``kind`` took its suprema: on all of
    their trials, on some or on none."""
    return Counter(
        "all" if scored.get(kind) == len(rngs) else "some" if kind in scored else "none"
        for cells, rngs, _, _, scored in blocks
        if kind in {k for _, k in cells}
    )


def test_each_kind_is_scored_up_to_its_last_stop(monkeypatch):
    # The wide Bernoulli benchmark config: ten streams, log 5, both kinds.
    # Each kind's suprema are taken on a trial in every block up to the one
    # in which its last cell of that kind stops, and in no later block.  The
    # unconstrained cell stops last in each trial here, so its suprema are
    # taken on every trial-step drawn, as before the constrained ones were
    # skipped; those are taken on little more than half of them.  Longest
    # stop: 455 steps.
    theta = _truth(BERN, 10, range(1, 6))
    cells = [(Thresholds(5.0, 5.0), kind) for kind in TestKind]
    rngs = _rngs(montecarlo.derive_trial_seed(20260819, t) for t in range(20))
    trial_of = {id(rng): i for i, rng in enumerate(rngs)}
    blocks = _record_blocks(monkeypatch)
    stopped_at, truncated, _ = run_trials(BERN, theta, cells, rngs, n_max=1_800)
    assert not truncated.any()
    scored = {
        kind: sum(steps * rows.get(kind, 0) for *_, steps, rows in blocks) for kind in TestKind
    }
    # A trial needs a kind in a block that starts at count n when its cell of
    # that kind stops after step n.
    want = {
        kind: sum(
            steps * sum(stops[trial_of[id(rng)]] > n for rng in block_rngs)
            for _, block_rngs, n, steps, _ in blocks
        )
        for (_, kind), stops in zip(cells, stopped_at)
    }
    assert scored == want
    drawn = sum(len(block_rngs) * steps for _, block_rngs, _, steps, _ in blocks)
    assert scored[TestKind.UNCONSTRAINED] == drawn
    assert scored[TestKind.CONSTRAINED] < 0.6 * drawn, (scored, drawn)


def _replay(model, x, cells):
    """check_stop for every cell after each scalar step on the rows of ``x``
    (trials x steps x K).  Returns the stop flags (trials x cells x steps)
    and the signal-set estimates (trials x steps x K)."""
    trials, steps, k = x.shape
    stop = np.zeros((trials, len(cells), steps), dtype=bool)
    member = np.zeros(x.shape, dtype=bool)
    for i, rows in enumerate(x.tolist()):
        for j, state in enumerate(scalar_reference.states(model, k, rows)):
            member[i, j, sorted(engine.estimate_signal_set(state))] = True
            for c, (th, kind) in enumerate(cells):
                stop[i, c, j] = engine.check_stop(state, th, kind) is not None
    return stop, member


@pytest.mark.parametrize(
    "model, theta, cells, trials, steps",
    [
        (GAUSS, _truth(GAUSS, 2, {0}), DESK_CELLS, 8, 120),
        (
            BERN,
            _truth(BERN, 10, range(5)),
            list(product([Thresholds(2.0, 2.0), Thresholds(5.0, 3.0)], TestKind)),
            3,
            270,
        ),
    ],
    ids=["gaussian-desk", "bernoulli-ten-streams"],
)
def test_block_step_scores_given_observations(monkeypatch, model, theta, cells, trials, steps):
    # The block step takes observations, not generators: every draw helper
    # fails here, and the rows are hand-built from the Weyl fractions
    # frac(i * sqrt 2), as uniform noise about the truth (Gaussian) or as
    # u < theta (Bernoulli).  The first block ends at the step where trial
    # 0's first cell first stops; the second carries its state on.  Each
    # cell's first stop in a block and every estimate equal the scalar
    # replay of the same rows, exactly.  Stops at 1 to 105 steps (Gaussian)
    # and 141 to 261 (Bernoulli); the unconstrained log-20 desk cell never stops.
    def no_draws(*args):
        raise AssertionError("the block step drew observations")

    for name in ("_observations", "_draw_normals", "_draw_uniforms"):
        monkeypatch.setattr(engine, name, no_draws)
    k, thetas = theta.k, np.array(theta.thetas)
    u = np.arange(1.0, trials * steps * k + 1).reshape(trials, steps, k) * math.sqrt(2.0) % 1.0
    if model.family is Family.GAUSSIAN:
        x = thetas + (u - 0.5) * math.sqrt(12.0)
    else:
        x = np.where(u < thetas, 1.0, 0.0)
    stop, member = _replay(model, x, cells)
    cut = int(stop[0, 0].argmax()) + 1
    assert stop[0, 0].any() and cut > 1
    sums, adaptive = np.zeros((trials, k)), np.zeros(trials)
    opened = np.ones((trials, len(cells)), dtype=bool)
    firsts = []
    for lo, hi in ((0, cut), (cut, steps)):
        first, got = engine._advance(model, x[:, lo:hi], cells, opened, sums, adaptive, lo)
        block = stop[..., lo:hi]
        want = np.where(block.any(-1), block.argmax(-1), hi - lo).astype(float)
        np.testing.assert_array_equal(first, want, strict=True)
        np.testing.assert_array_equal(got, member[:, lo:hi], strict=True)
        firsts.append(first)
    assert firsts[0][0, 0] == cut - 1  # a stop at the block's last step
    assert (firsts[0] == cut).any()  # cells that do not stop in the block
    assert (firsts[1] < steps - cut).any()


@pytest.mark.parametrize("kind", list(TestKind))
@pytest.mark.parametrize("model, k", [(GAUSS, 2), (BERN, 3)], ids=["gaussian-k2", "bernoulli-k3"])
def test_stop_rule_holds_at_its_thresholds(model, k, kind):
    # A state's margins m0 = adaptive - logL0 and m1 = adaptive - logL1
    # (m0 != m1) as thresholds: log_a = m1 and log_b = m0 stop, as the rule's
    # >= says, while log_a one ulp above m1 or the two swapped do not.  The
    # online step, fed the last row after the others, agrees.
    theta = _truth(model, k, {0})
    rows = list(islice(scalar_reference.drawn_rows(model, theta, random.Random(3)), 6))
    *_, state = scalar_reference.states(model, k, rows)
    m0, m1 = (state.adaptive_loglik - l for l in engine.sup_loglik_error_sets(state, kind))
    assert math.isfinite(m0) and math.isfinite(m1) and m0 != m1
    ths = [Thresholds(m1, m0), Thresholds(math.nextafter(m1, math.inf), m0), Thresholds(m0, m1)]
    assert [engine.check_stop(state, th, kind) is not None for th in ths] == [True, False, False]
    online = engine.EngineState(model, [0.0] * k, 0.0, 0)
    engine.step(online, rows[:-1], [])
    got = engine.step(online, rows[-1:], [(th, kind) for th in ths])
    assert got == [engine.check_stop(state, ths[0], kind), None, None]


STEP_CELLS = list(product([Thresholds(2.0, 2.0), Thresholds(5.0, 3.0)], TestKind))


@pytest.mark.parametrize(
    "model, k, signals",
    [(GAUSS, 2, {1}), (BERN, 10, range(5)), (GAUSS, 32, range(1, 17))],
    ids=["desk", "bernoulli-k10", "gaussian-k32"],
)
def test_step_decides_on_rows_as_they_arrive(model, k, signals):
    # One trial's draws, fed to the online step in chunks of 1, 3 and 16
    # rows with only the open cells passed: every cell's Decision equals
    # run_to_decision's and run_trials' entries for that trial, and the state
    # after the last row fed equals the scalar reference's, bit for bit.
    # Stops at 14 to 49 steps (desk), 213 to 324 (Bernoulli) and 260 to 946.
    theta = _truth(model, k, signals)
    want = [run_to_decision(model, theta, th, kind, random.Random(7), 1_000) for th, kind in STEP_CELLS]
    _assert_arrays_equal(
        run_trials(model, theta, STEP_CELLS, _rngs([7]), 1_000), _as_arrays([[d] for d in want], k)
    )
    assert not any(d.truncated for d in want)
    fed = []
    for chunk in (1, 3, 16):
        rows = scalar_reference.drawn_rows(model, theta, random.Random(7))
        state, got = engine.EngineState(model, [0.0] * k, 0.0, 0), {}
        while len(got) < len(STEP_CELLS):
            cells = [cell for cell in STEP_CELLS if cell not in got]
            decisions = engine.step(state, list(islice(rows, chunk)), cells)
            got.update((cell, d) for cell, d in zip(cells, decisions) if d is not None)
        assert [got[cell] for cell in STEP_CELLS] == want
        fed.append((state.n, state.sums, state.adaptive_loglik))
    rows = scalar_reference.drawn_rows(model, theta, random.Random(7))
    replay = {
        ref.n: (ref.n, list(ref.sums), ref.adaptive_loglik)
        for ref in scalar_reference.states(model, k, islice(rows, max(n for n, _, _ in fed)))
    }
    assert fed == [replay[n] for n, _, _ in fed]


class TestCellsShareOneTrajectory:
    # One call scores each trial for every cell; each cell's rows are those
    # of a call for that cell alone on fresh generators, exactly.  A
    # kind's suprema are taken only on the trials with a cell of that kind
    # still open, so the multi-cell calls below also run the blocks that
    # score a kind on some trials and those that skip it.
    # Each call's n_max is a few times its longest stop, as in _assert_same.
    def _assert_each_cell_as_alone(self, model, theta, cells, seeds, n_max):
        got = run_trials(model, theta, cells, _rngs(seeds), n_max)
        alone = [run_trials(model, theta, [cell], _rngs(seeds), n_max) for cell in cells]
        _assert_arrays_equal(got, [np.concatenate(arrays) for arrays in zip(*alone)])
        return got

    def test_gaussian_desk_cells(self, monkeypatch):
        blocks = _record_blocks(monkeypatch)
        seeds = [montecarlo.derive_trial_seed(20260819, t) for t in range(60)]
        # Longest stop: 309 steps.
        self._assert_each_cell_as_alone(GAUSS, _truth(GAUSS, 2, {1}), DESK_CELLS, seeds, 1_200)
        paths = _scoring_paths(blocks, TestKind.CONSTRAINED)
        assert paths["some"] and paths["none"], paths

    def test_bernoulli_ten_streams(self, monkeypatch):
        blocks = _record_blocks(monkeypatch)
        cells = list(product([Thresholds(2.0, 2.0), Thresholds(5.0, 3.0)], TestKind))
        # Longest stop: 434 steps.
        self._assert_each_cell_as_alone(BERN, _truth(BERN, 10, range(5)), cells, range(8), 1_500)
        paths = _scoring_paths(blocks, TestKind.CONSTRAINED)
        assert paths["some"] and paths["none"], paths

    def test_unconstrained_cells_that_stop_first(self, monkeypatch):
        # Unequal margins, and an unconstrained cell far below the
        # constrained one, so that the unconstrained suprema are the ones
        # taken on some trials and skipped.
        blocks = _record_blocks(monkeypatch)
        cells = [
            (Thresholds(2.0, 1.0), TestKind.UNCONSTRAINED),
            (Thresholds(16.0, 20.0), TestKind.CONSTRAINED),
        ]
        # Longest stop: 204 steps.
        self._assert_each_cell_as_alone(GAUSS, _truth(GAUSS, 3, {1}), cells, range(40), 800)
        paths = _scoring_paths(blocks, TestKind.UNCONSTRAINED)
        assert paths["some"] and paths["none"], paths

    def test_many_cells_of_both_kinds(self, monkeypatch):
        # Twelve threshold pairs, seven equal and five unequal, in both
        # kinds: 24 cells, whose first stops each kind writes only on the
        # trials that still have one of its cells open.
        blocks = _record_blocks(monkeypatch)
        pairs = [(c, c) for c in (1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 14.0)]
        pairs += [(2.0, 6.0), (6.0, 2.0), (4.0, 11.0), (11.0, 4.0), (0.5, 16.0)]
        cells = list(product([Thresholds(a, b) for a, b in pairs], TestKind))
        # Longest stop: 229 steps.
        self._assert_each_cell_as_alone(GAUSS, _truth(GAUSS, 2, {1}), cells, range(30), 900)
        paths = _scoring_paths(blocks, TestKind.CONSTRAINED)
        assert paths["some"] and paths["none"], paths

    def test_cells_stop_and_truncate_in_one_trial(self):
        # At n_max = 40 the low-threshold cells stop while the high-threshold
        # ones are truncated, within the same trials.
        stopped_at, truncated, _ = self._assert_each_cell_as_alone(
            GAUSS, _truth(GAUSS, 2, {1}), DESK_CELLS, range(40), n_max=40
        )
        mixed = (stopped_at[0] < 40) & truncated[-1]
        assert mixed.sum() >= 10


@pytest.mark.parametrize(
    "row, total",
    [
        ([1e16, 1.0, -1e16], 0.0),
        ([-0.0], 0.0),
        ([-0.0, -0.0], 0.0),
        ([0.1, 0.2, 0.3], 0.6000000000000001),
    ],
)
def test_stream_totals_add_left_to_right(row, total):
    # 0.0 + x0 + x1 + ... on every Python: the builtin sum() compensates from
    # 3.12 on (1.0 for the first row), so neither total may follow it.
    for got in (engine._total(row), engine._row_sums(np.array([row, row]))[1]):
        assert got == total and math.copysign(1.0, got) == 1.0


@pytest.mark.parametrize("kind", list(TestKind))
def test_records_do_not_depend_on_batch_composition(kind):
    trials = 30
    # Longest stop: 157 steps.
    config = montecarlo.ExperimentConfig(
        model=GAUSS,
        theta=_truth(GAUSS, 2, {1}),
        kinds=(kind,),
        thresholds=(Thresholds(log_a=5.0, log_b=5.0), Thresholds(log_a=2.0, log_b=3.0)),
        trials=trials,
        base_seed=11,
        n_max=600,
    )

    def records(size):
        jobs = [
            montecarlo._run_batch(config, start, min(start + size, trials))
            for start in range(0, trials, size)
        ]
        return np.concatenate(jobs, axis=-1)

    whole = records(trials)
    assert whole.shape == (4, 2, trials)
    assert not whole[1].any()  # no trial truncated
    np.testing.assert_array_equal(records(1), whole, strict=True)
    np.testing.assert_array_equal(records(7), whole, strict=True)


# A truth off the coupled space: a strong and a weak signal, a strong and a
# weak noise stream.  ExperimentConfig refuses constrained cells on it; the
# kernel runs them, which shows what the coupling assumption buys.
DECOUPLED = JointParameter((0.9, 0.11, -0.9, -0.11))


def _error_events(kind, theta, log_t, base_seed, trials, n_max):
    """Type I and type II error events at log_a = log_b = log_t, on generators
    seeded from ``base_seed``, and the cap on their rates, exp(-log_t) + 3 SE.
    Each caller's ``n_max`` is about four times its longest stop, and no trial
    may be truncated."""
    rngs = _rngs(montecarlo.derive_trial_seed(base_seed, i) for i in range(trials))
    cells = [(Thresholds(log_t, log_t), kind)]
    _, truncated, selected = run_trials(GAUSS, theta, cells, rngs, n_max=n_max)
    assert not truncated.any()
    signals = theta.signal_set(GAUSS.space)
    truth = np.array([i in signals for i in range(theta.k)])
    events = (
        int((selected & ~truth).any(-1).sum()),
        int((truth & ~selected).any(-1).sum()),
    )
    level = math.exp(-log_t)
    return events, level + 3.0 * math.sqrt(level * (1.0 - level) / trials)


def test_constrained_test_loses_its_guarantee_off_the_coupled_space():
    with pytest.raises(ConfigError):
        montecarlo.ExperimentConfig(
            GAUSS, DECOUPLED, (TestKind.CONSTRAINED,), (Thresholds(4.0, 4.0),), 300, 77
        )
    # Longest stop: 131 steps.
    events, cap = _error_events(TestKind.CONSTRAINED, DECOUPLED, 4.0, 77, 300, 500)
    assert all(e / 300 > cap for e in events), (events, cap)


def test_unconstrained_test_keeps_its_guarantee_off_the_coupled_space():
    # Longest stop: 2,487 steps.
    events, cap = _error_events(TestKind.UNCONSTRAINED, DECOUPLED, 4.0, 77, 100, 10_000)
    assert all(e / 100 <= cap for e in events), (events, cap)


# The least-favourable coupled truth: both values on the indifference
# boundary, where each error rate comes closest to exp(-t).  Each cell is
# sized to see at least 10 events of each type at t = 1, so that it tests the
# guarantee rather than reading 0.  Each n_max is about four times the
# cell's longest stop: 2,044 steps (constrained) and 2,750 (unconstrained).
# Each cell draws its own trials.  Trial seeds once mixed in a cell index too,
# and cell 1's base seed is the one whose splitmix64 is splitmix64(7) ^ 1, so
# it draws the trials that index gave it.
BOUNDARY_SEEDS = (7, 354357900789335187)


@pytest.mark.parametrize(
    "kind, cell, trials", [(TestKind.CONSTRAINED, 0, 1_000), (TestKind.UNCONSTRAINED, 1, 7_000)]
)
def test_familywise_guarantee_at_the_indifference_boundary(kind, cell, trials):
    assert montecarlo._splitmix64(BOUNDARY_SEEDS[1]) == montecarlo._splitmix64(7) ^ 1
    n_max = {TestKind.CONSTRAINED: 8_000, TestKind.UNCONSTRAINED: 11_000}[kind]
    theta = JointParameter((0.1, -0.1))
    events, cap = _error_events(kind, theta, 1.0, BOUNDARY_SEEDS[cell], trials, n_max)
    assert min(events) >= 10, events
    assert all(e / trials <= cap for e in events), (events, cap)
