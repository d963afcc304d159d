"""The batched kernel (engine.run_trials) against the scalar engine.

The kernel reproduces random.Random's draws in bulk and every floating-point
operation of update/check_stop in the same order, so the tolerance is zero:
each decision (stop time, selected set, truncation flag) must equal the one
run_to_decision returns on the same seed, for both families.
"""
import random

import numpy as np
import pytest

from seqdetect import engine, montecarlo
from seqdetect.engine import TestKind, Thresholds, run_to_decision, run_trials
from seqdetect.errors import ConfigError
from seqdetect.models import Family, JointParameter, ParameterSpace, Region, StreamModel

GAUSS = StreamModel(Family.GAUSSIAN, ParameterSpace.gaussian_indifference(0.1))
BERN = StreamModel(Family.BERNOULLI, ParameterSpace(0.05, 0.4, 0.6, 0.95))
# validate's tight reference model: nearly every fit sits on a region bound,
# so most Bernoulli logs come from the bounds' precomputed values.
TIGHT = StreamModel(Family.BERNOULLI, ParameterSpace(0.40, 0.45, 0.55, 0.60))


def _rngs(seeds):
    return [random.Random(s) for s in seeds]


def _truth(model, k, signal_set):
    hi, lo = (0.5, -0.5) if model.family is Family.GAUSSIAN else (0.7, 0.3)
    signal_set = frozenset(signal_set)
    return JointParameter.coupled(
        k, signal_set, hi if signal_set else None, lo if len(signal_set) < k else None
    )


def _assert_same(model, theta, thresholds, kind, seeds, n_max=10**6):
    want = [
        run_to_decision(model, theta, thresholds, kind, rng, n_max=n_max)
        for rng in _rngs(seeds)
    ]
    got = run_trials(model, theta, thresholds, kind, _rngs(seeds), n_max=n_max)
    assert got == want
    return got


class TestDraws:
    @pytest.mark.parametrize("count", [1, 2, 3, 8, 33])
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

    @pytest.mark.parametrize("count", [1, 2, 5, 64])
    def test_uniforms_equal_successive_random_calls(self, count):
        ours, ref = _rngs(range(3)), _rngs(range(3))
        u = engine._draw_uniforms(ours, count)
        assert u.tolist() == [[r.random() for _ in range(count)] for r in ref]
        assert [r.getstate() for r in ours] == [r.getstate() for r in ref]


# (count, stream sums) states where a union or a drop candidate decides a
# supremum: at K = 3 only in the last bit, where it ties another candidate;
# at K = 6 the miss family is won by T_4 without its weakest member.
_DECISIVE = {
    (Family.BERNOULLI, 3): [(8, [4.0, 1.0, 4.0])],
    (Family.GAUSSIAN, 6): [(4, [4 * m for m in (0.06, 0.05, -0.01, -0.02, -2.0, -2.0)])],
}


def _assert_suprema_equal_the_scalar_ones(kind, model, k):
    """Bit-identical estimate and (logL0, logL1) on random states, tied sums included."""
    rng = random.Random(k)
    states = list(_DECISIVE.get((model.family, k), []))
    for _ in range(60):
        n = rng.randint(1, 40)
        if model.family is Family.GAUSSIAN:
            pool = [rng.gauss(0.0, 1.0) * n for _ in range(3)]
            s = [
                rng.choice(pool) if rng.random() < 0.4 else rng.gauss(0.0, 1.2) * n
                for _ in range(k)
            ]
        else:
            s = [float(rng.randint(0, n)) for _ in range(k)]
        states.append((n, s))
    estimates, want = [], []
    for n, s in states:
        state = engine.init(model, k)
        state.n = n
        for st, value in zip(state.stats, s):
            st.n, st.s = n, value
        estimates.append(engine.estimate_signal_set(state))
        want.append(engine.sup_loglik_error_sets(state, kind))
    counts = np.array([[float(n)] for n, _ in states])
    sums = np.array([s for _, s in states])
    q0 = engine._region_sup(model, counts, sums, Region.NOISE)
    q1 = engine._region_sup(model, counts, sums, Region.SIGNAL)
    member = q1 >= q0
    assert [frozenset(np.flatnonzero(row).tolist()) for row in member] == estimates
    l0, l1 = engine._error_sups(model, kind, counts, sums, q0, q1, member)
    assert list(zip(l0.tolist(), l1.tolist())) == want


_STREAMS = pytest.mark.parametrize("k", range(1, 11))
_MODELS = pytest.mark.parametrize("model", [GAUSS, BERN], ids=["gaussian", "bernoulli"])


@_MODELS
@_STREAMS
def test_coupled_suprema_equal_the_scalar_ones(model, k):
    _assert_suprema_equal_the_scalar_ones(TestKind.CONSTRAINED, model, k)


@_MODELS
@_STREAMS
def test_free_suprema_equal_the_scalar_ones(model, k):
    _assert_suprema_equal_the_scalar_ones(TestKind.UNCONSTRAINED, model, k)


class TestKernelMatchesScalar:
    @pytest.mark.parametrize("kind", list(TestKind))
    @pytest.mark.parametrize(
        "k, signal_set, seeds",
        [
            (1, {0}, 40),
            (2, {1}, 60),
            (3, {0, 2}, 40),
            (8, {0, 3, 5}, 15),
            (12, range(0, 12, 2), 8),
        ],
    )
    def test_gaussian(self, kind, k, signal_set, seeds):
        theta = _truth(GAUSS, k, signal_set)
        _assert_same(GAUSS, theta, Thresholds(log_a=3.0, log_b=4.0), kind, range(seeds))

    @pytest.mark.parametrize("kind", list(TestKind))
    def test_gaussian_thirty_two_streams(self, kind):
        # 33-wide tables: a block holds few trials, so a round runs in chunks.
        theta = _truth(GAUSS, 32, range(0, 32, 3))
        _assert_same(GAUSS, theta, Thresholds(log_a=2.0, log_b=1.0), kind, range(4))

    @pytest.mark.parametrize("kind", list(TestKind))
    @pytest.mark.parametrize("signal_set", [set(), {0, 1, 2}])
    def test_empty_and_full_signal_sets(self, kind, signal_set):
        theta = _truth(GAUSS, 3, signal_set)
        _assert_same(GAUSS, theta, Thresholds(log_a=2.0, log_b=5.0), kind, range(30))

    @pytest.mark.parametrize("kind", list(TestKind))
    def test_zero_thresholds(self, kind):
        theta = _truth(GAUSS, 2, {1})
        got = _assert_same(GAUSS, theta, Thresholds(log_a=0.0, log_b=0.0), kind, range(40))
        assert min(d.stopped_at for d in got) <= 2

    @pytest.mark.parametrize("kind", list(TestKind))
    def test_negative_thresholds_stop_at_the_first_step(self, kind):
        theta = _truth(GAUSS, 3, {1})
        got = _assert_same(GAUSS, theta, Thresholds(log_a=-1e9, log_b=-1e9), kind, range(10))
        assert {d.stopped_at for d in got} == {1}

    @pytest.mark.parametrize("kind", list(TestKind))
    @pytest.mark.parametrize("n_max", [1, 37])
    def test_truncation(self, kind, n_max):
        # 37 falls inside the second block (steps 17 to 48), which is cut there.
        theta = _truth(GAUSS, 2, {1})
        got = _assert_same(
            GAUSS, theta, Thresholds(log_a=30.0, log_b=30.0), kind, range(12), n_max=n_max
        )
        assert all(d.truncated and d.stopped_at == n_max for d in got)

    @pytest.mark.parametrize("kind", list(TestKind))
    @pytest.mark.parametrize("k, signal_set, seeds", [(2, {0}, 60), (10, range(5), 6)])
    def test_bernoulli(self, kind, k, signal_set, seeds):
        theta = _truth(BERN, k, signal_set)
        _assert_same(BERN, theta, Thresholds(log_a=3.0, log_b=2.0), kind, range(seeds))

    @pytest.mark.parametrize("kind", list(TestKind))
    def test_bernoulli_tight_regions(self, kind):
        theta = JointParameter.coupled(2, frozenset({0}), 0.55, 0.45)
        _assert_same(TIGHT, theta, Thresholds(log_a=3.0, log_b=2.0), kind, range(30))

    def test_rejects_bad_arguments(self):
        theta = _truth(GAUSS, 2, {1})
        with pytest.raises(ConfigError):
            run_trials(GAUSS, theta, Thresholds(1.0, 1.0), TestKind.CONSTRAINED, _rngs([1]), 0)
        outside = JointParameter((0.5, 0.0))
        with pytest.raises(ConfigError):
            run_trials(GAUSS, outside, Thresholds(1.0, 1.0), TestKind.CONSTRAINED, _rngs([1]))


@pytest.mark.parametrize("kind", list(TestKind))
def test_records_do_not_depend_on_batch_composition(kind):
    theta = _truth(GAUSS, 2, {1})
    th = Thresholds(log_a=5.0, log_b=5.0)
    trials = 30

    def records(size):
        out = []
        for start in range(0, trials, size):
            out += montecarlo._run_batch(
                GAUSS, theta, th, kind, frozenset({1}), 11, 3, start,
                min(start + size, trials), 10**6,
            )
        return out

    whole = records(trials)
    assert records(1) == whole
    assert records(7) == whole
