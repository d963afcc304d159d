"""The sorted-candidate suprema (the step-at-a-time reference's and the
kernel's) and the count-pair information constants against the oracle's 2^K
subset enumeration.

Bernoulli sums are integers, so every pooled sum is exact in any
summation order and each implementation must agree with it bit for bit.
Gaussian pooled sums are added in a different order (sorted by sum instead
of by stream), so agreement is to 1e-12 * (1 + |value|).
"""
import math
import random
from itertools import islice

import numpy as np
import pytest
import scalar_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_reference import estimate_signal_set, run_to_decision, sup_loglik_error_sets

from seqdetect import engine, geometry, oracle
from seqdetect.engine import EngineState, TestKind, run_trials
from seqdetect.geometry import info_constants
from seqdetect.models import (
    Family,
    JointParameter,
    ParameterSpace,
    Region,
    StreamModel,
    sup_stat_loglik,
)
from seqdetect.oracle import subset_info_constants, subset_sup_loglik_error_sets

GAUSS = StreamModel(Family.GAUSSIAN, ParameterSpace.gaussian_indifference(0.1))
BOUNDED = StreamModel(Family.GAUSSIAN, ParameterSpace(-1.0, -0.2, 0.3, 1.5))
BERN = StreamModel(Family.BERNOULLI, ParameterSpace(0.2, 0.4, 0.6, 0.8))
MODELS = (GAUSS, BOUNDED, BERN)

# Deterministic: the same examples on every run, no example database.
FIXED = dict(derandomize=True, deadline=None, database=None)

_means = st.floats(-2.0, 2.0)
# Near-zero means: streams the pooled fit can move across the gap.
_ambiguous = st.floats(-0.2, 0.2)


@st.composite
def states(draw):
    """(model, n, sums): up to 10 stream sums at the shared count n.  A small
    pool of shared means makes tied sums common."""
    model = draw(st.sampled_from(MODELS))
    k = draw(st.integers(1, 10))
    n = draw(st.integers(1, 50))
    if model.family is Family.BERNOULLI:
        sums = [float(s) for s in draw(st.lists(st.integers(0, n), min_size=k, max_size=k))]
    else:
        pool = draw(st.lists(_means, min_size=1, max_size=3))
        means = draw(
            st.lists(
                st.one_of(st.sampled_from(pool), _means, _ambiguous), min_size=k, max_size=k
            )
        )
        sums = [n * m for m in means]
    return model, n, sums


@st.composite
def coupled_truths(draw):
    model = draw(st.sampled_from(MODELS))
    sp = model.space
    k = draw(st.integers(1, 10))
    members = draw(st.sets(st.integers(0, k - 1)))
    theta1 = draw(st.floats(sp.theta1_lo, min(sp.theta1_hi, sp.theta1_lo + 3.0)))
    theta0 = draw(st.floats(max(sp.theta0_lo, sp.theta0_hi - 3.0), sp.theta0_hi))
    return model, JointParameter.coupled(k, members, theta1, theta0)


def close(got, ref, exact):
    if ref == -math.inf or exact:
        return got == ref
    return abs(got - ref) <= 1e-12 * (1.0 + abs(ref))


@settings(max_examples=400, **FIXED)
@given(states())
@example((GAUSS, 4, [-3.0, -1.0, -2.0]))
@example((BOUNDED, 3, [2.0, 1.0, 4.0]))
@example((BERN, 7, [5.0]))
@example((GAUSS, 2, [-0.5]))
@example((BERN, 5, [3.0] * 3 + [1.0] * 3))
@example((GAUSS, 6, [1.5, -1.5] * 3))
@example((GAUSS, 4, [4 * m for m in (0.06, 0.05, -0.01, -0.02, -2.0, -2.0)]))
def test_constrained_suprema_match_subset_enumeration(case):
    # The examples: estimate empty, estimate full (bounded regions), K = 1
    # on each side, tied sums on both sides of the estimate, and a miss
    # family won by dropping the weakest estimated stream while two
    # near-zero outsiders join the signal group (T_4 without stream 2).
    model, n, sums = case
    state = EngineState(model, sums, 0.0, n)
    got = sup_loglik_error_sets(state, TestKind.CONSTRAINED)
    estimate = estimate_signal_set(state)
    ref = subset_sup_loglik_error_sets(model, n, sums, estimate)
    exact = model.family is Family.BERNOULLI
    assert all(close(g, r, exact) for g, r in zip(got, ref)), (got, ref)
    # The kernel on the same state.
    member, kernel = kernel_sups(model, n, sums)
    assert member == estimate
    assert all(close(g, r, exact) for g, r in zip(kernel, ref)), (kernel, ref)


def kernel_sups(model, n, sums):
    """The kernel's estimate and constrained (logL0, logL1) at the shared
    count ``n`` and stream sums ``sums``, as a 1 x K row."""
    count = np.array([[float(n)]])
    sums = np.array([sums], dtype=float)
    member, [sups] = engine._scores(model, count, sums, [TestKind.CONSTRAINED])
    return frozenset(np.flatnonzero(member[0]).tolist()), [float(v[0]) for v in sups]


# The Bernoulli kernel takes its constrained suprema with numpy's logs and
# rescores through libm only where a threshold lies within engine._FAST_SLACK
# of a supremum from its margin; _scores takes them through libm throughout.
# These states put both where the suprema are tightest: each must give the
# enumeration's suprema bit for bit, and its margins the scalar decisions.
WIDE = StreamModel(Family.BERNOULLI, ParameterSpace(0.05, 0.4, 0.6, 0.95))
EDGE = StreamModel(Family.BERNOULLI, ParameterSpace(1e-12, 0.4, 0.6, 1.0 - 1e-12))


def tied(k):
    # Streams at mean 1/2 join the estimate (ties go to the signal side),
    # and the false-alarm family's maximum is reached by several
    # candidates with equal values, from K = 2 on (10 of them at K = 10).
    return WIDE, 2, [1.0] * (k - 1) + [0.0]


def empty_estimate(k):
    return WIDE, 20, [float(i % 3) for i in range(k)]


def full_estimate(k):
    return WIDE, 20, [20.0 - i % 3 for i in range(k)]


def empty_noise_group(k):
    # A = all but the last stream, which sits just below the gap: the
    # false-alarm supremum is every stream in the signal group.
    return WIDE, 20, [18.0] * (k - 1) + [9.0]


def empty_signal_group(k):
    # A = the first stream, just above the gap: the miss supremum is every
    # stream in the noise group.
    return WIDE, 20, [11.0] + [2.0] * (k - 1)


def near_edges(k):
    # Fits on region bounds 1e-12 from 0 and from 1, where each fit's two
    # log terms lie some 13 orders of magnitude apart.
    return EDGE, 30, [(0.0, 30.0, 1.0, 29.0)[i % 4] for i in range(k)]


SELECTION_CASES = [
    tied, empty_estimate, full_estimate, empty_noise_group, empty_signal_group, near_edges
]
SELECTION_STREAMS = [1, 2, 3, 10]


@pytest.mark.parametrize("k", SELECTION_STREAMS)
@pytest.mark.parametrize("case", SELECTION_CASES)
def test_bernoulli_selection_matches_subset_enumeration(case, k):
    model, n, sums = case(k)
    estimate, got = kernel_sups(model, n, sums)
    assert got == list(subset_sup_loglik_error_sets(model, n, sums, estimate))
    size = {empty_estimate: 0, full_estimate: k, empty_noise_group: k - 1, empty_signal_group: 1}
    assert len(estimate) == size.get(case, len(estimate))
    total = math.fsum(sums)
    if case is empty_noise_group:
        assert got[0] == sup_stat_loglik(model, n * k, total, Region.SIGNAL)
    if case is empty_signal_group:
        assert got[1] == sup_stat_loglik(model, n * k, total, Region.NOISE)


@pytest.mark.parametrize("k", SELECTION_STREAMS)
def test_bernoulli_selection_survives_fast_value_errors(monkeypatch, k):
    # Every fast value moved by up to a quarter of the slack, relative to
    # its size: with thresholds at a state's margins, one ulp above them and
    # swapped (scalar_reference.margin_cells), the stops are still
    # check_stop's, in the online step on the states above and in
    # run_trials on drawn trials.  No decision rests on how numpy's logs round.
    fast_sup = engine._fast_sup
    jitter = np.random.default_rng(k)

    def perturbed(*args):
        value = fast_sup(*args)
        return value * (1.0 + jitter.uniform(-0.25, 0.25, value.shape) * engine._FAST_SLACK)

    monkeypatch.setattr(engine, "_fast_sup", perturbed)
    for case in SELECTION_CASES:
        model, n, sums = case(k)
        rows = [[float(j < s) for s in sums] for j in range(n)]
        *_, state = scalar_reference.states(model, k, rows)
        cells = scalar_reference.margin_cells(state)
        online = engine.init(model, k)
        engine.step(online, rows[:-1], [])
        want = [scalar_reference.check_stop(state, th, kind) for th, kind in cells]
        assert engine.step(online, rows[-1:], cells) == want
    theta = JointParameter.coupled(k, range(k // 2), 0.7 if k > 1 else None, 0.3)
    for seed in range(5):
        n = 5 + 3 * seed
        drawn = islice(scalar_reference.drawn_rows(WIDE, theta, random.Random(seed)), n)
        *_, state = scalar_reference.states(WIDE, k, drawn)
        cells = scalar_reference.margin_cells(state)
        want = [run_to_decision(WIDE, theta, th, kind, random.Random(seed), n) for th, kind in cells]
        stopped_at, truncated, selected = run_trials(WIDE, theta, cells, [random.Random(seed)], n)
        assert stopped_at[:, 0].tolist() == [d.stopped_at for d in want]
        assert truncated[:, 0].tolist() == [d.truncated for d in want]
        assert [frozenset(np.flatnonzero(m).tolist()) for m in selected[:, 0]] == [
            d.selected for d in want
        ]


def table(model, n, sums, sup):
    """The constrained suprema's 2K candidates at count ``n`` and stream sums
    ``sums``, each ``sup`` of its signal group plus ``sup`` of its noise group."""
    groups = []

    def kept(*args):
        groups.append(sup(*args))
        return groups[-1]

    count, s = np.array([[float(n)]]), np.array([sums], dtype=float)
    member, _ = engine._scores(model, count, s, [])
    engine._coupled_sups(model, count, s, member, kept)
    return groups[0] + groups[1]


@st.composite
def bernoulli_states(draw):
    """(model, n, sums) on the wide regions or on those 1e-12 from 0 and 1,
    each sum at random or at 0 or n, where the fits sit on region bounds."""
    model = draw(st.sampled_from([WIDE, EDGE]))
    k = draw(st.integers(1, 12))
    n = draw(st.integers(1, 1_000))
    sums = draw(st.lists(st.integers(0, n) | st.sampled_from([0, n]), min_size=k, max_size=k))
    return model, n, [float(s) for s in sums]


@settings(max_examples=200, **FIXED)
@given(bernoulli_states())
@example(tied(10))
@example(near_edges(10))
def test_fast_table_lies_within_the_slack(case):
    # Every candidate with numpy's logs lies within 1e-12 of its size of the
    # candidate through libm, a thousandth of the slack that the kernel's
    # stop screen allows.
    fast, exact = table(*case, engine._fast_sup), table(*case, engine._region_sup)
    assert (np.abs(fast - exact) <= 1e-12 * np.abs(exact)).all(), (case, fast - exact)


@settings(max_examples=100, **FIXED)
@given(coupled_truths())
@example((GAUSS, JointParameter.coupled(1, {0}, 0.5, None)))
@example((BERN, JointParameter.coupled(4, set(), None, 0.3)))
@example((BOUNDED, JointParameter.coupled(5, {0, 2, 4}, 1.5, -1.0)))
def test_info_constants_match_subset_enumeration(case):
    model, theta = case
    got = info_constants(model, theta)
    ref = subset_info_constants(model, theta)
    for name in ("i0", "i1", "i0_tilde", "i1_tilde"):
        g, r = getattr(got, name), getattr(ref, name)
        assert g == r if math.isinf(r) else abs(g - r) <= 1e-12, (name, g, r)


@pytest.mark.parametrize(
    "model, theta",
    [
        (GAUSS, JointParameter.coupled(3, {0}, 0.5, -0.5)),
        (BOUNDED, JointParameter.coupled(5, {0, 2, 4}, 1.5, -1.0)),
        (BERN, JointParameter.coupled(4, set(), None, 0.3)),
    ],
)
def test_info_reference_derives_its_own_tilde_constants(monkeypatch, model, theta):
    # The reference must not take i0_tilde and i1_tilde from the function
    # under test, or the comparison above checks them against themselves.
    want = info_constants(model, theta)

    def stub(*args):
        raise AssertionError("the reference called per_stream_constants")

    monkeypatch.setattr(geometry, "per_stream_constants", stub)
    monkeypatch.setattr(oracle, "per_stream_constants", stub, raising=False)
    got = subset_info_constants(model, theta)
    assert (got.i0_tilde, got.i1_tilde) == (want.i0_tilde, want.i1_tilde)
