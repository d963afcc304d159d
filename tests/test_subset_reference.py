"""The sorted-candidate suprema and the count-pair information constants
against the oracle's 2^K subset enumeration.

Bernoulli sums are integers, so every pooled sum is exact in either
summation order and the two implementations must agree bit for bit.
Gaussian pooled sums are added in a different order (sorted by sum instead
of by stream), so agreement is to 1e-12 * (1 + |value|).
"""
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqdetect.engine import EngineState, TestKind, estimate_signal_set, sup_loglik_error_sets
from seqdetect.geometry import info_constants
from seqdetect.models import Family, JointParameter, ParameterSpace, StreamModel, SufficientStat
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
    """(model, stats) with up to 10 streams sharing one count.  A small pool
    of shared means makes tied sums common."""
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
    return model, [SufficientStat(n, s) for s in sums]


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
@example((GAUSS, [SufficientStat(4, -3.0), SufficientStat(4, -1.0), SufficientStat(4, -2.0)]))
@example((BOUNDED, [SufficientStat(3, 2.0), SufficientStat(3, 1.0), SufficientStat(3, 4.0)]))
@example((BERN, [SufficientStat(7, 5.0)]))
@example((GAUSS, [SufficientStat(2, -0.5)]))
@example((BERN, [SufficientStat(5, 3.0)] * 3 + [SufficientStat(5, 1.0)] * 3))
@example((GAUSS, [SufficientStat(6, 1.5), SufficientStat(6, -1.5)] * 3))
@example((GAUSS, [SufficientStat(4, 4 * m) for m in (0.06, 0.05, -0.01, -0.02, -2.0, -2.0)]))
def test_constrained_suprema_match_subset_enumeration(case):
    # The examples: estimate empty, estimate full (bounded regions), K = 1
    # on each side, tied sums on both sides of the estimate, and a miss
    # family won by dropping the weakest estimated stream while two
    # near-zero outsiders join the signal group (T_4 without stream 2).
    model, stats = case
    k = len(stats)
    state = EngineState(
        model=model,
        stats=[SufficientStat(s.n, s.s) for s in stats],
        lagged_mle=[model.space.theta1_lo] * k,
        adaptive_loglik=0.0,
        n=stats[0].n,
    )
    got = sup_loglik_error_sets(state, TestKind.CONSTRAINED)
    ref = subset_sup_loglik_error_sets(model, stats, estimate_signal_set(state))
    exact = model.family is Family.BERNOULLI
    assert all(close(g, r, exact) for g, r in zip(got, ref)), (got, ref)


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
