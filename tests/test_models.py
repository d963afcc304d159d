import math
import random

import pytest
from scalar_reference import next_score

from seqdetect.errors import ConfigError, DomainError
from seqdetect.engine import EngineState, TestKind, Thresholds, step, update
from seqdetect.models import (
    Family,
    JointParameter,
    ParameterSpace,
    Region,
    StreamModel,
    kl,
    sample,
    stat_loglik,
    sup_stat_loglik,
)
from seqdetect.oracle import Grid, grid_sup_loglik, subset_sup_loglik_error_sets

GAUSS = StreamModel(Family.GAUSSIAN, ParameterSpace.gaussian_indifference(0.1))
BERN = StreamModel(Family.BERNOULLI, ParameterSpace(0.2, 0.4, 0.6, 0.8))
# Noise region reaching 0.5, for examples evaluated at theta = 0.5.
BERN_HALF = StreamModel(Family.BERNOULLI, ParameterSpace(0.3, 0.5, 0.6, 0.8))


def reconstructed_loglik(model, n, s, theta):
    """Statistic-level log-likelihood of count n and sum s at theta, written
    out independently.

    The Gaussian value is the log density of the sample mean's sufficient
    part, -(n/2)(m - theta)^2, shifted by the theta-free n*m^2/2 to match
    the package's convention; Bernoulli values are exact.
    """
    if model.family is Family.GAUSSIAN:
        m = s / n
        return -0.5 * n * (m - theta) ** 2 + 0.5 * n * m * m
    return s * math.log(theta) + (n - s) * math.log(1.0 - theta)


def single_score(model, theta, x, n=1):
    """x scored at theta: the next term after n observations that sum to
    n * theta, whose fit is theta itself (a Bernoulli sum must be whole)."""
    return next_score(model, n, n * theta, x)


def random_theta(model, rng):
    sp = model.space
    lo0 = sp.theta0_lo if math.isfinite(sp.theta0_lo) else sp.theta0_hi - 2.0
    hi1 = sp.theta1_hi if math.isfinite(sp.theta1_hi) else sp.theta1_lo + 2.0
    if rng.random() < 0.5:
        return rng.uniform(lo0, sp.theta0_hi)
    return rng.uniform(sp.theta1_lo, hi1)


class TestParameterSpace:
    def test_gaussian_indifference_bounds(self):
        sp = ParameterSpace.gaussian_indifference(0.1)
        assert sp.theta0_lo == -math.inf
        assert sp.theta0_hi == -0.1
        assert sp.theta1_lo == 0.1
        assert sp.theta1_hi == math.inf

    def test_bad_delta(self):
        with pytest.raises(ConfigError):
            ParameterSpace.gaussian_indifference(0.0)
        with pytest.raises(ConfigError):
            ParameterSpace.gaussian_indifference(math.inf)

    def test_region_order_enforced(self):
        with pytest.raises(ConfigError):
            ParameterSpace(0.2, 0.6, 0.4, 0.8)
        with pytest.raises(ConfigError):
            ParameterSpace(0.2, 0.4, 0.4, 0.8)

    def test_interior_bounds_must_be_finite(self):
        with pytest.raises(ConfigError):
            ParameterSpace(-math.inf, -math.inf, 0.1, math.inf)
        with pytest.raises(ConfigError):
            ParameterSpace(0.1, 0.2, math.nan, 0.9)

    def test_membership(self):
        sp = GAUSS.space
        assert sp.in_noise(-0.1) and sp.in_noise(-7.0)
        assert sp.in_signal(0.1) and sp.in_signal(7.0)
        assert not sp.contains(0.0)
        assert sp.contains(0.1) and sp.contains(-0.1)
        for t in (math.inf, -math.inf):  # beyond every finite theta, yet in no region
            assert not (sp.in_noise(t) or sp.in_signal(t) or sp.contains(t))


class TestStreamModel:
    def test_bernoulli_space_must_avoid_endpoints(self):
        with pytest.raises(ConfigError):
            StreamModel(Family.BERNOULLI, ParameterSpace(0.0, 0.4, 0.6, 0.8))
        with pytest.raises(ConfigError):
            StreamModel(Family.BERNOULLI, ParameterSpace(0.2, 0.4, 0.6, 1.0))

    def test_gaussian_space_unrestricted(self):
        StreamModel(Family.GAUSSIAN, ParameterSpace(-3.0, -1.0, 2.0, 4.0))


def _step(state, rows):
    return step(state, rows, [(Thresholds(1.0, 1.0), TestKind.CONSTRAINED)])


def _leaves_state(feed, model, n, sums, data):
    # A rejected update or step, for a value of its rows or for a carried
    # sum, must leave the whole state as it was.
    st = EngineState(model, list(sums), 0.0, n)
    before = (st.n, list(st.sums), st.adaptive_loglik)
    try:
        feed(st, data)
    finally:
        assert (st.n, st.sums, st.adaptive_loglik) == before


# Every entry that takes data, called on one stream's count n and sum s beside
# a valid stream.  update takes s in either stream, as a value of its row at
# n = 1 or as a sum carried to count n, n = 0 included, where the valid sum is
# 0 (an infinite carried sum is what finite data leave when a sum overflows).
# step takes s in its first row, in the second row of a block whose first row
# is valid (so that a check made while writing would show), or as a carried sum.
DATA_ENTRIES = {
    "update-first": lambda model, n, s: _leaves_state(update, model, 1, [1.0, 0.0], [s, 1.0]),
    "update-second": lambda model, n, s: _leaves_state(update, model, 1, [1.0, 0.0], [1.0, s]),
    "update-carried-first": lambda model, n, s: _leaves_state(update, model, n, [s, float(n > 0)], [1.0, 1.0]),
    "update-carried": lambda model, n, s: _leaves_state(update, model, n, [float(n > 0), s], [1.0, 1.0]),
    "step-first-row": lambda model, n, s: _leaves_state(_step, model, 1, [1.0, 0.0], [[s, 1.0]]),
    "step-second-row": lambda model, n, s: _leaves_state(
        _step, model, 1, [1.0, 0.0], [[1.0, 1.0], [1.0, s]]
    ),
    "step-carried": lambda model, n, s: _leaves_state(_step, model, n, [float(n > 0), s], [[1.0, 1.0]]),
    "stat_loglik": lambda model, n, s: stat_loglik(model, n, s, model.space.theta1_lo),
    "subset": lambda model, n, s: subset_sup_loglik_error_sets(model, n, [0.0, s], frozenset()),
    "grid": lambda model, n, s: grid_sup_loglik(
        model, n, [0.0, s], frozenset(), TestKind.CONSTRAINED, Grid()
    ),
}
# (model, n, s) that no n observations can give, for each class of bad data:
# a negative count, a nonzero sum at n = 0, a non-finite sum, and a
# Bernoulli sum above n, below 0 or not whole.
IMPOSSIBLE_STATS = [
    (GAUSS, -1, 0.0), (BERN, -1, 0.0), (GAUSS, 0, 0.5), (BERN, 0, 1.0),
    *((model, n, s) for model in (GAUSS, BERN) for n in (1, 3)
      for s in (math.nan, math.inf, -math.inf)),
    *((BERN, n, s) for n in (1, 3) for s in (n + 1.0, -1.0, n / 2)),
]


@pytest.mark.parametrize("entry, model, n, s", [
    pytest.param(entry, model, n, s, id=f"{entry}-{model.family.value}-n{n}-s{s}")
    for entry in DATA_ENTRIES for model, n, s in IMPOSSIBLE_STATS
    if entry not in ("update-first", "update-second", "step-first-row", "step-second-row") or n >= 1
])
def test_impossible_statistic_rejected(entry, model, n, s):
    with pytest.raises(DomainError):
        DATA_ENTRIES[entry](model, n, s)


@pytest.mark.parametrize("model", [GAUSS, BERN], ids=["gaussian", "bernoulli"])
def test_step_rejects_an_empty_block(model):
    with pytest.raises(DomainError):
        _leaves_state(_step, model, 1, [1.0, 0.0], [])


class TestJointParameter:
    def test_coupled_assembly(self):
        th = JointParameter.coupled(3, {0, 2}, 0.5, -0.5)
        assert th.thetas == (0.5, -0.5, 0.5)
        assert th.k == 3
        assert th.signal_set(GAUSS.space) == frozenset({0, 2})

    def test_empty_group_may_omit_value(self):
        th = JointParameter.coupled(2, set(), None, -0.5)
        assert th.thetas == (-0.5, -0.5)
        with pytest.raises(ConfigError):
            JointParameter.coupled(2, {0}, None, -0.5)

    def test_out_of_range_index(self):
        with pytest.raises(ConfigError):
            JointParameter.coupled(2, {2}, 0.5, -0.5)

    def test_signal_set_rejects_gap_parameter(self):
        th = JointParameter((0.5, 0.05))
        with pytest.raises(DomainError):
            th.signal_set(GAUSS.space)

    def test_constraint_flag(self):
        assert JointParameter((0.5, -0.5, 0.5)).is_constrained(GAUSS.space)
        assert not JointParameter((0.5, 0.7)).is_constrained(GAUSS.space)
        assert not JointParameter((-0.5, -0.7)).is_constrained(GAUSS.space)
        with pytest.raises(ConfigError):
            JointParameter((0.5, 0.7)).require_constrained(GAUSS.space)


class TestLogDensity:
    """Single observations: the statistic-level log-likelihood at n = 1,
    which is the term the engine adds to the adaptive log-likelihood."""

    def test_gaussian_at_mean(self):
        # log f_theta(theta) - log h(theta) = theta^2 / 2.
        assert stat_loglik(GAUSS, 1, 0.5, 0.5) == 0.125
        assert single_score(GAUSS, 0.5, 0.5) == 0.125

    def test_gaussian_offset(self):
        # theta*x - theta^2/2 at theta = 0.5, x = -0.5.
        assert stat_loglik(GAUSS, 1, -0.5, 0.5) == -0.375
        assert single_score(GAUSS, 0.5, -0.5) == -0.375

    def test_bernoulli_values(self):
        # Bernoulli has no base measure: the values are exact log densities.
        assert stat_loglik(BERN_HALF, 1, 1.0, 0.5) == math.log(0.5)
        assert stat_loglik(BERN, 1, 0.0, 0.6) == math.log1p(-0.6)
        assert single_score(BERN, 0.6, 1.0, n=5) == math.log(0.6)
        assert single_score(BERN, 0.6, 0.0, n=5) == math.log1p(-0.6)
        assert single_score(BERN, 0.6, 0.0, n=5) == pytest.approx(math.log(0.4), abs=1e-15)

    def test_domain_errors(self):
        for n, s, theta in ((1, 1.0, 0.05), (0, 0.0, math.inf), (1, 1.0, -math.inf)):
            with pytest.raises(DomainError):
                stat_loglik(GAUSS, n, s, theta)

    def test_gaussian_density_splits_into_stat_and_base(self):
        # log f_theta(x) = theta*x - theta^2/2 + log h(x), the exponential
        # family decomposition: the statistic-level value differs from the
        # log density by a term free of theta, so ratios are exact.
        rng = random.Random(3)
        log_sqrt_2pi = 0.5 * math.log(2.0 * math.pi)
        for _ in range(50):
            theta = random_theta(GAUSS, rng)
            x = rng.gauss(0.0, 2.0)
            log_density = -0.5 * (x - theta) ** 2 - log_sqrt_2pi
            log_h = -0.5 * x * x - log_sqrt_2pi
            assert stat_loglik(GAUSS, 1, x, theta) == pytest.approx(log_density - log_h, abs=1e-12)
            assert single_score(GAUSS, theta, x) == stat_loglik(GAUSS, 1, x, theta)


class TestKL:
    def test_gaussian_examples(self):
        assert kl(GAUSS, 0.5, -0.5) == pytest.approx(0.5, abs=1e-15)
        assert kl(GAUSS, 0.3, 0.3) == 0.0

    def test_bernoulli_example(self):
        expect = 0.6 * math.log(0.6 / 0.4) + 0.4 * math.log(0.4 / 0.6)
        assert kl(BERN, 0.6, 0.4) == pytest.approx(expect, abs=1e-12)
        assert kl(BERN, 0.6, 0.4) == pytest.approx(0.0811, abs=5e-5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            kl(GAUSS, 0.0, 0.5)
        with pytest.raises(DomainError):
            kl(BERN, 0.6, 0.5)
        for theta, theta_p in ((math.inf, math.inf), (-math.inf, -0.5), (0.5, math.inf)):
            with pytest.raises(DomainError):
                kl(GAUSS, theta, theta_p)

    def test_nonnegative_zero_iff_equal(self):
        rng = random.Random(11)
        for model in (GAUSS, BERN):
            for _ in range(200):
                a = random_theta(model, rng)
                b = random_theta(model, rng)
                v = kl(model, a, b)
                assert v >= 0.0
                if a == b:
                    assert v == 0.0
                else:
                    assert v > 0.0
            assert kl(model, a, a) == 0.0

    def test_gaussian_symmetry_bernoulli_not(self):
        assert kl(GAUSS, 0.7, -0.3) == pytest.approx(kl(GAUSS, -0.3, 0.7), abs=1e-15)
        # Both directions are well defined; they differ away from the
        # p <-> 1-p mirror pair.
        assert kl(BERN, 0.6, 0.8) != pytest.approx(kl(BERN, 0.8, 0.6), abs=1e-6)


class TestLaggedEstimate:
    """The fit that update scores the next observation against, read off its
    term for x = 1: t - t^2/2 for the Gaussian, log(t) for the Bernoulli."""

    def test_gaussian_examples(self):
        for n, s, t in ((4, 2.0, 0.5), (4, 0.2, 0.1), (2, -0.1, -0.1)):
            assert next_score(GAUSS, n, s, 1.0) == stat_loglik(GAUSS, 1, 1.0, t)

    def test_gap_tie_goes_to_signal(self):
        assert next_score(GAUSS, 2, 0.0, 1.0) == stat_loglik(GAUSS, 1, 1.0, 0.1)

    def test_bernoulli_projection(self):
        # Mean 0.5 sits exactly between symmetric regions; tie rule picks signal.
        for s, t in ((3.0, 0.3), (9.0, 0.8), (5.0, 0.6)):
            assert next_score(BERN, 10, s, 1.0) == math.log(t)

    def test_fit_achieves_full_supremum(self):
        # The term is that of a region's clipped mean that attains the full
        # supremum, and names its fit: log is one-to-one, and t - t^2/2 is
        # negative at Gaussian noise fits, positive at signal fits up to 2.
        rng = random.Random(23)
        for model in (GAUSS, BERN):
            for _ in range(200):
                n = rng.randint(1, 50)
                if model.family is Family.GAUSSIAN:
                    s = n * rng.uniform(-2.0, 2.0)
                else:
                    s = float(rng.randint(0, n))
                best_region = max(sup_stat_loglik(model, n, s, r) for r in Region)
                fits = [min(max(s / n, lo), hi) for lo, hi in map(model.space.region_bounds, Region)]
                best = [
                    stat_loglik(model, 1, 1.0, t) for t in fits
                    if reconstructed_loglik(model, n, s, t) == pytest.approx(best_region, abs=1e-12)
                ]
                assert next_score(model, n, s, 1.0) in best


class TestSupLoglik:
    def test_region_mle_is_clipped_mean(self):
        # The restricted supremum is attained at the mean clipped into the region.
        for model, n, s, region, t in (
            (GAUSS, 2, 1.0, Region.NOISE, -0.1),
            (GAUSS, 2, -4.0, Region.NOISE, -2.0),
            (BERN, 4, 1.0, Region.SIGNAL, 0.6),
        ):
            assert sup_stat_loglik(model, n, s, region) == stat_loglik(model, n, s, t)

    def test_gaussian_examples(self):
        # x = 0.5: the signal supremum sits at the mean (0.5^2/2); the noise
        # one at -0.1 is lower by the squared distance 0.6^2/2.
        assert sup_stat_loglik(GAUSS, 1, 0.5, Region.SIGNAL) == pytest.approx(0.125, abs=1e-15)
        assert sup_stat_loglik(GAUSS, 1, 0.5, Region.NOISE) == pytest.approx(
            0.125 - 0.5 * 0.6**2, abs=1e-12
        )

    def test_empty_stat_is_zero(self):
        for model in (GAUSS, BERN):
            for region in Region:
                assert sup_stat_loglik(model, 0, 0.0, region) == 0.0

    def test_dominates_region_grid(self):
        # The restricted supremum must beat the likelihood at every grid
        # point of its region; 1000 points per region, slack 1e-9.
        rng = random.Random(29)
        for model in (GAUSS, BERN):
            for _ in range(25):
                n = rng.randint(1, 30)
                if model.family is Family.GAUSSIAN:
                    s = n * rng.uniform(-2.0, 2.0)
                else:
                    s = float(rng.randint(0, n))
                for region in (Region.NOISE, Region.SIGNAL):
                    lo, hi = model.space.region_bounds(region)
                    lo = max(lo, -6.0)
                    hi = min(hi, 6.0)
                    bound = sup_stat_loglik(model, n, s, region)
                    for i in range(1000):
                        t = lo + (hi - lo) * i / 999
                        assert reconstructed_loglik(model, n, s, t) <= bound + 1e-9

    def test_incremental_matches_batch(self):
        rng = random.Random(31)
        for model in (GAUSS, BERN):
            obs = [
                sample(model, 0.6 if model.family is Family.BERNOULLI else 0.5, rng)
                for _ in range(37)
            ]
            inc_n, inc_s = 0, 0.0
            for x in obs:
                inc_n, inc_s = inc_n + 1, inc_s + x
            batch_n, batch_s = len(obs), sum(obs)
            assert inc_n == batch_n
            assert inc_s == pytest.approx(batch_s, abs=1e-12)
            for region in Region:
                assert sup_stat_loglik(model, inc_n, inc_s, region) == pytest.approx(
                    sup_stat_loglik(model, batch_n, batch_s, region), abs=1e-12
                )


class TestSample:
    def test_deterministic_given_seed(self):
        a = [sample(GAUSS, 0.5, random.Random(99)) for _ in range(5)]
        b = [sample(GAUSS, 0.5, random.Random(99)) for _ in range(5)]
        # Each call above rebuilds the generator, so the first draws agree.
        assert a[0] == b[0]
        rng1, rng2 = random.Random(4), random.Random(4)
        assert [sample(GAUSS, 0.5, rng1) for _ in range(10)] == [
            sample(GAUSS, 0.5, rng2) for _ in range(10)
        ]

    def test_gaussian_mean_clt(self):
        rng = random.Random(12)
        n = 10**5
        m = sum(sample(GAUSS, 0.5, rng) for _ in range(n)) / n
        assert abs(m - 0.5) <= 4.0 / math.sqrt(n)

    def test_bernoulli_near_degenerate_frequency(self):
        model = StreamModel(Family.BERNOULLI, ParameterSpace(0.01, 0.4, 0.6, 0.99))
        rng = random.Random(8)
        n = 20_000
        freq = sum(sample(model, 0.99, rng) for _ in range(n)) / n
        assert abs(freq - 0.99) <= 4.0 * math.sqrt(0.99 * 0.01 / n)
        assert set(sample(model, 0.6, rng) for _ in range(50)) <= {0.0, 1.0}

    def test_domain_error(self):
        for theta in (0.0, math.inf, -math.inf):
            with pytest.raises(DomainError):
                sample(GAUSS, theta, random.Random(1))
