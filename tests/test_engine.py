import math
import random

import pytest
from scalar_reference import drawn_rows, next_score, states

from seqdetect.engine import (
    EngineState,
    TestKind,
    Thresholds,
    check_stop,
    estimate_signal_set,
    init,
    run_to_decision,
    sup_loglik_error_sets,
    update,
)
from seqdetect.errors import ConfigError, DomainError
from seqdetect.models import (
    Family,
    JointParameter,
    ParameterSpace,
    Region,
    StreamModel,
    stat_loglik,
    sup_stat_loglik,
)
from seqdetect.oracle import _family_extremes

GAUSS = StreamModel(Family.GAUSSIAN, ParameterSpace.gaussian_indifference(0.1))
BERN = StreamModel(Family.BERNOULLI, ParameterSpace(0.2, 0.4, 0.6, 0.8))
TRUTH = JointParameter((0.5, -0.5))
LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def next_scores(state, x):
    """Each stream's :func:`next_score` for x; ``state`` is left as it is."""
    return [next_score(state.model, state.n, s, x) for s in state.sums]


def gauss_scores(x, estimates):
    """x scored at each lagged estimate: the terms ``next_scores`` gives."""
    return [stat_loglik(GAUSS, 1, x, t) for t in estimates]


def log_density(model, theta, x):
    """log f_theta(x), written from the densities."""
    if model.family is Family.GAUSSIAN:
        return -0.5 * (x - theta) ** 2 - LOG_SQRT_2PI
    return math.log(theta) if x == 1.0 else math.log1p(-theta)


def log_base(model, x):
    """log h(x), the parameter-free factor of the density."""
    if model.family is Family.GAUSSIAN:
        return -0.5 * x * x - LOG_SQRT_2PI
    return 0.0


def score(model, theta, x):
    """One observation's term of the adaptive log-likelihood."""
    return log_density(model, theta, x) - log_base(model, x)


def reference_mle(model, xs):
    """Unrestricted MLE from raw observations: the better of the two
    clipped means by the summed log density, signal side on ties."""
    sp = model.space
    m = sum(xs) / len(xs)
    cand0 = min(max(m, sp.theta0_lo), sp.theta0_hi)
    cand1 = min(max(m, sp.theta1_lo), sp.theta1_hi)
    ll0 = sum(log_density(model, cand0, x) for x in xs)
    ll1 = sum(log_density(model, cand1, x) for x in xs)
    return cand1 if ll1 >= ll0 else cand0


def reference_adaptive_loglik(model, rows):
    """sum_t sum_i [log f_{theta_hat(t-1)}(x_ti) - log h(x_ti)] from raw data.

    Keeps every observation and refits each stream from scratch after each
    step; the lagged estimate starts at the signal boundary, as ``init`` does.
    """
    k = len(rows[0])
    hist = [[] for _ in range(k)]
    est = [model.space.theta1_lo] * k
    total = 0.0
    for row in rows:
        for i, x in enumerate(row):
            total += score(model, est[i], x)
            hist[i].append(x)
            est[i] = reference_mle(model, hist[i])
    return total


def replay(model, truth, thresholds, kind, seed):
    """run_to_decision driven by hand, with the same sampling order, so the
    state at the stop can be inspected.  Returns (decision, state)."""
    for state in states(model, truth.k, drawn_rows(model, truth, random.Random(seed))):
        decision = check_stop(state, thresholds, kind)
        if decision is not None:
            return decision, state


def clip_gap_mle(mean):
    # Unrestricted estimate for the symmetric Gaussian space: nearest
    # region edge when the mean falls in the gap, signal side on ties.
    if mean >= 0.0:
        return max(mean, 0.1)
    return min(mean, -0.1)


def group_sup(obs, lo, hi):
    """Observation-level supremum of a pooled Gaussian group, direct form."""
    if not obs:
        return 0.0
    m = sum(obs) / len(obs)
    u = min(max(m, lo), hi)
    return -0.5 * sum((x - u) ** 2 for x in obs) - len(obs) * LOG_SQRT_2PI


def independent_constrained_run(rng, log_a, log_b, n_max=5000):
    """Plain re-implementation of the coupled two-stream Gaussian test.

    Keeps raw observation lists and recomputes everything from scratch
    each step; exists only to cross-check the incremental engine.
    """
    hist = ([], [])
    est = [0.1, 0.1]
    adaptive = 0.0
    n = 0
    while n < n_max:
        xs = [rng.gauss(0.5, 1.0), rng.gauss(-0.5, 1.0)]
        adaptive += sum(
            -0.5 * (x - e) ** 2 - LOG_SQRT_2PI for x, e in zip(xs, est)
        )
        for h, x in zip(hist, xs):
            h.append(x)
        est = [clip_gap_mle(sum(h) / len(h)) for h in hist]
        n += 1
        ahat = {k for k in range(2) if sum(hist[k]) / n >= 0.0}
        sups = {}
        for b in (set(), {0}, {1}, {0, 1}):
            sig = [x for k in b for x in hist[k]]
            noi = [x for k in range(2) if k not in b for x in hist[k]]
            sups[frozenset(b)] = group_sup(sig, 0.1, math.inf) + group_sup(
                noi, -math.inf, -0.1
            )
        l0 = max(
            (v for b, v in sups.items() if b - ahat), default=-math.inf
        )
        l1 = max(
            (v for b, v in sups.items() if ahat - b), default=-math.inf
        )
        if adaptive - l0 >= log_b and adaptive - l1 >= log_a:
            return n, frozenset(ahat), adaptive - l0, adaptive - l1
    return None


class TestInit:
    def test_signal_boundary_default(self):
        st = init(GAUSS, 2)
        assert next_scores(st, 1.0) == gauss_scores(1.0, [0.1, 0.1])
        assert st.adaptive_loglik == 0.0
        assert st.n == 0
        assert st.sums == [0.0, 0.0]
        assert st.k == 2

    def test_errors(self):
        with pytest.raises(ConfigError):
            init(GAUSS, 0)


class TestUpdate:
    def test_first_step_scores_against_init(self):
        st = init(GAUSS, 2)
        obs = [0.7, -1.2]
        update(st, obs)
        expect = sum(score(GAUSS, 0.1, x) for x in obs)
        assert st.adaptive_loglik == pytest.approx(expect, abs=1e-12)
        assert st.n == 1
        assert st.sums == [0.7, -1.2]
        # Lagged estimates now reflect the first observation.
        assert next_scores(st, 1.0) == gauss_scores(1.0, [0.7, -1.2])

    def test_second_step_uses_lagged_estimate(self):
        st = init(GAUSS, 2)
        update(st, [0.7, -1.2])
        before = st.adaptive_loglik
        update(st, [0.2, 0.4])
        gained = st.adaptive_loglik - before
        expect = score(GAUSS, 0.7, 0.2) + score(GAUSS, -1.2, 0.4)
        assert gained == pytest.approx(expect, abs=1e-12)
        # Gap rule: stream means 0.45 and -0.4 stay outside the gap here.
        assert next_scores(st, 1.0) == [pytest.approx(v) for v in gauss_scores(1.0, [0.45, -0.4])]

    def test_gap_projection_in_lagged_estimate(self):
        st = init(GAUSS, 2)
        update(st, [0.05, -0.03])
        assert next_scores(st, 1.0) == gauss_scores(1.0, [0.1, -0.1])

    def test_replay_determinism(self):
        rng = random.Random(2)
        obs = [[rng.gauss(0.0, 1.0) for _ in range(2)] for _ in range(40)]
        *_, a = states(GAUSS, 2, obs)
        *_, b = states(GAUSS, 2, obs)
        assert a.adaptive_loglik == b.adaptive_loglik
        assert a.sums == b.sums
        assert next_scores(a, 1.0) == next_scores(b, 1.0)

    def test_errors(self):
        st = init(GAUSS, 2)
        with pytest.raises(DomainError):
            update(st, [1.0])

    def test_adaptive_score_is_consistent(self):
        # (1/n)(adaptive - true loglik) should be near zero by n = 2000;
        # the estimation deficit is O(log n / n).
        rng = random.Random(14)
        devs = []
        for _ in range(40):
            st = init(GAUSS, 2)
            true_ll = 0.0
            for _ in range(2000):
                xs = [rng.gauss(0.5, 1.0), rng.gauss(-0.5, 1.0)]
                true_ll += score(GAUSS, 0.5, xs[0])
                true_ll += score(GAUSS, -0.5, xs[1])
                update(st, xs)
            devs.append((st.adaptive_loglik - true_ll) / 2000)
        mean_dev = sum(devs) / len(devs)
        assert abs(mean_dev) < 0.01

    def test_adaptive_loglik_matches_reference(self):
        # Gaussian terms are rounded differently from the closed form, so
        # they agree to 1e-9 per step; Bernoulli terms are the same floats.
        rng = random.Random(61)
        bern = StreamModel(Family.BERNOULLI, ParameterSpace(0.2, 0.4, 0.65, 0.8))
        for model in (GAUSS, bern):
            for _ in range(8):
                k = rng.randint(1, 3)
                n = rng.randint(1, 150)
                means = [rng.choice((0.3, 0.5, 0.7)) for _ in range(k)]
                if model.family is Family.GAUSSIAN:
                    rows = [[rng.gauss(m - 0.5, 1.0) for m in means] for _ in range(n)]
                else:
                    rows = [[float(rng.random() < m) for m in means] for _ in range(n)]
                *_, st = states(model, k, rows)
                expect = reference_adaptive_loglik(model, rows)
                if model.family is Family.GAUSSIAN:
                    assert st.adaptive_loglik == pytest.approx(expect, rel=0.0, abs=1e-9 * n)
                else:
                    assert st.adaptive_loglik == expect


class TestEstimateSignalSet:
    def test_sign_rule(self):
        st = EngineState(GAUSS, [2.0, -0.8], 0.0, 4)
        assert estimate_signal_set(st) == frozenset({0})

    def test_tie_counts_as_signal(self):
        st = EngineState(GAUSS, [0.0, -1.0], 0.0, 2)
        assert estimate_signal_set(st) == frozenset({0})

    def test_matches_mean_sign_on_random_states(self):
        rng = random.Random(6)
        for _ in range(100):
            sums = [5 * rng.uniform(-1.0, 1.0) for _ in range(3)]
            st = EngineState(GAUSS, sums, 0.0, 5)
            expect = frozenset(i for i in range(3) if sums[i] / 5 >= 0.0)
            assert estimate_signal_set(st) == expect

    def test_empty_state_rejected(self):
        with pytest.raises(DomainError):
            estimate_signal_set(init(GAUSS, 2))

    def test_consistent_by_n_200(self):
        # Misclassification odds at n = 200 are about 2*Phi(-0.5*sqrt(200));
        # over 1000 trials the observed rate must sit below 1 percent.
        rng = random.Random(21)
        bad = 0
        for _ in range(1000):
            s0 = sum(rng.gauss(0.5, 1.0) for _ in range(200))
            s1 = sum(rng.gauss(-0.5, 1.0) for _ in range(200))
            st = EngineState(GAUSS, [s0, s1], 0.0, 200)
            if estimate_signal_set(st) != frozenset({0}):
                bad += 1
        assert bad / 1000 < 0.01


class TestErrorSetSuprema:
    def test_full_estimate_gives_vacuous_l0(self):
        st = EngineState(GAUSS, [2.0, 1.0], 0.0, 3)
        l0, l1 = sup_loglik_error_sets(st, TestKind.CONSTRAINED)
        assert l0 == -math.inf
        assert math.isfinite(l1)

    def test_empty_estimate_gives_vacuous_l1(self):
        st = EngineState(GAUSS, [-2.0, -1.0], 0.0, 3)
        for kind in TestKind:
            l0, l1 = sup_loglik_error_sets(st, kind)
            assert math.isfinite(l0)
            assert l1 == -math.inf

    def test_constrained_candidates_by_hand(self):
        sums = [3.0, -1.5]
        st = EngineState(GAUSS, sums, 0.0, 5)
        assert estimate_signal_set(st) == frozenset({0})

        def pooled(b):
            sb = sum(sums[i] for i in b)
            nb = 5 * len(b)
            sc = sum(sums) - sb
            nc = 10 - nb
            return sup_stat_loglik(GAUSS, nb, sb, Region.SIGNAL) + sup_stat_loglik(
                GAUSS, nc, sc, Region.NOISE
            )

        l0, l1 = sup_loglik_error_sets(st, TestKind.CONSTRAINED)
        assert l0 == pytest.approx(max(pooled({1}), pooled({0, 1})), abs=1e-12)
        assert l1 == pytest.approx(max(pooled(set()), pooled({1})), abs=1e-12)

    def test_unconstrained_candidates_by_hand(self):
        sums = [3.0, -1.5]
        st = EngineState(GAUSS, sums, 0.0, 5)

        def free(b):
            total = 0.0
            for i, s in enumerate(sums):
                region = Region.SIGNAL if i in b else Region.NOISE
                total += sup_stat_loglik(GAUSS, 5, s, region)
            return total

        l0, l1 = sup_loglik_error_sets(st, TestKind.UNCONSTRAINED)
        assert l0 == pytest.approx(max(free({1}), free({0, 1})), abs=1e-12)
        assert l1 == pytest.approx(max(free(set()), free({1})), abs=1e-12)

    def test_unconstrained_subsets_exhaustively(self):
        rng = random.Random(33)
        for _ in range(30):
            k = rng.randint(1, 4)
            sums = [6 * rng.uniform(-1.5, 1.5) for _ in range(k)]
            st = EngineState(GAUSS, sums, 0.0, 6)
            ahat = estimate_signal_set(st)

            def free(b):
                total = 0.0
                for i, s in enumerate(sums):
                    region = Region.SIGNAL if i in b else Region.NOISE
                    total += sup_stat_loglik(GAUSS, 6, s, region)
                return total

            ref0, ref1 = _family_extremes(
                max, -math.inf, k, ahat, lambda members, rest: free(members)
            )
            l0, l1 = sup_loglik_error_sets(st, TestKind.UNCONSTRAINED)
            assert l0 == pytest.approx(ref0, abs=1e-10)
            assert l1 == pytest.approx(ref1, abs=1e-10)

    def test_constrained_never_exceeds_unconstrained(self):
        rng = random.Random(44)
        for _ in range(60):
            k = rng.randint(1, 4)
            st = EngineState(GAUSS, [8 * rng.uniform(-1.0, 1.0) for _ in range(k)], 0.0, 8)
            cl0, cl1 = sup_loglik_error_sets(st, TestKind.CONSTRAINED)
            ul0, ul1 = sup_loglik_error_sets(st, TestKind.UNCONSTRAINED)
            assert cl0 <= ul0 + 1e-12
            assert cl1 <= ul1 + 1e-12

    def test_empty_state_rejected(self):
        with pytest.raises(DomainError):
            sup_loglik_error_sets(init(GAUSS, 2), TestKind.CONSTRAINED)


class TestCheckStop:
    def test_vacuous_side_single_stream(self):
        # With one stream estimated as signal only the l1 condition binds,
        # so an enormous log_b cannot block the stop.
        st = EngineState(GAUSS, [45.0], 100.0, 30)
        decision = check_stop(st, Thresholds(log_a=0.5, log_b=1e9), TestKind.CONSTRAINED)
        assert decision is not None
        assert decision.selected == frozenset({0})
        assert decision.stopped_at == 30
        assert not decision.truncated

    def test_no_stop_below_threshold(self):
        st = EngineState(GAUSS, [0.6, -0.4], 0.0, 1)
        assert check_stop(st, Thresholds(1e6, 1e6), TestKind.CONSTRAINED) is None

    def test_threshold_validation(self):
        with pytest.raises(DomainError):
            Thresholds(math.nan, 1.0)
        with pytest.raises(DomainError):
            Thresholds(1.0, math.inf)

    def test_matches_independent_implementation(self):
        # 100 seeded trials against a from-scratch re-implementation that
        # stores raw observations and recomputes all suprema per step.
        th = Thresholds(2.0, 2.0)
        for trial in range(100):
            expected = independent_constrained_run(random.Random(trial), 2.0, 2.0)
            assert expected is not None
            decision = run_to_decision(
                GAUSS, TRUTH, th, TestKind.CONSTRAINED, random.Random(trial)
            )
            n, selected, stat0, stat1 = expected
            assert decision.stopped_at == n
            assert decision.selected == selected
            assert not decision.truncated
            replayed, state = replay(GAUSS, TRUTH, th, TestKind.CONSTRAINED, trial)
            assert replayed == decision
            l0, l1 = sup_loglik_error_sets(state, TestKind.CONSTRAINED)
            assert (state.adaptive_loglik - l0) / n == pytest.approx(stat0 / n, abs=1e-9)
            assert (state.adaptive_loglik - l1) / n == pytest.approx(stat1 / n, abs=1e-9)


class TestRunToDecision:
    def test_deterministic_given_seed(self):
        th = Thresholds(3.0, 3.0)
        a = run_to_decision(GAUSS, TRUTH, th, TestKind.CONSTRAINED, random.Random(5))
        b = run_to_decision(GAUSS, TRUTH, th, TestKind.CONSTRAINED, random.Random(5))
        assert a == b

    def test_stops_at_one_at_zero_thresholds(self):
        th = Thresholds(0.0, 0.0)
        times = [
            run_to_decision(
                GAUSS, TRUTH, th, TestKind.CONSTRAINED, random.Random(s)
            ).stopped_at
            for s in range(30)
        ]
        assert all(t >= 1 for t in times)
        assert min(times) == 1

    def test_normalized_stats_clear_thresholds(self):
        # Replay each trial and check both margins at the stop.
        th = Thresholds(1.5, 4.0)
        for s in range(20):
            d = run_to_decision(GAUSS, TRUTH, th, TestKind.UNCONSTRAINED, random.Random(s))
            replayed, state = replay(GAUSS, TRUTH, th, TestKind.UNCONSTRAINED, s)
            assert replayed == d
            assert state.n == d.stopped_at
            l0, l1 = sup_loglik_error_sets(state, TestKind.UNCONSTRAINED)
            assert state.adaptive_loglik - l0 >= 4.0
            assert state.adaptive_loglik - l1 >= 1.5

    def test_truncation(self):
        th = Thresholds(1e9, 1e9)
        r = run_to_decision(
            GAUSS, TRUTH, th, TestKind.CONSTRAINED, random.Random(3), n_max=4
        )
        assert r.truncated
        assert r.stopped_at == 4
        assert r.selected <= frozenset({0, 1})

    def test_errors(self):
        th = Thresholds(1.0, 1.0)
        with pytest.raises(ConfigError):
            run_to_decision(GAUSS, TRUTH, th, TestKind.CONSTRAINED, random.Random(1), n_max=0)
        with pytest.raises(ConfigError):
            run_to_decision(
                GAUSS, JointParameter((0.5, 0.0)), th, TestKind.CONSTRAINED, random.Random(1)
            )

    def test_mean_stopping_time_scale(self):
        # First-order theory puts the coupled test near log_b / 0.26 once
        # thresholds grow; at log 10 the adaptive overhead is still a
        # sizable fraction, so pin the scale rather than the exact value:
        # the mean must land between the asymptote and twice it.
        th = Thresholds(10.0, 10.0)
        rng = random.Random(20260819)
        total = 0
        trials = 400
        for _ in range(trials):
            r = run_to_decision(GAUSS, TRUTH, th, TestKind.CONSTRAINED, rng)
            assert not r.truncated
            total += r.stopped_at
        mean_t = total / trials
        approx = 10.0 / 0.26
        assert approx <= mean_t <= 2.0 * approx

    def test_selection_correct_at_moderate_thresholds(self):
        th = Thresholds(5.0, 5.0)
        wrong = 0
        for s in range(200):
            r = run_to_decision(GAUSS, TRUTH, th, TestKind.CONSTRAINED, random.Random(s))
            if r.selected != frozenset({0}):
                wrong += 1
        assert wrong / 200 <= 0.02

    def test_bernoulli_end_to_end(self):
        theta = JointParameter.coupled(2, {0}, 0.7, 0.3)
        th = Thresholds(3.0, 3.0)
        r = run_to_decision(
            BERN, theta, th, TestKind.CONSTRAINED, random.Random(9)
        )
        assert not r.truncated
        assert r.stopped_at >= 1
