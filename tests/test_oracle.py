import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scalar_reference

from seqdetect import engine, oracle
from seqdetect.cli import _deviation
from seqdetect.engine import (
    EngineState,
    TestKind,
    _block_rows,
    estimate_signal_set,
    sup_loglik_error_sets,
)
from seqdetect.errors import CapacityError, ConfigError, DomainError
from seqdetect.models import (
    Family,
    JointParameter,
    ParameterSpace,
    Region,
    StreamModel,
)
from seqdetect.oracle import (
    Grid,
    grid_info_constants,
    grid_sup_loglik,
    lln_rate_estimate,
    mean_one_martingale_estimate,
    subset_info_constants,
    subset_sup_loglik_error_sets,
)

GAUSS = StreamModel(Family.GAUSSIAN, ParameterSpace.gaussian_indifference(0.1))
BERN = StreamModel(Family.BERNOULLI, ParameterSpace(0.2, 0.4, 0.6, 0.8))
TRUTH = JointParameter((0.5, -0.5))


class TestGrid:
    def test_defaults_and_step(self):
        g = Grid()
        assert g.lo == -5.0 and g.hi == 5.0 and g.points == 10_000
        assert g.step == pytest.approx(10.0 / 9999)
        ax = g.axis()
        assert ax[0] == -5.0 and ax[-1] == 5.0 and ax.size == 10_000

    def test_validation(self):
        with pytest.raises(DomainError):
            Grid(1.0, 1.0)
        with pytest.raises(DomainError):
            Grid(2.0, -2.0)
        with pytest.raises(DomainError):
            Grid(0.0, 1.0, points=1)
        with pytest.raises(DomainError):
            Grid(-math.inf, 0.0)

    def test_region_points_include_clipped_endpoints(self):
        g = Grid(-5.0, 5.0, 101)
        sig = g.region_points(GAUSS, Region.SIGNAL)
        assert sig[0] == 0.1 and sig[-1] == 5.0
        noi = g.region_points(GAUSS, Region.NOISE)
        assert noi[0] == -5.0 and noi[-1] == -0.1

    def test_region_points_empty_outside_box(self):
        g = Grid(0.2, 5.0, 50)
        assert g.region_points(GAUSS, Region.NOISE).size == 0
        sig = g.region_points(GAUSS, Region.SIGNAL)
        assert sig.size > 0
        assert sig.min() >= 0.2

    @pytest.mark.parametrize(
        "grid",
        [
            Grid(-5.0, 5.0, 101),
            Grid(0.2, 5.0, 50),
            Grid(-5, 5),
            Grid(0.0, 1.0, 11),
            Grid(-0.1, 0.1, 3),
        ],
    )
    @pytest.mark.parametrize(
        "space",
        [
            GAUSS.space,
            BERN.space,
            ParameterSpace(-1.0, -0.2, 0.3, 1.5),
            ParameterSpace(-9.0, -5.0, 5.0, 9.0),
            ParameterSpace.gaussian_indifference(0.5),
        ],
    )
    @pytest.mark.parametrize("region", [Region.NOISE, Region.SIGNAL])
    def test_region_points_are_the_sorted_unique_points(self, grid, space, region):
        # The reference: the axis points in the closed region plus both
        # ends, sorted and deduplicated by np.unique.  Where the clipped
        # region is one point, an integer grid end must still come back as a
        # float.
        model = StreamModel(Family.GAUSSIAN, space)
        rlo, rhi = space.region_bounds(region)
        lo, hi = max(grid.lo, rlo), min(grid.hi, rhi)
        ax = grid.axis()
        want = np.unique(np.concatenate([ax[(ax >= lo) & (ax <= hi)], [lo, hi]]))
        got = grid.region_points(model, region)
        assert got.dtype == np.float64
        if lo > hi:
            assert got.size == 0
        else:
            assert got.tobytes() == want.tobytes()

    def test_region_points_leave_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on first use; every validate process
        # would pay for that import.
        code = (
            "import sys, numpy\n"
            "if 'numpy.ma' in sys.modules: print('preloaded'); raise SystemExit\n"
            "from seqdetect.models import Region, StreamModel, Family, ParameterSpace\n"
            "from seqdetect.oracle import Grid\n"
            "model = StreamModel(Family.GAUSSIAN, ParameterSpace.gaussian_indifference(0.1))\n"
            "for region in Region: Grid().region_points(model, region)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(oracle.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout.strip()
        if out == "preloaded":
            pytest.skip("import numpy already loads numpy.ma")
        assert out == "False"


class TestGridSupLoglik:
    def test_matches_engine_on_random_states(self):
        rng = random.Random(51)
        g = Grid(-5.0, 5.0, 10_000)
        for _ in range(20):
            k = rng.randint(1, 3)
            n = rng.randint(1, 40)
            sums = [n * rng.uniform(-2.0, 2.0) for _ in range(k)]
            st = EngineState(GAUSS, sums, 0.0, n)
            for kind in TestKind:
                got = grid_sup_loglik(GAUSS, n, sums, estimate_signal_set(st), kind, g)
                assert _deviation(got, sup_loglik_error_sets(st, kind)) <= 1e-4

    def test_matches_engine_bernoulli(self):
        rng = random.Random(52)
        g = Grid(0.0, 1.0, 20_001)
        for _ in range(10):
            n = rng.randint(1, 30)
            sums = [float(rng.randint(0, n)) for _ in range(2)]
            st = EngineState(BERN, sums, 0.0, n)
            for kind in TestKind:
                got = grid_sup_loglik(BERN, n, sums, estimate_signal_set(st), kind, g)
                assert _deviation(got, sup_loglik_error_sets(st, kind)) <= 1e-4

    def test_refinement_is_monotone(self):
        # Doubling a linspace keeps every old point, so the scanned maximum
        # can only improve toward the closed form.
        sums = [4.9, -2.1]
        st = EngineState(GAUSS, sums, 0.0, 7)
        est = frozenset({0})
        coarse = Grid(-5.0, 5.0, 501)
        fine = Grid(-5.0, 5.0, 1001)
        exact = sup_loglik_error_sets(st, TestKind.CONSTRAINED)
        c = grid_sup_loglik(GAUSS, 7, sums, est, TestKind.CONSTRAINED, coarse)
        f = grid_sup_loglik(GAUSS, 7, sums, est, TestKind.CONSTRAINED, fine)
        for cv, fv, ev in zip(c, f, exact):
            assert cv <= fv + 1e-12
            assert fv <= ev + 1e-12
            assert abs(fv - ev) <= abs(cv - ev) + 1e-12

    def test_single_stream_vacuous_side(self):
        g = Grid(-5.0, 5.0, 1001)
        l0, l1 = grid_sup_loglik(GAUSS, 5, [3.0], frozenset({0}), TestKind.CONSTRAINED, g)
        assert l0 == -math.inf
        assert math.isfinite(l1)

    def test_mean_outside_box_rejected(self):
        with pytest.raises(DomainError):
            grid_sup_loglik(GAUSS, 2, [14.0], frozenset(), TestKind.CONSTRAINED, Grid())

    def test_deterministic(self):
        sums = [1.0, -1.0]
        g = Grid()
        a = grid_sup_loglik(GAUSS, 3, sums, frozenset({0}), TestKind.UNCONSTRAINED, g)
        b = grid_sup_loglik(GAUSS, 3, sums, frozenset({0}), TestKind.UNCONSTRAINED, g)
        assert a == b


class TestGridInfoConstants:
    def test_anchor_quadruple(self):
        c = grid_info_constants(GAUSS, TRUTH, Grid())
        assert c.i0 == pytest.approx(0.26, abs=1e-4)
        assert c.i1 == pytest.approx(0.26, abs=1e-4)
        assert c.i0_tilde == pytest.approx(0.18, abs=1e-4)
        assert c.i1_tilde == pytest.approx(0.18, abs=1e-4)

    def test_requires_coupled_truth(self):
        with pytest.raises(ConfigError):
            grid_info_constants(GAUSS, JointParameter((0.5, 0.7)), Grid())

    def test_parameter_outside_box_rejected(self):
        with pytest.raises(DomainError):
            grid_info_constants(GAUSS, JointParameter((7.0, -0.5)), Grid())

    def test_degenerate_all_noise(self):
        theta = JointParameter.coupled(2, set(), None, -0.5)
        c = grid_info_constants(GAUSS, theta, Grid())
        assert c.i1 == math.inf and c.i1_tilde == math.inf
        assert c.i0 == pytest.approx(0.18, abs=1e-4)


def test_enumerations_capped_at_sixteen_streams():
    theta = JointParameter.coupled(17, {0}, 0.5, -0.5)
    sums = list(theta.thetas)
    calls = (
        lambda: subset_info_constants(GAUSS, theta),
        lambda: grid_info_constants(GAUSS, theta, Grid()),
        lambda: subset_sup_loglik_error_sets(GAUSS, 1, sums, frozenset({0})),
        lambda: grid_sup_loglik(GAUSS, 1, sums, frozenset({0}), TestKind.CONSTRAINED, Grid()),
    )
    for call in calls:
        with pytest.raises(CapacityError):
            call()


class TestMartingaleEstimate:
    def test_zero_steps_exact(self):
        assert mean_one_martingale_estimate(
            GAUSS, TRUTH, 0, 10_000, random.Random(1)
        ) == (1.0, 0.0)

    def test_validation(self):
        rng = random.Random(1)
        with pytest.raises(DomainError):
            mean_one_martingale_estimate(GAUSS, TRUTH, -1, 10_000, rng)
        with pytest.raises(DomainError):
            mean_one_martingale_estimate(GAUSS, TRUTH, 1, 9_999, rng)
        with pytest.raises(ConfigError):
            mean_one_martingale_estimate(GAUSS, JointParameter((0.5, 0.7)), 1, 10_000, rng)

    def test_single_step_mean_one(self):
        mean, se = mean_one_martingale_estimate(GAUSS, TRUTH, 1, 20_000, random.Random(2))
        assert se > 0.0
        assert abs(mean - 1.0) <= 3.0 * se


class TestLLNRateEstimate:
    def test_validation(self):
        rng = random.Random(1)
        kinds = (TestKind.CONSTRAINED,)
        with pytest.raises(DomainError):
            lln_rate_estimate(GAUSS, TRUTH, 499, 10, kinds, rng)
        with pytest.raises(DomainError):
            lln_rate_estimate(GAUSS, TRUTH, 500, 0, kinds, rng)
        with pytest.raises(DomainError):
            lln_rate_estimate(GAUSS, TRUTH, 500, 1, (), rng)
        with pytest.raises(ConfigError):
            lln_rate_estimate(GAUSS, JointParameter((0.5, 0.7)), 500, 1, kinds, rng)
        assert rng.getstate() == random.Random(1).getstate()

    def test_short_horizon_scale(self):
        # Quick version of the drift check: by n = 500 both normalized
        # statistics sit within 15 percent of their limiting constants.
        means = lln_rate_estimate(GAUSS, TRUTH, 500, 20, tuple(TestKind), random.Random(3))
        r0, r1 = means[TestKind.CONSTRAINED]
        assert abs(r0 - 0.26) <= 0.15 * 0.26
        assert abs(r1 - 0.26) <= 0.15 * 0.26
        u0, u1 = means[TestKind.UNCONSTRAINED]
        assert abs(u0 - 0.18) <= 0.15 * 0.18
        assert abs(u1 - 0.18) <= 0.15 * 0.18

    def test_scores_each_kind_once_over_all_trials(self, monkeypatch):
        # At n = 500 and K = 2 the five trials run in three chunks; the
        # suprema of each kind still come from one call over all of them.
        calls = []
        error_sups = engine._error_sups

        def counting(model, kind, *args):
            calls.append((kind, args[1].shape))
            return error_sups(model, kind, *args)

        monkeypatch.setattr(engine, "_error_sups", counting)
        lln_rate_estimate(GAUSS, TRUTH, 500, 5, tuple(TestKind), random.Random(3))
        assert calls == [(kind, (5, 2)) for kind in TestKind]

    def test_memory_does_not_grow_with_the_trial_count(self):
        # Each chunk's step arrays are freed once its last-step state is
        # copied out; views into them would keep every chunk's alive.
        def peak(trials):
            tracemalloc.start()
            try:
                lln_rate_estimate(GAUSS, TRUTH, 500, trials, tuple(TestKind), random.Random(4))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200) <= 1.5 * peak(20)


# The tight Bernoulli instance of validate's and criterion 5's deeper
# martingale checks: its fits sit on a region bound almost always.
REF_MODEL = StreamModel(Family.BERNOULLI, ParameterSpace(0.40, 0.45, 0.55, 0.60))
REF_THETA = JointParameter.coupled(2, frozenset({0}), 0.55, 0.45)
TRUTH3 = JointParameter.coupled(3, frozenset({0, 2}), 0.5, -0.5)


def _first(kind):
    """Every test kind, ``kind`` first."""
    return (kind, *(other for other in TestKind if other is not kind))


def _per_trial(got):
    """Each trial's values: its ratio, or its adaptive log-likelihood and
    each kind's (logL0, logL1) from the drift margins' arrays."""
    if isinstance(got, tuple):
        adaptive, sups = got
        return list(zip(adaptive.tolist(), *(zip(*kind.tolist()) for kind in sups)))
    return list(got)


# Each batched estimator beside its step-at-a-time reference.
MARTINGALE = (oracle._martingale_ratios, scalar_reference.martingale_ratios)
LLN = (oracle._lln_margins, scalar_reference.lln_margins)


def _assert_matches_stepwise(pair, args, rng=lambda: random.Random(5)):
    """Bit-identical values trial by trial, and the generators end in the
    same state."""
    batched, stepwise = pair
    ours, ref = rng(), rng()
    got = _per_trial(batched(*args, ours))
    assert len(got) == args[3]
    assert got == list(stepwise(*args, ref))
    assert ours.getstate() == ref.getstate()
    return ours


class TestBatchedMatchesStepwise:
    """The block-step martingale ratios and drift margins against their
    one-observation-at-a-time references: each trial's values with zero
    tolerance, generator state included."""

    @pytest.mark.parametrize(
        "model, theta, n, trials",
        [
            (GAUSS, TRUTH, 1, 10_000),
            # 30,003 draws in all leave a Box-Muller sine pending at the end.
            (GAUSS, TRUTH3, 1, 10_001),
            # 256 trials per chunk take 2,304 draws each, so no chunk starts
            # on a pending sine (the next test covers one that does).
            (GAUSS, TRUTH3, 3, 10_000),
            (REF_MODEL, REF_THETA, 1, 10_000),
            (REF_MODEL, REF_THETA, 5, 10_000),
        ],
        ids=["gauss-k2-n1", "gauss-k3-odd", "gauss-k3-n3", "bern-n1", "bern-n5"],
    )
    def test_martingale(self, model, theta, n, trials):
        rng = _assert_matches_stepwise(MARTINGALE, (model, theta, n, trials))
        if model is GAUSS:
            assert (rng.gauss_next is not None) == (n * trials * theta.k % 2 == 1)

    def test_martingale_chunks_start_on_a_pending_sine(self, monkeypatch):
        # gauss-k5-n1: 341 trials per chunk take 1,705 draws each, so every
        # other chunk starts on a pending sine.
        starts = []
        draw_normals = engine._draw_normals

        def recorded(rngs, count):
            starts.extend(rng.gauss_next is not None for rng in rngs)
            return draw_normals(rngs, count)

        monkeypatch.setattr(engine, "_draw_normals", recorded)
        theta = JointParameter.coupled(5, frozenset({0, 2, 4}), 0.5, -0.5)
        _assert_matches_stepwise(MARTINGALE, (GAUSS, theta, 1, 10_000))
        assert set(starts) == {False, True}

    def test_martingale_on_a_generator_with_a_pending_sine(self):
        def rng():
            r = random.Random(8)
            r.gauss(0.0, 1.0)
            return r

        _assert_matches_stepwise(MARTINGALE, (GAUSS, TRUTH, 2, 10_000), rng)

    # Each drift test scores every kind on one horizon, the named kind first.
    @pytest.mark.parametrize("kind", list(TestKind))
    @pytest.mark.parametrize(
        "model, theta",
        [(GAUSS, TRUTH), (REF_MODEL, REF_THETA)],
        ids=["gaussian", "bernoulli"],
    )
    def test_lln_with_a_partial_last_chunk(self, kind, model, theta):
        # At n = 500 and K = 2 a chunk holds two trials; five leave one over.
        _assert_matches_stepwise(LLN, (model, theta, 500, 5, _first(kind)))

    # 1,503 normals a trial: a Box-Muller sine left pending by one trial is
    # the next one's first draw, inside a chunk of two trials (n = 501) or
    # across chunks of one (n = 513), and the last trial leaves one pending.
    @pytest.mark.parametrize("kind", list(TestKind))
    @pytest.mark.parametrize("n, width", [(501, 2), (513, 1)])
    def test_lln_with_odd_draws_per_trial(self, kind, n, width):
        assert _block_rows(TRUTH3.k) // n == width
        rng = _assert_matches_stepwise(LLN, (GAUSS, TRUTH3, n, 3, _first(kind)))
        assert rng.gauss_next is not None

    @pytest.mark.parametrize("kind", list(TestKind))
    def test_lln_trial_spanning_several_blocks(self, kind):
        theta = JointParameter.coupled(9, frozenset(range(4)), 0.5, -0.5)
        assert 500 > _block_rows(theta.k)
        _assert_matches_stepwise(LLN, (GAUSS, theta, 500, 2, _first(kind)))

    @pytest.mark.parametrize(
        "model, theta",
        [(GAUSS, TRUTH), (REF_MODEL, REF_THETA)],
        ids=["gaussian", "bernoulli"],
    )
    def test_lln_means_average_each_trials_margins(self, model, theta):
        # Each kind's means are the trial-axis means of every trial's
        # normalized margins (adaptive - logL)/n, bit for bit.
        n, kinds = 500, tuple(TestKind)
        means = lln_rate_estimate(model, theta, n, 5, kinds, random.Random(5))
        margins = list(scalar_reference.lln_margins(model, theta, n, 5, kinds, random.Random(5)))
        for i, kind in enumerate(kinds):
            assert means[kind] == tuple(
                float(np.mean([(m[0] - m[1 + i][side]) / n for m in margins])) for side in (0, 1)
            )

    @pytest.mark.parametrize(
        "model, theta",
        [(GAUSS, TRUTH), (REF_MODEL, REF_THETA)],
        ids=["gaussian", "bernoulli"],
    )
    def test_lln_each_kind_equals_a_call_for_it_alone(self, model, theta):
        # Scoring several kinds on one horizon gives each kind the means
        # of a call for it alone, and draws what that call draws.
        together = random.Random(6)
        means = lln_rate_estimate(model, theta, 500, 5, tuple(TestKind), together)
        assert list(means) == list(TestKind)
        for kind in TestKind:
            alone = random.Random(6)
            assert means[kind] == lln_rate_estimate(model, theta, 500, 5, (kind,), alone)[kind]
            assert alone.getstate() == together.getstate()
