import itertools
import math
import random

import numpy as np
import pytest

from seqdetect.engine import Thresholds
from seqdetect.errors import ConfigError, DomainError
from seqdetect.geometry import (
    InfoConstants,
    assignment_kl,
    info_constants,
    kl_to_region,
    lower_bound,
    phi,
)
from seqdetect.montecarlo import approx_ess
from seqdetect.models import (
    Family,
    JointParameter,
    ParameterSpace,
    Region,
    StreamModel,
    kl,
)
from seqdetect.oracle import subset_info_constants

GAUSS = StreamModel(Family.GAUSSIAN, ParameterSpace.gaussian_indifference(0.1))
BERN = StreamModel(Family.BERNOULLI, ParameterSpace(0.2, 0.4, 0.6, 0.8))
ANCHOR = JointParameter((0.5, -0.5))


def grid_kl(model, theta, u):
    """KL(f_theta, f_u) along an array u, written from the densities.

    Bernoulli: the expectation over x in {0, 1} of log f_theta(x) / f_u(x).
    Gaussian with unit variance: E[(X - u)^2 - (X - theta)^2] / 2 under
    f_theta, which is (theta - u)^2 / 2.
    """
    if model.family is Family.GAUSSIAN:
        return 0.5 * (theta - u) ** 2
    return sum(p * (math.log(p) - np.log(q)) for p, q in ((theta, u), (1.0 - theta, 1.0 - u)))


def brute_assignment_kl(model, theta, b_set, points=20001):
    """Assignment divergence by direct minimization on a dense grid.

    Independent of the package implementation: clips unbounded regions to
    a wide finite window (minimizers always land inside it here).
    """
    k = theta.k
    best = 0.0
    for region, members in (
        (Region.NOISE, [i for i in range(k) if i not in b_set]),
        (Region.SIGNAL, sorted(b_set)),
    ):
        if not members:
            continue
        lo, hi = model.space.region_bounds(region)
        grid = np.linspace(max(lo, -4.0), min(hi, 4.0), points)
        best += float(sum(grid_kl(model, theta.thetas[i], grid) for i in members).min())
    return best


def random_coupled(model, rng, k):
    sp = model.space
    lo0 = sp.theta0_lo if math.isfinite(sp.theta0_lo) else sp.theta0_hi - 2.0
    hi1 = sp.theta1_hi if math.isfinite(sp.theta1_hi) else sp.theta1_lo + 2.0
    signal = {i for i in range(k) if rng.random() < 0.5}
    t1 = rng.uniform(sp.theta1_lo, hi1) if signal else None
    t0 = rng.uniform(lo0, sp.theta0_hi) if len(signal) < k else None
    return JointParameter.coupled(k, signal, t1, t0)


class TestPhi:
    def test_symmetric_point(self):
        expect = 0.3 * math.log(0.3 / 0.7) + 0.7 * math.log(0.7 / 0.3)
        assert phi(0.3, 0.3) == pytest.approx(expect, abs=1e-15)
        assert phi(0.3, 0.3) == pytest.approx(0.3390, abs=2e-4)

    def test_domain_errors(self):
        for x, y in ((0.0, 0.3), (0.3, 0.0), (1.0, 0.3), (0.6, 0.4), (0.7, 0.5)):
            with pytest.raises(DomainError):
                phi(x, y)
        assert phi(0.6, 0.39) > 0.0

    def test_small_x_limit(self):
        # phi(x, y) -> -log y as x -> 0.
        assert phi(1e-9, 0.2) == pytest.approx(-math.log(0.2), abs=1e-6)

    def test_strictly_decreasing_in_both_arguments(self):
        assert phi(0.1, 0.2) > phi(0.1, 0.3)
        pts = [0.05 + 0.05 * i for i in range(9)]
        h = 1e-4
        for x, y in itertools.product(pts, pts):
            if x + y >= 1.0 - 2 * h:
                continue
            v = phi(x, y)
            assert phi(x + h, y) < v
            assert phi(x, y + h) < v


class TestKLToRegion:
    def test_gaussian_anchor_values(self):
        assert kl_to_region(GAUSS, -0.5, Region.SIGNAL) == pytest.approx(0.18, abs=1e-12)
        assert kl_to_region(GAUSS, 0.5, Region.SIGNAL) == 0.0
        assert kl_to_region(GAUSS, 0.5, Region.NOISE) == pytest.approx(0.18, abs=1e-12)

    def test_bernoulli_projects_to_nearest_edge(self):
        model = StreamModel(Family.BERNOULLI, ParameterSpace(0.2, 0.4, 0.5, 0.8))
        assert kl_to_region(model, 0.5, Region.NOISE) == pytest.approx(
            kl(model, 0.5, 0.4), abs=1e-9
        )
        assert kl_to_region(BERN, 0.7, Region.NOISE) == pytest.approx(
            kl(BERN, 0.7, 0.4), abs=1e-9
        )

    def test_grid_agreement(self):
        rng = random.Random(5)
        for model in (GAUSS, BERN):
            sp = model.space
            lo0 = sp.theta0_lo if math.isfinite(sp.theta0_lo) else -2.6
            hi1 = sp.theta1_hi if math.isfinite(sp.theta1_hi) else 2.6
            for _ in range(40):
                theta = rng.uniform(lo0, sp.theta0_hi) if rng.random() < 0.5 else rng.uniform(
                    sp.theta1_lo, hi1
                )
                for region in (Region.NOISE, Region.SIGNAL):
                    lo, hi = sp.region_bounds(region)
                    grid = np.linspace(max(lo, -4.0), min(hi, 4.0), 20001)
                    brute = float(grid_kl(model, theta, grid).min())
                    assert kl_to_region(model, theta, region) == pytest.approx(
                        brute, abs=1e-6
                    )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            kl_to_region(GAUSS, 0.05, Region.SIGNAL)


class TestAssignmentKL:
    def test_anchor_values(self):
        assert assignment_kl(GAUSS, ANCHOR, {0, 1}) == pytest.approx(0.26, abs=1e-12)
        assert assignment_kl(GAUSS, ANCHOR, {1}) == pytest.approx(0.36, abs=1e-12)
        assert assignment_kl(GAUSS, ANCHOR, {0}) == 0.0

    def test_requires_coupled_parameter(self):
        with pytest.raises(ConfigError):
            assignment_kl(GAUSS, JointParameter((0.5, 0.7)), {0})

    def test_rejects_bad_subset(self):
        with pytest.raises(DomainError):
            assignment_kl(GAUSS, ANCHOR, {0, 2})

    def test_matches_brute_grid(self):
        rng = random.Random(17)
        for model in (GAUSS, BERN):
            for _ in range(50):
                k = rng.randint(1, 3)
                theta = random_coupled(model, rng, k)
                b = {i for i in range(k) if rng.random() < 0.5}
                got = assignment_kl(model, theta, b)
                assert got == pytest.approx(
                    brute_assignment_kl(model, theta, b), abs=1e-6
                )

    def test_pooling_inequality(self):
        # Misclassifying everything as signal costs at least moving one
        # noise stream across the gap.
        rng = random.Random(19)
        for _ in range(30):
            theta = JointParameter.coupled(
                2, {0}, rng.uniform(0.1, 2.0), rng.uniform(-2.0, -0.1)
            )
            lhs = assignment_kl(GAUSS, theta, {0, 1})
            rhs = kl_to_region(GAUSS, theta.thetas[1], Region.SIGNAL)
            assert lhs >= rhs - 1e-12


class TestInfoConstants:
    def test_anchor_quadruple(self):
        c = info_constants(GAUSS, ANCHOR)
        assert c.i0 == pytest.approx(0.26, abs=1e-12)
        assert c.i1 == pytest.approx(0.26, abs=1e-12)
        assert c.i0_tilde == pytest.approx(0.18, abs=1e-12)
        assert c.i1_tilde == pytest.approx(0.18, abs=1e-12)

    def test_all_noise_degenerates(self):
        theta = JointParameter.coupled(2, set(), None, -0.5)
        c = info_constants(GAUSS, theta)
        assert c.i1 == math.inf and c.i1_tilde == math.inf
        assert c.i0 == pytest.approx(0.18, abs=1e-12)
        assert c.i0 == pytest.approx(c.i0_tilde, abs=1e-15)

    def test_all_signal_degenerates(self):
        theta = JointParameter.coupled(2, {0, 1}, 0.5, None)
        c = info_constants(GAUSS, theta)
        assert c.i0 == math.inf and c.i0_tilde == math.inf
        assert c.i1 == pytest.approx(0.18, abs=1e-12)

    def test_single_stream(self):
        c = info_constants(GAUSS, JointParameter.coupled(1, {0}, 0.5, None))
        assert c.i0 == math.inf
        assert c.i1 == pytest.approx(0.18, abs=1e-12)

    def test_sixty_four_streams(self):
        for model, theta1, theta0 in ((GAUSS, 0.5, -0.5), (BERN, 0.7, 0.3)):
            theta = JointParameter.coupled(64, range(0, 64, 3), theta1, theta0)
            c = info_constants(model, theta)
            assert math.isfinite(c.i0) and math.isfinite(c.i1)
            assert c.i0 >= c.i0_tilde and c.i1 >= c.i1_tilde

    def test_requires_coupled(self):
        with pytest.raises(ConfigError):
            info_constants(GAUSS, JointParameter((0.5, 0.7)))

    def test_pooled_at_least_per_stream(self):
        rng = random.Random(37)
        for model in (GAUSS, BERN):
            for _ in range(60):
                theta = random_coupled(model, rng, rng.randint(1, 4))
                c = info_constants(model, theta)
                assert c.i0 >= c.i0_tilde - 1e-9
                assert c.i1 >= c.i1_tilde - 1e-9

    def test_gaussian_pooling_strictness(self):
        # Pooling helps strictly once the signal value clears the gap edge,
        # and collapses to the per-stream constant exactly at the edge.
        strict = info_constants(GAUSS, JointParameter.coupled(2, {0}, 0.5, -0.5))
        assert strict.i0 > strict.i0_tilde + 1e-3
        edge = info_constants(GAUSS, JointParameter.coupled(2, {0}, 0.1, -0.5))
        assert edge.i0 == pytest.approx(edge.i0_tilde, abs=1e-12)

    def test_mixed_family_agreement_with_definition(self):
        # i0 is the cheapest assignment adding a false signal, i1 the
        # cheapest dropping a true one; check against the oracle's search
        # over all subsets.
        rng = random.Random(41)
        for model in (GAUSS, BERN):
            theta = random_coupled(model, rng, 3)
            ref = subset_info_constants(model, theta)
            c = info_constants(model, theta)
            assert c.i0 == pytest.approx(ref.i0, abs=1e-12)
            assert c.i1 == pytest.approx(ref.i1, abs=1e-12)

    def test_invariant_enforced_on_construction(self):
        with pytest.raises(DomainError):
            InfoConstants(0.1, 0.26, 0.18, 0.18)
        with pytest.raises(DomainError):
            InfoConstants(0.0, 0.26, 0.18, 0.18)
        with pytest.raises(DomainError):
            InfoConstants(math.nan, 0.26, 0.18, 0.18)


class TestLowerBound:
    def test_composition(self):
        c = InfoConstants(0.26, 0.26, 0.18, 0.18)
        expect = max(phi(0.02, 0.01) / 0.26, phi(0.02, 0.01) / 0.26)
        assert lower_bound(c, 0.01, 0.01) == pytest.approx(expect, abs=1e-15)
        assert lower_bound(c, 0.1, 0.1) == pytest.approx(5.2412990538023605, abs=1e-12)

    def test_asymmetric_rates(self):
        c = InfoConstants(0.3, 0.2, 0.18, 0.18)
        expect = max(phi(0.15, 0.05) / 0.3, phi(0.15, 0.1) / 0.2)
        assert lower_bound(c, 0.1, 0.05) == pytest.approx(expect, abs=1e-15)

    def test_one_sided_instance(self):
        c = InfoConstants(0.26, math.inf, 0.18, math.inf)
        assert lower_bound(c, 0.1, 0.2) == pytest.approx(phi(0.3, 0.2) / 0.26, abs=1e-15)

    def test_domain_errors(self):
        c = InfoConstants(0.26, 0.26, 0.18, 0.18)
        for a, b in ((0.3, 0.2), (0.0, 0.1), (0.1, 1.0), (0.25, 0.25)):
            with pytest.raises(DomainError):
                lower_bound(c, a, b)
        assert lower_bound(c, 0.24, 0.25) > 0.0


class TestAsymptoticApproximation:
    """The first-order approximation max(|log beta|/i0, |log alpha|/i1),
    computed by ``approx_ess`` in threshold space."""

    def test_symmetric_values(self):
        th = Thresholds(10.0, 10.0)
        assert approx_ess(0.26, 0.26, th) == pytest.approx(10.0 / 0.26, rel=1e-12)
        assert approx_ess(0.26, 0.26, th) == pytest.approx(38.46153846, abs=1e-6)
        assert approx_ess(0.18, 0.18, th) == pytest.approx(10.0 / 0.18, rel=1e-12)
        assert approx_ess(0.18, 0.18, th) == pytest.approx(55.55555556, abs=1e-6)

    def test_one_sided(self):
        # alpha = 0.5, beta = e^-3, with no false-alarm family (i1 = inf).
        th = Thresholds(log_a=math.log(2.0), log_b=3.0)
        assert approx_ess(0.26, math.inf, th) == pytest.approx(3.0 / 0.26, rel=1e-12)

    def test_binding_side(self):
        th = Thresholds(log_a=2.0, log_b=8.0)
        assert approx_ess(0.5, 0.1, th) == pytest.approx(max(8.0 / 0.5, 2.0 / 0.1), rel=1e-12)

    def test_domain_errors(self):
        # alpha = 0 would need an infinite threshold, which Thresholds
        # rejects; alpha = 1 (threshold 0) and beyond give NaN.
        with pytest.raises(DomainError):
            Thresholds(log_a=math.inf, log_b=1.0)
        for log_a, log_b in ((0.0, 1.0), (1.0, -0.2)):
            assert math.isnan(approx_ess(0.26, 0.26, Thresholds(log_a, log_b)))
