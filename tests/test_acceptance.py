"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line with the
measured quantities (run with ``-s`` to see them all).  Everything is
seeded, so the numbers reproduce exactly across machines and reruns.

Criterion 3iii is a known honest failure: the measured expected sample
size at log threshold 20 sits about 35 percent above the first-order
approximation 20/0.26, outside the stated 25 percent band.  The excess is
the adaptive estimator's second-order overhead, which decays only as the
thresholds grow (measured ratio 1.35 at log 20, 1.16 at 50, 1.09 at 100);
the test is kept faithful rather than widened.

The cells of a sweep score the same trials, so each cell's standard error
keeps its meaning while comparisons across cells (3i's ordering, 3ii's
slope) are paired.
"""
import math
import random
from dataclasses import astuple

import numpy as np
import pytest

from seqdetect.cli import _deviation, load_config
from seqdetect.engine import TestKind, Thresholds, _scores
from seqdetect.geometry import info_constants, lower_bound
from seqdetect.models import (
    Family,
    JointParameter,
    ParameterSpace,
    StreamModel,
)
from seqdetect.montecarlo import ExperimentConfig, run_experiment
from seqdetect.oracle import (
    Grid,
    grid_info_constants,
    grid_sup_loglik,
    lln_rate_estimate,
    mean_one_martingale_estimate,
)

GAUSS = StreamModel(Family.GAUSSIAN, ParameterSpace.gaussian_indifference(0.1))
TRUTH = JointParameter((0.5, -0.5))

# Bounded-log-ratio instance for the martingale mean test: the sample-mean
# estimator of E exp(...) needs a finite second moment, which an unbounded
# one-step log-ratio loses once estimation error enters at n >= 2.  This
# tight Bernoulli instance exercises the same update path with bounded
# ratios; the Gaussian instance is checked at n = 1 where the moment exists.
REF_MODEL = StreamModel(Family.BERNOULLI, ParameterSpace(0.40, 0.45, 0.55, 0.60))
REF_THETA = JointParameter.coupled(2, frozenset({0}), 0.55, 0.45)


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def desk_sweep():
    """The bundled desk-scale sweep: log a = log b in {2, 5, 10, 20},
    2000 trials per cell, both kinds, fixed seed."""
    spec = load_config("desk_fig1")
    out = run_experiment(spec)
    return {(s.kind, s.log_a): s for s in out}


@pytest.fixture(scope="module")
def constants():
    return info_constants(GAUSS, TRUTH)


def test_criterion_1_information_constants(constants):
    dev = max(
        abs(constants.i0 - 0.26),
        abs(constants.i1 - 0.26),
        abs(constants.i0_tilde - 0.18),
        abs(constants.i1_tilde - 0.18),
    )
    ok = report(
        "criterion 1 (information constants)",
        dev < 1e-12,
        f"(i0, i1, i0~, i1~) = ({constants.i0}, {constants.i1}, "
        f"{constants.i0_tilde}, {constants.i1_tilde}), max |dev| {dev:.2e}, tol 1e-12",
    )
    assert ok


def test_criterion_2_familywise_error_control():
    log20 = math.log(20.0)
    cfg = ExperimentConfig(
        model=GAUSS,
        theta=TRUTH,
        kinds=(TestKind.CONSTRAINED,),
        thresholds=(Thresholds(log20, log20),),
        trials=10_000,
        base_seed=101,
    )
    (s,) = run_experiment(cfg)
    cap = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 10_000)
    ok = report(
        "criterion 2 (familywise error control)",
        s.fwer1 <= cap and s.fwer2 <= cap,
        f"fwer1 {s.fwer1:.4f}, fwer2 {s.fwer2:.4f}, cap {cap:.4f} "
        f"(bound 0.05 plus 3 binomial SE, 10^4 trials)",
    )
    assert ok


def test_criterion_3i_ess_ordering(desk_sweep):
    # Both kinds score the same trials, so the gap is paired; its standard
    # error is at most the unpaired hypot(se, se) used here, since the two
    # sample sizes of a trial rise and fall together.
    lines = []
    ok = True
    for log_t in (2.0, 5.0, 10.0, 20.0):
        c = desk_sweep[(TestKind.CONSTRAINED, log_t)]
        u = desk_sweep[(TestKind.UNCONSTRAINED, log_t)]
        gap = u.ess - c.ess
        need = 2.0 * math.hypot(c.ess_se, u.ess_se)
        cell_ok = gap >= 0.0 and (log_t < 5.0 or gap > need)
        ok = ok and cell_ok
        lines.append(f"log {log_t:g}: gap {gap:.2f} vs 2se {need:.2f}")
    ok = report("criterion 3i (constrained ESS below baseline)", ok, "; ".join(lines))
    assert ok


def test_criterion_3ii_ess_slope(desk_sweep):
    # Both end points score the same trials, so the slope is a paired
    # difference: its noise is smaller than two independent cells' would be.
    results = []
    ok = True
    for kind, target in ((TestKind.CONSTRAINED, 1 / 0.26), (TestKind.UNCONSTRAINED, 1 / 0.18)):
        lo = desk_sweep[(kind, 10.0)].ess
        hi = desk_sweep[(kind, 20.0)].ess
        slope = (hi - lo) / 10.0
        dev = abs(slope - target) / target
        ok = ok and dev <= 0.15
        results.append(f"{kind.value} slope {slope:.3f} vs {target:.3f} (dev {dev:.1%})")
    ok = report("criterion 3ii (ESS slope between last sweep points)", ok, "; ".join(results))
    assert ok


def test_criterion_3iii_first_order_ess_level(desk_sweep):
    s = desk_sweep[(TestKind.CONSTRAINED, 20.0)]
    approx = 20.0 / 0.26
    ratio = s.ess / approx
    ok = report(
        "criterion 3iii (constrained ESS near 20/0.26)",
        abs(ratio - 1.0) <= 0.25,
        f"measured {s.ess:.2f} +- {s.ess_se:.2f}, approximation {approx:.2f}, "
        f"ratio {ratio:.3f}, band 0.75..1.25",
    )
    # Known honest failure: the plug-in estimator's second-order overhead
    # (roughly K/2 * log(ESS) / i0 extra steps, plus overshoot) is still
    # about 35 percent at this threshold and only vanishes asymptotically
    # (ratio 1.16 at log 50, 1.09 at log 100, measured at 2000 trials).
    assert ok


def test_criterion_4_grid_equivalence():
    rng = random.Random(11)
    grid = Grid(-5.0, 5.0, 10_000)
    worst_sup = 0.0
    for _ in range(100):
        k = rng.choice((2, 3))
        n = rng.randint(1, 50)
        sums = [n * rng.uniform(-2.0, 2.0) for _ in range(k)]
        # The kernel's suprema on a one-trial row, as validate scores them.
        member, sups = _scores(GAUSS, float(n), np.array([sums]), TestKind)
        a_hat = frozenset(np.flatnonzero(member[0]).tolist())
        for kind, got in zip(TestKind, sups):
            ref = grid_sup_loglik(GAUSS, n, sums, a_hat, kind, grid)
            worst_sup = max(worst_sup, _deviation(np.concatenate(got).tolist(), ref))

    worst_const = 0.0
    for _ in range(100):
        k = rng.choice((2, 3))
        members = frozenset(i for i in range(k) if rng.random() < 0.5)
        theta = JointParameter.coupled(
            k,
            members,
            rng.uniform(0.1, 2.6) if members else None,
            rng.uniform(-2.6, -0.1) if len(members) < k else None,
        )
        a = info_constants(GAUSS, theta)
        b = grid_info_constants(GAUSS, theta, grid)
        worst_const = max(worst_const, _deviation(astuple(a), astuple(b)))

    ok = report(
        "criterion 4 (closed forms match grid scans)",
        worst_sup <= 1e-4 and worst_const <= 1e-4,
        f"suprema max |dev| {worst_sup:.2e} over 100 states, "
        f"constants max |dev| {worst_const:.2e} over 100 truths, tol 1e-4",
    )
    assert ok


def test_criterion_5_martingale_mean_one():
    lines = []
    ok = True
    for n in (1, 5, 10):
        mean, se = mean_one_martingale_estimate(REF_MODEL, REF_THETA, n, 100_000, random.Random(3))
        dev = abs(mean - 1.0)
        ok = ok and dev <= 3.0 * se
        lines.append(f"n={n}: mean {mean:.4f} ({dev / se:.2f} SE)")
    gmean, gse = mean_one_martingale_estimate(GAUSS, TRUTH, 1, 100_000, random.Random(1))
    gdev = abs(gmean - 1.0)
    ok = ok and gdev <= 3.0 * gse
    lines.append(f"gaussian n=1: mean {gmean:.4f} ({gdev / gse:.2f} SE)")
    ok = report(
        "criterion 5 (adaptive likelihood ratio has mean one)",
        ok,
        "; ".join(lines) + "; tol 3 SE at 10^5 trials",
    )
    assert ok


def test_criterion_6_lln_drift():
    lines = []
    ok = True
    means = lln_rate_estimate(GAUSS, TRUTH, 2000, 500, tuple(TestKind), random.Random(13))
    for kind, target in ((TestKind.CONSTRAINED, 0.26), (TestKind.UNCONSTRAINED, 0.18)):
        m0, m1 = means[kind]
        dev = max(abs(m0 - target), abs(m1 - target)) / target
        ok = ok and dev <= 0.05
        lines.append(f"{kind.value}: means ({m0:.4f}, {m1:.4f}) vs {target} (dev {dev:.1%})")
    ok = report(
        "criterion 6 (normalized statistics approach the constants)",
        ok,
        "; ".join(lines) + "; tol 5% at n=2000, 500 trials",
    )
    assert ok


def test_criterion_7_lower_bound_never_violated(desk_sweep, constants):
    lines = []
    ok = True
    for log_t in (2.0, 5.0, 10.0, 20.0):
        s = desk_sweep[(TestKind.CONSTRAINED, log_t)]
        level = min(1.0, math.exp(-log_t))
        bound = lower_bound(constants, level, level)
        ok = ok and s.ess >= bound
        lines.append(f"log {log_t:g}: ESS {s.ess:.2f} >= bound {bound:.2f}")
    ok = report("criterion 7 (Monte Carlo ESS respects the lower bound)", ok, "; ".join(lines))
    assert ok
