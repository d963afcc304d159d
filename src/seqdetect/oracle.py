"""Reference implementations and Monte Carlo checks for cross-checking.

The references are deliberately slow and simple.  The constrained
error-set suprema and the information constants are found by enumerating
all 2^K signal-set assignments, either with the closed-form projections
(the ``subset_*`` references, exact) or by scanning dense parameter grids
(the ``grid_*`` references); enumeration is capped at MAX_STREAMS streams.
The martingale and law-of-large-numbers properties of the adaptive
likelihood are estimated by Monte Carlo on the kernel that simulations
run: its block step and its error-set suprema.  The private ``_stepwise_*``
estimators repeat them one observation at a time through the engine's
step-at-a-time reference (:func:`~seqdetect.engine.update` and
:func:`~seqdetect.engine.sup_loglik_error_sets`) and are the tests'
bit-for-bit reference for the batched ones.  The test suite and the
``validate`` command compare the fast implementations against these
references.

Grid scans are valid only while the relevant sample means stay inside the
grid box; :func:`grid_sup_loglik` checks that at call time.  Grid maxima of
a smooth function are exact at included region endpoints and otherwise off
by at most curvature * step^2 / 8 per pooled observation.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine as _engine
from .errors import CapacityError, DomainError
from .geometry import InfoConstants, assignment_kl, per_stream_constants
from .models import (
    Family,
    JointParameter,
    Region,
    StreamModel,
    SufficientStat,
    _loglik,
    sample,
    stat_loglik,
    sup_stat_loglik,
)

# Largest stream count the 2^K enumerations accept.
MAX_STREAMS = 16

_NEG_INF = float("-inf")


def _require_enumerable(k: int) -> None:
    if k > MAX_STREAMS:
        raise CapacityError(f"subset enumeration supports at most {MAX_STREAMS} streams")


def _error_masks(k: int, signal_set):
    """Every assignment mask of k streams with its error-family membership:
    yields (mask, adds a stream to signal_set, drops one from it), skipping
    the assignment equal to signal_set."""
    a_mask = 0
    for i in signal_set:
        a_mask |= 1 << i
    for mask in range(1 << k):
        adds = bool(mask & ~a_mask)
        drops = bool(a_mask & ~mask)
        if adds or drops:
            yield mask, adds, drops


def subset_sup_loglik_error_sets(
    model: StreamModel,
    stats: Sequence[SufficientStat],
    signal_estimate: frozenset,
) -> tuple[float, float]:
    """Constrained error-set suprema by enumerating all 2^K assignments.

    Each assignment pools the counts and sums of its signal group and of its
    noise group and takes the closed-form restricted suprema, so the values
    are exact; the reference for the engine's sorted-candidate search.
    """
    k = len(stats)
    _require_enumerable(k)
    n_total = sum(st.n for st in stats)
    s_total = sum(st.s for st in stats)
    l0 = _NEG_INF
    l1 = _NEG_INF
    for mask, adds, drops in _error_masks(k, signal_estimate):
        nb = 0
        sb = 0.0
        for i in range(k):
            if mask >> i & 1:
                nb += stats[i].n
                sb += stats[i].s
        val = sup_stat_loglik(model, nb, sb, Region.SIGNAL) + sup_stat_loglik(
            model, n_total - nb, s_total - sb, Region.NOISE
        )
        if adds and val > l0:
            l0 = val
        if drops and val > l1:
            l1 = val
    return l0, l1


def subset_info_constants(model: StreamModel, theta: JointParameter) -> InfoConstants:
    """Information constants by enumerating all 2^K signal-set assignments
    through :func:`~seqdetect.geometry.assignment_kl`; exact, the reference
    for the count-pair minimum in :func:`~seqdetect.geometry.info_constants`."""
    _require_enumerable(theta.k)
    theta.require_constrained(model.space)
    a_set = theta.signal_set(model.space)
    i0 = math.inf
    i1 = math.inf
    for mask, adds, drops in _error_masks(theta.k, a_set):
        v = assignment_kl(model, theta, [i for i in range(theta.k) if mask >> i & 1])
        if adds and v < i0:
            i0 = v
        if drops and v < i1:
            i1 = v
    i0_tilde, i1_tilde = per_stream_constants(model, theta)
    return InfoConstants(i0=i0, i1=i1, i0_tilde=i0_tilde, i1_tilde=i1_tilde)


@dataclass(frozen=True)
class Grid:
    """Uniform scan grid on [lo, hi] with a fixed number of points."""

    lo: float = -5.0
    hi: float = 5.0
    points: int = 10_000

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise DomainError("grid needs finite lo < hi")
        if self.points < 2:
            raise DomainError("grid needs at least two points")

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.points - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)

    def region_points(self, model: StreamModel, region: Region) -> np.ndarray:
        """Grid points inside one region, with the clipped region endpoints
        appended so boundary optima are hit exactly."""
        rlo, rhi = model.space.region_bounds(region)
        lo = max(self.lo, rlo)
        hi = min(self.hi, rhi)
        if lo > hi:
            return np.empty(0)
        ax = self.axis()
        pts = ax[(ax >= lo) & (ax <= hi)]
        return np.unique(np.concatenate([pts, [lo, hi]]))


def _stat_loglik_curve(model: StreamModel, n: int, s: float, pts: np.ndarray) -> np.ndarray:
    """Statistic-level log-likelihood along a parameter grid (vectorized,
    written out independently of the closed-form module)."""
    if model.family is Family.GAUSSIAN:
        return pts * s - 0.5 * n * pts * pts
    return s * np.log(pts) + (n - s) * np.log1p(-pts)


def _kl_curve(model: StreamModel, theta: float, pts: np.ndarray) -> np.ndarray:
    if model.family is Family.GAUSSIAN:
        return 0.5 * (theta - pts) ** 2
    return theta * (math.log(theta) - np.log(pts)) + (1.0 - theta) * (
        math.log1p(-theta) - np.log1p(-pts)
    )


def _group_extreme(reduce, empty: float, curves: list[np.ndarray], members: list[int]) -> float:
    """``reduce`` (np.max or np.min) over the grid of the members' summed
    curves; ``empty`` when the region holds no grid point.  An empty group
    costs nothing."""
    if not members:
        return 0.0
    total = curves[members[0]]
    for i in members[1:]:
        total = total + curves[i]
    return float(reduce(total, initial=empty))


def grid_sup_loglik(
    model: StreamModel,
    stats: Sequence[SufficientStat],
    signal_estimate: frozenset,
    kind: "_engine.TestKind",
    grid: Grid,
) -> tuple[float, float]:
    """Grid version of the engine's error-set suprema.

    Scans every signal-set assignment and every grid value of the shared
    parameters (the two shared values enter separate sums, so the 2-D scan
    reduces to two 1-D scans per assignment).  Values are statistic-level,
    as in the engine.
    """
    k = len(stats)
    _require_enumerable(k)
    for i, st in enumerate(stats):
        if st.n > 0 and not (grid.lo <= st.s / st.n <= grid.hi):
            raise DomainError(
                f"stream {i} sample mean {st.s / st.n!r} outside the grid box"
            )
    sig_pts = grid.region_points(model, Region.SIGNAL)
    noise_pts = grid.region_points(model, Region.NOISE)
    sig_curves = [_stat_loglik_curve(model, st.n, st.s, sig_pts) for st in stats]
    noise_curves = [_stat_loglik_curve(model, st.n, st.s, noise_pts) for st in stats]

    if kind is _engine.TestKind.UNCONSTRAINED:
        sig_max = [_group_extreme(np.max, _NEG_INF, sig_curves, [i]) for i in range(k)]
        noise_max = [_group_extreme(np.max, _NEG_INF, noise_curves, [i]) for i in range(k)]
        full_max = [max(a, b) for a, b in zip(sig_max, noise_max)]
        total = sum(full_max)
        l0 = _NEG_INF
        l1 = _NEG_INF
        for i in range(k):
            if i in signal_estimate:
                l1 = max(l1, total - full_max[i] + noise_max[i])
            else:
                l0 = max(l0, total - full_max[i] + sig_max[i])
        return l0, l1

    l0 = _NEG_INF
    l1 = _NEG_INF
    for mask, adds, drops in _error_masks(k, signal_estimate):
        members = [i for i in range(k) if mask >> i & 1]
        rest = [i for i in range(k) if not mask >> i & 1]
        val = _group_extreme(np.max, _NEG_INF, sig_curves, members) + _group_extreme(
            np.max, _NEG_INF, noise_curves, rest
        )
        if adds and val > l0:
            l0 = val
        if drops and val > l1:
            l1 = val
    return l0, l1


def grid_info_constants(model: StreamModel, theta: JointParameter, grid: Grid) -> InfoConstants:
    """Grid version of the information constants."""
    theta.require_constrained(model.space)
    for i, t in enumerate(theta.thetas):
        if not (grid.lo <= t <= grid.hi):
            raise DomainError(f"stream {i} parameter {t!r} outside the grid box")
    k = theta.k
    _require_enumerable(k)
    a_set = theta.signal_set(model.space)
    sig_pts = grid.region_points(model, Region.SIGNAL)
    noise_pts = grid.region_points(model, Region.NOISE)
    sig_kl = [_kl_curve(model, t, sig_pts) for t in theta.thetas]
    noise_kl = [_kl_curve(model, t, noise_pts) for t in theta.thetas]

    i0 = math.inf
    i1 = math.inf
    for mask, adds, drops in _error_masks(k, a_set):
        members = [i for i in range(k) if mask >> i & 1]
        rest = [i for i in range(k) if not mask >> i & 1]
        v = _group_extreme(np.min, math.inf, sig_kl, members) + _group_extreme(
            np.min, math.inf, noise_kl, rest
        )
        if adds and v < i0:
            i0 = v
        if drops and v < i1:
            i1 = v

    i0_tilde = math.inf
    i1_tilde = math.inf
    for i in range(k):
        if i in a_set:
            i1_tilde = min(i1_tilde, _group_extreme(np.min, math.inf, noise_kl, [i]))
        else:
            i0_tilde = min(i0_tilde, _group_extreme(np.min, math.inf, sig_kl, [i]))
    return InfoConstants(i0=i0, i1=i1, i0_tilde=i0_tilde, i1_tilde=i1_tilde)


def _horizon(model: StreamModel, theta: JointParameter, n: int, trials: int, rng):
    """Run ``trials`` trials of the engine under ``theta`` to time ``n``.

    Trials run in chunks on the engine's block step, drawing from ``rng`` in
    the order of a loop over trials that calls
    :func:`~seqdetect.engine.update` once per step, so the generator ends
    where that loop leaves it.  Each block's widest temporary keeps within
    the kernel's element budget.  Yields per chunk the stream sums, the
    adaptive log-likelihoods and the last step's q0, q1 and estimate (see
    :func:`seqdetect.engine._absorb`).
    """
    k = theta.k
    thetas = np.array(theta.thetas)
    rows = _engine._block_rows(k)
    # A chunk of several trials takes all n steps in one block, so one draw
    # per block keeps the trial-major order.
    width = max(1, rows // n)
    steps = min(n, rows)
    for lo in range(0, trials, width):
        c = min(width, trials - lo)
        sums = np.zeros((c, k))
        mle = np.full((c, k), model.space.theta1_lo)
        adaptive = np.zeros(c)
        for t in range(0, n, steps):
            x = _engine._observations(model, thetas, [rng], (c, min(steps, n - t), k))
            _, _, q0, q1, member, _ = _engine._absorb(model, x, sums, mle, adaptive, t)
        yield sums, adaptive, q0[:, -1], q1[:, -1], member[:, -1]


def _martingale_ratios(model, theta, n, trials, rng) -> np.ndarray:
    thetas = np.array(theta.thetas)
    ratios = np.empty(trials)
    lo = 0
    for sums, adaptive, *_ in _horizon(model, theta, n, trials, rng):
        true_ll = _engine._row_sums(_loglik(model, n, sums, thetas, *_engine._region_logs(model)))
        ratios[lo:lo + adaptive.size] = _engine._libm(math.exp, adaptive - true_ll)
        lo += adaptive.size
    return ratios


def _stepwise_horizon(model, theta, n, trials, rng):
    """Each trial's engine state at time ``n``, one observation at a time."""
    for _ in range(trials):
        state = _engine.init(model, theta.k)
        for _ in range(n):
            _engine.update(state, [sample(model, t, rng) for t in theta.thetas])
        yield state


def _stepwise_martingale_ratios(model, theta, n, trials, rng) -> np.ndarray:
    ratios = np.empty(trials)
    for i, state in enumerate(_stepwise_horizon(model, theta, n, trials, rng)):
        true_ll = sum(stat_loglik(model, st, t) for st, t in zip(state.stats, theta.thetas))
        ratios[i] = math.exp(state.adaptive_loglik - true_ll)
    return ratios


def _martingale_estimate(ratios_of, model, theta, n, trials, rng) -> tuple[float, float]:
    theta.require_constrained(model.space)
    if n < 0:
        raise DomainError("n must be non-negative")
    if trials < 10_000:
        raise DomainError("martingale estimate needs at least 10^4 trials")
    if n == 0:
        return 1.0, 0.0
    ratios = ratios_of(model, theta, n, trials, rng)
    mean = float(ratios.mean())
    se = float(ratios.std(ddof=1) / math.sqrt(trials))
    return mean, se


def mean_one_martingale_estimate(
    model: StreamModel,
    theta: JointParameter,
    n: int,
    trials: int,
    rng: random.Random,
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the adaptive likelihood ratio.

    Simulates the engine under ``theta`` for ``n`` steps and averages
    exp(adaptive_loglik - true_loglik), whose expectation is exactly 1 at
    every n.  The true log-likelihood is taken once from the final
    statistics, in the engine's statistic-level convention, so the base
    measure cancels.  Requires a coupled truth and at least 10^4 trials;
    n = 0 returns (1.0, 0.0) since both log-likelihoods are empty sums.
    Runs on the engine's block step; the result and the generator's final
    state equal those of :func:`_stepwise_martingale_estimate`.
    """
    return _martingale_estimate(_martingale_ratios, model, theta, n, trials, rng)


def _stepwise_martingale_estimate(model, theta, n, trials, rng) -> tuple[float, float]:
    """:func:`mean_one_martingale_estimate` one observation at a time through
    :func:`~seqdetect.engine.update`; the reference for the block step."""
    return _martingale_estimate(_stepwise_martingale_ratios, model, theta, n, trials, rng)


def _lln_margins(model, theta, n, trials, kind, rng):
    count = np.array([float(n)])
    for sums, adaptive, q0, q1, member in _horizon(model, theta, n, trials, rng):
        l0, l1 = _engine._error_sups(model, kind, count, sums, q0, q1, member)
        yield from zip(adaptive.tolist(), l0.tolist(), l1.tolist())


def _stepwise_lln_margins(model, theta, n, trials, kind, rng):
    for state in _stepwise_horizon(model, theta, n, trials, rng):
        yield (state.adaptive_loglik, *_engine.sup_loglik_error_sets(state, kind))


def _lln_estimate(margins_of, model, theta, n, trials, kind, rng) -> tuple[float, float]:
    theta.require_constrained(model.space)
    if n < 500:
        raise DomainError("rate estimate needs n >= 500")
    if trials < 1:
        raise DomainError("at least one trial required")
    acc0 = 0.0
    acc1 = 0.0
    for adaptive, l0, l1 in margins_of(model, theta, n, trials, kind, rng):
        acc0 += (adaptive - l0) / n
        acc1 += (adaptive - l1) / n
    return acc0 / trials, acc1 / trials


def lln_rate_estimate(
    model: StreamModel,
    theta: JointParameter,
    n: int,
    trials: int,
    kind: "_engine.TestKind",
    rng: random.Random,
) -> tuple[float, float]:
    """Monte Carlo means of the normalized stopping statistics at time n.

    Returns the averages of (adaptive_loglik - logL0)/n and
    (adaptive_loglik - logL1)/n, which converge to the information constants
    governing the chosen kind.  Requires a coupled truth and n >= 500 so the
    normalized statistics are near their limits.  Runs on the engine's block
    step; the result and the generator's final state equal those of
    :func:`_stepwise_lln_rate_estimate`.
    """
    return _lln_estimate(_lln_margins, model, theta, n, trials, kind, rng)


def _stepwise_lln_rate_estimate(model, theta, n, trials, kind, rng) -> tuple[float, float]:
    """:func:`lln_rate_estimate` one observation at a time through
    :func:`~seqdetect.engine.update`; the reference for the block step."""
    return _lln_estimate(_stepwise_lln_margins, model, theta, n, trials, kind, rng)
