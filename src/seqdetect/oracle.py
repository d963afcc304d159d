"""Reference implementations and Monte Carlo checks for cross-checking.

The references are deliberately slow and simple.  The error-set suprema
and the information constants come from one search over all 2^K
signal-set assignments, :func:`_family_extremes`, capped at MAX_STREAMS
streams; an assignment costs its closed-form projections (the
``subset_*`` references, exact) or its scans of dense parameter grids (the
``grid_*`` references).  The martingale and law-of-large-numbers
properties of the adaptive likelihood are estimated by Monte Carlo: the
kernel simulates (:func:`~seqdetect.engine._horizon`), the oracle scores.
The suprema references take their data in the kernel's state format: the
count n that all streams share and each stream's sum.  The private
``_stepwise_martingale_ratios`` and ``_stepwise_lln_margins`` repeat each
trial one observation at a time through the engine's step-at-a-time
reference (:func:`~seqdetect.engine.update` and
:func:`~seqdetect.engine.sup_loglik_error_sets`) and are the tests'
trial-by-trial, bit-for-bit reference for the batched ones.  The test
suite and the ``validate`` command compare the fast implementations
against these references.

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
from .geometry import InfoConstants, assignment_kl, kl_to_region
from .models import (
    Family,
    JointParameter,
    Region,
    StreamModel,
    _loglik,
    _require_stat,
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


def _family_extremes(reduce, empty: float, k: int, signal_set, cost) -> tuple[float, float]:
    """The one 2^K assignment search: (``reduce`` of ``cost(members, rest)``
    over every assignment of k streams that adds a stream to signal_set,
    the same over every one that drops a stream from it).  ``reduce`` is
    max or min, ``empty`` its value over an empty family; members and rest
    list an assignment's signal and noise streams in index order."""
    members_of = [[]]  # indexed by assignment mask
    for i in range(k):
        members_of += [members + [i] for members in members_of]
    a_mask = sum(1 << i for i in signal_set)
    full = (1 << k) - 1
    adds = drops = empty
    for mask, members in enumerate(members_of):
        add = mask & ~a_mask
        drop = a_mask & ~mask
        if add or drop:
            v = cost(members, members_of[full ^ mask])
            if add:
                adds = reduce(adds, v)
            if drop:
                drops = reduce(drops, v)
    return adds, drops


def _per_stream(sig: list[float], noise: list[float]):
    """Assignment cost when every stream takes its own value on its side:
    ``sig[i]`` for a signal stream, ``noise[i]`` for a noise stream."""
    return lambda members, rest: sum(sig[i] for i in members) + sum(noise[i] for i in rest)


def subset_sup_loglik_error_sets(
    model: StreamModel,
    n: int,
    sums: Sequence[float],
    signal_estimate: frozenset,
) -> tuple[float, float]:
    """Constrained error-set suprema by enumerating all 2^K assignments,
    for stream sums ``sums`` at the shared count ``n``.

    Each assignment pools the counts and sums of its signal group and of its
    noise group and takes the closed-form restricted suprema, so the values
    are exact; the reference for the engine's sorted-candidate search.
    """
    k = len(sums)
    _require_enumerable(k)
    _require_stat(model, n, sums)
    s_total = _engine._total(sums)

    def pooled(members, rest):
        sb = _engine._total(sums[i] for i in members)
        return sup_stat_loglik(model, n * len(members), sb, Region.SIGNAL) + sup_stat_loglik(
            model, n * len(rest), s_total - sb, Region.NOISE
        )

    return _family_extremes(max, _NEG_INF, k, signal_estimate, pooled)


def subset_info_constants(model: StreamModel, theta: JointParameter) -> InfoConstants:
    """Information constants by enumerating all 2^K signal-set assignments;
    exact, the reference for the count-pair minimum in
    :func:`~seqdetect.geometry.info_constants`.  i0 and i1 take each
    assignment's :func:`~seqdetect.geometry.assignment_kl`, the tilde
    constants its sum of :func:`~seqdetect.geometry.kl_to_region` over the
    streams it moves across the gap."""
    _require_enumerable(theta.k)
    theta.require_constrained(model.space)
    a_set = theta.signal_set(model.space)
    i0, i1 = _family_extremes(
        min, math.inf, theta.k, a_set, lambda members, rest: assignment_kl(model, theta, members)
    )
    # kl_to_region is 0 on a stream's own side, so a single flip costs
    # exactly its divergence and every further flip adds a term >= 0.
    sig = [kl_to_region(model, t, Region.SIGNAL) for t in theta.thetas]
    noise = [kl_to_region(model, t, Region.NOISE) for t in theta.thetas]
    i0_tilde, i1_tilde = _family_extremes(min, math.inf, theta.k, a_set, _per_stream(sig, noise))
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
        """Ascending grid points inside one region plus its clipped endpoints,
        so boundary optima are hit exactly (plain np.unique imports numpy.ma)."""
        rlo, rhi = model.space.region_bounds(region)
        lo = max(self.lo, rlo)
        hi = min(self.hi, rhi)
        if lo >= hi:
            return np.array([lo] if lo == hi else [], float)
        ax = self.axis()
        return np.concatenate(([lo], ax[(ax > lo) & (ax < hi)], [hi]))


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
    n: int,
    sums: Sequence[float],
    signal_estimate: frozenset,
    kind: "_engine.TestKind",
    grid: Grid,
) -> tuple[float, float]:
    """Grid version of the engine's error-set suprema, for stream sums
    ``sums`` at the shared count ``n``.

    Scans every signal-set assignment and every grid value of the shared
    parameters (the two shared values enter separate sums, so the 2-D scan
    reduces to two 1-D scans per assignment).  Values are statistic-level,
    as in the engine.
    """
    k = len(sums)
    _require_enumerable(k)
    _require_stat(model, n, sums)
    for i, s in enumerate(sums):
        if n > 0 and not (grid.lo <= s / n <= grid.hi):
            raise DomainError(f"stream {i} sample mean {s / n!r} outside the grid box")
    sig_pts = grid.region_points(model, Region.SIGNAL)
    noise_pts = grid.region_points(model, Region.NOISE)
    sig_curves = [_stat_loglik_curve(model, n, s, sig_pts) for s in sums]
    noise_curves = [_stat_loglik_curve(model, n, s, noise_pts) for s in sums]

    if kind is _engine.TestKind.UNCONSTRAINED:
        # Each stream takes its own best grid value on its side.
        sig = [float(c.max(initial=_NEG_INF)) for c in sig_curves]
        noise = [float(c.max(initial=_NEG_INF)) for c in noise_curves]
        return _family_extremes(max, _NEG_INF, k, signal_estimate, _per_stream(sig, noise))

    def pooled(members, rest):
        return _group_extreme(np.max, _NEG_INF, sig_curves, members) + _group_extreme(
            np.max, _NEG_INF, noise_curves, rest
        )

    return _family_extremes(max, _NEG_INF, k, signal_estimate, pooled)


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

    def pooled(members, rest):
        return _group_extreme(np.min, math.inf, sig_kl, members) + _group_extreme(
            np.min, math.inf, noise_kl, rest
        )

    i0, i1 = _family_extremes(min, math.inf, k, a_set, pooled)
    # A stream costs 0 on its own side and its grid minimum across the gap.
    sig = [0.0 if i in a_set else float(c.min(initial=math.inf)) for i, c in enumerate(sig_kl)]
    noise = [float(c.min(initial=math.inf)) if i in a_set else 0.0 for i, c in enumerate(noise_kl)]
    i0_tilde, i1_tilde = _family_extremes(min, math.inf, k, a_set, _per_stream(sig, noise))
    return InfoConstants(i0=i0, i1=i1, i0_tilde=i0_tilde, i1_tilde=i1_tilde)


def _martingale_ratios(model, theta, n, trials, rng) -> np.ndarray:
    thetas = np.array(theta.thetas)
    logs = _engine._logs_at(model, thetas)
    ratios = np.empty(trials)
    for rows, sums, adaptive in _engine._horizon(model, theta, n, trials, rng):
        true_ll = _engine._row_sums(_loglik(model, n, sums, thetas, logs))
        ratios[rows] = _engine._libm(math.exp, (adaptive - true_ll).tolist())
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
        true_ll = _engine._total(
            stat_loglik(model, state.n, s, t) for s, t in zip(state.sums, theta.thetas)
        )
        ratios[i] = math.exp(state.adaptive_loglik - true_ll)
    return ratios


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
    Runs on the engine's block step; each trial's ratio and the generator's
    final state equal those of :func:`_stepwise_martingale_ratios`.
    """
    theta.require_constrained(model.space)
    if n < 0:
        raise DomainError("n must be non-negative")
    if trials < 10_000:
        raise DomainError("martingale estimate needs at least 10^4 trials")
    if n == 0:
        return 1.0, 0.0
    ratios = _martingale_ratios(model, theta, n, trials, rng)
    return float(ratios.mean()), float(ratios.std(ddof=1) / math.sqrt(trials))


def _lln_margins(model, theta, n, trials, kinds, rng):
    """Each trial's adaptive log-likelihood at time n (trials) and each
    kind's (logL0, logL1) there (kinds x 2 x trials).

    The chunks' final sums and adaptive log-likelihoods are gathered over all
    trials, and every kind is scored on them in one
    :func:`~seqdetect.engine._scores` call.
    """
    sums = np.empty((trials, theta.k))
    adaptive = np.empty(trials)
    for rows, *chunk in _engine._horizon(model, theta, n, trials, rng):
        sums[rows], adaptive[rows] = chunk
    _, sups = _engine._scores(model, float(n), sums, kinds)
    return adaptive, np.array(sups)


def _stepwise_lln_margins(model, theta, n, trials, kinds, rng):
    for state in _stepwise_horizon(model, theta, n, trials, rng):
        yield (state.adaptive_loglik, *(_engine.sup_loglik_error_sets(state, k) for k in kinds))


def lln_rate_estimate(
    model: StreamModel,
    theta: JointParameter,
    n: int,
    trials: int,
    kinds: "tuple[_engine.TestKind, ...]",
    rng: random.Random,
) -> "dict[_engine.TestKind, tuple[float, float]]":
    """Monte Carlo means of the normalized stopping statistics at time n.

    Maps each of ``kinds`` to the means of (adaptive_loglik - logL0)/n and
    (adaptive_loglik - logL1)/n, which converge to its information constants;
    all kinds are scored on one simulated horizon, each kind's margins once
    over all trials.  Requires a coupled truth and n >= 500 so the normalized
    statistics are near their limits.  Runs on the engine's block step; each
    trial's margins and the generator's final state equal those of
    :func:`_stepwise_lln_margins`, and the means are their averages over
    the trial axis.
    """
    theta.require_constrained(model.space)
    if n < 500:
        raise DomainError("rate estimate needs n >= 500")
    if trials < 1:
        raise DomainError("at least one trial required")
    if not kinds:
        raise DomainError("at least one test kind required")
    adaptive, sups = _lln_margins(model, theta, n, trials, kinds, rng)
    return dict(zip(kinds, map(tuple, ((adaptive - sups) / n).mean(-1).tolist())))
