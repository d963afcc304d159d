"""Observation families over a partitioned parameter set.

Each stream draws i.i.d. observations from a one-parameter family f_theta.
The parameter set Theta is the union of two disjoint closed intervals: a
noise region Theta0 and a signal region Theta1, with Theta0 entirely to the
left of Theta1.  A stream is a signal stream when its parameter falls in
Theta1 and a noise stream otherwise.

Likelihoods are statistic-level: both families are exponential families in
which the pair (n, s) of observation count and running sum is sufficient,
and the log-likelihood of (n, s) at theta is taken as

    Gaussian   theta*s - n*theta^2/2
    Bernoulli  s*log(theta) + (n - s)*log(1 - theta)

The base measure, the parameter-free sum of log h(x_t) over the
observations, is left out.  It is the same for every theta scored against
the same data, so it cancels from every likelihood ratio the test forms.
(For Bernoulli it is 0 and the values are exact.)  Restricted maxima reduce
to the closed form at the sample mean projected onto the region.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import ConfigError, DomainError

__all__ = [
    "Family",
    "Region",
    "ParameterSpace",
    "StreamModel",
    "JointParameter",
    "kl",
    "stat_loglik",
    "sup_stat_loglik",
    "mle_unrestricted",
    "sample",
]

class Family(Enum):
    GAUSSIAN = "gaussian"
    BERNOULLI = "bernoulli"


class Region(Enum):
    NOISE = "noise"
    SIGNAL = "signal"


@dataclass(frozen=True)
class ParameterSpace:
    """Union of a closed noise interval and a closed signal interval.

    The interior boundaries theta0_hi < theta1_lo must be finite; the outer
    boundaries may be infinite (Gaussian indifference zones use
    (-inf, -delta] and [delta, +inf)).
    """

    theta0_lo: float
    theta0_hi: float
    theta1_lo: float
    theta1_hi: float

    def __post_init__(self):
        vals = (self.theta0_lo, self.theta0_hi, self.theta1_lo, self.theta1_hi)
        if any(math.isnan(v) for v in vals):
            raise ConfigError("parameter space bounds must not be NaN")
        if not (math.isfinite(self.theta0_hi) and math.isfinite(self.theta1_lo)):
            raise ConfigError("interior region boundaries must be finite")
        if not self.theta0_lo <= self.theta0_hi:
            raise ConfigError("empty noise region")
        if not self.theta1_lo <= self.theta1_hi:
            raise ConfigError("empty signal region")
        if not self.theta0_hi < self.theta1_lo:
            raise ConfigError("noise region must lie strictly below signal region")

    @classmethod
    def gaussian_indifference(cls, delta: float) -> "ParameterSpace":
        """Symmetric unbounded space (-inf, -delta] | [delta, +inf)."""
        if not (math.isfinite(delta) and delta > 0.0):
            raise ConfigError("delta must be finite and positive")
        return cls(-math.inf, -delta, delta, math.inf)

    def region_bounds(self, region: Region) -> tuple[float, float]:
        if region is Region.NOISE:
            return self.theta0_lo, self.theta0_hi
        return self.theta1_lo, self.theta1_hi

    def in_noise(self, theta: float) -> bool:
        return self.theta0_lo <= theta <= self.theta0_hi

    def in_signal(self, theta: float) -> bool:
        return self.theta1_lo <= theta <= self.theta1_hi

    def contains(self, theta: float) -> bool:
        return self.in_noise(theta) or self.in_signal(theta)


@dataclass(frozen=True)
class StreamModel:
    """One observation family together with its partitioned parameter set."""

    family: Family
    space: ParameterSpace

    def __post_init__(self):
        if self.family is Family.BERNOULLI:
            sp = self.space
            if not (0.0 < sp.theta0_lo and sp.theta1_hi < 1.0):
                raise ConfigError(
                    "Bernoulli regions must be closed subintervals of (0, 1)"
                )


@dataclass(frozen=True)
class JointParameter:
    """Parameter vector across the K streams."""

    thetas: tuple[float, ...]

    def __post_init__(self):
        if len(self.thetas) == 0:
            raise ConfigError("at least one stream required")
        if any(not math.isfinite(t) for t in self.thetas):
            raise ConfigError("stream parameters must be finite")

    @classmethod
    def coupled(
        cls,
        k: int,
        signal_set: Sequence[int],
        theta1: float | None,
        theta0: float | None,
    ) -> "JointParameter":
        """Build a vector with one shared signal value and one shared noise value.

        Streams listed in ``signal_set`` (0-based) receive ``theta1``, the rest
        ``theta0``.  The value for an empty group may be None.
        """
        members = frozenset(signal_set)
        if not members.issubset(range(k)):
            raise ConfigError("signal set contains an out-of-range stream index")
        thetas = []
        for i in range(k):
            v = theta1 if i in members else theta0
            if v is None:
                raise ConfigError("missing parameter value for a non-empty group")
            thetas.append(float(v))
        return cls(tuple(thetas))

    @property
    def k(self) -> int:
        return len(self.thetas)

    def signal_set(self, space: ParameterSpace) -> frozenset[int]:
        """Indices of streams whose parameter lies in the signal region."""
        out = []
        for i, t in enumerate(self.thetas):
            if space.in_signal(t):
                out.append(i)
            elif not space.in_noise(t):
                raise DomainError(f"stream {i} parameter {t} outside the parameter set")
        return frozenset(out)

    def is_constrained(self, space: ParameterSpace) -> bool:
        """True when all signal coordinates are equal and all noise coordinates are equal."""
        sig = self.signal_set(space)
        sig_vals = {self.thetas[i] for i in sig}
        noise_vals = {self.thetas[i] for i in range(self.k) if i not in sig}
        return len(sig_vals) <= 1 and len(noise_vals) <= 1

    def require_constrained(self, space: ParameterSpace) -> None:
        if not self.is_constrained(space):
            raise ConfigError("joint parameter is not in the coupled space")


def _require_in_space(model: StreamModel, theta: float, what: str = "theta") -> None:
    if not model.space.contains(theta):
        raise DomainError(f"{what}={theta!r} outside the parameter set")


def _require_stat(model: StreamModel, n: int, sums: Sequence[float]) -> None:
    """Rejects sums at count n that n observations of ``model`` cannot give:
    n < 0, a sum not finite, nonzero at n = 0, or (Bernoulli) not whole in [0, n]."""
    if n < 0:
        raise DomainError("observation count must be non-negative")
    for s in sums:
        if not math.isfinite(s) or (n == 0 and s):
            raise DomainError(f"sum {s!r} at count {n}: a sum must be finite, and 0 at n = 0")
        if model.family is Family.BERNOULLI and not (0 <= s <= n and s == math.floor(s)):
            raise DomainError(f"Bernoulli sum {s!r} is not a whole number from 0 to {n}")


def kl(model: StreamModel, theta: float, theta_p: float) -> float:
    """Kullback-Leibler divergence between f_theta and f_theta_p.

    Both arguments must lie in the parameter set.  Gaussian:
    (theta - theta_p)^2 / 2.  Bernoulli:
    theta*log(theta/theta_p) + (1-theta)*log((1-theta)/(1-theta_p)).
    """
    _require_in_space(model, theta)
    _require_in_space(model, theta_p, "theta_p")
    if model.family is Family.GAUSSIAN:
        d = theta - theta_p
        return 0.5 * d * d
    return theta * (math.log(theta) - math.log(theta_p)) + (1.0 - theta) * (
        math.log1p(-theta) - math.log1p(-theta_p)
    )


def _loglik(model: StreamModel, n, s, theta, logs=()):
    """Statistic-level log-likelihood of (n, s) at theta, unchecked.

    The one home of both closed forms; every public likelihood routes
    through it.  Callers guarantee theta lies in the parameter set.  For the
    Bernoulli, ``logs`` may hold (log(theta), log1p(-theta)) taken
    beforehand; the batched engine kernel passes numpy arrays with their
    logs taken by libm, as the scalar default takes them, so both paths
    round identically.
    """
    if model.family is Family.GAUSSIAN:
        return theta * s - 0.5 * n * theta * theta
    log_theta, log1m_theta = logs or (math.log(theta), math.log1p(-theta))
    return s * log_theta + (n - s) * log1m_theta


def stat_loglik(model: StreamModel, n: int, s: float, theta: float) -> float:
    """Statistic-level log-likelihood of count n and sum s at theta
    (see the module docstring); theta must lie in the parameter set."""
    _require_stat(model, n, (s,))
    _require_in_space(model, theta)
    return _loglik(model, n, s, theta)


def sup_stat_loglik(model: StreamModel, n: int, s: float, region: Region) -> float:
    """Supremum of :func:`stat_loglik` over a region, in closed form.

    Takes pooled counts and sums unchecked, as the hot paths pass them.  The
    maximizer is the sample mean s/n projected onto the region; an empty
    statistic contributes 0.
    """
    if n == 0:
        return 0.0
    lo, hi = model.space.region_bounds(region)
    return _loglik(model, n, s, min(max(s / n, lo), hi))


def mle_unrestricted(model: StreamModel, n: int, s: float) -> float:
    """Maximum-likelihood parameter over the whole parameter set, from count
    n and sum s.

    The sample mean clipped into each region gives the two restricted
    maximizers; the better one is returned, exact ties going to the signal
    side.
    """
    _require_stat(model, n, (s,))
    if n < 1:
        raise DomainError("MLE needs a positive observation count")
    sp = model.space
    mean = s / n
    cand0 = min(max(mean, sp.theta0_lo), sp.theta0_hi)
    cand1 = min(max(mean, sp.theta1_lo), sp.theta1_hi)
    if _loglik(model, n, s, cand1) >= _loglik(model, n, s, cand0):
        return cand1
    return cand0


def sample(model: StreamModel, theta: float, rng) -> float:
    """Draw one observation from f_theta using ``rng`` (a random.Random)."""
    _require_in_space(model, theta)
    if model.family is Family.GAUSSIAN:
        return rng.gauss(theta, 1.0)
    return 1.0 if rng.random() < theta else 0.0
