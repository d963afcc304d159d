"""Information geometry of the coupled parameter space.

The coupled space restricts a K-stream parameter vector to share a single
signal value across signal streams and a single noise value across noise
streams.  For a vector theta with signal set A(theta), the constants

    i0 = min over subsets B with B \\ A(theta) nonempty of KL(theta, space_B)
    i1 = min over subsets B with A(theta) \\ B nonempty of KL(theta, space_B)

measure the cheapest way a wrong signal-set assignment B can explain data
generated under theta; space_B is the slice of the coupled space whose
signal set is exactly B.  Under a coupled theta every signal stream has the
same value and every noise stream the same value, so KL(theta, space_B)
depends on B only through the counts |B & A| and |B \\ A|: the minimum over
2^K subsets is a minimum over O(K^2) count pairs.  The per-stream
relaxations i0_tilde and i1_tilde drop the coupling and bound i0 and i1
from below; they are defined for any truth, coupled or not.  Expected
sample sizes of valid sequential procedures are bounded below through the
function phi.

Empty minimization families produce +inf, which propagates through max and
min and turns the corresponding bound term into zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError
from .models import JointParameter, Region, StreamModel, kl

# Slack for floating-point noise when validating i0 >= i0_tilde; grid-based
# constructions can violate the exact inequality by the grid error.
_TILDE_SLACK = 1e-6


@dataclass(frozen=True)
class InfoConstants:
    """Coupled and per-stream information constants for one truth vector."""

    i0: float
    i1: float
    i0_tilde: float
    i1_tilde: float

    def __post_init__(self):
        for name in ("i0", "i1", "i0_tilde", "i1_tilde"):
            v = getattr(self, name)
            if math.isnan(v) or v <= 0.0:
                raise DomainError(f"{name} must be positive (or +inf), got {v!r}")
        if self.i0 < self.i0_tilde - _TILDE_SLACK:
            raise DomainError("i0 cannot be smaller than its per-stream relaxation")
        if self.i1 < self.i1_tilde - _TILDE_SLACK:
            raise DomainError("i1 cannot be smaller than its per-stream relaxation")


def phi(x: float, y: float) -> float:
    """x*log(x/(1-y)) + (1-x)*log((1-x)/y) for x, y in (0,1) with x+y < 1.

    Decreasing in both arguments; behaves like |log y| as x, y -> 0.
    """
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise DomainError("phi requires x, y in (0, 1)")
    if not x + y < 1.0:
        raise DomainError("phi requires x + y < 1")
    return x * math.log(x / (1.0 - y)) + (1.0 - x) * math.log((1.0 - x) / y)


def kl_to_region(model: StreamModel, theta: float, region: Region) -> float:
    """Smallest KL divergence from f_theta to the family over one region.

    The divergence is decreasing then increasing along the parameter axis,
    so the infimum over a closed interval is attained at the clipped point.
    Zero when theta already lies in the region.  theta must lie in the
    parameter set, which :func:`~seqdetect.models.kl` checks.
    """
    return _group_inf(model, ((theta, 1),), region)


def _group_inf(model: StreamModel, groups, region: Region) -> float:
    """inf over u in the region of sum count * KL(theta, u) for one shared u.

    ``groups`` holds (theta, count) pairs: count streams at theta.  For both
    families the sum is convex in u with its unconstrained minimum at the
    group mean, so the infimum is attained at the clipped mean.  An empty
    group costs nothing.
    """
    groups = [(t, c) for t, c in groups if c]
    if not groups:
        return 0.0
    lo, hi = model.space.region_bounds(region)
    mean = sum(t * c for t, c in groups) / sum(c for _, c in groups)
    u = min(max(mean, lo), hi)
    return sum(c * kl(model, t, u) for t, c in groups)


def assignment_kl(model: StreamModel, theta: JointParameter, b: Iterable[int]) -> float:
    """KL(theta, space_B): cost of explaining theta with signal set B.

    Decouples into two scalar minimizations, one for the shared signal value
    over the streams in B and one for the shared noise value over the rest.
    Each minimizer is the group mean projected onto the region.
    """
    theta.require_constrained(model.space)
    members = frozenset(b)
    if not members.issubset(range(theta.k)):
        raise DomainError("subset contains an out-of-range stream index")
    sig = [(theta.thetas[i], 1) for i in sorted(members)]
    noise = [(theta.thetas[i], 1) for i in range(theta.k) if i not in members]
    return _group_inf(model, sig, Region.SIGNAL) + _group_inf(model, noise, Region.NOISE)


def per_stream_constants(model: StreamModel, theta: JointParameter) -> tuple[float, float]:
    """(i0_tilde, i1_tilde): the cheapest single-stream flip each way.

    i0_tilde moves one noise stream into the signal region, i1_tilde one
    signal stream into the noise region.  No coupling is needed, so any
    truth in the parameter set is accepted; an empty side gives +inf.
    """
    a_set = theta.signal_set(model.space)
    i0_tilde = math.inf
    i1_tilde = math.inf
    for i, t in enumerate(theta.thetas):
        if i in a_set:
            i1_tilde = min(i1_tilde, kl_to_region(model, t, Region.NOISE))
        else:
            i0_tilde = min(i0_tilde, kl_to_region(model, t, Region.SIGNAL))
    return i0_tilde, i1_tilde


def info_constants(model: StreamModel, theta: JointParameter) -> InfoConstants:
    """Compute (i0, i1, i0_tilde, i1_tilde) for a coupled truth.

    A subset B enters KL(theta, space_B) only through p = |B & A| signal
    streams and q = |B \\ A| noise streams placed in its signal group, so
    the minimum runs over the (|A| + 1)(K - |A| + 1) count pairs: i0 over
    q >= 1, i1 over p < |A|.  i0 is +inf exactly when every stream is a
    signal stream, i1 is +inf exactly when none is.
    """
    theta.require_constrained(model.space)
    a_set = theta.signal_set(model.space)
    k = theta.k
    a = len(a_set)
    # An empty group's value is never read: its count is zero.
    theta1 = next((theta.thetas[i] for i in a_set), None)
    theta0 = next((t for i, t in enumerate(theta.thetas) if i not in a_set), None)

    i0 = math.inf
    i1 = math.inf
    for p in range(a + 1):
        for q in range(k - a + 1):
            if q == 0 and p == a:
                continue
            v = _group_inf(model, ((theta1, p), (theta0, q)), Region.SIGNAL) + _group_inf(
                model, ((theta1, a - p), (theta0, k - a - q)), Region.NOISE
            )
            if q and v < i0:
                i0 = v
            if p < a and v < i1:
                i1 = v

    i0_tilde, i1_tilde = per_stream_constants(model, theta)
    return InfoConstants(i0=i0, i1=i1, i0_tilde=i0_tilde, i1_tilde=i1_tilde)


def lower_bound(constants: InfoConstants, alpha: float, beta: float) -> float:
    """Lower bound on the expected sample size of any valid procedure.

    Valid means familywise error rates at most alpha (false alarm) and beta
    (missed detection).  Requires alpha + beta < 1/2.  A +inf constant makes
    its term vanish.
    """
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise DomainError("alpha and beta must lie in (0, 1)")
    if not alpha + beta < 0.5:
        raise DomainError("lower bound requires alpha + beta < 1/2")
    t0 = phi(alpha + beta, beta) / constants.i0
    t1 = phi(alpha + beta, alpha) / constants.i1
    return max(t0, t1)
