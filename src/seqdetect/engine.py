"""Adaptive sequential test over K parallel streams.

The procedure tracks, per stream, the sufficient statistic and the lagged
maximum-likelihood estimate, and accumulates an adaptive log-likelihood in
which observation n is scored against the estimate formed from the first
n - 1 observations.  That one-step lag makes the likelihood ratio of the
adaptive process to the truth a mean-one martingale, which is what gives
the stopping rule its familywise error guarantees.

At each time the current signal-set estimate splits the alternatives into
two error families: assignments that add a stream (false alarms) and
assignments that drop one (missed detections).  The test stops when the
adaptive log-likelihood beats the best achievable log-likelihood of both
families by the configured margins.  The constrained variant restricts the
alternatives to the coupled space (one shared signal value, one shared
noise value); the unconstrained variant lets every stream move freely and
serves as the baseline.

Every log-likelihood here is statistic-level (see :mod:`seqdetect.models`):
observation x scored at the lagged estimate t adds the closed form at
(n=1, s=x, t) -- t*x - t^2/2 for the Gaussian, x*log(t) + (1-x)*log(1-t) for
the Bernoulli -- and each supremum is the same closed form at pooled counts.
The base measure of the data is common to the adaptive likelihood and to
every supremum, so it cancels from both margins and is never accumulated;
the margins are exact log-likelihood ratios.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import ConfigError, DomainError
from .models import (
    Family,
    JointParameter,
    Region,
    StreamModel,
    SufficientStat,
    _loglik,
    mle_unrestricted,
    sample,
    sup_stat_loglik,
)

_NEG_INF = float("-inf")

_BERNOULLI_VALUES = frozenset((0.0, 1.0))


class TestKind(Enum):
    CONSTRAINED = "constrained"
    UNCONSTRAINED = "unconstrained"


@dataclass(frozen=True)
class Thresholds:
    """Log-scale stopping margins: log_a guards false alarms at level
    exp(-log_a), log_b guards missed detections at exp(-log_b)."""

    log_a: float
    log_b: float

    def __post_init__(self):
        if not (math.isfinite(self.log_a) and math.isfinite(self.log_b)):
            raise DomainError("thresholds must be finite")


@dataclass(frozen=True)
class Decision:
    stopped_at: int
    selected: frozenset[int]
    truncated: bool


@dataclass
class EngineState:
    models: tuple[StreamModel, ...]
    stats: list[SufficientStat]
    lagged_mle: list[float]
    adaptive_loglik: float
    n: int

    @property
    def k(self) -> int:
        return len(self.models)


def init(models: Sequence[StreamModel]) -> EngineState:
    """Fresh state at n = 0.

    All models must share one family and parameter space.  Before any data
    arrive every lagged estimate sits at the lower signal endpoint.
    """
    models = tuple(models)
    if not models:
        raise ConfigError("at least one stream model required")
    if len({(m.family, m.space) for m in models}) != 1:
        raise ConfigError("streams must share one family and parameter space")
    k = len(models)
    return EngineState(
        models=models,
        stats=[SufficientStat() for _ in range(k)],
        lagged_mle=[models[0].space.theta1_lo] * k,
        adaptive_loglik=0.0,
        n=0,
    )


def update(state: EngineState, obs: Sequence[float]) -> EngineState:
    """Absorb one observation per stream (in place).

    The adaptive log-likelihood scores the new observations against the
    lagged estimates first; only then do the statistics absorb the data and
    the estimates refresh.  Ordering is what keeps the adaptive likelihood
    ratio a martingale.
    """
    k = state.k
    if len(obs) != k:
        raise DomainError(f"expected {k} observations, got {len(obs)}")
    if state.models[0].family is Family.BERNOULLI and not _BERNOULLI_VALUES.issuperset(obs):
        raise DomainError(f"Bernoulli observations must be 0 or 1, got {list(obs)!r}")
    adaptive = state.adaptive_loglik
    for i in range(k):
        x = float(obs[i])
        model = state.models[i]
        adaptive += _loglik(model, 1, x, state.lagged_mle[i])
        st = state.stats[i]
        st.add(x)
        state.lagged_mle[i] = mle_unrestricted(model, st)
    state.adaptive_loglik = adaptive
    state.n += 1
    return state


def _region_sups(state: EngineState) -> tuple[list[float], list[float]]:
    """Each stream's log-likelihood supremum over the signal and the noise region."""
    model = state.models[0]
    sig_q = []
    noise_q = []
    for st in state.stats:
        sig_q.append(sup_stat_loglik(model, st.n, st.s, Region.SIGNAL))
        noise_q.append(sup_stat_loglik(model, st.n, st.s, Region.NOISE))
    return sig_q, noise_q


def estimate_signal_set(state: EngineState) -> frozenset[int]:
    """Streams whose restricted signal likelihood is at least the noise one.

    Ties go to the signal side.  Requires at least one observation.
    """
    if state.n < 1:
        raise DomainError("signal-set estimate requires at least one observation")
    sig_q, noise_q = _region_sups(state)
    return frozenset(i for i in range(state.k) if sig_q[i] >= noise_q[i])


def sup_loglik_error_sets(state: EngineState, kind: TestKind) -> tuple[float, float]:
    """Best log-likelihood over each error family of assignments.

    Returns (logL0, logL1) where logL0 ranges over assignments adding at
    least one stream to the current estimate (their acceptance would be a
    false alarm) and logL1 over assignments dropping at least one (a miss).
    An empty family yields -inf.  The unconstrained value frees every stream
    and charges only the cheapest forced flip.

    Constrained assignments pool counts and sums within the signal group
    and within the noise group.  All streams share one count and both
    families have a monotone likelihood ratio in the sum, so at fixed shared
    values u0 < u1 the gain from moving a stream into the signal group
    increases with its sum.  The best assignment at those values is then an
    upper set T_m (the m streams with the largest sums); within an error
    family it is T_m plus the strongest stream outside the estimate, or T_m
    minus the weakest stream inside it.  Suprema over (u0, u1) of these at
    most 2K - 1 candidates are therefore the suprema over all 2^K
    assignments (contiguity of optimal two-group partitions, Fisher 1958),
    found in O(K log K).
    """
    if state.n < 1:
        raise DomainError("error-set suprema require at least one observation")
    if kind is TestKind.UNCONSTRAINED:
        # A stream is in the estimate exactly when its signal supremum wins,
        # so the estimate and the flip costs come from the same numbers.
        sig_q, noise_q = _region_sups(state)
        full_q = []
        flip0 = []
        flip1 = []
        for qs, qn in zip(sig_q, noise_q):
            if qs >= qn:
                full_q.append(qs)
                flip1.append(qs - qn)
            else:
                full_q.append(qn)
                flip0.append(qn - qs)
        total = sum(full_q)
        l0 = total - min(flip0) if flip0 else _NEG_INF
        l1 = total - min(flip1) if flip1 else _NEG_INF
        return l0, l1

    k = state.k
    n = state.n
    model = state.models[0]
    a_hat = estimate_signal_set(state)
    a = len(a_hat)
    ss = [st.s for st in state.stats]
    s_total = sum(ss)
    # Membership first, so the estimate is exactly the top-a block even when
    # sums tie: order[a - 1] is the weakest stream in it, order[a] the
    # strongest outside.
    order = sorted(range(k), key=lambda i: (i in a_hat, ss[i]), reverse=True)
    prefix = [0.0]
    for i in order:
        prefix.append(prefix[-1] + ss[i])
    # (size, signal-group sum, adds a stream, drops one) per candidate.
    # T_{a-1} with the strongest outsider is also T_{a+1} without the
    # weakest member, so that one candidate serves both families.
    cands = [(m, prefix[m], m > a, m < a) for m in range(k + 1) if m != a]
    if 0 < a < k:
        s_in = ss[order[a - 1]]
        s_out = ss[order[a]]
        cands.append((a, prefix[a - 1] + s_out, True, True))
        cands += [(m + 1, prefix[m] + s_out, True, False) for m in range(a - 1)]
        cands += [(m - 1, prefix[m] - s_in, False, True) for m in range(a + 2, k + 1)]
    l0 = _NEG_INF
    l1 = _NEG_INF
    for m, sb, adds, drops in cands:
        val = sup_stat_loglik(model, n * m, sb, Region.SIGNAL) + sup_stat_loglik(
            model, n * (k - m), s_total - sb, Region.NOISE
        )
        if adds and val > l0:
            l0 = val
        if drops and val > l1:
            l1 = val
    return l0, l1


def check_stop(
    state: EngineState, thresholds: Thresholds, kind: TestKind
) -> Decision | None:
    """Stopping check at the current time.

    Stops when the adaptive log-likelihood exceeds logL0 by log_b and logL1
    by log_a simultaneously; a -inf supremum satisfies its condition
    vacuously.  Returns the decision or None.
    """
    l0, l1 = sup_loglik_error_sets(state, kind)
    adaptive = state.adaptive_loglik
    if adaptive - l0 >= thresholds.log_b and adaptive - l1 >= thresholds.log_a:
        return Decision(
            stopped_at=state.n,
            selected=estimate_signal_set(state),
            truncated=False,
        )
    return None


def run_to_decision(
    models: Sequence[StreamModel],
    theta_true: JointParameter,
    thresholds: Thresholds,
    kind: TestKind,
    rng,
    n_max: int = 10**6,
) -> Decision:
    """Simulate one trial to its decision.

    Samples stream observations (in stream order) from ``theta_true``,
    feeds them through :func:`update`, and checks the stopping rule after
    every step.  If no decision is reached by ``n_max`` the trial is
    truncated and the current signal-set estimate is reported with the
    truncation flag set; truncation is reported, never hidden.
    """
    models = tuple(models)
    if n_max < 1:
        raise ConfigError("n_max must be at least 1")
    if theta_true.k != len(models):
        raise ConfigError("truth vector length must match the number of streams")
    for i, t in enumerate(theta_true.thetas):
        if not models[i].space.contains(t):
            raise ConfigError(f"stream {i} truth {t!r} outside the parameter set")
    state = init(models)
    thetas = theta_true.thetas
    while state.n < n_max:
        obs = [sample(models[i], thetas[i], rng) for i in range(len(models))]
        update(state, obs)
        decision = check_stop(state, thresholds, kind)
        if decision is not None:
            return decision
    return Decision(
        stopped_at=state.n,
        selected=estimate_signal_set(state),
        truncated=True,
    )
