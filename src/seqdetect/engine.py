"""Adaptive sequential test over K parallel streams.

The procedure tracks the shared observation count and each stream's running
sum, and accumulates an adaptive log-likelihood in which observation n is
scored against the maximum-likelihood estimate formed from the first n - 1
observations.  That one-step lag makes the likelihood ratio of the
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

import numpy as np

from .errors import ConfigError, DomainError
from .models import (
    Family,
    JointParameter,
    Region,
    StreamModel,
    _loglik,
    _require_stat,
    sample,
    sup_stat_loglik,
)

_NEG_INF = float("-inf")

# random.Random internals reproduced by the batched draws below: random()
# is (a * 2**26 + b) / 2**53 from two 32-bit words a >> 5 and b >> 6, and
# gauss() draws Box-Muller pairs with angle random() * TWOPI.
_TWO_26 = 67108864.0
_TWO_M53 = 1.0 / 9007199254740992.0
_TWOPI = 2.0 * math.pi

# Steps after which a trial is truncated unless the caller sets its own limit.
DEFAULT_N_MAX = 10**6

# A block's budget: it spans _BLOCK_ELEMENTS // (K + 1) trial-steps, so its
# widest temporary, the table of 2K candidates in _coupled_sups (2K x trials
# x steps), holds fewer than twice this many elements: under 64 KiB as an
# array, under about 320 KiB as the Python floats that the libm maps build
# from it.
_BLOCK_ELEMENTS = 1 << 12
# Steps in a trial's first block, and the fewest any block takes short of
# n_max (or of a smaller budget): more live trials than such a block holds
# advance in equal chunks.
_FIRST_BLOCK = 16
# A Bernoulli candidate is scored through libm when its fast value (numpy's
# logs) lies within this fraction of its family's fast maximum.  Each pooled
# value sums non-positive terms, so the fast logs, a few ulps from libm's,
# move it by about 1e-14 of its size: every exact maximizer, ties included, is kept.
_FAST_SLACK = 1e-9


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
    """One cell's stop on one trial, as :func:`step` and the scalar reference
    (run_to_decision, check_stop) return it: the count, the signal-set estimate
    there and whether n_max cut the trial short; run_trials returns arrays."""

    stopped_at: int
    selected: frozenset[int]
    truncated: bool


def _total(values) -> float:
    """0.0 + values[0] + values[1] + ..., added left to right.

    The one order of every total over streams, in the scalar path and (by
    :func:`_row_sums`) in the kernel.  The builtin sum() adds in this order
    up to Python 3.11 and compensates from 3.12 on, so it is not used.
    """
    total = 0.0
    for v in values:
        total += v
    return total


# Step-at-a-time reference: one trial, one observation per stream per call.
# Simulations, ``validate`` and :func:`step` run the batched kernel further
# down; these functions are its reference in the tests.  They stay in this
# module because the benchmark's span tracer (perfbench/spans.py) wraps them.


@dataclass
class EngineState:
    """A trial's stream sums and adaptive log-likelihood at the shared count n (zeros at 0)."""

    model: StreamModel
    sums: list[float]
    adaptive_loglik: float
    n: int

    @property
    def k(self) -> int:
        return len(self.sums)


def init(model: StreamModel, k: int) -> EngineState:
    """Fresh state at n = 0 for ``k`` streams following ``model``."""
    if k < 1:
        raise ConfigError("at least one stream required")
    return EngineState(model, [0.0] * k, 0.0, 0)


def _require_rows(state: EngineState, rows) -> None:
    """The data rule of :func:`update` and :func:`step`, applied before either
    writes: each row holds one observation per stream, a one-step statistic
    that ``models._require_stat`` accepts, and so do the carried sums at n."""
    for row in rows:
        if len(row) != state.k:
            raise DomainError(f"expected {state.k} observations, got {len(row)}")
        _require_stat(state.model, 1, row)
    _require_stat(state.model, state.n, state.sums)


def update(state: EngineState, obs: Sequence[float]) -> EngineState:
    """Absorb one observation per stream (in place).

    The adaptive log-likelihood scores each new observation against its
    stream's lagged estimate, the MLE of the sums carried so far: the mean
    clipped into each region, the signal side where its likelihood is at
    least the noise side's (the lower signal endpoint before any data
    arrive).  Only then do the sums absorb the data.  Ordering is what keeps
    the adaptive likelihood ratio a martingale.
    """
    _require_rows(state, [obs])
    k, model, n = state.k, state.model, state.n
    sp = model.space
    lagged = [sp.theta1_lo] * k
    for i, s in enumerate(state.sums if n else ()):
        mean = s / n
        fit0 = min(max(mean, sp.theta0_lo), sp.theta0_hi)
        fit1 = min(max(mean, sp.theta1_lo), sp.theta1_hi)
        lagged[i] = fit1 if _loglik(model, n, s, fit1) >= _loglik(model, n, s, fit0) else fit0
    adaptive = state.adaptive_loglik
    for i, x in enumerate(map(float, obs)):
        adaptive += _loglik(model, 1, x, lagged[i])
        state.sums[i] += x
    state.adaptive_loglik = adaptive
    state.n = n + 1
    return state


def _region_sups(state: EngineState) -> tuple[list[float], list[float]]:
    """Each stream's log-likelihood supremum over the signal and the noise region."""
    model, n = state.model, state.n
    sig_q = [sup_stat_loglik(model, n, s, Region.SIGNAL) for s in state.sums]
    noise_q = [sup_stat_loglik(model, n, s, Region.NOISE) for s in state.sums]
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
        total = _total(full_q)
        l0 = total - min(flip0) if flip0 else _NEG_INF
        l1 = total - min(flip1) if flip1 else _NEG_INF
        return l0, l1

    k = state.k
    n = state.n
    model = state.model
    a_hat = estimate_signal_set(state)
    a = len(a_hat)
    ss = state.sums
    s_total = _total(ss)
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


def _require_run(model: StreamModel, theta_true: JointParameter, n_max: int) -> None:
    """The argument checks of :func:`run_to_decision`, :func:`run_trials` and
    ``montecarlo.ExperimentConfig``."""
    if n_max < 1:
        raise ConfigError("must be at least 1", "n_max")
    for i, t in enumerate(theta_true.thetas):
        if not model.space.contains(t):
            raise ConfigError(f"stream {i} truth {t!r} outside the parameter set")


def run_to_decision(
    model: StreamModel,
    theta_true: JointParameter,
    thresholds: Thresholds,
    kind: TestKind,
    rng,
    n_max: int = DEFAULT_N_MAX,
) -> Decision:
    """Simulate one trial to its decision, all streams following ``model``.

    Samples stream observations (in stream order) from ``theta_true``,
    feeds them through :func:`update`, and checks the stopping rule after
    every step.  If no decision is reached by ``n_max`` the trial is
    truncated and the current signal-set estimate is reported with the
    truncation flag set; truncation is reported, never hidden.
    """
    _require_run(model, theta_true, n_max)
    state = init(model, theta_true.k)
    thetas = theta_true.thetas
    while state.n < n_max:
        update(state, [sample(model, t, rng) for t in thetas])
        decision = check_stop(state, thresholds, kind)
        if decision is not None:
            return decision
    return Decision(
        stopped_at=state.n,
        selected=estimate_signal_set(state),
        truncated=True,
    )


# Batched kernel: many trials, many steps per numpy call, same decisions.
#
# It keeps to few distinct numpy operations and dtypes, since each new one
# maps more of numpy's library into memory and so raises peak RSS.  Streams,
# candidates and cells run along a leading axis, since numpy reduces a short
# trailing axis row by row, several times slower; max and min round nothing,
# so no bit depends on the layout.


def _libm(fn, values: list) -> np.ndarray:
    """The scalar ``math`` function ``fn`` of each float in ``values`` (a
    list, as a 1-D array's ``tolist()`` gives it), as a 1-D array.

    numpy's own log differs from libm's in the last bit on some inputs; going
    through ``math`` keeps every transcendental rounded as the scalar path
    rounds it.  Callers that map several functions over one array build its
    list once.
    """
    return np.fromiter(map(fn, values), float, len(values))


def _logs_at(model: StreamModel, theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ``logs`` of :func:`_loglik` at ``theta``: (log theta, log1p(-theta))
    through libm for the Bernoulli, () for the Gaussian.  Each distinct value
    is mapped once; fitted parameters repeat, clipped to a region bound or at
    equal means k/n."""
    if model.family is Family.GAUSSIAN:
        return ()
    values, at = np.unique(theta, return_inverse=True)
    at = at.reshape(theta.shape)
    return _libm(math.log, values.tolist())[at], _libm(math.log1p, (-values).tolist())[at]


def _draw_uniforms(rngs, counts) -> np.ndarray:
    """The next ``counts[i]`` rng.random() values of each generator ``rngs[i]``,
    bit for bit, one after another in a flat array.

    getrandbits(64 * c) consumes the same generator outputs as c random()
    calls and lays them out from the least significant word up.
    """
    raw = b"".join(r.getrandbits(64 * c).to_bytes(8 * c, "little") for r, c in zip(rngs, counts))
    words = np.frombuffer(raw, dtype="<u4")
    return ((words[0::2] >> 5) * _TWO_26 + (words[1::2] >> 6)) * _TWO_M53


def _draw_normals(rngs, count: int) -> np.ndarray:
    """The next ``count`` (>= 1) rng.gauss(0.0, 1.0) values of each generator, bit for bit.

    Reproduces random.Random.gauss: a pending ``gauss_next`` comes first, the
    rest are Box-Muller pairs (cos, sin) of two random() draws, and the sine
    of a half-used pair is left pending in ``gauss_next``.  Returns shape
    (len(rngs), count).
    """
    pending = [rng.gauss_next for rng in rngs]
    fresh = [count - (g is not None) for g in pending]
    pairs = [(m + 1) // 2 for m in fresh]
    u = _draw_uniforms(rngs, [2 * p for p in pairs]).reshape(-1, 2)
    g2rad = np.sqrt(-2.0 * _libm(math.log, (1.0 - u[:, 1]).tolist()))
    # One list of angles for both maps, built after the log map's list is
    # freed so that the two are never alive together.
    x2pi = (u[:, 0] * _TWOPI).tolist()
    z = np.empty((len(u), 2))
    z[:, 0] = _libm(math.cos, x2pi) * g2rad
    z[:, 1] = _libm(math.sin, x2pi) * g2rad
    z = z.ravel()
    if count % 2 == 0 and pending.count(None) == len(rngs):
        # No pair is split, so generator i's values are the i-th run of count.
        return z.reshape(len(rngs), count)
    out = np.empty((len(rngs), count))
    pos = 0
    for row, rng, g, m, p in zip(out, rngs, pending, fresh, pairs):
        if g is not None:
            row[0] = g
        row[count - m:] = z[pos:pos + m]
        rng.gauss_next = float(z[pos + m]) if m % 2 else None
        pos += 2 * p
    return out


def _row_sums(x: np.ndarray) -> np.ndarray:
    """:func:`_total` over the last axis, row by row: 0.0 + x[..., 0] + x[..., 1]
    + ..., as one numpy add per stream, so every row rounds as the scalar
    path's total does."""
    total = 0.0 + x[..., 0]
    for i in range(1, x.shape[-1]):
        total += x[..., i]
    return total


def _fit(
    model: StreamModel, n, s: np.ndarray, mean: np.ndarray, region: Region
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The mean s / n clipped into ``region``, the log-likelihood there and
    the :func:`_logs_at` it took, elementwise over counts and sums.
    The caller divides, so that one mean serves both regions."""
    lo, hi = model.space.region_bounds(region)
    fit = np.clip(mean, lo, hi)
    logs = _logs_at(model, fit)
    return fit, _loglik(model, n, s, fit, logs), logs


def _region_sup(model: StreamModel, n: np.ndarray, s: np.ndarray, region: Region) -> np.ndarray:
    """:func:`sup_stat_loglik` elementwise over pooled counts and sums; 0 where n is 0."""
    occupied = n > 0
    n = np.where(occupied, n, 1.0)
    _, value, _ = _fit(model, n, s, s / n, region)
    return np.where(occupied, value, 0.0)


def _fast_sup(model: StreamModel, n: np.ndarray, s: np.ndarray, region: Region) -> np.ndarray:
    """:func:`_region_sup` of the Bernoulli with numpy's logs, only to choose candidates."""
    lo, hi = model.space.region_bounds(region)
    fit = np.clip(s / np.maximum(n, 1.0), lo, hi)
    return _loglik(model, n, s, fit, (np.log(fit), np.log1p(-fit)))


def _coupled_sups(
    model: StreamModel, n: np.ndarray, s: np.ndarray, member: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The constrained branch of :func:`sup_loglik_error_sets` over leading axes.

    ``s`` holds stream sums on its last axis, ``member`` the estimate and
    ``n`` the shared count (broadcast against ``s[..., :1]``).  With
    a = |estimate|, the candidates form one table of 2K: the top sets T_m,
    m = 0..K, which add a stream when m > a and drop one when m < a; then
    the edge sets of sizes e = 1..K-1, T_{e-1} plus the strongest outsider
    for e <= a (adding) and T_{e+1} minus the weakest member for e >= a
    (dropping).  At e = a both name the swap, summed the first way, as the
    scalar path does.  Each supremum is a maximum over the table's entries
    that its family's mask keeps; for the Bernoulli, only the entries within
    _FAST_SLACK of its maximum by :func:`_fast_sup` are scored, the rest are
    -inf.  Streams and candidates run along the leading axis (see the note
    above); only the sort runs along the last.
    """
    k = s.shape[-1]
    # The scalar order: the estimate first, each part by sum descending.
    # Complex keys sort by (real, imag); equal keys carry equal sums, so
    # the values need no stable sort.
    key = np.empty(s.shape, complex)
    key.real = ~member
    key.imag = -s
    # Streams first: .T reverses every axis (n's padded to s's); results turn back.
    s_t, member_t = s.T.copy(), member.T.copy()
    n = np.array(n, ndmin=s.ndim).T
    # Sizes are floats so that every comparison below is a float one.
    a = member_t.sum(0, dtype=float)
    size = np.concatenate((np.arange(k + 1.0), np.arange(1.0, k))).reshape(-1, *(1,) * a.ndim)
    m, e = size[:k + 1], size[k + 1:]
    # Signal-group sums: 0.0 and the ranked sums, added up below in cumsum's order.
    sb = np.zeros((2 * k, *a.shape))
    np.negative(np.sort(key, -1).imag.T, out=sb[1:k + 1])
    # The weakest member and the strongest outsider, or a finite filler that is masked.
    s_in = np.where(member_t, s_t, sb[1]).min(0)
    s_out = np.where(member_t, sb[k], s_t).max(0)
    for i in range(1, k + 1):
        sb[i] += sb[i - 1]
    sb[k + 1:] = np.where(e <= a, sb[:k - 1] + s_out, sb[2:k + 1] - s_in)
    (n1, s1), (n0, s0) = (n * size, sb), (n * (k - size), _row_sums(s_t.T).T - sb)
    adds = np.concatenate((m > a, (e <= a) & (a < k)))
    drops = np.concatenate((m < a, (e >= a) & (a > 0)))
    if model.family is Family.GAUSSIAN:
        table = _region_sup(model, n1, s1, Region.SIGNAL) + _region_sup(model, n0, s0, Region.NOISE)
    else:  # a maximum over values <= 0, so the slack widens it downwards
        fast = _fast_sup(model, n1, s1, Region.SIGNAL) + _fast_sup(model, n0, s0, Region.NOISE)
        pick = np.zeros(fast.shape, bool)
        for keep in (adds, drops):
            pick |= keep & (fast >= np.where(keep, fast, -np.inf).max(0) * (1.0 + _FAST_SLACK))
        n1, s1, n0, s0 = (np.broadcast_to(x, pick.shape)[pick] for x in (n1, s1, n0, s0))
        table = np.full(fast.shape, -np.inf)
        table[pick] = _region_sup(model, n1, s1, Region.SIGNAL) + _region_sup(
            model, n0, s0, Region.NOISE
        )
    return tuple(np.where(keep, table, -np.inf).max(0).T for keep in (adds, drops))


def _free_sups(q0: np.ndarray, q1: np.ndarray, member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unconstrained branch of :func:`sup_loglik_error_sets` over leading axes.

    ``q0`` and ``q1`` hold each stream's noise and signal supremum on the
    last axis and ``member`` the estimate (q1 >= q0); streams go first for
    the flips' maxima (see the note above).
    """
    total = _row_sums(np.where(member, q1, q0))
    gain, member = (q1 - q0).T.copy(), member.T.copy()
    # total - min(flip) written as total + max(-flip), which rounds the same.
    l0 = total + np.where(member, -np.inf, gain).max(0).T
    l1 = total + np.where(member, -gain, -np.inf).max(0).T
    return l0, l1


def _error_sups(
    model: StreamModel, kind: TestKind, count: np.ndarray, s: np.ndarray,
    q0: np.ndarray, q1: np.ndarray, member: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sup_loglik_error_sets` of ``kind`` over leading axes.

    ``count`` is the shared count (broadcast against ``s[..., :1]``); ``s``,
    ``q0``, ``q1`` and ``member`` hold each stream's sum, noise and signal
    supremum and estimate (q1 >= q0) on the last axis.
    """
    if kind is TestKind.UNCONSTRAINED:
        return _free_sups(q0, q1, member)
    return _coupled_sups(model, count, s, member)


def _scores(model: StreamModel, count, s: np.ndarray, kinds) -> tuple[np.ndarray, list]:
    """The signal-set estimate and each of ``kinds``' (logL0, logL1) for
    stream sums ``s`` at the shared ``count``, over leading axes."""
    q0 = _region_sup(model, count, s, Region.NOISE)
    q1 = _region_sup(model, count, s, Region.SIGNAL)
    member = q1 >= q0
    return member, [_error_sups(model, kind, count, s, q0, q1, member) for kind in kinds]


def _block_rows(k: int) -> int:
    """Trial-steps in one block of ``k`` streams: _BLOCK_ELEMENTS // (K + 1),
    so that its widest temporary, the table of 2K candidates in
    :func:`_coupled_sups` (2K x trials x steps), holds fewer than
    2 * _BLOCK_ELEMENTS elements."""
    return max(1, _BLOCK_ELEMENTS // (k + 1))


def _observations(model: StreamModel, thetas: np.ndarray, rngs, shape) -> np.ndarray:
    """Observations of shape ``(rows, steps, K)`` from streams at ``thetas``.

    Generator i fills an equal share of the rows, in C order: trial-major,
    step-major, stream-minor, which is the order in which
    :func:`run_to_decision` and a loop over trials consume a generator.
    """
    count = math.prod(shape) // len(rngs)
    if model.family is Family.GAUSSIAN:
        return thetas + _draw_normals(rngs, count).reshape(shape)
    return np.where(_draw_uniforms(rngs, [count] * len(rngs)).reshape(shape) < thetas, 1.0, 0.0)


def _absorb(
    model: StreamModel, x: np.ndarray, sums: np.ndarray, adaptive: np.ndarray, n: int
) -> tuple[np.ndarray, ...]:
    """Feed observations ``x`` (trials x steps x K) to trials that share the count ``n``.

    The draw-free block step.  A trial's state is its stream sums ``sums``
    (trials x K) and its adaptive log-likelihood ``adaptive`` (trials),
    zeros at n = 0; both are updated in place to count n + steps.  Returns,
    after every step, the count (steps x 1), the stream sums, both
    restricted maxima q0 and q1, the signal-set estimate q1 >= q0 and the
    adaptive log-likelihood (trials x steps).  Every floating-point
    operation is the one :func:`update` performs, in the same order.  The
    fits start at count n, from the carried sums, so each lagged estimate
    (and, for the Bernoulli, its logs) is the fit one row up.  At n = 0 the
    mean is set to the lower signal endpoint: both restricted maxima are
    then +-0 and ties go to the signal side, so the fit is that endpoint,
    the lagged estimate that :func:`update` takes at n = 0.
    """
    b, steps, k = x.shape
    s = np.cumsum(np.concatenate((sums[:, None], x), 1), 1)
    count = np.arange(n, n + steps + 1, dtype=float)[:, None]
    # Each stream's two restricted maxima, computed once, give both the
    # refreshed MLE and the signal-set estimate.
    mean = s / np.maximum(count, 1.0)
    if n == 0:
        mean[:, 0] = model.space.theta1_lo
    fit0, q0, logs0 = _fit(model, count, s, mean, Region.NOISE)
    fit1, q1, logs1 = _fit(model, count, s, mean, Region.SIGNAL)
    member = q1 >= q0
    lagged = np.where(member, fit1, fit0)[:, :-1]
    logs = tuple(np.where(member, at1, at0)[:, :-1] for at0, at1 in zip(logs0, logs1))
    scores = _loglik(model, 1, x, lagged, logs)
    # Step-major, stream-minor: the order update() adds in.
    run = np.cumsum(np.concatenate((adaptive[:, None], scores.reshape(b, -1)), 1), 1)[:, k::k]
    sums[:] = s[:, -1]
    adaptive[:] = run[:, -1]
    return count[1:], s[:, 1:], q0[:, 1:], q1[:, 1:], member[:, 1:], run


def _advance(
    model: StreamModel,
    x: np.ndarray,
    cells: Sequence[tuple[Thresholds, TestKind]],
    opened: np.ndarray,
    sums: np.ndarray,
    adaptive: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Score observations ``x`` (trials x steps x K) of trials that share the count ``n``.

    The draw-free decision step: feeds ``x`` to :func:`_absorb` (which
    updates the trials' state, ``sums`` and ``adaptive``, in place) and
    applies each cell's :func:`check_stop` rule after every step.
    The suprema do not depend on the thresholds, so each distinct kind's
    suprema are taken once for every cell of that kind, and only on the
    trials that have a cell of that kind open in ``opened`` (trials x
    cells); a kind's cells read ``steps`` on the trials that no longer need
    that kind.
    Returns the index in the block of the first step at which both of a
    cell's margins clear (``steps``, x.shape[1], if none), as floats (trials x
    cells), and the signal-set estimate after every step (trials x steps x K).
    """
    count, s, q0, q1, member, run = _absorb(model, x, sums, adaptive, n)
    steps = x.shape[1]
    kinds = [kind for _, kind in cells]
    bounds = np.array([(th.log_a, th.log_b) for th, _ in cells]).T[..., None, None]
    first = np.full((len(cells), len(x)), float(steps))  # cells x trials
    for kind in dict.fromkeys(kinds):
        mine = np.array([c is kind for c in kinds])
        need = opened[:, mine].any(1)
        if need.any():
            l0, l1 = _error_sups(model, kind, count, s[need], q0[need], q1[need], member[need])
            adapt, (log_a, log_b) = run[need], bounds[:, mine]
            stop = (adapt - l0 >= log_b) & (adapt - l1 >= log_a)
            # A float minimum rather than argmax (see above), cells-major as
            # the mask takes its entries; `steps` means no stop.
            at = np.where(stop, np.arange(steps, dtype=float), float(steps)).min(-1)
            first[mine[:, None] & need] = at.ravel()
    return first.T, member


def run_trials(
    model: StreamModel,
    theta_true: JointParameter,
    cells: Sequence[tuple[Thresholds, TestKind]],
    rngs: Sequence,
    n_max: int = DEFAULT_N_MAX,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run one trial per ``random.Random`` in ``rngs``, all streams following
    ``model``, and score it for every (thresholds, kind) cell in ``cells``.

    Returns arrays over cells x trials: the stop times ``stopped_at``
    (floats), the flags ``truncated`` and the signal-set estimates
    ``selected`` (one flag per stream, cells x trials x K).  A cell's
    entries for trial i are those of the :class:`Decision` that
    :func:`run_to_decision` returns for that cell on a generator in the
    state of ``rngs[i]``: every cell reads the one trajectory that the
    generator draws, the draws of ``rng.gauss``/``rng.random`` are
    reproduced in bulk, bit for bit, and every statistic is computed with
    the scalar path's operations in its order.  Live trials advance together
    in blocks of steps, as numpy arrays, each drawn here and scored by
    :func:`_advance`; a trial leaves once every one of its cells has
    stopped.  Each round splits the live trials into as few chunks as blocks
    of _FIRST_BLOCK steps need, equal in width to within one trial, and each
    chunk's block spans at most :func:`_block_rows` trial-steps: its length
    fills that budget for the widest chunk, at least _FIRST_BLOCK steps (short
    of a budget of fewer), at most twice the previous block, and never past
    ``n_max``.  Blocks thus stay short while many trials are live, so a
    trial's last stopping block runs few steps past its last stop, and
    lengthen as trials leave.  Draws run to the end of the block in which a
    trial's last cell stops, so the generators end past where run_to_decision
    would leave them; a kind's suprema are taken only up to the block in
    which the trial's last cell of that kind stops.
    """
    _require_run(model, theta_true, n_max)
    k = theta_true.k
    thetas = np.array(theta_true.thetas)
    live = np.arange(len(rngs))
    sums, adaptive = np.zeros((live.size, k)), np.zeros(live.size)
    stopped_at = np.zeros((len(cells), live.size))
    truncated = np.zeros((len(cells), live.size), dtype=bool)
    selected = np.zeros((len(cells), live.size, k), dtype=bool)
    # The cells each live trial has yet to decide.
    open_cells = np.ones((live.size, len(cells)), dtype=bool)
    rows = _block_rows(k)
    n = 0
    steps = _FIRST_BLOCK // 2  # so that the first block is _FIRST_BLOCK steps at most
    while live.size:
        # Chunks of at most rows // _FIRST_BLOCK trials (at least one) fill
        # the budget in _FIRST_BLOCK steps or more, unless it holds fewer.
        chunks = -(-live.size // max(1, rows // _FIRST_BLOCK))
        width = -(-live.size // chunks)
        steps = min(rows // width, 2 * steps, n_max - n)
        edges = [i * live.size // chunks for i in range(chunks + 1)]
        for lo, hi in zip(edges, edges[1:]):
            chunk = [rngs[i] for i in live[lo:hi]]
            x = _observations(model, thetas, chunk, (len(chunk), steps, k))
            first, member = _advance(
                model, x, cells, open_cells[lo:hi], sums[lo:hi], adaptive[lo:hi], n
            )
            ends = open_cells[lo:hi] & ((first < steps) | (n + steps >= n_max))
            open_cells[lo:hi] &= ~ends
            trial, cell = np.nonzero(ends)
            at = first[trial, cell]
            # A cell still running at n_max ends at the block's last step.
            last = np.minimum(at, steps - 1)
            done = live[lo:hi][trial]
            stopped_at[cell, done] = n + 1 + last
            truncated[cell, done] = at == steps
            selected[cell, done] = member[trial, last.astype(int)]
        n += steps
        keep = open_cells.any(1)
        live, sums, adaptive = live[keep], sums[keep], adaptive[keep]
        open_cells = open_cells[keep]
    return stopped_at, truncated, selected


def step(state: EngineState, rows: Sequence, cells: Sequence) -> list[Decision | None]:
    """The test on data as it arrives: feed one trial's new rows (m x K,
    m >= 1) to ``state`` and apply each (thresholds, kind) cell's stop rule
    after every row.  Rows and state are checked as :func:`update` checks
    them, before any write; :func:`_advance` scores the rows and updates the
    state in place, as :func:`update` would row by row.  Returns per cell its
    first stop in these rows as a :class:`Decision`, or None.  Pass only the
    cells still open: a cell passed again is scored on, and a later Decision
    for it is not the test's decision."""
    if not len(rows):
        raise DomainError("a block needs at least one row")
    _require_rows(state, rows)
    n, m, x = state.n, len(rows), np.array([rows], float)
    sums, adaptive = np.array([state.sums], float), np.array([state.adaptive_loglik])
    opened = np.ones((1, len(cells)), bool)
    (first,), (member,) = _advance(state.model, x, cells, opened, sums, adaptive, n)
    state.sums[:] = sums[0].tolist()
    state.adaptive_loglik, state.n = float(adaptive[0]), n + m
    return [
        None if i == m else Decision(n + 1 + i, frozenset(np.flatnonzero(member[i]).tolist()), False)
        for i in first.astype(int).tolist()
    ]


def _horizon(model: StreamModel, theta: JointParameter, n: int, trials: int, rng):
    """Run ``trials`` trials of the engine under ``theta`` to time ``n``.

    Trials run in chunks on the block step, each from zero sums and adaptive
    log-likelihoods, drawing from ``rng`` in the order of a loop over trials
    that calls :func:`update` once per step, so the generator ends where that
    loop leaves it.  A block holds a row per step and the carried row, so a
    chunk of several trials, n + 1 rows each, keeps within
    :func:`_block_rows`' element budget.  Yields per
    chunk the slice of its trials and their final stream sums and adaptive
    log-likelihoods: the chunk's state arrays, not views into its step
    arrays, so keeping them keeps no step array alive.
    """
    k = theta.k
    thetas = np.array(theta.thetas)
    rows = _block_rows(k)
    # A chunk of several trials takes all n steps in one block, so one draw
    # per block keeps the trial-major order.
    width = max(1, rows // (n + 1))
    steps = min(n, rows)
    for lo in range(0, trials, width):
        c = min(width, trials - lo)
        sums, adaptive = np.zeros((c, k)), np.zeros(c)
        for t in range(0, n, steps):
            x = _observations(model, thetas, [rng], (c, min(steps, n - t), k))
            _absorb(model, x, sums, adaptive, t)
        yield slice(lo, lo + c), sums, adaptive
