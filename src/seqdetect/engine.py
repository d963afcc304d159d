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
from functools import partial
from typing import Sequence

import numpy as np

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

# random.Random internals reproduced by the batched draws below: random()
# is (a * 2**26 + b) / 2**53 from two 32-bit words a >> 5 and b >> 6, and
# gauss() draws Box-Muller pairs with angle random() * TWOPI.
_TWO_26 = 67108864.0
_TWO_M53 = 1.0 / 9007199254740992.0
_TWOPI = 2.0 * math.pi

# Steps after which a trial is truncated unless the caller sets its own limit.
DEFAULT_N_MAX = 10**6

# Most elements a block's widest temporary (a candidate group, trials x
# steps x (K + 1)) may hold: 32 KiB as an array, about 160 KiB as the Python
# floats that the libm maps and row sums build from it.
_BLOCK_ELEMENTS = 1 << 12
# Steps in a trial's first block; each later block is twice as long.
_FIRST_BLOCK = 16


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


# Step-at-a-time reference: one trial, one observation per stream per call.
# Simulations and ``validate`` run the batched kernel further down; these
# functions are its reference in the tests and the oracle.  They stay in this
# module because the benchmark's span tracer (perfbench/spans.py) wraps them
# here by name.


@dataclass
class EngineState:
    model: StreamModel
    stats: list[SufficientStat]
    lagged_mle: list[float]
    adaptive_loglik: float
    n: int

    @property
    def k(self) -> int:
        return len(self.stats)


def init(model: StreamModel, k: int) -> EngineState:
    """Fresh state at n = 0 for ``k`` streams following ``model``.

    Before any data arrive every lagged estimate sits at the lower signal
    endpoint.
    """
    if k < 1:
        raise ConfigError("at least one stream required")
    return EngineState(
        model=model,
        stats=[SufficientStat() for _ in range(k)],
        lagged_mle=[model.space.theta1_lo] * k,
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
    model = state.model
    if len(obs) != k:
        raise DomainError(f"expected {k} observations, got {len(obs)}")
    if model.family is Family.BERNOULLI and not _BERNOULLI_VALUES.issuperset(obs):
        raise DomainError(f"Bernoulli observations must be 0 or 1, got {list(obs)!r}")
    adaptive = state.adaptive_loglik
    for i in range(k):
        x = float(obs[i])
        adaptive += _loglik(model, 1, x, state.lagged_mle[i])
        st = state.stats[i]
        st.add(x)
        state.lagged_mle[i] = mle_unrestricted(model, st)
    state.adaptive_loglik = adaptive
    state.n += 1
    return state


def _region_sups(state: EngineState) -> tuple[list[float], list[float]]:
    """Each stream's log-likelihood supremum over the signal and the noise region."""
    model = state.model
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
    model = state.model
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


def _require_run(model: StreamModel, theta_true: JointParameter, n_max: int) -> None:
    """The argument checks of :func:`run_to_decision`, :func:`run_trials` and
    ``montecarlo.ExperimentConfig``."""
    if n_max < 1:
        raise ConfigError("n_max must be at least 1")
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
# It keeps to few distinct numpy operations and dtypes.  Each new one maps
# more of numpy's library into memory, in 64 KiB steps, and that shows in
# peak RSS: lexsort, argsort, argmax and integer comparisons each cost 128 to
# 320 KiB on x86-64 with numpy 2.4, where float comparisons, reductions and
# a complex sort reuse code already mapped or cost 64 KiB.


def _libm(fn, x: np.ndarray, known: Sequence[float] = ()) -> np.ndarray:
    """The scalar ``math`` function ``fn`` applied elementwise.

    numpy's own log differs from libm's in the last bit on some inputs; going
    through ``math`` keeps every transcendental rounded as the scalar path
    rounds it.  Entries equal to a value in ``known`` take ``fn`` of that
    value, computed once, so only the other entries go through the map.
    """
    flat = x.ravel()
    if not known:
        return np.fromiter(map(fn, flat.tolist()), float, x.size).reshape(x.shape)
    out = np.empty(x.size)
    free = np.ones(x.size, dtype=bool)
    for c in known:
        at = flat == c
        out = np.where(at, fn(c), out)
        free &= ~at
    rest = flat[free]
    out[free] = np.fromiter(map(fn, rest.tolist()), float, rest.size)
    return out.reshape(x.shape)


def _log(x: np.ndarray) -> np.ndarray:
    return _libm(math.log, x)


def _region_logs(model: StreamModel):
    """``log`` and ``log1p`` for :func:`_loglik` at parameters clipped to the
    model's regions.

    Fitted parameters sit on a region bound whenever the sample mean falls
    outside the region; those entries take the bound's libm value directly.
    """
    sp = model.space
    bounds = (sp.theta0_lo, sp.theta0_hi, sp.theta1_lo, sp.theta1_hi)
    return (
        partial(_libm, math.log, known=bounds),
        partial(_libm, math.log1p, known=tuple(-b for b in bounds)),
    )


def _unit(words: np.ndarray) -> np.ndarray:
    """random() values from consecutive pairs of 32-bit words on the last axis."""
    return ((words[..., 0::2] >> 5) * _TWO_26 + (words[..., 1::2] >> 6)) * _TWO_M53


def _draw_uniforms(rngs, count: int) -> np.ndarray:
    """The next ``count`` rng.random() values of each generator, bit for bit.

    getrandbits(64 * count) consumes the same generator outputs as ``count``
    random() calls and lays them out from the least significant word up.
    Returns shape (len(rngs), count).
    """
    raw = b"".join(rng.getrandbits(64 * count).to_bytes(8 * count, "little") for rng in rngs)
    return _unit(np.frombuffer(raw, dtype="<u4").reshape(len(rngs), 2 * count))


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
    raw = b"".join(
        rng.getrandbits(128 * p).to_bytes(16 * p, "little") for rng, p in zip(rngs, pairs)
    )
    u = _unit(np.frombuffer(raw, dtype="<u4").reshape(-1, 4))
    x2pi = u[:, 0] * _TWOPI
    g2rad = np.sqrt(-2.0 * _log(1.0 - u[:, 1]))
    z = np.empty((len(u), 2))
    z[:, 0] = _libm(math.cos, x2pi) * g2rad
    z[:, 1] = _libm(math.sin, x2pi) * g2rad
    z = z.ravel()
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
    """Python's sum() over the last axis, row by row.

    The scalar path sums stream values with the builtin, which compensates
    from Python 3.12 on; using it here keeps the totals identical on every
    version.
    """
    columns = x.reshape(-1, x.shape[-1]).T.tolist()
    return np.fromiter(map(sum, zip(*columns)), float, x.size // x.shape[-1]).reshape(
        x.shape[:-1]
    )


def _region_sup(model: StreamModel, n: np.ndarray, s: np.ndarray, region: Region) -> np.ndarray:
    """:func:`sup_stat_loglik` elementwise over pooled counts and sums; 0 where n is 0."""
    lo, hi = model.space.region_bounds(region)
    occupied = n > 0
    n = np.where(occupied, n, 1.0)
    value = _loglik(model, n, s, np.clip(s / n, lo, hi), *_region_logs(model))
    return np.where(occupied, value, 0.0)


def _coupled_sups(
    model: StreamModel, n: np.ndarray, s: np.ndarray, member: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The constrained branch of :func:`sup_loglik_error_sets` over leading axes.

    ``s`` holds stream sums on its last axis, ``member`` the estimate and
    ``n`` the shared count (broadcast against ``s[..., :1]``).  Evaluates the
    same candidates one group at a time with a running maximum, so no table
    wider than K + 1 is ever built.
    """
    k = s.shape[-1]
    # Sizes are floats so that every comparison below is a float one.
    a = member.sum(axis=-1, keepdims=True, dtype=float)
    # The scalar order: the estimate first, each part by sum descending.
    # Complex keys sort by (real, imag); equal keys carry equal sums, so
    # the values need no stable sort.
    key = np.empty(s.shape, complex)
    key.real = ~member
    key.imag = -s
    ranked = -np.sort(key, -1).imag
    prefix = np.cumsum(np.concatenate((np.zeros_like(s[..., :1]), ranked), -1), -1)
    total = _row_sums(s)[..., None]

    def value(size, sb):
        return _region_sup(model, n * size, sb, Region.SIGNAL) + _region_sup(
            model, n * (k - size), total - sb, Region.NOISE
        )

    m = np.arange(k + 1.0)
    top = value(m, prefix)
    l0 = np.where(m > a, top, -np.inf).max(-1)
    l1 = np.where(m < a, top, -np.inf).max(-1)
    inner = (0 < a) & (a < k)
    below = np.maximum(a - 1, 0).astype(int)
    s_in = np.take_along_axis(ranked, below, -1)
    s_out = np.take_along_axis(ranked, np.minimum(a, k - 1).astype(int), -1)
    # The swap T_{a-1} + j* = T_{a+1} - i* serves both families.
    swap = value(a, np.take_along_axis(prefix, below, -1) + s_out)
    swap = np.where(inner, swap, -np.inf)[..., 0]
    l0 = np.maximum(l0, swap)
    l1 = np.maximum(l1, swap)
    if k < 3:  # no union or drop candidates
        return l0, l1
    j = m[:-1]  # T_j plus the strongest outsider, j < a - 1
    union = value(j + 1, prefix[..., :-1] + s_out)
    l0 = np.maximum(l0, np.where(inner & (j < a - 1), union, -np.inf).max(-1))
    j = m[1:]  # T_j minus the weakest member, j > a + 1
    drop = value(j - 1, prefix[..., 1:] - s_in)
    l1 = np.maximum(l1, np.where(inner & (j > a + 1), drop, -np.inf).max(-1))
    return l0, l1


def _free_sups(q0: np.ndarray, q1: np.ndarray, member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unconstrained branch of :func:`sup_loglik_error_sets` over leading axes.

    ``q0`` and ``q1`` hold each stream's noise and signal supremum on the
    last axis and ``member`` the estimate (q1 >= q0).
    """
    # total - min(flip) written as total + max(-flip), which rounds the same.
    total = _row_sums(np.where(member, q1, q0))
    gain = q1 - q0
    l0 = total + np.where(member, -np.inf, gain).max(-1)
    l1 = total + np.where(member, -gain, -np.inf).max(-1)
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


def _block_rows(k: int) -> int:
    """Trial-steps in one block of ``k`` streams: its widest temporary, a
    candidate group of trials x steps x (K + 1), keeps within _BLOCK_ELEMENTS."""
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
    return np.where(_draw_uniforms(rngs, count).reshape(shape) < thetas, 1.0, 0.0)


def _absorb(
    model: StreamModel,
    x: np.ndarray,
    sums: np.ndarray,
    mle: np.ndarray,
    adaptive: np.ndarray,
    n: int,
) -> tuple[np.ndarray, ...]:
    """Feed observations ``x`` (trials x steps x K) to trials that share the count ``n``.

    The draw-free block step.  ``sums`` and ``mle`` (trials x K) and
    ``adaptive`` (trials) are each trial's state; they are updated in place
    to count n + steps.  Returns, after every step, the count (steps x 1),
    the stream sums, both restricted maxima q0 and q1, the signal-set
    estimate q1 >= q0 and the adaptive log-likelihood (trials x steps).
    Every floating-point operation is the one :func:`update` performs, in
    the same order.
    """
    b, steps, k = x.shape
    s = np.cumsum(np.concatenate((sums[:, None], x), 1), 1)[:, 1:]
    count = np.arange(n + 1, n + steps + 1, dtype=float)[:, None]
    mean = s / count
    sp = model.space
    logs = _region_logs(model)
    fit0 = np.clip(mean, sp.theta0_lo, sp.theta0_hi)
    fit1 = np.clip(mean, sp.theta1_lo, sp.theta1_hi)
    # Each stream's two restricted maxima, computed once, give both the
    # refreshed MLE and the signal-set estimate.
    q0 = _loglik(model, count, s, fit0, *logs)
    q1 = _loglik(model, count, s, fit1, *logs)
    member = q1 >= q0
    fit = np.where(member, fit1, fit0)
    lagged = np.concatenate((mle[:, None], fit[:, :-1]), 1)
    scores = _loglik(model, 1, x, lagged, *logs)
    # Step-major, stream-minor: the order update() adds in.
    run = np.cumsum(np.concatenate((adaptive[:, None], scores.reshape(b, -1)), 1), 1)[:, k::k]
    sums[:] = s[:, -1]
    mle[:] = fit[:, -1]
    adaptive[:] = run[:, -1]
    return count, s, q0, q1, member, run


def _advance(
    model: StreamModel,
    thetas: np.ndarray,
    thresholds: Thresholds,
    kind: TestKind,
    rngs,
    sums: np.ndarray,
    mle: np.ndarray,
    adaptive: np.ndarray,
    n: int,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance trials that share the count ``n`` by ``steps`` steps.

    Draws each trial's observations from its generator, feeds them to
    :func:`_absorb` (which updates ``sums``, ``mle`` and ``adaptive`` in
    place) and applies :func:`check_stop`'s rule after every step.  Returns
    each trial's index in the block of the first step at which both margins
    clear (``steps`` if none) and the signal-set estimate after every step
    (trials x steps x K).
    """
    x = _observations(model, thetas, rngs, (len(rngs), steps, sums.shape[1]))
    count, s, q0, q1, member, run = _absorb(model, x, sums, mle, adaptive, n)
    l0, l1 = _error_sups(model, kind, count, s, q0, q1, member)
    stop = (run - l0 >= thresholds.log_b) & (run - l1 >= thresholds.log_a)
    # A float minimum rather than argmax (see above); `steps` means no stop.
    first = np.where(stop, np.arange(steps, dtype=float), float(steps)).min(1)
    return first.astype(int), member


def run_trials(
    model: StreamModel,
    theta_true: JointParameter,
    thresholds: Thresholds,
    kind: TestKind,
    rngs: Sequence,
    n_max: int = DEFAULT_N_MAX,
) -> list[Decision]:
    """Run one trial per ``random.Random`` in ``rngs``, all streams following ``model``.

    Decision i is the one :func:`run_to_decision` returns on a generator in
    the state of ``rngs[i]``: the draws of ``rng.gauss``/``rng.random`` are
    reproduced in bulk, bit for bit, and every statistic is computed with
    the scalar path's operations in its order.  Live trials advance together
    in blocks of steps, as numpy arrays; a trial leaves at its stop.  Blocks
    start at _FIRST_BLOCK steps, double, end at ``n_max``, and span at most
    :func:`_block_rows` trial-steps.  Draws run to the end of the stopping
    block, so the generators end past where run_to_decision would leave
    them.
    """
    _require_run(model, theta_true, n_max)
    k = theta_true.k
    thetas = np.array(theta_true.thetas)
    live = np.arange(len(rngs))
    sums = np.zeros((live.size, k))
    mle = np.full((live.size, k), model.space.theta1_lo)
    adaptive = np.zeros(live.size)
    decisions: list[Decision | None] = [None] * live.size
    rows = _block_rows(k)
    n = 0
    steps = _FIRST_BLOCK
    while live.size:
        steps = min(steps, n_max - n, rows)
        width = max(1, rows // steps)
        done = np.zeros(live.size, dtype=bool)
        for lo in range(0, live.size, width):
            hi = lo + width
            first, member = _advance(
                model, thetas, thresholds, kind, [rngs[i] for i in live[lo:hi]],
                sums[lo:hi], mle[lo:hi], adaptive[lo:hi], n, steps,
            )
            for j, at in enumerate(first.tolist()):
                if at == steps and n + steps < n_max:
                    continue
                # A trial still running at n_max ends at the block's last step.
                last = min(at, steps - 1)
                estimate = member[j, last].tolist()
                decisions[live[lo + j]] = Decision(
                    stopped_at=n + last + 1,
                    selected=frozenset(i for i, v in enumerate(estimate) if v),
                    truncated=at == steps,
                )
                done[lo + j] = True
        n += steps
        keep = ~done
        live, sums, mle, adaptive = live[keep], sums[keep], mle[keep], adaptive[keep]
        steps *= 2
    return decisions
