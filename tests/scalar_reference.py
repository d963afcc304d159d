"""The step-at-a-time reference for the batched kernel and the oracle's
estimators: one trial, one observation per stream per update.

It holds its own copy of each rule of the test -- the lagged fit, the
signal-set estimate, both kinds' error-set suprema and the stop test -- in
plain Python floats, so that the kernel (``engine.step``, ``engine.run_trials``
and the public scalar functions on them) is checked against a second
implementation rather than against itself.  From ``engine`` it takes only
the state, cell and result types, ``init``, the argument checks
(``_require_rows``, ``_require_run``) and ``_total`` (the one order of
addition); from ``models`` the draws and closed forms (``sample``,
``stat_loglik``, ``sup_stat_loglik``, ``_loglik``).  It names none of the
kernel's functions, which ``tests/test_kernel.py`` checks.
"""
import math
from itertools import islice
from typing import Sequence

from seqdetect.engine import (
    DEFAULT_N_MAX,
    Decision,
    EngineState,
    TestKind,
    Thresholds,
    _require_rows,
    _require_run,
    _total,
    init,
)
from seqdetect.errors import DomainError
from seqdetect.models import (
    JointParameter,
    Region,
    StreamModel,
    _loglik,
    sample,
    stat_loglik,
    sup_stat_loglik,
)

_NEG_INF = float("-inf")


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
    """Best log-likelihood over each error family of assignments, (logL0,
    logL1): those adding a stream to the estimate and those dropping one,
    -inf for an empty family.  The unconstrained value frees every stream
    and charges only the cheapest forced flip; the constrained one searches
    the sorted candidates that ``engine._coupled_sups`` describes, one at a
    time.
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


def run_to_decision(
    model: StreamModel,
    theta_true: JointParameter,
    thresholds: Thresholds,
    kind: TestKind,
    rng,
    n_max: int = DEFAULT_N_MAX,
) -> Decision:
    """Simulate one trial to its decision: observations drawn in stream
    order, fed through :func:`update`, the stopping rule checked after every
    step, and the trial truncated (with its current estimate) at ``n_max``."""
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


def states(model, k, rows):
    """init for k streams, then update on each row; yields the state after
    each step (one object, updated in place)."""
    state = init(model, k)
    for row in rows:
        yield update(state, row)


def drawn_rows(model, theta, rng):
    """Rows drawn without end from the streams at ``theta``, in stream order."""
    while True:
        yield [sample(model, t, rng) for t in theta.thetas]


def horizon(model, theta, n, trials, rng):
    """Each trial's state at time n >= 1, the trials one after another."""
    rows = drawn_rows(model, theta, rng)
    for _ in range(trials):
        *_, state = states(model, theta.k, islice(rows, n))
        yield state


def martingale_ratios(model, theta, n, trials, rng):
    for state in horizon(model, theta, n, trials, rng):
        true_ll = _total(
            stat_loglik(model, state.n, s, t) for s, t in zip(state.sums, theta.thetas)
        )
        yield math.exp(state.adaptive_loglik - true_ll)


def lln_margins(model, theta, n, trials, kinds, rng):
    for state in horizon(model, theta, n, trials, rng):
        yield (state.adaptive_loglik, *(sup_loglik_error_sets(state, k) for k in kinds))


def margin_cells(state):
    """Cells of both kinds whose thresholds sit at the state's margins
    m0 = adaptive - logL0 and m1 = adaptive - logL1: log_a = m1 and
    log_b = m0, then log_a and then log_b one ulp above, then the two
    swapped.  An infinite margin (an empty family), which any threshold
    passes, stands as 0.0."""
    cells = []
    for kind in TestKind:
        m0, m1 = (
            state.adaptive_loglik - l if math.isfinite(l) else 0.0
            for l in sup_loglik_error_sets(state, kind)
        )
        up0, up1 = math.nextafter(m0, math.inf), math.nextafter(m1, math.inf)
        for log_a, log_b in ((m1, m0), (up1, m0), (m1, up0), (m0, m1)):
            cells.append((Thresholds(log_a, log_b), kind))
    return cells
