"""The step-at-a-time reference for the batched kernel and the oracle's
estimators: one trial, one observation per stream per engine.update.  It
reads none of the kernel's block step, suprema or batched draws, only
``engine._total``, the one order of addition.
"""
import math
from itertools import islice

from seqdetect import engine
from seqdetect.models import sample, stat_loglik


def states(model, k, rows):
    """init for k streams, then update on each row; yields the state after
    each step (one object, updated in place)."""
    state = engine.init(model, k)
    for row in rows:
        yield engine.update(state, row)


def next_score(model, n, s, x):
    """One stream's adaptive term for x after n observations that sum to s:
    x scored at the lagged estimate of (n, s)."""
    return engine.update(engine.EngineState(model, [s], 0.0, n), [x]).adaptive_loglik


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
        true_ll = engine._total(
            stat_loglik(model, state.n, s, t) for s, t in zip(state.sums, theta.thetas)
        )
        yield math.exp(state.adaptive_loglik - true_ll)


def lln_margins(model, theta, n, trials, kinds, rng):
    for state in horizon(model, theta, n, trials, rng):
        yield (state.adaptive_loglik, *(engine.sup_loglik_error_sets(state, k) for k in kinds))


def margin_cells(state):
    """Cells of both kinds whose thresholds sit at the state's margins
    m0 = adaptive - logL0 and m1 = adaptive - logL1: log_a = m1 and
    log_b = m0, then log_a and then log_b one ulp above, then the two
    swapped.  An infinite margin (an empty family), which any threshold
    passes, stands as 0.0."""
    cells = []
    for kind in engine.TestKind:
        m0, m1 = (
            state.adaptive_loglik - l if math.isfinite(l) else 0.0
            for l in engine.sup_loglik_error_sets(state, kind)
        )
        up0, up1 = math.nextafter(m0, math.inf), math.nextafter(m1, math.inf)
        for log_a, log_b in ((m1, m0), (up1, m0), (m1, up0), (m0, m1)):
            cells.append((engine.Thresholds(log_a, log_b), kind))
    return cells
