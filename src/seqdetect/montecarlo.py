"""Monte Carlo evaluation of the sequential tests.

Runs independent trials, scores each for every cell, where a cell is one
(thresholds, kind) pair, and reduces each cell's decisions to operating
characteristics: expected sample size, familywise error rates of both
types, and the first-order theoretical approximation for the cell.  Cells
share each trial's trajectory, so comparisons across cells are paired.
Jobs split the trials, one range per worker, and each runs every cell;
trial seeds are derived from the trial index, so the summary does not
depend on execution order or the degree of parallelism.
"""
from __future__ import annotations

import math
import os
import random
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product, repeat

import numpy as np

from . import engine, geometry
from .errors import ConfigError
from .models import JointParameter, StreamModel

_MASK64 = (1 << 64) - 1

# Normal quantile for the reported 95% binomial half-widths.
_Z95 = 1.959963984540054

# Below this many observed errors a binomial rate estimate is too coarse to
# certify; the summary carries a flag instead of pretending precision.
_CERTIFY_FLOOR = 10


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_trial_seed(base_seed: int, trial_index: int) -> int:
    """Mix (base_seed, trial_index) into one 64-bit trial seed.

    Chained splitmix64 finalizers; distinct pairs collide only with
    birthday probability, so derived streams are effectively independent.
    """
    if trial_index < 0:
        raise ConfigError("trial index must be non-negative")
    # The inner round once mixed in a cell index; it stays so that no seed changes.
    x = _splitmix64(_splitmix64(base_seed & _MASK64))
    return _splitmix64(x ^ (trial_index & _MASK64))


def thresholds_from_levels(alpha: float, beta: float) -> engine.Thresholds:
    """Thresholds delivering familywise error rates alpha and beta:
    log_a = -log(alpha), log_b = -log(beta)."""
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise ConfigError("alpha and beta must lie in (0, 1)")
    return engine.Thresholds(log_a=-math.log(alpha), log_b=-math.log(beta))


@dataclass(frozen=True)
class ExperimentConfig:
    model: StreamModel
    theta: JointParameter
    kinds: tuple[engine.TestKind, ...]
    thresholds: tuple[engine.Thresholds, ...]
    trials: int
    base_seed: int
    n_max: int = engine.DEFAULT_N_MAX

    def __post_init__(self):
        if not self.kinds:
            raise ConfigError("must name at least one test kind", "kinds")
        if len(set(self.kinds)) != len(self.kinds):
            raise ConfigError("must not hold duplicate test kinds", "kinds")
        if len(set(self.thresholds)) != len(self.thresholds):
            raise ConfigError("must not hold duplicate threshold pairs", "thresholds")
        if not self.thresholds:
            raise ConfigError("must hold at least one threshold pair", "thresholds")
        if self.trials < 1:
            raise ConfigError("must be positive", "trials")
        engine._require_run(self.model, self.theta, self.n_max)
        if engine.TestKind.CONSTRAINED in self.kinds and not self.theta.is_constrained(
            self.model.space
        ):
            raise ConfigError("constrained cells require a coupled truth vector")


@dataclass(frozen=True)
class Summary:
    """Operating characteristics of one (thresholds, kind) cell."""

    kind: engine.TestKind
    log_a: float
    log_b: float
    trials: int
    ess: float
    ess_se: float
    fwer1: float
    fwer1_ci: float
    fwer2: float
    fwer2_ci: float
    truncated: int
    approx_ess: float
    n_type1: int
    n_type2: int
    fwer1_certifiable: bool
    fwer2_certifiable: bool


def _run_batch(config: ExperimentConfig, start: int, stop: int) -> np.ndarray:
    """Trials start..stop-1 of every cell, thresholds-major: one kernel batch
    that scores each trial for every cell, as one (4 x cells x trials) array
    of stop times, truncation flags and type I and type II error flags."""
    signals = config.theta.signal_set(config.model.space)
    truth = np.array([i in signals for i in range(config.theta.k)])
    rngs = [random.Random(derive_trial_seed(config.base_seed, i)) for i in range(start, stop)]
    cells = list(product(config.thresholds, config.kinds))
    stopped_at, truncated, selected = engine.run_trials(
        config.model, config.theta, cells, rngs, config.n_max
    )
    return np.stack(
        (stopped_at, truncated, (selected & ~truth).any(-1), (truth & ~selected).any(-1))
    )


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        env = os.environ.get("SEQDETECT_THREADS")
        if env is not None:
            try:
                workers = int(env)
            except ValueError as exc:
                raise ConfigError(f"SEQDETECT_THREADS must be an integer, got {env!r}") from exc
        elif hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
            workers = len(os.sched_getaffinity(0))
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ConfigError("worker count must be at least 1")
    return workers


def _rate_ci(count: int, trials: int) -> float:
    p = count / trials
    return _Z95 * math.sqrt(p * (1.0 - p) / trials)


def approx_ess(i0: float, i1: float, th: engine.Thresholds) -> float:
    """First-order expected sample size max(|log beta|/i0, |log alpha|/i1).

    Stated directly in threshold space: exponentiating and re-logging would
    underflow for large thresholds.  A +inf constant makes its term vanish;
    a threshold that is not positive gives NaN.
    """
    if th.log_a <= 0.0 or th.log_b <= 0.0:
        return float("nan")
    return max(th.log_b / i0, th.log_a / i1)


def first_order_rates(
    model: StreamModel, theta: JointParameter, kinds: tuple[engine.TestKind, ...]
) -> dict[engine.TestKind, tuple[float, float]]:
    """The rates (i0, i1) that govern each of ``kinds``' sample size.

    The constrained test is governed by the coupled constants (i0, i1), the
    unconstrained baseline by the per-stream ones (i0_tilde, i1_tilde).
    Without a constrained kind only the per-stream constants are computed,
    which exist for any truth, coupled or not.
    """
    if engine.TestKind.CONSTRAINED not in kinds:
        return {engine.TestKind.UNCONSTRAINED: geometry.per_stream_constants(model, theta)}
    c = geometry.info_constants(model, theta)
    return {
        engine.TestKind.CONSTRAINED: (c.i0, c.i1),
        engine.TestKind.UNCONSTRAINED: (c.i0_tilde, c.i1_tilde),
    }


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> list[Summary]:
    """Run every cell of the experiment and summarize.

    Cells are enumerated thresholds-major, kinds-minor.  Each trial draws its
    own seed, ``derive_trial_seed(base_seed, trial)``, and every cell scores
    that one trajectory, so results do not depend on how trials are cut into
    jobs or scheduled, and each cell's decisions are those of the cell run
    alone on the same seeds.  Truncated trials are excluded from the expected
    sample size (with a warning) but still count toward the error rates.
    """
    workers = _resolve_workers(workers)
    rates = first_order_rates(config.model, config.theta, config.kinds)
    # Each job runs every cell on an equal range of trials, so jobs carry
    # equal work and one job per worker balances the pool; a lone job runs
    # here.  A forking pool starts all its processes at the first submit, so
    # it holds one per job.
    starts = range(0, config.trials, -(-config.trials // workers))
    jobs = repeat(config), starts, [*starts[1:], config.trials]
    # _run_batch is looked up at call time so that a wrapper bound to the
    # module attribute (the benchmark's span tracer) runs in the workers.
    if len(starts) == 1:
        batches = list(map(_run_batch, *jobs))
    else:
        with ProcessPoolExecutor(max_workers=len(starts)) as pool:
            batches = list(pool.map(_run_batch, *jobs))

    stopped, truncated, type1, type2 = np.concatenate(batches, axis=-1)
    summaries = []
    for cell_index, (th, kind) in enumerate(product(config.thresholds, config.kinds)):
        trunc = truncated[cell_index].astype(bool)
        kept = stopped[cell_index][~trunc]
        n_trunc = int(trunc.sum())
        err1, err2 = int(type1[cell_index].sum()), int(type2[cell_index].sum())
        if n_trunc > 0:
            warnings.warn(
                f"cell {cell_index}: {n_trunc} truncated trial(s) excluded from ESS",
                stacklevel=2,
            )
        if kept.size == 0:
            ess = float("nan")
            ess_se = float("nan")
        else:
            ess = float(kept.mean())
            ess_se = (
                float(kept.std(ddof=1) / math.sqrt(kept.size)) if kept.size > 1 else 0.0
            )

        summaries.append(
            Summary(
                kind=kind,
                log_a=th.log_a,
                log_b=th.log_b,
                trials=config.trials,
                ess=ess,
                ess_se=ess_se,
                fwer1=err1 / config.trials,
                fwer1_ci=_rate_ci(err1, config.trials),
                fwer2=err2 / config.trials,
                fwer2_ci=_rate_ci(err2, config.trials),
                truncated=n_trunc,
                approx_ess=approx_ess(*rates[kind], th),
                n_type1=err1,
                n_type2=err2,
                fwer1_certifiable=err1 >= _CERTIFY_FLOOR,
                fwer2_certifiable=err2 >= _CERTIFY_FLOOR,
            )
        )
    return summaries
