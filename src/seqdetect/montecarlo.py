"""Monte Carlo evaluation of the sequential tests.

Runs independent trials per cell, where a cell is one (thresholds, kind)
pair, and reduces them to operating characteristics: expected sample size,
familywise error rates of both types, and the first-order theoretical
approximation for the cell.  Trial seeds are derived, not shared, so the
summary is independent of execution order and of the degree of
parallelism.
"""
from __future__ import annotations

import math
import os
import random
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

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


def derive_trial_seed(base_seed: int, cell_index: int, trial_index: int) -> int:
    """Mix (base_seed, cell_index, trial_index) into one 64-bit trial seed.

    Chained splitmix64 finalizers; distinct triples collide only with
    birthday probability, so derived streams are effectively independent.
    """
    if cell_index < 0 or trial_index < 0:
        raise ConfigError("cell and trial indices must be non-negative")
    x = _splitmix64(base_seed & _MASK64)
    x = _splitmix64(x ^ (cell_index & _MASK64))
    x = _splitmix64(x ^ (trial_index & _MASK64))
    return x


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
            raise ConfigError("at least one test kind required")
        if len(set(self.kinds)) != len(self.kinds):
            raise ConfigError("duplicate test kinds")
        if not self.thresholds:
            raise ConfigError("at least one threshold pair required")
        if self.trials < 1:
            raise ConfigError("trials must be positive")
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


def _run_batch(
    model: StreamModel,
    theta: JointParameter,
    thresholds: engine.Thresholds,
    kind: engine.TestKind,
    true_signal: frozenset,
    base_seed: int,
    cell_index: int,
    start: int,
    stop: int,
    n_max: int,
) -> list[tuple[int, bool, bool, bool]]:
    rngs = [
        random.Random(derive_trial_seed(base_seed, cell_index, trial))
        for trial in range(start, stop)
    ]
    out = []
    for d in engine.run_trials(model, theta, thresholds, kind, rngs, n_max=n_max):
        err1 = bool(d.selected - true_signal)
        err2 = bool(true_signal - d.selected)
        out.append((d.stopped_at, d.truncated, err1, err2))
    return out


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

    Cells are enumerated thresholds-major, kinds-minor; each trial draws its
    own seed from (base_seed, cell, trial), so results do not depend on how
    work is scheduled.  Truncated trials are excluded from the expected
    sample size (with a warning) but still count toward the error rates.
    """
    workers = _resolve_workers(workers)
    true_signal = config.theta.signal_set(config.model.space)
    rates = first_order_rates(config.model, config.theta, config.kinds)
    cells = [(th, kind) for th in config.thresholds for kind in config.kinds]
    chunk = -(-config.trials // (4 * workers))
    starts = range(0, config.trials, chunk)
    jobs = [
        (config.model, config.theta, th, kind, true_signal, config.base_seed,
         cell_index, start, min(start + chunk, config.trials), config.n_max)
        for cell_index, (th, kind) in enumerate(cells)
        for start in starts
    ]
    # _run_batch is looked up at call time so that a wrapper bound to the
    # module attribute (the benchmark's span tracer) runs in the workers.
    if workers == 1:
        batches = [_run_batch(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_run_batch, *zip(*jobs)))

    summaries = []
    per_cell = len(starts)
    for cell_index, (th, kind) in enumerate(cells):
        cell_batches = batches[cell_index * per_cell:(cell_index + 1) * per_cell]
        records = [r for batch in cell_batches for r in batch]
        stopped = np.array([r[0] for r in records], dtype=float)
        trunc = np.array([r[1] for r in records], dtype=bool)
        err1 = sum(1 for r in records if r[2])
        err2 = sum(1 for r in records if r[3])

        kept = stopped[~trunc]
        n_trunc = int(trunc.sum())
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
