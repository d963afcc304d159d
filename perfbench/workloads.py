"""The benchmark's workloads: generated configs, the measured call and its checks.

Every simulate workload is built from the benchmark's seed: the seed
becomes the config's ``run.seed``, and the program only ever sees the
generated config file.  ``validate_quick`` runs the desk_fig1 preset as
shipped (see ``_validate_preset``).  A simulate workload's measured call is
``montecarlo.run_experiment``; ``validate_quick``'s is
``cli.main(["validate", "--config", ..., "--quick"])`` with stdout captured.

Operations and their failures (``failed`` / ``attempted``):

* simulate: one operation per (thresholds, kind) cell.  A cell fails when
  the call raises, a trial is truncated, its ESS is more than ``ESS_Z``
  combined standard errors from ``reference.json``, an error rate exceeds
  exp(-threshold) plus 3 binomial standard errors, or its summary differs
  from a one-worker run of the same config (with more than one worker) or,
  in the traced run, from the untraced call on the same seed;
* validate: one operation per PASS/FAIL line; a non-zero exit code fails
  them all.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

from seqdetect import cli, montecarlo

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# The shipped desk_fig1 preset's seed; the default when no seed is given.
DEFAULT_SEED = 20260819
# A seed kept out of tuning, for rechecking a claim on fresh inputs.
RECHECK_SEED = 4242

# A cell's ESS may differ from the reference by this many combined standard
# errors (the run's and the reference's) before it fails.  Wide enough for a
# change of random-number stream to pass.
ESS_Z = 5.0


def _desk_fig1(seed: int, trials: int) -> dict:
    """The shipped desk_fig1 preset with the seed and trial count replaced."""
    return {
        "experiment": "desk_fig1",
        "model": {"family": "gaussian", "delta": 0.1},
        "truth": {"k": 2, "signal_set": [1], "theta1": 0.5, "theta0": -0.5},
        "run": {
            "kinds": ["constrained", "unconstrained"],
            "log_thresholds": [2, 5, 10, 20],
            "trials": trials,
            "seed": seed,
            "n_max": 1000000,
        },
    }


def _wide_bernoulli(seed: int, trials: int) -> dict:
    return {
        "experiment": "wide_bernoulli",
        "model": {
            "family": "bernoulli",
            "noise_region": [0.05, 0.4],
            "signal_region": [0.6, 0.95],
        },
        "truth": {"k": 10, "signal_set": [1, 2, 3, 4, 5], "theta1": 0.7, "theta0": 0.3},
        "run": {
            "kinds": ["constrained", "unconstrained"],
            "log_thresholds": [5],
            "trials": trials,
            "seed": seed,
            "n_max": 1000000,
        },
    }


def _validate_preset(seed: int, trials: int) -> dict:
    """The desk_fig1 preset exactly, seed included; the arguments are unused.

    validate's martingale checks are 3-SE tests, so on some seeds one fails
    by chance: seed 107 fails martingale-n1 at 3.7 SE, about one call in 70
    of those tried.  That says nothing about the program, and the
    benchmark's operations must not fail, so this workload keeps the seed
    that the tier-1 validate test also uses.
    """
    return _desk_fig1(DEFAULT_SEED, 2000)


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: object  # (seed, trials) -> config dict
    trials: int  # trials per cell in a timed call
    trace_trials: int  # trials per cell in the traced run (>= 100 in total)
    workers: int = 1
    reference: str | None = None  # key of the ESS reference in reference.json

    @property
    def simulate(self) -> bool:
        return self.reference is not None


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_fig1", _desk_fig1, 100, 250, reference="desk_fig1"),
        Workload("wide_bernoulli", _wide_bernoulli, 4, 50, reference="wide_bernoulli"),
        Workload("validate_quick", _validate_preset, 2000, 2000),
        Workload("desk_fig1_w2", _desk_fig1, 100, 250, workers=2, reference="desk_fig1"),
    )
}


def validate_trials(spec) -> int:
    """Monte Carlo trials of ``validate --quick``: 10,000 for each of the four
    martingale checks and 200 per test kind for the law-of-large-numbers checks."""
    return 4 * 10_000 + 200 * len(spec.kinds)


def write_config(workload: Workload, seed: int, trials: int, directory: Path) -> Path:
    path = directory / f"{workload.name}-seed{seed}-trials{trials}.json"
    path.write_text(json.dumps(workload.make_config(seed, trials), indent=1))
    return path


def prepare(workload: Workload, config_path: Path):
    """Load and validate the config the way the CLI does: the set-up step."""
    spec = cli.load_config(str(config_path))
    if workload.simulate:
        return cli._experiment_config(spec)
    return spec


@dataclass
class Outcome:
    """What one measured call produced."""

    digest: str
    attempted: int
    failures: list  # one string per failed operation
    trials: int


def summary_text(summaries) -> str:
    """Every summary field, floats in repr form: equal text means equal bytes."""
    rows = []
    for s in summaries:
        rows.append(
            ",".join(
                repr(getattr(s, f.name).value if f.name == "kind" else getattr(s, f.name))
                for f in fields(s)
            )
        )
    return "\n".join(rows)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rate_limit(log_threshold: float, trials: int) -> float:
    p = math.exp(-log_threshold)
    return p + 3.0 * math.sqrt(p * (1.0 - p) / trials)


def check_cells(summaries, reference: list[dict]) -> list[str]:
    """One entry per failed cell, naming every reason it failed."""
    ref = {(r["kind"], r["log_a"], r["log_b"]): r for r in reference}
    failures = []
    for s in summaries:
        reasons = []
        r = ref.get((s.kind.value, s.log_a, s.log_b))
        if r is None:
            reasons.append("no ESS reference")
        else:
            # A few trials can show almost no spread by chance, so the run's
            # standard error is at least the reference's per-trial SD / sqrt(n).
            reference_sd = r["ess_se"] * math.sqrt(r["trials"])
            se = math.hypot(max(s.ess_se, reference_sd / math.sqrt(s.trials)), r["ess_se"])
            if not abs(s.ess - r["ess"]) <= ESS_Z * se:
                reasons.append(
                    f"ESS {s.ess:.3f} vs reference {r['ess']:.3f} "
                    f"(more than {ESS_Z:g} x {se:.3f})"
                )
        if s.truncated:
            reasons.append(f"{s.truncated} truncated trial(s)")
        if s.fwer1 > _rate_limit(s.log_a, s.trials):
            reasons.append(f"fwer1 {s.fwer1:g} above exp(-log_a) + 3 SE")
        if s.fwer2 > _rate_limit(s.log_b, s.trials):
            reasons.append(f"fwer2 {s.fwer2:g} above exp(-log_b) + 3 SE")
        if reasons:
            cell = f"{s.kind.value} log_a={s.log_a:g} log_b={s.log_b:g}"
            failures.append(f"{cell}: {'; '.join(reasons)}")
    return failures


def run_simulate(config, workers: int, reference: list[dict]) -> Outcome:
    cells = len(config.thresholds) * len(config.kinds)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # truncation is counted by the gate
        try:
            summaries = montecarlo.run_experiment(config, workers=workers)
        except Exception as exc:  # a raising call fails every cell
            return Outcome(
                f"error: {exc!r}", cells, [f"run_experiment raised {exc!r}"] * cells, 0
            )
    text = summary_text(summaries)
    return Outcome(_digest(text), cells, check_cells(summaries, reference), cells * config.trials)


def run_validate(config_path: Path, spec) -> Outcome:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["validate", "--config", str(config_path), "--quick"])
    except Exception as exc:
        return Outcome(f"error: {exc!r}", 1, [f"validate raised {exc!r}"], 0)
    lines = [
        line for line in out.getvalue().splitlines() if line.startswith(("PASS ", "FAIL "))
    ]
    attempted = max(1, len(lines))
    if code != 0:
        failures = [f"validate exited {code}"] * attempted
    else:
        failures = [line for line in lines if line.startswith("FAIL ")]
    return Outcome(_digest("\n".join(lines)), attempted, failures, validate_trials(spec))


def load_reference(workload: Workload) -> list[dict]:
    return json.loads(REFERENCE_PATH.read_text())["cells"][workload.reference]
