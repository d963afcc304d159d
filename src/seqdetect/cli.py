"""Command-line interface.

Subcommands, each taking ``--config`` and the flags in brackets:

* ``info [--out]``  print information constants, sample-size lower bounds,
  and first-order approximations for the configured cells
* ``simulate [--out --trials --seed]``  run the Monte Carlo experiment and
  write one CSV row per (kind, log_a, log_b) cell
* ``validate [--seed --quick]``  cross-check the closed-form implementations
  against the grid and Monte Carlo references; non-zero exit on failure

Configs are JSON files (see the bundled presets); streams are numbered from
1 in config files and reports.  Exit codes: 0 success, 1 check failure,
2 configuration or I/O error, or a flag that the subcommand does not take.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import engine, geometry, montecarlo
from .errors import CapacityError, ConfigError, DomainError, SeqDetectError
from .models import (
    Family,
    JointParameter,
    ParameterSpace,
    Region,
    StreamModel,
)

SIMULATE_HEADER = [
    "kind", "log_a", "log_b", "trials", "ess", "ess_se",
    "fwer1", "fwer1_ci", "fwer2", "fwer2_ci", "truncated", "approx_ess",
]

_TOP_KEYS = {"experiment", "model", "truth", "run", "output"}
_MODEL_KEYS = {"family", "delta", "noise_region", "signal_region"}
_TRUTH_KEYS = {"k", "signal_set", "theta1", "theta0"}
_RUN_KEYS = {"kinds", "thresholds", "log_thresholds", "levels", "trials", "seed", "n_max"}
_OUTPUT_KEYS = {"directory"}


@dataclass(frozen=True, kw_only=True)
class RunSpec(montecarlo.ExperimentConfig):
    """Validated contents of a config file: the experiment it runs, plus its
    name and the directory its files go to."""

    experiment: str
    out_dir: str


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _parse_region(raw, family: Family, name: str) -> tuple[float, float]:
    if not (isinstance(raw, list) and len(raw) == 2):
        raise ConfigError(f"model.{name} must be a [lo, hi] pair")
    out = []
    for side, v in zip(("lo", "hi"), raw):
        if v is None:
            if family is not Family.GAUSSIAN:
                raise ConfigError(f"model.{name}.{side}: null bounds are Gaussian-only")
            out.append(-math.inf if side == "lo" else math.inf)
        else:
            out.append(_number(v, f"model.{name}.{side}"))
    return out[0], out[1]


def _values(enum) -> str:
    return ", ".join(member.value for member in enum)


def _parse_model(section) -> StreamModel:
    if not isinstance(section, dict):
        raise ConfigError("model section must be an object")
    _reject_unknown(section, _MODEL_KEYS, "model")
    family_raw = section.get("family")
    try:
        family = Family(family_raw)
    except ValueError:
        raise ConfigError(f"model.family must be one of {_values(Family)}; got {family_raw!r}")
    has_delta = "delta" in section
    has_regions = "noise_region" in section or "signal_region" in section
    if has_delta and has_regions:
        raise ConfigError("model: give either delta or explicit regions, not both")
    if has_delta:
        if family is not Family.GAUSSIAN:
            raise ConfigError("model.delta is a Gaussian shorthand")
        space = ParameterSpace.gaussian_indifference(_number(section["delta"], "model.delta"))
    elif "noise_region" in section and "signal_region" in section:
        n_lo, n_hi = _parse_region(section["noise_region"], family, "noise_region")
        s_lo, s_hi = _parse_region(section["signal_region"], family, "signal_region")
        space = ParameterSpace(n_lo, n_hi, s_lo, s_hi)
    else:
        raise ConfigError("model: need delta or both noise_region and signal_region")
    return StreamModel(family, space)


def _parse_truth(section, model: StreamModel) -> JointParameter:
    if not isinstance(section, dict):
        raise ConfigError("truth section must be an object")
    _reject_unknown(section, _TRUTH_KEYS, "truth")
    k = _integer(section.get("k"), "truth.k")
    if k < 1:
        raise ConfigError("truth.k must be at least 1")
    raw_set = section.get("signal_set")
    if not isinstance(raw_set, list):
        raise ConfigError("truth.signal_set must be a list of 1-based stream numbers")
    members = set()
    for v in raw_set:
        i = _integer(v, "truth.signal_set entry")
        if not 1 <= i <= k:
            raise ConfigError(f"truth.signal_set entry {i} outside 1..{k}")
        if i - 1 in members:
            raise ConfigError(f"truth.signal_set lists stream {i} twice")
        members.add(i - 1)

    values = {"theta1": None, "theta0": None}
    for key, region in (("theta1", Region.SIGNAL), ("theta0", Region.NOISE)):
        if section.get(key) is not None:
            value = values[key] = _number(section[key], f"truth.{key}")
            lo, hi = model.space.region_bounds(region)
            if not lo <= value <= hi:
                raise ConfigError(
                    f"truth.{key}={value} not in the {region.value} region [{lo}, {hi}]"
                )
    return JointParameter.coupled(k, members, **values)


def _parse_run(section) -> tuple[dict, dict]:
    """The run section's ``ExperimentConfig`` fields, and the key that set
    each field a check may name."""
    if not isinstance(section, dict):
        raise ConfigError("run section must be an object")
    _reject_unknown(section, _RUN_KEYS, "run")

    raw_kinds = section.get("kinds")
    if not isinstance(raw_kinds, list):
        raise ConfigError("run.kinds must be a list")
    kinds = []
    for v in raw_kinds:
        try:
            kinds.append(engine.TestKind(v))
        except ValueError:
            raise ConfigError(f"run.kinds entry {v!r} not one of {_values(engine.TestKind)}")

    given = [key for key in ("thresholds", "log_thresholds", "levels") if key in section]
    if len(given) != 1:
        raise ConfigError("run: give exactly one of thresholds, log_thresholds, levels")
    key = given[0]
    raw = section[key]
    if not isinstance(raw, list):
        raise ConfigError(f"run.{key} must be a list")
    names, make = ("log_a", "log_b"), engine.Thresholds
    if key == "levels":
        names, make = ("alpha", "beta"), montecarlo.thresholds_from_levels
    thresholds = []
    for v in raw:
        if key == "log_thresholds":  # one number sets both margins
            v = [_number(v, "run.log_thresholds entry")] * 2
        elif not (isinstance(v, list) and len(v) == 2):
            raise ConfigError(f"run.{key} entries must be [{', '.join(names)}] pairs")
        thresholds.append(make(*(_number(x, f"run.{key} {name}") for name, x in zip(names, v))))

    fields = dict(
        kinds=tuple(kinds),
        thresholds=tuple(thresholds),
        trials=_integer(section.get("trials"), "run.trials"),
        base_seed=_integer(section.get("seed"), "run.seed"),
        n_max=_integer(section.get("n_max", engine.DEFAULT_N_MAX), "run.n_max"),
    )
    keys = dict(
        kinds="run.kinds", thresholds=f"run.{key}", trials="run.trials", n_max="run.n_max"
    )
    return fields, keys


@contextmanager
def _given_as(**names: str):
    """Restate a failed check on a spec field under the config key or flag
    that set it: ``names`` maps field names to those."""
    try:
        yield
    except ConfigError as exc:
        if exc.field not in names:
            raise
        raise ConfigError(exc.problem, names[exc.field]) from None


def _parse_output(section) -> str:
    if section is None:
        return "."
    if not isinstance(section, dict):
        raise ConfigError("output section must be an object")
    _reject_unknown(section, _OUTPUT_KEYS, "output")
    directory = section.get("directory", ".")
    if not isinstance(directory, str):
        raise ConfigError("output.directory must be a string")
    return directory


def load_config(path_or_preset: str) -> RunSpec:
    """Load a config file, falling back to a bundled preset by name."""
    p = Path(path_or_preset)
    if p.is_file():
        text = p.read_text()
    else:
        name = path_or_preset if path_or_preset.endswith(".json") else path_or_preset + ".json"
        res = resources.files("seqdetect").joinpath("presets", name)
        if not res.is_file():
            raise ConfigError(f"config file not found: {path_or_preset}")
        text = res.read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    experiment = raw.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        raise ConfigError("experiment must be a non-empty string")
    model = _parse_model(raw.get("model"))
    theta = _parse_truth(raw.get("truth"), model)
    run, keys = _parse_run(raw.get("run"))
    out_dir = _parse_output(raw.get("output"))
    with _given_as(**keys):
        return RunSpec(experiment=experiment, model=model, theta=theta, **run, out_dir=out_dir)


def _experiment_config(spec: RunSpec) -> montecarlo.ExperimentConfig:
    # The spec is the experiment config.  The benchmark's set-up step and
    # tests/test_tracer_contract.py call this name, so it stays.
    return spec


def _fmt(x) -> str:
    """CSV float rendering: 17 significant digits round-trips exactly."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _print_table(header: list[str], rows: list[list]) -> None:
    cells = [header] + [
        [v if isinstance(v, str) else format(v, ".6g") if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for r in cells:
        print("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())


def _render_set(members: frozenset) -> str:
    if not members:
        return "{}"
    return "{" + ", ".join(str(i + 1) for i in sorted(members)) + "}"


def cmd_info(spec: RunSpec, out_dir: Path) -> int:
    constants = geometry.info_constants(spec.model, spec.theta)
    names = [f.name for f in fields(constants)]
    rates = montecarlo.first_order_rates(spec.model, spec.theta, tuple(engine.TestKind))
    sp = spec.model.space
    print(f"experiment     {spec.experiment}")
    print(f"family         {spec.model.family.value}")
    print(f"noise region   [{sp.theta0_lo}, {sp.theta0_hi}]")
    print(f"signal region  [{sp.theta1_lo}, {sp.theta1_hi}]")
    print(f"streams        {spec.theta.k}")
    print(f"signal set     {_render_set(spec.theta.signal_set(sp))}")
    print()
    print("information constants")
    for name in names:
        print(f"  {name:<9} {format(getattr(constants, name), '.12g')}")
    print()

    rows = []
    notes = []
    csv_rows = [[name, "", "", getattr(constants, name)] for name in names]
    for th in spec.thresholds:
        alpha = math.exp(-th.log_a)
        beta = math.exp(-th.log_b)
        try:
            bound = geometry.lower_bound(constants, alpha, beta)
        except DomainError:
            bound = float("nan")
            notes.append(
                f"log_a={th.log_a:g} log_b={th.log_b:g}: outside the lower bound's "
                "hypothesis (needs alpha, beta in (0, 1) with alpha + beta < 1/2)"
            )
        approx = [montecarlo.approx_ess(*rates[kind], th) for kind in engine.TestKind]
        rows.append([th.log_a, th.log_b, alpha, beta, bound, *approx])
        csv_rows.append(["lower_bound", th.log_a, th.log_b, bound])
        for kind, value in zip(engine.TestKind, approx):
            csv_rows.append([f"approx_{kind.value}", th.log_a, th.log_b, value])

    _print_table(
        ["log_a", "log_b", "alpha", "beta", "lower_bound", "approx_con", "approx_unc"],
        rows,
    )
    for note in notes:
        print("note:", note)

    path = out_dir / f"{spec.experiment}_info.csv"
    _write_csv(path, ["quantity", "log_a", "log_b", "value"], csv_rows)
    print(f"\nwrote {path}")
    return 0


def _summary_rows(summaries: list[montecarlo.Summary]) -> list[list]:
    """The ``Summary`` fields that SIMULATE_HEADER names, the kind by its value."""
    return [[s.kind.value, *(getattr(s, name) for name in SIMULATE_HEADER[1:])] for s in summaries]


def cmd_simulate(spec: RunSpec, out_dir: Path) -> int:
    summaries = montecarlo.run_experiment(spec)
    rows = _summary_rows(summaries)
    path = out_dir / f"{spec.experiment}_results.csv"
    _write_csv(path, SIMULATE_HEADER, rows)
    _print_table(SIMULATE_HEADER, rows)
    low = sum((not s.fwer1_certifiable) + (not s.fwer2_certifiable) for s in summaries)
    if low:
        print(
            f"note: {low} of {2 * len(summaries)} error-rate estimates saw fewer than "
            f"{montecarlo._CERTIFY_FLOOR} error events; those rates are "
            "resolution-limited, not zero"
        )
    print(f"wrote {path}")
    return 0


def _check(name: str, ok: bool, detail: str, failures: list) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if not ok:
        failures.append(name)


def _random_coupled_truth(model: StreamModel, k: int, rng: random.Random) -> JointParameter:
    sp = model.space
    if model.family is Family.GAUSSIAN:
        s_hi = min(sp.theta1_hi, sp.theta1_lo + 2.5)
        n_lo = max(sp.theta0_lo, sp.theta0_hi - 2.5)
    else:
        s_hi = sp.theta1_hi
        n_lo = sp.theta0_lo
    theta1 = rng.uniform(sp.theta1_lo, s_hi)
    theta0 = rng.uniform(n_lo, sp.theta0_hi)
    members = frozenset(i for i in range(k) if rng.random() < 0.5)
    return JointParameter.coupled(k, members, theta1, theta0)


def _info_grid(model: StreamModel, theta: JointParameter) -> tuple[float, float, int]:
    """Checks 1 to 3's grid box (lo, hi, points): [0, 1], or [-5, 5] at 10,000
    points widened at that step to the truth and 2.5 past the gap, for check
    2's truths and check 3's fits."""
    if model.family is Family.BERNOULLI:
        return 0.0, 1.0, 10_000
    ends = (*theta.thetas, model.space.theta0_hi - 2.5, model.space.theta1_lo + 2.5)
    lo, hi = min(-5.0, *ends), max(5.0, *ends)
    return lo, hi, 1 + round(9999 * (hi - lo) / 10.0)


def _deviation(got, ref) -> float:
    """Largest |g - r| over paired values; inf unless non-finite values agree exactly."""
    worst = 0.0
    for g, r in zip(got, ref):
        if not (math.isfinite(g) and math.isfinite(r)):
            if g != r:
                return math.inf
        else:
            worst = max(worst, abs(g - r))
    return worst


def cmd_validate(spec: RunSpec, quick: bool) -> int:
    # The oracle is imported here, so that no other command loads it.
    from . import oracle

    failures: list[str] = []
    rng = random.Random(spec.base_seed)
    model = spec.model
    tol, drift_tol = 1e-4, 0.05

    # Checks 1 to 3 scan a grid at its step on [-5, 5]; past 100,000 points
    # that step would have to widen, and the checks would fail on the grid's
    # resolution rather than on the closed forms, so they are skipped.
    lo, hi, points = _info_grid(model, spec.theta)
    if points > 100_000:
        for name in ("constants-config", "constants-random", "engine-grid"):
            print(
                f"SKIP {name}: grid box [{lo:g}, {hi:g}] needs {points:,} points "
                "at the [-5, 5] step, past the 100,000-point cap"
            )
    else:
        grid = oracle.Grid(lo, hi, points)

        # 1. information constants, config truth; the grid reference enumerates
        # assignments, so past its stream cap the check is skipped, not failed
        got = geometry.info_constants(model, spec.theta)
        try:
            ref = oracle.grid_info_constants(model, spec.theta, grid)
        except CapacityError as exc:
            print(f"SKIP constants-config: {exc}")
        else:
            dev = _deviation(astuple(got), astuple(ref))
            _check(
                "constants-config", dev <= tol, f"max deviation {dev:.3g} (tol {tol:g})", failures
            )

        # 2. information constants, random coupled truths
        n_random = 20 if quick else 100
        worst = 0.0
        for _ in range(n_random):
            k = rng.choice((2, 3))
            theta = _random_coupled_truth(model, k, rng)
            got = geometry.info_constants(model, theta)
            ref = oracle.grid_info_constants(model, theta, grid)
            worst = max(worst, _deviation(astuple(got), astuple(ref)))
        _check(
            "constants-random", worst <= tol,
            f"{n_random} draws, max deviation {worst:.3g} (tol {tol:g})", failures,
        )

        # 3. the kernel's error-set suprema vs grid scan, on one-trial rows
        n_states = 25 if quick else 100
        worst = 0.0
        for _ in range(n_states):
            k = rng.choice((2, 3))
            n = rng.randint(1, 50)
            if model.family is Family.GAUSSIAN:
                sums = [n * rng.uniform(-2.0, 2.0) for _ in range(k)]
            else:
                sums = [float(rng.randint(0, n)) for _ in range(k)]
            member, sups = engine._scores(model, float(n), np.array([sums]), engine.TestKind)
            a_hat = frozenset(i for i, v in enumerate(member[0].tolist()) if v)
            for kind, got in zip(engine.TestKind, sups):
                ref = oracle.grid_sup_loglik(model, n, sums, a_hat, kind, grid)
                worst = max(worst, _deviation(np.concatenate(got).tolist(), ref))
        _check(
            "engine-grid", worst <= tol,
            f"{n_states} states, max deviation {worst:.3g} (tol {tol:g})", failures,
        )

    # 4. mean-one martingale of the adaptive likelihood ratio
    # The sample-mean test needs a finite second moment, which fails for
    # models with unbounded log-ratios once estimation error enters (n > 1),
    # so deeper horizons run on a tight Bernoulli reference instance that
    # exercises the same update path; the configured model is checked at n=1.
    trials = 10_000 if quick else 100_000
    ref_model = StreamModel(Family.BERNOULLI, ParameterSpace(0.40, 0.45, 0.55, 0.60))
    ref_theta = JointParameter.coupled(2, frozenset({0}), 0.55, 0.45)
    cases = [("martingale-config-n1", model, spec.theta, 1)]
    cases += [(f"martingale-n{n}", ref_model, ref_theta, n) for n in (1, 5, 10)]
    for name, case_model, theta, n in cases:
        mean, se = oracle.mean_one_martingale_estimate(case_model, theta, n, trials, rng)
        dev = abs(mean - 1.0)
        _check(
            name, dev <= 3.0 * se,
            f"mean {mean:.5f}, |dev| {dev:.5f} vs 3*SE {3.0 * se:.5f}", failures,
        )

    # 5. normalized statistics converge to the information constants
    rates = montecarlo.first_order_rates(model, spec.theta, spec.kinds)
    finite = tuple(kind for kind in spec.kinds if all(map(math.isfinite, rates[kind])))
    lln_trials = 200 if quick else 500
    means = finite and oracle.lln_rate_estimate(model, spec.theta, 2000, lln_trials, finite, rng)
    for kind in spec.kinds:
        if kind not in finite:
            print(f"SKIP lln-{kind.value}: infinite target for this truth")
            continue
        (m0, m1), targets = means[kind], rates[kind]
        dev = max(abs(m0 - targets[0]) / targets[0], abs(m1 - targets[1]) / targets[1])
        _check(
            f"lln-{kind.value}", dev <= drift_tol,
            f"means ({m0:.4f}, {m1:.4f}) vs targets ({targets[0]:.4f}, {targets[1]:.4f}), "
            f"max rel dev {dev:.3%} (tol {drift_tol:.0%})", failures,
        )

    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="seqdetect",
        description="Sequential detection of signal streams with coupled parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("info", "print information constants and sample-size bounds"),
        ("simulate", "run the Monte Carlo experiment and write summary CSV"),
        ("validate", "cross-check closed forms against the grid and MC references"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="config file path or bundled preset name")
        if name != "validate":
            p.add_argument("--out", help="output directory (default: config output.directory)")
        if name == "simulate":
            p.add_argument("--trials", type=int, help="override run.trials")
        if name != "info":
            p.add_argument("--seed", type=int, help="override run.seed")
        if name == "validate":
            p.add_argument("--quick", action="store_true", help="reduced-scale checks")

    args, extra = parser.parse_known_args(argv)
    if extra:
        sub.choices[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        spec = load_config(args.config)
        if getattr(args, "trials", None) is not None:
            with _given_as(trials="--trials"):
                spec = replace(spec, trials=args.trials)
        if getattr(args, "seed", None) is not None:
            spec = replace(spec, base_seed=args.seed)
        if args.command == "validate":
            return cmd_validate(spec, quick=args.quick)

        out_dir = Path(args.out) if args.out is not None else Path(spec.out_dir)
        if args.command == "info":
            return cmd_info(spec, out_dir)
        return cmd_simulate(spec, out_dir)
    except (SeqDetectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
