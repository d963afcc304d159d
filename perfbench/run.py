"""seqdetect benchmark: time one workload and check its outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk_fig1 --seed 20260819 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

With ``--trace 0`` the measured call is repeated until the next call would
end after ``--seconds``, at least ``MIN_CALLS`` times, and each end-to-end
metric is the median over calls.  Call j runs on a config generated from
seed + j * CALL_SEED_STEP, so a run averages over inputs as well as over
machine noise.  With ``--trace 1`` the call runs once untraced and once with
every traced function wrapped (see ``spans.py``), both on ``--seed``;
``--seconds`` is not used.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with the machine
and every call is written under ``.bench_build/perfbench/``.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with an error before printing anything.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

sys.path[:0] = [str(SRC), str(HERE)]
try:
    import seqdetect
    import seqdetect.cli
    import seqdetect.oracle
except ImportError as exc:
    raise SystemExit(f"error: cannot import seqdetect from {SRC}: {exc}")
if not Path(seqdetect.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"error: seqdetect was imported from {seqdetect.__file__}, not {SRC}")

import spans  # noqa: E402
import workloads  # noqa: E402  (imports seqdetect, which must come from SRC)

MIN_CALLS = 4
SETUP_PROBES = 5
CALL_SEED_STEP = 1_000_003
TAIL_PERCENTILE = 90


def cpu_seconds() -> float:
    """User+system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def timed(call):
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    outcome = call()
    wall = time.perf_counter() - t0
    return outcome, wall, cpu_seconds() - cpu0


def measure_setup(workload, config_path: Path) -> float:
    """One set-up in a fresh process (``setup_probe.py``), in seconds."""
    mode = "simulate" if workload.simulate else "validate"
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(config_path), mode],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def machine(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


class Run:
    """The measured calls of one run, with every operation counted."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = workloads.load_reference(workload) if workload.simulate else None
        self.calls: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, path: Path, task, workers: int):
        if self.workload.simulate:
            return workloads.run_simulate(task, workers, self.reference)
        return workloads.run_validate(path, task)

    def measured_call(self, label: str, seed: int, trials: int, traced=None):
        """Generate the config, set it up (untimed) and time one call.

        With several workers the same config first runs on one worker,
        untimed, and the timed outputs must match it byte for byte.  With
        ``traced`` (a context manager) the call runs inside it, and its
        outputs must match the previous call's, made on the same seed.
        """
        path = workloads.write_config(self.workload, seed, trials, OUT)
        expected, against = None, None
        if traced is not None:
            expected, against = self.calls[-1]["digest"], f"{self.calls[-1]['label']} call"
        elif self.workload.workers > 1:
            task = workloads.prepare(self.workload, path)
            expected, against = self.call(path, task, 1).digest, "1-worker run"
        with traced or contextlib.nullcontext():
            task = workloads.prepare(self.workload, path)
            outcome, wall, cpu = timed(lambda: self.call(path, task, self.workload.workers))
        self.calls.append({"label": label, "seed": seed, "wall_s": wall, "cpu_s": cpu,
                           "digest": outcome.digest})
        self.attempted += outcome.attempted
        if expected is not None and outcome.digest != expected:
            self.failures += [f"{label}: outputs differ from the {against}"] * outcome.attempted
        else:
            self.failures += [f"{label}: {f}" for f in outcome.failures]
        return outcome, wall, cpu


def run_timed(workload, seed: int, seconds: float) -> tuple[Run, dict]:
    """Call j runs on seed + j * CALL_SEED_STEP, so a run averages over inputs.

    A set-up probe precedes every call, and more follow up to SETUP_PROBES,
    so set-up is sampled across the whole run rather than in one burst.
    """
    setup_config = workloads.write_config(workload, seed, workload.trials, OUT)
    run = Run(workload)
    walls, cpus, setup, trials = [], [], [], 0
    start = time.perf_counter()
    while True:
        setup.append(measure_setup(workload, setup_config))
        call_seed = seed + CALL_SEED_STEP * len(walls)
        outcome, wall, cpu = run.measured_call(f"call {len(walls) + 1}", call_seed, workload.trials)
        walls.append(wall)
        cpus.append(cpu)
        trials = outcome.trials or trials
        if len(walls) >= MIN_CALLS and time.perf_counter() - start + wall > seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(workload, setup_config))
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "trials_per_s": (trials / wall_s, "trials/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    return run, {"metrics": metrics, "setup_probes_s": setup}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)]


def layer_metrics(tracer, workers: int, wall_untraced: float, wall_traced: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}; 0 for a function not called."""
    metrics = {}
    for name in spans.SPAN_NAMES:
        calls, total, child = tracer.totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (total - child, "s")
        metrics[f"{name}.us_per_call"] = (total / calls * 1e6 if calls else 0.0, "us")
    trials = sorted(tracer.samples["engine.run_to_decision"])
    for q in (50, TAIL_PERCENTILE):
        metrics[f"engine.run_to_decision.ms_p{q}"] = (percentile(trials, q) * 1e3, "ms")
    decide = tracer.totals.get("engine.run_to_decision")
    experiment = tracer.totals.get("montecarlo.run_experiment")
    busy = decide[1] / (workers * experiment[1]) if decide and experiment else 0.0
    metrics["montecarlo.worker_busy_frac"] = (busy, "ratio")
    metrics["trace.overhead_frac"] = (wall_traced / wall_untraced - 1.0, "ratio")
    return metrics


def run_traced(workload, seed: int) -> tuple[Run, dict]:
    run = Run(workload)
    tracer = spans.Tracer(samples=("engine.run_to_decision",))
    worker_dir = OUT / f"spans-{os.getpid()}"
    worker_dir.mkdir(exist_ok=True)
    _, wall_untraced, _ = run.measured_call("untraced", seed, workload.trace_trials)
    _, wall_traced, _ = run.measured_call(
        "traced", seed, workload.trace_trials,
        traced=spans.installed(tracer, seqdetect, worker_dir),  # also traces cli.load_config
    )
    worker_files = tracer.merge_workers(worker_dir)
    worker_dir.rmdir()

    trials = len(tracer.samples["engine.run_to_decision"])
    return run, {
        "metrics": layer_metrics(tracer, workload.workers, wall_untraced, wall_traced),
        "spans": {name: dict(zip(("calls", "total_s", "child_s"), row))
                  for name, row in sorted(tracer.totals.items())},
        "worker_span_files": worker_files,
        "run_to_decision_trials": trials,
        "beyond_tail": trials - math.ceil(TAIL_PERCENTILE / 100.0 * trials),
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result file's contents."""
    OUT.mkdir(parents=True, exist_ok=True)
    info = machine(seed)
    if trace:
        run, extra = run_traced(workload, seed)
    else:
        run, extra = run_timed(workload, seed, seconds)
    info["loadavg_end"] = os.getloadavg()
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in extra.pop("metrics").items()
    }
    return {
        "workload": workload.name,
        "trace": trace,
        "seconds": seconds,
        "machine": info,
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "calls": run.calls,
        "metrics": metrics,
        **extra,
    }


def run_all(args) -> int:
    """Each workload in its own process, so its CPU and memory figures are its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = v
            print(f"{name:<16} {metric:<52} {v['value']:>14.6g} {v['unit']}")
        print(f"{name:<16} {'failed/attempted':<52} {result['failed']:>7}/{result['attempted']}")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument(
        "--seed", type=int, default=workloads.DEFAULT_SEED,
        help=f"workload seed; recheck claims on {workloads.RECHECK_SEED}, unused while tuning",
    )
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))
    for failure in result["failures"]:
        print("FAILED", failure)
    for name, m in result["metrics"].items():
        print(f"{name:<52} {m['value']:>14.6g} {m['unit']}")
    print(f"wrote {path.relative_to(ROOT)}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
