"""In-memory span aggregation for the traced benchmark run.

The traced run rebinds module attributes of ``seqdetect`` (``engine.update``,
``engine.sample``, ``oracle.sample`` and so on) to wrappers that time every
call.  A span name keeps three numbers -- calls, total time and the time
covered by its child spans -- so a run with a million wrapped calls holds a
few dozen floats.  Self time is total minus child time.  Durations of single
calls are kept only for the span names asked for (one per trial).

Pool workers forked while the wrappers are installed inherit them.  Each
worker writes its aggregate to a file after every batch of trials, and the
parent merges those files once the run is over.
"""
from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

# (module, attribute, span name).  Several bindings of one function feed one
# span: engine and oracle both call models.sample through their own import.
TARGETS = (
    ("engine", "sample", "models.sample"),
    ("oracle", "sample", "models.sample"),
    ("engine", "run_to_decision", "engine.run_to_decision"),
    ("engine", "update", "engine.update"),
    ("engine", "check_stop", "engine.check_stop"),
    ("engine", "estimate_signal_set", "engine.estimate_signal_set"),
    ("engine", "sup_loglik_error_sets", "engine.sup_loglik_error_sets"),
    ("geometry", "info_constants", "geometry.info_constants"),
    ("montecarlo", "run_experiment", "montecarlo.run_experiment"),
    ("oracle", "mean_one_martingale_estimate", "oracle.mean_one_martingale_estimate"),
    ("oracle", "lln_rate_estimate", "oracle.lln_rate_estimate"),
    ("oracle", "grid_sup_loglik", "oracle.grid_sup_loglik"),
    ("oracle", "grid_info_constants", "oracle.grid_info_constants"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "main", "cli.main"),
)

# This span is split by its ``kind`` argument (second positional), one
# name per TestKind value.
SPLIT_BY_KIND = "engine.sup_loglik_error_sets"

# Reported span names, in report order.
SPAN_NAMES = tuple(
    dict.fromkeys(
        f"{name}.{kind}" if name == SPLIT_BY_KIND else name
        for _, _, name in TARGETS
        for kind in ("constrained", "unconstrained")
    )
)


class Tracer:
    """Aggregates spans as {name: [calls, total_s, child_s]}."""

    def __init__(self, clock=time.perf_counter, samples=()):
        self.clock = clock
        self.pid = os.getpid()
        self.totals: dict[str, list] = {}
        self.samples: dict[str, list[float]] = {name: [] for name in samples}
        self._open: list[float] = []  # child time of each open span

    def reset(self) -> None:
        """Forget everything; a forked worker starts from zero."""
        self.pid = os.getpid()
        self.totals.clear()
        for kept in self.samples.values():
            kept.clear()
        self._open.clear()

    def wrap(self, name: str, fn):
        clock = self.clock
        open_spans = self._open
        totals = self.totals
        samples = self.samples
        split = name == SPLIT_BY_KIND

        @wraps(fn)
        def traced(*args, **kwargs):
            key = name
            if split:
                kind = args[1] if len(args) > 1 else kwargs["kind"]
                key = f"{name}.{kind.value}"
            # Span bookkeeping is inlined: this runs about a million times a run.
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dur
                row = totals.get(key)
                if row is None:
                    row = totals[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dur
                row[2] += child
                kept = samples.get(key)
                if kept is not None:
                    kept.append(dur)

        return traced

    def merge(self, totals: dict, samples: dict) -> None:
        for key, (calls, total, child) in totals.items():
            row = self.totals.setdefault(key, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += child
        for key, durations in samples.items():
            self.samples.setdefault(key, []).extend(durations)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"totals": self.totals, "samples": self.samples}))

    def merge_workers(self, directory: Path) -> int:
        """Merge and delete the worker files in ``directory``; returns how many."""
        files = sorted(directory.glob("worker-*.json"))
        for path in files:
            data = json.loads(path.read_text())
            self.merge(data["totals"], data["samples"])
            path.unlink()
        return len(files)


def _flush_in_worker(tracer: Tracer, fn, directory: Path):
    """Wrap the montecarlo batch function so a forked worker saves its spans."""
    owner = os.getpid()

    @wraps(fn)
    def batch(*args, **kwargs):
        pid = os.getpid()
        if pid == owner:
            return fn(*args, **kwargs)
        if tracer.pid != pid:
            tracer.reset()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.dump(directory / f"worker-{pid}.json")

    return batch


@contextmanager
def installed(tracer: Tracer, package, worker_dir: Path):
    """Rebind the traced functions of ``package`` for the duration of the block.

    ``package`` is the imported ``seqdetect``; its submodules are looked up
    as attributes.  A function the program no longer has is skipped and
    reports no calls.  Originals are restored on exit, also after an error.
    """
    rebind = [
        (getattr(package, module_name), attr, lambda fn, name=name: tracer.wrap(name, fn))
        for module_name, attr, name in TARGETS
    ]
    # The function montecarlo's pool runs in each worker, once per batch.
    rebind.append(
        (package.montecarlo, "_run_batch", lambda fn: _flush_in_worker(tracer, fn, worker_dir))
    )
    saved = []
    try:
        for module, attr, make_wrapper in rebind:
            fn = getattr(module, attr, None)
            if fn is not None:
                saved.append((module, attr, fn))
                setattr(module, attr, make_wrapper(fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
