"""Record the ESS reference of the benchmark's correctness gate.

Usage (from the repository root): python3 perfbench/record_reference.py

Runs every simulate workload's cells at ``REFERENCE_TRIALS`` trials per cell
on the default seed (two workers; the summaries do not depend on the worker
count) and writes ``perfbench/reference.json``.  The timed runs compare each
cell's ESS with it in combined standard errors, so the reference must only
be re-recorded by a change meant to alter the test's operating
characteristics.
"""
import json
import platform
import sys

import numpy

import run  # noqa: F401  (imports seqdetect from this checkout's src/)
import seqdetect
import workloads
from seqdetect import cli, montecarlo

REFERENCE_TRIALS = {"desk_fig1": 2000, "wide_bernoulli": 100}


def main() -> int:
    run.OUT.mkdir(parents=True, exist_ok=True)
    cells = {}
    for name, trials in REFERENCE_TRIALS.items():
        workload = workloads.WORKLOADS[name]
        path = workloads.write_config(workload, workloads.DEFAULT_SEED, trials, run.OUT)
        config = cli._experiment_config(cli.load_config(str(path)))
        summaries = montecarlo.run_experiment(config, workers=2)
        cells[name] = [
            {
                "kind": s.kind.value, "log_a": s.log_a, "log_b": s.log_b,
                "trials": s.trials, "ess": s.ess, "ess_se": s.ess_se,
                "n_type1": s.n_type1, "n_type2": s.n_type2, "truncated": s.truncated,
            }
            for s in summaries
        ]
        print(name, [(c["kind"], round(c["ess"], 2), round(c["ess_se"], 2)) for c in cells[name]])
    recorded_with = {
        "seqdetect": seqdetect.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": workloads.DEFAULT_SEED,
    }
    out = {"recorded_with": recorded_with, "cells": cells}
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
