"""Mutants of src/ that the tests must kill, and their runner.

Each entry is one wrong change to one file under src/: the exact text it
replaces, the text it puts in, why the change is wrong and the tests that
must fail on it.  For each entry the runner copies src/ to a temporary
directory, applies the one patch there and runs the entry's tests on the
copy.  It first runs every entry's tests on an unpatched copy, which must
pass, so that a broken test cannot kill a mutant.  It prints one line per
mutant, killed or survived, with its wall time, then the total wall time,
and exits non-zero if a mutant survives or if an entry's old text is not
found exactly once (a stale entry).

    python tests/mutants.py
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/
    old: str
    new: str
    why: str
    tests: tuple[str, ...]


_SCREEN_TESTS = ("tests/test_kernel.py::test_screen_decides_at_the_thresholds",)
_STOP_RULE_TESTS = ("tests/test_kernel.py::test_stop_rule_holds_at_its_thresholds",)
_DATA_RULE_TESTS = ("tests/test_models.py::test_impossible_statistic_rejected",)
_ADAPTIVE_RULE_TESTS = ("tests/test_models.py::test_impossible_adaptive_loglik_rejected",)

MUTANTS = (
    Mutant(
        "no exact fallback",
        "seqdetect/engine.py",
        "                if band.any():\n",
        "                if False:\n",
        "the Bernoulli constrained stop is decided on numpy-log suprema "
        "everywhere, so a threshold within _FAST_SLACK of a margin can be "
        "decided on the wrong side",
        _SCREEN_TESTS,
    ),
    Mutant(
        "slack sign flipped",
        "seqdetect/engine.py",
        "low, high = adapt - l * (1.0 - _FAST_SLACK), adapt - l * (1.0 + _FAST_SLACK)",
        "low, high = adapt - l * (1.0 + _FAST_SLACK), adapt - l * (1.0 - _FAST_SLACK)",
        "the band's ends are swapped, so it is empty and no trial-step is "
        "rescored through libm",
        _SCREEN_TESTS,
    ),
    Mutant(
        "ties to the noise side",
        "seqdetect/engine.py",
        "    member = q1 >= q0\n    lagged",
        "    member = q1 > q0\n    lagged",
        "a stream whose two restricted maxima tie is fitted on the noise side, "
        "so the first observation is scored at the upper noise endpoint "
        "instead of the lower signal one",
        _STOP_RULE_TESTS,
    ),
    Mutant(
        "refreshed MLE",
        "seqdetect/engine.py",
        "    lagged = np.where(member, fit1, fit0)[:, :-1]\n"
        "    logs = tuple(np.where(member, at1, at0)[:, :-1] for at0, at1 in zip(logs0, logs1))",
        "    lagged = np.where(member, fit1, fit0)[:, 1:]\n"
        "    logs = tuple(np.where(member, at1, at0)[:, 1:] for at0, at1 in zip(logs0, logs1))",
        "each observation is scored against the fit that includes it, so the "
        "adaptive likelihood ratio is no longer a mean-one martingale",
        _STOP_RULE_TESTS,
    ),
    Mutant(
        "thresholds swapped",
        "seqdetect/engine.py",
        "return (adapt - l0 >= log_b) & (adapt - l1 >= log_a)",
        "return (adapt - l0 >= log_a) & (adapt - l1 >= log_b)",
        "log_a then guards missed detections and log_b false alarms, so "
        "unequal thresholds bound the wrong error rates",
        _STOP_RULE_TESTS,
    ),
    Mutant(
        "strict stop",
        "seqdetect/engine.py",
        "return (adapt - l0 >= log_b) & (adapt - l1 >= log_a)",
        "return (adapt - l0 > log_b) & (adapt - l1 > log_a)",
        "a margin equal to its threshold no longer stops, against the rule's "
        ">= (a stop at exactly the threshold)",
        _STOP_RULE_TESTS,
    ),
    Mutant(
        "swapped lagged Bernoulli logs",
        "seqdetect/engine.py",
        "np.where(member, at1, at0)",
        "np.where(member, at0, at1)",
        "a Bernoulli observation is scored with the logs of the other region's "
        "fit while its lagged estimate is this region's, so the adaptive "
        "log-likelihood is not the one-step-lagged likelihood",
        _STOP_RULE_TESTS,
    ),
    Mutant(
        "empty group scored",
        "seqdetect/engine.py",
        "    return np.where(n > 0, _fit(model, n, s, s / np.maximum(n, 1.0), region)[1], 0.0)\n",
        "    return _fit(model, n, s, s / np.maximum(n, 1.0), region)[1]\n",
        "an empty pooled group is scored on its sum, which for the noise group "
        "of the top set T_K is the rounding residue of the stream total minus "
        "the ranked sums, so a Gaussian supremum moves off the scalar one",
        ("tests/test_kernel.py::test_coupled_suprema_equal_the_scalar_ones",),
    ),
    Mutant(
        "one-pass row check",
        "seqdetect/engine.py",
        "    for row in rows:\n",
        "    for row in rows[:1]:\n",
        "only a block's first row is checked, so an impossible observation in "
        "a later row is absorbed into the sums",
        _DATA_RULE_TESTS,
    ),
    Mutant(
        "skipped first carried sum",
        "seqdetect/engine.py",
        "_require_stat(state.model, state.n, state.sums)",
        "_require_stat(state.model, state.n, state.sums[1:])",
        "the first stream's carried sum is never checked, so a state that no "
        "data can give is scored",
        _DATA_RULE_TESTS,
    ),
    Mutant(
        "unchecked adaptive log-likelihood",
        "seqdetect/engine.py",
        "    if not math.isfinite(adaptive) or (state.n == 0 and adaptive):\n",
        "    if False:\n",
        "a carried adaptive log-likelihood that is not finite, or nonzero at "
        "n = 0, is scored on, so every margin read from it is meaningless",
        _ADAPTIVE_RULE_TESTS,
    ),
)


def _pytest(src: Path, tests) -> int:
    """pytest's exit status for ``tests`` run from the repository on the
    package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, timeout=600).returncode


def _copy(tmp: str, mutant: Mutant | None = None) -> Path:
    """src/ copied under ``tmp``, with ``mutant`` applied if given."""
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        target = src / mutant.path
        text = target.read_text()
        found = text.count(mutant.old)
        if found != 1:
            sys.exit(f"{mutant.name}: old text found {found} times in src/{mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new))
    return src


def main() -> int:
    start = time.perf_counter()
    tests = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        if _pytest(_copy(tmp), tests) != 0:
            print("the mutants' tests fail on the unpatched source")
            return 1
    survived = 0
    for mutant in MUTANTS:
        began = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            status = _pytest(_copy(tmp, mutant), mutant.tests)
        if status not in (0, 1):
            print(f"mutant '{mutant.name}': pytest exit {status}, neither killed nor survived")
            return 1
        survived += status == 0
        verdict = "survived" if status == 0 else "killed"
        print(f"mutant '{mutant.name}': {verdict} in {time.perf_counter() - began:.1f} s ({mutant.why})")
    print(f"{len(MUTANTS)} mutants, {survived} survived, {time.perf_counter() - start:.1f} s in all")
    return int(survived > 0)


if __name__ == "__main__":
    sys.exit(main())
