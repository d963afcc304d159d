"""Mutants of src/ that the tests must kill, and their runner.

Each entry is one wrong change to one file under src/: the exact text it
replaces, the text it puts in, why the change is wrong and the tests that
must fail on it.  For each entry the runner copies src/ to a temporary
directory, applies the one patch there and runs the entry's tests on the
copy.  It first runs every entry's tests on an unpatched copy, which must
pass, so that a broken test cannot kill a mutant.  It prints one line per
mutant, killed or survived, and exits non-zero if a mutant survives or if
an entry's old text is not found exactly once (a stale entry).

    python tests/mutants.py
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
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
    tests = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        if _pytest(_copy(tmp), tests) != 0:
            print("the mutants' tests fail on the unpatched source")
            return 1
    survived = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            status = _pytest(_copy(tmp, mutant), mutant.tests)
        if status not in (0, 1):
            print(f"mutant '{mutant.name}': pytest exit {status}, neither killed nor survived")
            return 1
        survived += status == 0
        print(f"mutant '{mutant.name}': {'survived' if status == 0 else 'killed'} ({mutant.why})")
    return int(survived > 0)


if __name__ == "__main__":
    sys.exit(main())
