"""The benchmark's span tracer finds what it wraps.

``perfbench/spans.py`` rebinds functions by (module, attribute) name and
silently skips a name the program no longer has, so a rename would leave a
span empty instead of failing.  These checks read the tracer's target list
and fail on such a rename.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_exists(spans):
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"seqdetect.{module}"), attr, None))
    ]
    assert missing == []


def test_batch_and_setup_hooks_exist():
    assert callable(importlib.import_module("seqdetect.montecarlo")._run_batch)
    assert callable(importlib.import_module("seqdetect.cli")._experiment_config)


def test_split_span_takes_kind_second(spans):
    module, attr = next(
        (m, a) for m, a, name in spans.TARGETS if name == spans.SPLIT_BY_KIND
    )
    fn = getattr(importlib.import_module(f"seqdetect.{module}"), attr)
    assert list(inspect.signature(fn).parameters)[1] == "kind"
