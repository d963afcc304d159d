"""Time one set-up in a fresh process and print it in seconds.

Set-up is ``import seqdetect`` plus loading and validating a config the way
the CLI does, up to the point where the measured call would start.
Interpreter start-up is not included.

Usage: python3 perfbench/setup_probe.py CONFIG.json {simulate,validate}
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

t0 = time.perf_counter()
from seqdetect import cli  # noqa: E402  (the import is what is timed)

spec = cli.load_config(sys.argv[1])
if sys.argv[2] == "simulate":
    cli._experiment_config(spec)
print(repr(time.perf_counter() - t0))
