"""The README's Python quick start and config schema match the current API."""
import re
from pathlib import Path

from seqdetect.cli import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    constants, decision = capsys.readouterr().out.splitlines()
    assert constants.startswith("InfoConstants(")
    stopped_at, selected = decision.split(" ", 1)
    assert int(stopped_at) >= 1 and selected.startswith("[")


def test_config_schema_loads(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    path = tmp_path / "schema.json"
    path.write_text(blocks[0])
    spec = load_config(str(path))
    assert spec.experiment == "desk_fig1"
    assert spec == load_config("desk_fig1")
