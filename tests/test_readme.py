"""The README's Python quick start runs against the current API."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    constants, decision = capsys.readouterr().out.splitlines()
    assert constants.startswith("InfoConstants(")
    stopped_at, selected = decision.split(" ", 1)
    assert int(stopped_at) >= 1 and selected.startswith("[")
