"""The README's Python quick start and online-use example, config schema
and CLI section match the current API."""
import re
from pathlib import Path

import pytest

from seqdetect.cli import load_config, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _run_python_block(index: int, capsys) -> list[str]:
    """Runs the README's python block ``index`` (the quick start, then the
    online-use example) and returns the lines it prints."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    exec(compile(blocks[index], str(README), "exec"), {})
    return capsys.readouterr().out.splitlines()


def test_quick_start_runs(capsys):
    constants, decision = _run_python_block(0, capsys)
    assert constants.startswith("InfoConstants(")
    stopped_at, selected = decision.split(" ", 1)
    assert int(stopped_at) >= 1 and selected.startswith("[")


def test_online_use_runs(capsys):
    # One line per test kind as its cell stops: the kind, the stop and the
    # selected streams.
    lines = _run_python_block(1, capsys)
    kinds = [line.split(" ", 2)[0] for line in lines]
    assert sorted(kinds) == ["constrained", "unconstrained"]
    for line in lines:
        _, stopped_at, selected = line.split(" ", 2)
        assert int(stopped_at) >= 1 and selected.startswith("[")


def test_config_schema_loads(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    path = tmp_path / "schema.json"
    path.write_text(blocks[0])
    spec = load_config(str(path))
    assert spec.experiment == "desk_fig1"
    assert spec == load_config("desk_fig1")


def _usage(capsys, argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out.split("\n\n", 1)[0]


def test_cli_section_matches_the_parser(capsys):
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = {line.split()[1] for line in block.splitlines() if line.startswith("seqdetect ")}
    table = re.search(r"\| subcommand \| flags \|\n\| --- \| --- \|\n((?:\|.*\n)+)", section)
    flags = {}
    for row in table.group(1).splitlines():
        names, listed = row.strip("|").split("|")
        for name in re.findall(r"`([a-z]+)`", names):
            flags[name] = set(re.findall(r"`(--[a-z-]+)`", listed))

    subcommands = re.search(r"\{([a-z,]+)\}", _usage(capsys, [])).group(1).split(",")
    assert commands == set(flags) == set(subcommands)
    for name in subcommands:
        # Every flag beside --config, as the table says.
        usage = set(re.findall(r"--[a-z-]+", _usage(capsys, [name])))
        assert flags[name] == usage - {"--config"}, name
