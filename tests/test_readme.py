"""README's code examples and flags are checked against the checkout, so a
documented call to a name or a flag the package no longer has fails the suite."""

import re
from pathlib import Path

import pytest

from greenlite.cli import BENCH_CSV_HEADER, BENCH_EMISSIONS_CSV_HEADER, MEMORY_CSV_HEADER, _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def section(text: str, heading: str) -> str:
    """The text from heading up to the next `## ` heading."""
    start = text.index(f"\n{heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else None]


def section_python_block(text: str, heading: str) -> str:
    """The first ```python block between heading and the next `## ` heading."""
    found = re.search(r"^```python\n(.*?)^```$", section(text, heading), re.M | re.S)
    assert found, f"README has no python block under {heading!r}"
    return found.group(1)


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    code = section_python_block(README.read_text(encoding="utf-8"), "## Library use")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README}:Library use", "exec"), {"__name__": "readme_example"})
    assert "detections, peak" in capsys.readouterr().out


def test_every_flag_readme_names_exists_in_the_parser():
    """Install's flags are pip's; every other --flag is a greenlite command's."""
    text = README.read_text(encoding="utf-8")
    named = set(re.findall(r"--[a-z][a-z-]*", text.replace(section(text, "## Install"), "")))
    commands = _build_parser()._subparsers._group_actions[0].choices.values()
    known = {flag for command in commands for flag in command._option_string_actions}
    assert named, "README names no flags"
    assert named <= known, sorted(named - known)


def test_the_count_flag_table_matches_the_parser(capsys):
    """README's count-flag table names exactly the parser's flags typed
    `_at_least`, and each takes its least value and is a usage error (exit 1)
    one below it. Required flags get dummy values; only the arguments are
    parsed, no command runs."""
    walkthrough = section(README.read_text(encoding="utf-8"), "## CLI walkthrough")
    rows = re.findall(r"^\| `(\w+)` \| (.+?) \| (-?\d+) \|$", walkthrough, re.M)
    parser = _build_parser()
    commands = parser._subparsers._group_actions[0].choices
    table = {(command, flag) for command, flags, _ in rows for flag in re.findall(r"`(--[a-z-]+)`", flags)}
    counted = {
        (name, action.option_strings[0])
        for name, command in commands.items()
        for action in command._actions
        if getattr(action.type, "__qualname__", "").startswith("_at_least.")
    }
    assert table == counted
    for command, flags, least in rows:
        required = [a.option_strings[0] for a in commands[command]._actions if a.required]
        base = [command] + [arg for flag in required for arg in (flag, "x")]
        for flag in re.findall(r"`(--[a-z-]+)`", flags):
            args = parser.parse_args(base + [flag, least])
            assert getattr(args, flag[2:].replace("-", "_")) == int(least), (command, flag)
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(base + [flag, str(int(least) - 1)])
            assert exc.value.code == 1, (command, flag)
            assert f"argument {flag}: must be >= {least}" in capsys.readouterr().err


def test_bench_output_table_names_the_csv_headers():
    """README's table of bench's output files gives each CSV's header as bench writes it."""
    walkthrough = section(README.read_text(encoding="utf-8"), "## CLI walkthrough")
    headers = dict(re.findall(r"^\| `(\w+\.csv)` \| `([\w,]+)` ", walkthrough, re.M))
    assert headers == {
        "bench.csv": BENCH_CSV_HEADER,
        "emissions.csv": BENCH_EMISSIONS_CSV_HEADER,
        "memory.csv": MEMORY_CSV_HEADER,
    }
