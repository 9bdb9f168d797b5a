"""README's code examples run against the checkout, so a documented call
to a name the package no longer has fails the suite."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def section_python_block(text: str, heading: str) -> str:
    """The first ```python block between heading and the next `## ` heading."""
    start = text.index(f"\n{heading}\n")
    end = text.find("\n## ", start + 1)
    found = re.search(r"^```python\n(.*?)^```$", text[start : end if end >= 0 else None], re.M | re.S)
    assert found, f"README has no python block under {heading!r}"
    return found.group(1)


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    code = section_python_block(README.read_text(encoding="utf-8"), "## Library use")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README}:Library use", "exec"), {"__name__": "readme_example"})
    assert "detections, peak" in capsys.readouterr().out
