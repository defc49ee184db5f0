"""The README's python examples run as written."""

import os
import re

import pytest

from flowsentry.generator import generate, preset

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    for m in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S):
        yield pytest.param(m.group(1), id=f"README.md:{text.count(chr(10), 0, m.start()) + 1}")


@pytest.mark.parametrize("code", list(python_blocks()))
def test_readme_python_block_runs(code, tmp_path, monkeypatch):
    lines, _ = generate(preset("netbus-slow"))
    (tmp_path / "slow.log").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, README, "exec"), {"__name__": "readme"})


def test_readme_has_python_blocks():
    assert len(list(python_blocks())) >= 2
