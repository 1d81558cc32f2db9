"""Every script in demos/, and README's library example, runs to completion
against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_library_example_runs(capsys):
    # the "Library" block as written: a signature change the docs miss fails here
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = text.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert round(float(lines[0]), 2) == 0.10
    assert [int(line.split()[0]) for line in lines[1:]] == [7, 6, 5, 4, 3, 2]
