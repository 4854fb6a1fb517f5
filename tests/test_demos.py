"""Every demo script, and the README's library quick start, runs against src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_found():
    assert len(DEMOS) >= 6


def _arguments(path: Path) -> list[str]:
    if path == README:  # its "Quick start (library)" code block
        section = path.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
        return ["-c", section.split("```python\n", 1)[1].split("```", 1)[0]]
    return [str(path)]


@pytest.mark.parametrize("demo", DEMOS + [README], ids=[path.name for path in DEMOS + [README]])
def test_demo_runs(demo):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *_arguments(demo)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
