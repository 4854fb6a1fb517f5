"""Every demo script, and the README's library quick start, runs against src/."""

import contextlib
import io
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


def _quick_start() -> str:
    """The README's first ```python block, its "Quick start (library)"."""
    return README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]


def _arguments(path: Path) -> list[str]:
    return ["-c", _quick_start()] if path == README else [str(path)]


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



def test_readme_quick_start_prints_its_commented_values():
    # the values its comments show, to the digits shown
    code = _quick_start()
    assert "# 0.02198, 0.8448, 'engine'" in code and "# 1.00136" in code
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, str(README), "exec"), namespace)
    report = namespace["report"]
    assert (round(report.work, 5), round(report.eta, 4), report.regime) == (0.02198, 0.8448, "engine")
    assert round(namespace["positive_work_bound"](2.0, 9.0), 5) == 1.00136
