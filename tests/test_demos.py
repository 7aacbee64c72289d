"""Smoke run of every script under demos/ and of the README's Python quick
start, each in a fresh directory.

Demo 02 calls sbomp and residual_by_class one pixel at a time and
sbomp_labels on blocks that share columns, so this also covers the
one-pixel forms of the batched pursuit.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import specangle

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


def run_script(script, cwd):
    src = str(Path(specangle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(script)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_script(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    script = tmp_path / "quick_start.py"
    script.write_text(block, encoding="utf-8")
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("% overall\n")
