"""Smoke test: every demo script runs to completion."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import wrightmaps

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_demos_run(tmp_path):
    # A copy, so that the demos' output directory lands under tmp_path.
    shutil.copytree(DEMOS, tmp_path / "demos", ignore=shutil.ignore_patterns("demo_out"))
    src = str(Path(wrightmaps.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    scripts = sorted((tmp_path / "demos").glob("*.py"))
    assert scripts
    for script in scripts:
        out = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.returncode == 0, (script.name, out.stderr[-2000:])
