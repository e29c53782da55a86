"""Every demo runs to completion through the public API."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, tmp_path, src_env):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=src_env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
