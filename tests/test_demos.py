"""Each demo runs as a script in a fresh interpreter, exits 0, prints
something, and leaves nothing behind in the temporary directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sapphire_novelty

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_and_cleans_up(demo, tmp_path):
    src = Path(sapphire_novelty.__file__).resolve().parents[1]
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(scratch))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    assert list(scratch.iterdir()) == []
