"""Every script in demos/ runs to completion and prints something; the
congruence lattice demo prints its pentagon witness."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_five_demos_are_found():
    assert len(DEMOS) == 5


def _run(script):
    """The stdout of a demo that exits 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    assert _run(script).strip()


def test_congruence_lattice_demo_prints_the_pentagon():
    out = _run(ROOT / "demos" / "congruence_lattice.py")
    assert out.endswith(
        "modular: no\n"
        "pentagon witness:\n"
        "  a | b | e | f\n"
        "  a e | b | f\n"
        "  a b | e f\n"
        "  a e | b f\n"
        "  a b e f\n"
    )
