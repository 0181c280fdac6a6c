"""Byte-for-byte stdout of fixed CLI runs against the files in tests/golden.

Each golden file holds the stdout of one ``cli.main`` call: ``analyze``,
``congruences``, ``lattice`` and ``decompose`` on every ``demos/data``
table, and ``verify --order 3`` and ``--order 4``. A run that exits
non-zero, such as ``analyze`` on a table that is not completely inverse,
adds a last line with its exit code and stderr. ``enumerate.sha256``
holds one sha256 line per ``enumerate`` run instead, since the labeled
outputs are large: every class at orders 1-4, plain and ``--labeled``,
and the two classes with a higher bound at order 5; two of those runs
are repeated in a ``python -O`` subprocess. A change that must keep the output
identical leaves these files alone; a change that alters the output on
purpose rewrites them with

    PYTHONPATH=src python tests/test_golden.py

so that the diff of tests/golden shows what moved.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from aggroupoids import cli
from aggroupoids.enumeration import CLASSES

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
TABLE_COMMANDS = ("analyze", "congruences", "lattice", "decompose")
DIGESTS = GOLDEN / "enumerate.sha256"


def golden_runs():
    """(golden file name, argv) for every captured run."""
    for table in sorted((ROOT / "demos" / "data").glob("*.mag")):
        for command in TABLE_COMMANDS:
            yield f"{table.stem}.{command}.txt", [command, str(table)]
    yield "verify-order-3.txt", ["verify", "--order", "3"]
    yield "verify-order-4.txt", ["verify", "--order", "4"]


def enumerate_runs():
    """argv of every enumerate run whose stdout digest is pinned."""
    for order in (1, 2, 3, 4):
        for class_filter in CLASSES:
            for extra in ([], ["--labeled"]):
                yield ["enumerate", "--order", str(order), "--class", class_filter, *extra]
    for class_filter in ("ag-group", "completely-inverse"):
        yield ["enumerate", "--order", "5", "--class", class_filter]


def digest_lines() -> str:
    return "".join(
        f"{hashlib.sha256(stdout_of(argv)).hexdigest()}  {' '.join(argv)}\n"
        for argv in enumerate_runs()
    )


def stdout_of(argv) -> bytes:
    """Stdout, then "exit <code>: <stderr>" when the run exits non-zero."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    if code != 0:
        text += f"exit {code}: {err.getvalue()}"
    return text.encode("utf-8")


def test_stdout_matches_the_golden_files():
    runs = list(golden_runs())
    assert sorted(name for name, _ in runs) == sorted(p.name for p in GOLDEN.glob("*.txt"))
    changed = [
        name for name, argv in runs if stdout_of(argv) != (GOLDEN / name).read_bytes()
    ]
    assert changed == []


def test_enumerate_stdout_matches_the_digests():
    assert digest_lines().splitlines() == DIGESTS.read_text().splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--order", "4", "--class", "ag"],
        ["enumerate", "--order", "3", "--class", "ag-star-star", "--labeled"],
    ],
)
def test_enumerate_under_optimize_flag_matches_the_digests(argv):
    # -O strips assert statements; the output must not depend on them
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "aggroupoids.cli", *argv],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = f"{hashlib.sha256(proc.stdout).hexdigest()}  {' '.join(argv)}"
    assert line in DIGESTS.read_text().splitlines()


if __name__ == "__main__":
    for name, argv in golden_runs():
        (GOLDEN / name).write_bytes(stdout_of(argv))
    DIGESTS.write_text(digest_lines())
