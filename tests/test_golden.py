"""Byte-for-byte stdout of fixed CLI runs against the files in tests/golden.

Each golden file holds the stdout of one ``cli.main`` call: ``analyze``,
``congruences``, ``lattice`` and ``decompose`` on every ``demos/data``
table, and ``verify --order 3``. A change that must keep the output
identical leaves them alone; a change that alters the output on purpose
rewrites them with

    PYTHONPATH=src python tests/test_golden.py

so that the diff of tests/golden shows what moved.
"""

import contextlib
import io
from pathlib import Path

from aggroupoids import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
TABLE_COMMANDS = ("analyze", "congruences", "lattice", "decompose")


def golden_runs():
    """(golden file name, argv) for every captured run."""
    for table in sorted((ROOT / "demos" / "data").glob("*.mag")):
        for command in TABLE_COMMANDS:
            yield f"{table.stem}.{command}.txt", [command, str(table)]
    yield "verify-order-3.txt", ["verify", "--order", "3"]


def stdout_of(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return out.getvalue().encode("utf-8")


def test_stdout_matches_the_golden_files():
    runs = list(golden_runs())
    assert sorted(name for name, _ in runs) == sorted(p.name for p in GOLDEN.glob("*.txt"))
    changed = [
        name for name, argv in runs if stdout_of(argv) != (GOLDEN / name).read_bytes()
    ]
    assert changed == []


if __name__ == "__main__":
    for name, argv in golden_runs():
        (GOLDEN / name).write_bytes(stdout_of(argv))
