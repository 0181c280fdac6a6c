"""The command-line surface: outputs, exit codes, determinism."""

import io
import contextlib

import pytest

from aggroupoids import cli
from aggroupoids.verify import CheckResult

F1_TEXT = """4
a b e f
e e a a
e f a b
a a e e
a b e f
"""


@pytest.fixture()
def f1_path(tmp_path):
    path = tmp_path / "f1.mag"
    path.write_text(F1_TEXT)
    return str(path)


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_check(f1_path):
    code, out, err = run(["check", f1_path])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "order: 4"
    assert "completely-inverse: yes" in lines
    assert "ag-group: no" in lines
    assert len(lines) == 14


def test_analyze(f1_path):
    code, out, _ = run(["analyze", f1_path])
    assert code == 0
    assert out == (
        "max-idempotent-separating: a e | b f\n"
        "least-ag-group: a b | e f\n"
        "max-idempotent-pure: a b | e f\n"
        "least-e-unitary: a | b | e | f\n"
    )


def test_congruences(f1_path):
    code, out, _ = run(["congruences", f1_path])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "0: a | b | e | f  [idempotent-separating idempotent-pure e-unitary]"
    assert lines[4].startswith("4: a b e f")


def test_lattice(f1_path):
    code, out, _ = run(["lattice", f1_path])
    assert code == 0
    assert out.startswith("congruences:\n")
    assert "meet:" in out and "join:" in out and "markers:" in out


def test_block_labels_that_collide_with_an_element_name(tmp_path):
    """On the null table named a, b and "a,b" the block of a and b is
    labelled like the element "a,b"; the markers read a quotient named
    by least members, so both commands list all 5 partitions."""
    null = tmp_path / "null.mag"
    null.write_text("3\na b a,b\na a a\na a a\na a a\n")
    code, out, err = run(["congruences", str(null)])
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 5
    assert out.splitlines()[1] == "1: a b | a,b  [idempotent-separating]"
    code, out, err = run(["lattice", str(null)])
    assert code == 0 and err == ""
    assert out.split("meet:\n")[0].count("\n") == 1 + 5


def test_decompose_compose_round_trip(f1_path, tmp_path):
    code, structure, _ = run(["decompose", f1_path])
    assert code == 0
    assert structure.startswith("[Y]\n")
    spath = tmp_path / "f1.struct"
    spath.write_text(structure)
    code, table, _ = run(["compose", str(spath)])
    assert code == 0
    assert table.splitlines()[0] == "4"
    # rebuilt operation agrees with the file it came from, label for label
    from aggroupoids import parse_mag
    from aggroupoids.magma import same_operation

    assert same_operation(parse_mag(table), parse_mag(F1_TEXT))


def test_derive(f1_path):
    code, out, _ = run(["derive", f1_path])
    assert code == 0
    assert out == F1_TEXT  # every element is self-inverse here


def test_derive_rejects_a_missing_inverse(tmp_path):
    null = tmp_path / "null.mag"
    null.write_text("2\na b\na a\na a\n")
    code, out, err = run(["derive", str(null)])
    assert code == 2
    assert out == ""
    assert err == "error: element 'b' has no inverse\n"


def test_stdin_dash(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(F1_TEXT))
    code, out, _ = run(["check", "-"])
    assert code == 0
    assert out.splitlines()[0] == "order: 4"


def test_enumerate_blocks():
    code, out, _ = run(["enumerate", "--order", "2", "--class", "ag"])
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 3
    assert all(block.splitlines()[0] == "2" for block in blocks)


def test_enumerate_census_only():
    code, out, _ = run(
        ["enumerate", "--order", "4", "--class", "completely-inverse", "--census-only"]
    )
    assert code == 0
    assert out == "20\n"


def test_enumerate_rejects_unknown_class():
    with pytest.raises(SystemExit) as exc:
        run(["enumerate", "--order", "2", "--class", "loop"])
    assert exc.value.code == 2


@pytest.mark.parametrize("workers", ["0", "-3", "two", "1", "2"])
@pytest.mark.parametrize(
    "argv", [["enumerate", "--order", "2", "--class", "ag"], ["verify", "--order", "1"]]
)
def test_bad_worker_counts_are_rejected(argv, workers, capsys):
    """--workers is not an option: every count exits 2, naming it."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--workers", workers])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--workers" in err
    assert "Traceback" not in err


def test_verify_ok_lines():
    code, out, _ = run(["verify", "--order", "1"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) >= 30
    assert all(line.startswith("ok thm-") for line in lines)
    assert all("instances)" in line for line in lines)


def test_verify_failure_exit_code(monkeypatch):
    fake = (
        CheckResult("thm-kernel-trace", True, 3, ""),
        CheckResult("thm-mu-least-semilattice", False, 2, "broken\n2\nx y\nx x\nx y"),
    )
    monkeypatch.setattr(cli, "run_all", lambda **kw: fake)
    code, out, _ = run(["verify", "--order", "2"])
    assert code == 1
    assert "ok thm-kernel-trace (3 instances)" in out
    assert "FAIL thm-mu-least-semilattice (2 instances)" in out
    assert "  broken" in out


def test_verify_only_unknown_id_exits_2():
    code, out, err = run(["verify", "--order", "2", "--only", "thm-missing"])
    assert code == 2
    assert "unknown check id" in err


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.mag"
    bad.write_text("2\na b\na a\n")
    code, out, err = run(["check", str(bad)])
    assert code == 2
    assert out == ""
    assert "line" in err and "error:" in err


def test_unicode_digit_count_exit_code(tmp_path):
    bad = tmp_path / "super.mag"
    bad.write_text("²\na\na\n", encoding="utf-8")
    code, out, err = run(["analyze", str(bad)])
    assert code == 2
    assert out == ""
    assert "error:" in err and "element count" in err


def test_non_utf8_file_exit_code(tmp_path):
    bad = tmp_path / "latin.mag"
    bad.write_bytes(b"1\n\xff\n\xff\n")
    code, out, err = run(["check", str(bad)])
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read {bad}: not UTF-8 text\n"


def test_non_utf8_stdin_exit_code(monkeypatch):
    stdin = io.TextIOWrapper(
        io.BytesIO(b"1\n\xff\n\xff\n"), encoding="utf-8", errors="strict"
    )
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(["check", "-"])
    assert code == 2
    assert out == ""
    assert err == "error: cannot read -: not UTF-8 text\n"


def test_missing_file_exit_code(tmp_path):
    code, _, err = run(["check", str(tmp_path / "absent.mag")])
    assert code == 2
    assert "absent.mag" in err


def test_repeated_runs_are_byte_identical(f1_path):
    for argv in (
        ["analyze", f1_path],
        ["lattice", f1_path],
        ["enumerate", "--order", "3", "--class", "ag-star-star"],
        ["verify", "--order", "2"],
    ):
        first = run(argv)
        second = run(argv)
        assert first == second


def test_parser_is_built_once_per_process(f1_path):
    parser = cli._parser()
    first = run(["lattice", f1_path])
    second = run(["lattice", f1_path])
    assert cli._parser() is parser
    assert cli._parser.cache_info().currsize == 1
    assert first == second and first[0] == 0
