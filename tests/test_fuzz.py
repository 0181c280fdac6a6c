"""Malformed input: mutated versions of the demos/data tables reach the
parsers and the command line, and only `AlgebraError` may escape.

Each example starts from a valid text (a table, one of its congruences
as a partition, or its decomposition into a strong semilattice) and
applies a few edits: delete, insert or repeat a slice, replace a token,
or swap two lines. Valid tables with names built from `,`, `{` and `}`
must pass both lattice commands, and every quotient of them must build.
"""

import contextlib
import io
import pathlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aggroupoids import (
    EnumerationSpec,
    all_congruences,
    cli,
    enumerate_groupoids,
    format_mag,
    parse_mag,
)
from aggroupoids.congruences import (
    Congruence,
    EquivRelation,
    format_partition,
    induced_congruence,
    parse_partition,
    quotient,
)
from aggroupoids.errors import AlgebraError
from aggroupoids.magma import Groupoid, is_completely_inverse
from aggroupoids.samples import chain_semilattice, subtraction_mod
from aggroupoids.structure import (
    compose,
    decompose,
    format_strong_semilattice,
    parse_strong_semilattice,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"
TABLES = {path.name: path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.mag"))}
GROUPOIDS = {name: parse_mag(text) for name, text in TABLES.items()}
STRUCTURES = [
    format_strong_semilattice(decompose(g))
    for g in GROUPOIDS.values()
    if is_completely_inverse(g)
]
PARTITIONS = [
    (format_partition(c.rel, g.names), g.names)
    for g in GROUPOIDS.values()
    for c in all_congruences(g).congruences
]

# Pieces of every token class the formats use, plus some they do not.
FRAGMENTS = (
    "0", "1", "7", "99", "-1", "²", "a", "e", "t0", "b1", "x", " ", "\n",
    "\t", "#", "|", "->", "[", "]", "[Y]", "[component 0]", "[map 1 0]",
    "[map 9 9]", "é",
)

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def mutated(draw, text):
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("delete", "insert", "repeat", "token", "swap")))
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        if kind == "delete":
            text = text[:i] + text[j:]
        elif kind == "insert":
            piece = draw(st.sampled_from(FRAGMENTS) | st.text(max_size=4))
            text = text[:i] + piece + text[i:]
        elif kind == "repeat":
            text = text[:j] + text[i:j] + text[j:]
        elif kind == "token":
            tokens = text.split(" ")
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[k] = draw(st.sampled_from(FRAGMENTS))
            text = " ".join(tokens)
        else:
            lines = text.split("\n")
            a = draw(st.integers(0, len(lines) - 1))
            b = draw(st.integers(0, len(lines) - 1))
            lines[a], lines[b] = lines[b], lines[a]
            text = "\n".join(lines)
    return text


def _mutated_from(texts):
    return st.sampled_from(texts).flatmap(mutated)


@FUZZ
@given(_mutated_from(list(TABLES.values())))
def test_parse_mag_raises_only_algebra_errors(text):
    try:
        parse_mag(text)
    except AlgebraError:
        pass


@FUZZ
@given(st.sampled_from(PARTITIONS).flatmap(
    lambda case: st.tuples(mutated(case[0]), st.just(case[1]))
))
def test_parse_partition_raises_only_algebra_errors(case):
    text, names = case
    try:
        parse_partition(text, names)
    except AlgebraError:
        pass


@FUZZ
@given(_mutated_from(STRUCTURES))
def test_parse_strong_semilattice_raises_only_algebra_errors(text):
    try:
        compose(parse_strong_semilattice(text))
    except AlgebraError:
        pass


@settings(FUZZ, max_examples=40)
@given(_mutated_from(list(TABLES.values())))
def test_cli_exits_0_or_2_on_mutated_tables(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "table.mag"
    path.write_text(text, encoding="utf-8")
    for command in ("congruences", "lattice"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([command, str(path)])
        assert rc in (0, 2), (command, rc)
        assert (rc == 2) == err.getvalue().startswith("error: ")


# Left invertive tables of order 1-5: the ag classes up to order 4, an
# AG-group, a semilattice and the null table of order 5.
AG_TABLES = [
    g.table
    for n in (1, 2, 3, 4)
    for g in enumerate_groupoids(EnumerationSpec(n, "ag"))
] + [subtraction_mod(5).table, chain_semilattice(5).table, ((0,) * 5,) * 5]


def _listed(command, out):
    if command == "lattice":
        out = out.split("congruences:\n", 1)[1].split("meet:\n", 1)[0]
    return len(out.splitlines())


@st.composite
def named_tables(draw):
    """A table of order at most 5, left invertive or not, named by
    tokens over "a", "b", "{" and "}"; from order 3 on, one name is two
    others joined by ",", so that a block named after its members, like
    "{a,b}", would equal it."""
    table = draw(
        st.sampled_from(AG_TABLES)
        | st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple),
                min_size=n,
                max_size=n,
            ).map(tuple)
        )
    )
    n = len(table)
    token = st.text(alphabet="ab{}", min_size=1, max_size=3)
    names = draw(st.lists(token, min_size=n, max_size=n, unique=True))
    if n >= 3:
        # named after its members, the block of a and b is "{<a>,<b>}",
        # as is {<z>}
        x, y, z = draw(st.permutations(range(n)))[:3]
        a, b = sorted((x, y))
        names[z] = names[a] + "," + names[b]
    return Groupoid(tuple(names), table)


@settings(FUZZ, max_examples=30)
@given(named_tables())
def test_lattice_commands_accept_any_valid_names(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("names") / "table.mag"
    path.write_text(format_mag(g), encoding="utf-8")
    counts = []
    for command in ("congruences", "lattice"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([command, str(path)])
        assert rc == 0, (command, err.getvalue())
        counts.append(_listed(command, out.getvalue()))
    report = all_congruences(g)
    assert counts[0] == counts[1] == len(report.congruences)
    # every quotient builds, and the universal congruence induces the
    # universal one on it
    top = Congruence(g, EquivRelation.universal(g.order))
    for c in report.congruences:
        q = quotient(c)
        induced = induced_congruence(top, c)
        assert induced.groupoid is q and q.order == c.rel.num_blocks
        assert induced.rel == EquivRelation.universal(q.order)
