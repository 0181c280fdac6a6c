"""Carrier type, law checks, classification, and the .mag format."""

import ast
import io
import itertools
import pickle
import re
import tokenize

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aggroupoids import (
    Groupoid,
    classify,
    format_mag,
    idempotents,
    inverses_of,
    magma,
    parse_mag,
)
from aggroupoids.errors import (
    AlgebraError,
    NotAnAgGroup,
    NotCompletelyInverse,
    ParseError,
)
from aggroupoids.enumeration import EnumerationSpec, enumerate_groupoids
from aggroupoids.magma import (
    ag_group_left_identity,
    check_identity,
    idempotent_semilattice,
    is_ag_star_star,
    is_completely_inverse,
    is_left_invertive,
    left_identities,
    require_completely_inverse,
    same_operation,
    subgroupoid,
)
from aggroupoids.samples import (
    chain_semilattice,
    cyclic_group,
    inverse_monoid4,
    subtraction_mod,
    vee_semilattice,
)

F1_TEXT = """4
a b e f
e e a a
e f a b
a a e e
a b e f
"""


def tables(max_order=4):
    return st.integers(1, max_order).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
        )
    )


def test_groupoid_rejects_ragged_table():
    with pytest.raises(AlgebraError):
        Groupoid(("x", "y"), ((0,), (0, 1)))


@pytest.mark.parametrize("table", [(5,), 5], ids=["row", "table"])
def test_groupoid_rejects_a_table_or_row_that_is_no_sequence(table):
    with pytest.raises(AlgebraError, match="^table shape does not match the carrier size$"):
        Groupoid(("a",), table)


def test_groupoid_rejects_a_name_that_is_no_string():
    with pytest.raises(AlgebraError, match="^bad element name 1$"):
        Groupoid((1, 2), ((0, 1), (1, 0)))


def test_groupoid_rejects_out_of_range_entry():
    with pytest.raises(AlgebraError):
        Groupoid(("x", "y"), ((0, 2), (0, 1)))


def test_groupoid_rejects_duplicate_names():
    with pytest.raises(AlgebraError):
        Groupoid(("x", "x"), ((0, 0), (0, 0)))


def test_elements_are_built_once_and_stay_out_of_identity(f1):
    assert f1.elements is f1.elements
    assert f1.elements == range(4)
    copy = Groupoid(f1.names, f1.table)
    assert copy == f1 and hash(copy) == hash(f1)
    assert repr(f1) == f"Groupoid(names={f1.names!r}, table={f1.table!r})"


def test_from_rows_and_index(f1):
    g = Groupoid.from_rows(
        ["a", "b", "e", "f"],
        [list("eeaa"), list("efab"), list("aaee"), list("abef")],
    )
    assert same_operation(g, f1)
    assert g.index("e") == 2
    with pytest.raises(AlgebraError):
        g.index("z")


def test_parse_mag_round_trip(f1):
    g = parse_mag(F1_TEXT)
    assert g.names == ("a", "b", "e", "f")
    assert same_operation(g, f1)
    assert format_mag(g) == F1_TEXT


@given(tables())
def test_format_parse_is_identity(data):
    n, rows = data
    g = Groupoid(tuple(f"x{i}" for i in range(n)), tuple(map(tuple, rows)))
    again = parse_mag(format_mag(g))
    assert again.names == g.names
    assert again.table == g.table


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("zero\n", "got 'zero'"),
        ("²\na\na\n", "got '²'"),
        ("2\na b\na a\n", "table rows"),
        ("2\na b\na a c\na a\n", "entries"),
        ("2\na a\na a\na a\n", "duplicate label 'a'"),
        ("2\na b\nb b\nc c\n", "unknown element 'c'"),
    ],
)
def test_parse_mag_errors_name_the_token(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_mag(text)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


def test_parse_mag_rejects_empty_input():
    with pytest.raises(ParseError):
        parse_mag("")


def test_parse_mag_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_mag("2\na b\nb b\nc c\n")
    assert err.value.line == 4


def test_f1_classification(f1):
    flags = dict(classify(f1).items())
    assert flags == {
        "ag": True,
        "ag-star-star": True,
        "medial": True,
        "paramedial": True,
        "commutative": True,
        "associative": True,
        "ag-band": False,
        "ag-semilattice": False,
        "regular": True,
        "inverse-ag-star-star": True,
        "completely-inverse": True,
        "ag-group": False,
        "e-unitary": True,
    }


def test_f2_is_a_nonassociative_ag_group(f2):
    report = classify(f2)
    assert report.is_ag_group
    assert not report.is_associative
    assert not report.is_commutative
    assert report.is_completely_inverse
    assert idempotents(f2) == (0,)


def test_collapse_is_not_e_unitary(collapse):
    report = classify(collapse)
    assert report.is_completely_inverse
    assert not report.is_e_unitary


def test_left_invertive_but_not_both_laws():
    # a smallest table separating the two defining laws
    g = Groupoid.from_rows(
        ["0", "1", "2"],
        [["0", "0", "0"], ["0", "0", "0"], ["1", "0", "0"]],
    )
    assert is_left_invertive(g)
    assert not is_ag_star_star(g)


def test_idempotents_and_identities(f1, f2):
    assert idempotents(f1) == (2, 3)
    assert left_identities(f1) == (3,)
    assert left_identities(f2) == (0,)
    assert ag_group_left_identity(f2) == 0
    with pytest.raises(NotAnAgGroup):
        ag_group_left_identity(f1)


def test_table_predicates_read_list_rows_as_tuple_rows():
    # the public constructor accepts list rows; the predicates index rows
    # and compare entries one by one, never a row with a tuple
    census = [g for n in (1, 2, 3) for g in enumerate_groupoids(EnumerationSpec(n, "ag"))]
    readings = []
    for g in census:
        listed = Groupoid(g.names, [list(row) for row in g.table])
        reading = [
            (f(g), f(listed))
            for f in (
                left_identities,
                magma.is_ag_group,
                magma.is_semilattice,
                lambda h: magma._is_e_unitary(h.table),
            )
        ]
        assert all(on_tuples == on_lists for on_tuples, on_lists in reading)
        readings.append([on_tuples for on_tuples, _ in reading])
    # every predicate both holds and fails somewhere in the census
    for column in zip(*readings):
        assert any(column) and not all(column)


def test_inverses(f1):
    # every element of this table is its own unique inverse
    for a in f1.elements:
        assert inverses_of(f1, a) == (a,)
    inv = require_completely_inverse(f1)
    assert inv == (0, 1, 2, 3)


def test_require_completely_inverse_rejects_band():
    # left zero band: regular, inverses not unique, not even left invertive
    g = Groupoid.from_rows(
        ["l", "r"], [["l", "l"], ["r", "r"]]
    )
    assert inverses_of(g, 0) == (0, 1)
    with pytest.raises(NotCompletelyInverse):
        require_completely_inverse(g)


def test_inverse_map_is_computed_once_per_carrier(f1):
    g = Groupoid(f1.names, f1.table)
    first = require_completely_inverse(g)
    assert require_completely_inverse(g) == first == (0, 1, 2, 3)
    assert require_completely_inverse(g) is first


@pytest.mark.parametrize(
    "rows, message",
    [
        ([["a", "a"], ["a", "a"]], "element 'b' has no inverse"),
        ([["a", "a"], ["b", "b"]], "the left invertive law (xy)z = (zy)x fails"),
    ],
)
def test_a_failing_carrier_raises_the_same_message_each_time(rows, message):
    # the null table, then the left zero band
    g = Groupoid.from_rows(["a", "b"], rows)
    raised = []
    for _ in range(2):
        with pytest.raises(NotCompletelyInverse) as err:
            require_completely_inverse(g)
        raised.append(err.value)
    assert [str(exc) for exc in raised] == [message, message]
    assert raised[0] is not raised[1]
    assert not is_completely_inverse(g)


@pytest.mark.parametrize("fixture", ["f1", "f2", "collapse"])
def test_the_cached_inverse_map_stays_out_of_identity(fixture, request):
    fresh = request.getfixturevalue(fixture)
    g = Groupoid(fresh.names, fresh.table)
    before = (hash(g), repr(g), format_mag(g), pickle.dumps(g))
    require_completely_inverse(g)
    assert g == Groupoid(fresh.names, fresh.table)
    assert (hash(g), repr(g), format_mag(g), pickle.dumps(g)) == before
    again = pickle.loads(pickle.dumps(g))
    assert again == g and require_completely_inverse(again) == require_completely_inverse(g)


@pytest.mark.parametrize("fixture", ["f1", "f2", "collapse"])
def test_idempotents_are_kept_once_per_carrier_outside_identity(fixture, request):
    fresh = request.getfixturevalue(fixture)
    g = Groupoid(fresh.names, fresh.table)
    before = (hash(g), repr(g), pickle.dumps(g))
    first = idempotents(g)
    assert idempotents(g) is first
    assert g == Groupoid(fresh.names, fresh.table)
    assert (hash(g), repr(g), pickle.dumps(g)) == before
    again = pickle.loads(pickle.dumps(g))
    assert getattr(again, "_idempotents", None) is None
    assert again == g and idempotents(again) == first


@pytest.mark.parametrize("fixture", ["f1", "f2", "collapse"])
def test_the_ag_star_star_verdict_is_kept_once_per_carrier_outside_identity(fixture, request):
    fresh = request.getfixturevalue(fixture)
    g = Groupoid(fresh.names, fresh.table)
    before = (hash(g), repr(g), pickle.dumps(g))
    assert is_ag_star_star(g) is True
    assert g._ag_star_star is True and is_ag_star_star(g) is True
    assert g == Groupoid(fresh.names, fresh.table)
    assert (hash(g), repr(g), pickle.dumps(g)) == before
    again = pickle.loads(pickle.dumps(g))
    assert getattr(again, "_ag_star_star", None) is None
    assert again == g and is_ag_star_star(again) is True


@pytest.mark.parametrize(
    "rows, message",
    [
        # the left zero band, then a left invertive table without x(yz) = y(xz)
        ([["0", "0", "0"], ["1", "1", "1"], ["2", "2", "2"]], "the left invertive law (xy)z = (zy)x fails"),
        ([["0", "0", "0"], ["0", "0", "0"], ["1", "0", "0"]], "the identity x(yz) = y(xz) fails"),
    ],
)
@pytest.mark.parametrize("verdict_first", [False, True])
def test_the_inverse_map_names_the_law_that_fails(rows, message, verdict_first):
    # the kept verdict says that a law fails, not which one
    g = Groupoid.from_rows(["0", "1", "2"], rows)
    if verdict_first:
        assert not is_ag_star_star(g)
    with pytest.raises(NotCompletelyInverse, match=re.escape(message)):
        require_completely_inverse(g)
    assert g._ag_star_star is False


@pytest.mark.parametrize(
    "build, left_invertive_scans",
    # an AG-group also gets the left invertive scan of is_ag_group
    [(inverse_monoid4, 1), (lambda: subtraction_mod(3), 2)],
)
def test_classify_scans_each_defining_law_once(monkeypatch, build, left_invertive_scans):
    g = build()
    scans = {magma.LEFT_INVERTIVE: 0, magma.SWAP_LAW: 0}
    compiled = magma._compiled_identity

    # every scan of a law, through check_identity or on a bare table,
    # runs the check compiled from its terms
    def counted(lhs, rhs):
        check = compiled(lhs, rhs)

        def scan(table, elements):
            if (lhs, rhs) in scans:
                scans[lhs, rhs] += 1
            return check(table, elements)

        return scan

    monkeypatch.setattr(magma, "_compiled_identity", counted)
    report = classify(g)
    assert report.is_ag_star_star and report.is_completely_inverse
    assert scans == {magma.LEFT_INVERTIVE: left_invertive_scans, magma.SWAP_LAW: 1}


@given(tables(), st.booleans())
def test_is_completely_inverse_agrees_with_classify(data, required_first):
    n, rows = data
    g = Groupoid(tuple(f"x{i}" for i in range(n)), tuple(map(tuple, rows)))
    expected = classify(Groupoid(g.names, g.table)).is_completely_inverse
    if required_first:
        try:
            require_completely_inverse(g)
        except NotCompletelyInverse:
            pass
    assert is_completely_inverse(g) == expected
    assert classify(g).is_completely_inverse == expected


def test_subgroupoid_requires_closure(f1):
    sub = subgroupoid(f1, [0, 2])
    assert sub.names == ("a", "e")
    assert classify(sub).is_ag_group
    with pytest.raises(AlgebraError):
        subgroupoid(f1, [0, 1])


@pytest.mark.parametrize("outside", [-1, 4, "a", 1.0])
def test_subgroupoid_rejects_elements_outside_the_carrier(f1, outside):
    # beside an element, a non-integer must not escape as a TypeError
    # from sorting the subset
    for subset in ([outside], [outside, 1]):
        with pytest.raises(AlgebraError, match=f"^element {outside} out of range"):
            subgroupoid(f1, subset)


def test_idempotent_semilattice(f1):
    e = idempotent_semilattice(f1)
    assert e.names == ("e", "f")
    assert e.table == ((0, 0), (0, 1))


def test_sample_classifications():
    assert classify(cyclic_group(4)).is_ag_group
    assert classify(chain_semilattice(3)).is_ag_semilattice
    assert classify(vee_semilattice()).is_ag_semilattice


NAMED_LAWS = (
    magma.LEFT_INVERTIVE,
    magma.SWAP_LAW,
    magma.MEDIAL,
    magma.PARAMEDIAL,
    magma.COMMUTATIVE,
    magma.ASSOCIATIVE,
)

# Variable names that are not Python identifiers: check_identity must
# never place a caller's name in the source it compiles.
VARIABLE_NAMES = ("x", "y", "x y", "1")


def _term_variables(term):
    if isinstance(term, str):
        return {term}
    return _term_variables(term[0]) | _term_variables(term[1])


def _evaluate(table, term, env):
    if isinstance(term, str):
        return env[term]
    return table[_evaluate(table, term[0], env)][_evaluate(table, term[1], env)]


def reference_check_identity(g, lhs, rhs):
    """The interpreter the compiled check_identity replaced."""
    variables = sorted(_term_variables(lhs) | _term_variables(rhs))
    for values in itertools.product(g.elements, repeat=len(variables)):
        env = dict(zip(variables, values))
        if _evaluate(g.table, lhs, env) != _evaluate(g.table, rhs, env):
            return False
    return True


def terms(depth=3):
    leaf = st.sampled_from(VARIABLE_NAMES)
    if depth == 0:
        return leaf
    sub = terms(depth - 1)
    return st.one_of(leaf, st.tuples(sub, sub))


@given(tables(max_order=5), terms(), terms())
def test_check_identity_matches_the_reference(data, lhs, rhs):
    n, rows = data
    g = Groupoid(tuple(str(i) for i in range(n)), tuple(map(tuple, rows)))
    assert check_identity(g, lhs, rhs) == reference_check_identity(g, lhs, rhs)
    assert check_identity(g, lhs, lhs)
    for law in NAMED_LAWS:
        assert check_identity(g, *law) == reference_check_identity(g, *law)


def test_check_identity_matches_the_reference_on_ag_tables(f1, f2, collapse):
    # random tables almost never satisfy a law, so also compare where they do
    carriers = [f1, f2, collapse, *enumerate_groupoids(EnumerationSpec(3, "ag"))]
    satisfied = 0
    for g in carriers:
        for law in NAMED_LAWS:
            expected = reference_check_identity(g, *law)
            assert check_identity(g, *law) == expected
            satisfied += expected
    assert satisfied > len(carriers)


def _fill_passes(check, g):
    """Whether every step of filling g's table in row-major order, one
    cell at a time with the value index kept as the search keeps it,
    passes the incremental check."""
    n = g.order
    T = [-1] * (n * n)
    W = [[] for _ in range(n)]
    for pos, v in enumerate(itertools.chain.from_iterable(g.table)):
        T[pos] = v
        W[v].append(divmod(pos, n))
        if not check(T, W, n, *divmod(pos, n), v):
            return False
    return True


# (ab)(cd) = (dc)(ba): its side swapping renaming exchanges a with d and
# b with c, where the renamings of the named laws move two variables
DOUBLE_MIRROR = ((("a", "b"), ("c", "d")), (("d", "c"), ("b", "a")))


def test_laws_match_the_reference_on_one_cell_mutants_of_ag_tables():
    # a mutant of a left invertive table fails few instances, often only
    # one equation and its mirrored twin, so a scan or a check that skips
    # one orbit of a mirrored law answers wrongly on some mutant; random
    # tables fail so many instances that they would not show it
    classes = enumerate_groupoids(EnumerationSpec(3, "ag"))
    mutants = [
        Groupoid(g.names, tuple(
            tuple(w if (i, j) == (r, c) else g.table[i][j] for j in g.elements)
            for i in g.elements
        ))
        for g in classes
        for r, c in itertools.product(g.elements, repeat=2)
        for w in g.elements
        if w != g.table[r][c]
    ]
    assert (len(classes), len(mutants)) == (20, 360)
    laws = (*NAMED_LAWS, DOUBLE_MIRROR)
    checks = [(law, magma._incremental_check(*law)) for law in laws]
    held = dict.fromkeys(laws, 0)
    for g in mutants:
        for law, check in checks:
            expected = reference_check_identity(g, *law)
            assert check_identity(g, *law) == expected, (law, g.table)
            assert _fill_passes(check, g) == expected, (law, g.table)
            held[law] += expected
    # each law holds on some mutants and fails on others
    assert all(0 < count < len(mutants) for count in held.values()), held


@pytest.mark.parametrize(
    "law, pair",
    [
        (magma.LEFT_INVERTIVE, ("x", "z")),
        (magma.SWAP_LAW, ("x", "y")),
        (magma.COMMUTATIVE, ("x", "y")),
        (magma.MEDIAL, ("b", "c")),
        (magma.PARAMEDIAL, ("a", "d")),
        (DOUBLE_MIRROR, ("a", "d")),
        (magma.ASSOCIATIVE, None),
        # the identity swaps the sides of t = t but moves no variable
        (((("x", "y"), "z"), (("x", "y"), "z")), None),
    ],
)
def test_mirror_names_the_pair_a_side_swapping_renaming_exchanges(law, pair):
    assert magma._mirror(*law) == pair


@pytest.mark.parametrize(
    "law, blocks",
    [
        (magma.LEFT_INVERTIVE, 2),
        (magma.SWAP_LAW, 2),
        (magma.COMMUTATIVE, 1),
        (magma.ASSOCIATIVE, 4),
    ],
)
def test_mirrored_laws_get_a_block_per_product_of_the_lhs_only(law, blocks):
    # one block per distinct product of the law, or of its lhs when a
    # renaming swaps the sides: the rhs roles read the same equations
    assert magma._incremental_source(*law).count("return False") == blocks


def test_identity_scans_read_each_mirrored_instance_once():
    # variables loop in sorted order; the second of the mirrored pair
    # starts past the first's value, since the renaming exchanging them
    # maps every other instance onto the same equation, and an instance
    # with equal values onto itself when it moves no other variable
    def loops(law):
        source = magma._identity_source(*law)
        return [line.strip() for line in source.splitlines() if "for " in line]

    assert loops(magma.LEFT_INVERTIVE) == ["for v0 in E:", "for v1 in E:", "for v2 in E[v0+1:]:"]
    assert loops(magma.SWAP_LAW)[1] == "for v1 in E[v0+1:]:"
    assert loops(magma.COMMUTATIVE) == ["for v0 in E:", "for v1 in E[v0+1:]:"]
    assert loops(magma.MEDIAL)[2] == "for v2 in E[v1+1:]:"
    assert loops(magma.PARAMEDIAL)[3] == "for v3 in E[v0+1:]:"
    # its renaming also exchanges b and c, so a = d does not fix the instance
    assert loops(DOUBLE_MIRROR)[3] == "for v3 in E[v0:]:"
    assert not any(":]" in loop for loop in loops(magma.ASSOCIATIVE))


def test_identity_source_uses_only_generated_names():
    lhs = (("x y", "1"), ("1", "x y"))
    rhs = ("x y", ("__import__", "1"))
    source = magma._identity_source(lhs, rhs)
    allowed = re.compile(r"r?[vt]\d+|def|check|T|E|for|in|if|return|False|True")
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert allowed.fullmatch(tok.string), tok.string


def test_incremental_source_uses_only_generated_names():
    lhs = (("x y", "1"), ("1", "x y"))
    rhs = ("x y", ("__import__", "1"))
    source = magma._incremental_source(lhs, rhs)
    allowed = re.compile(
        r"r?[vt]\d+|def|check|T|W|n|r|c|v|range|for|in|if|and|return|False|True"
    )
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert allowed.fullmatch(tok.string), tok.string
    # variables named like the check's parameters r, c, v and n (renamed
    # in sorted order a < b < c < d, as c < n < r < v) must not reach the
    # source, where they would shadow the new cell or the order
    rename = {"a": "c", "b": "n", "c": "r", "d": "v"}

    def renamed(term):
        if isinstance(term, str):
            return rename[term]
        return renamed(term[0]), renamed(term[1])

    for law in (magma.MEDIAL, magma.PARAMEDIAL):
        clashing = renamed(law[0]), renamed(law[1])
        assert magma._incremental_source(*clashing) == magma._incremental_source(*law)
        assert magma._identity_source(*clashing) == magma._identity_source(*law)


def test_forcing_source_uses_only_generated_names():
    lhs = (("x y", "1"), ("1", "x y"))
    rhs = ("x y", ("__import__", "1"))
    source = magma._forcing_source(lhs, rhs)
    allowed = re.compile(r"r?[vt]\d+|def|force|T|W|n|r|c|f|range|for|in|if|and|return")
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert allowed.fullmatch(tok.string), tok.string
    # a variable named f, like the forcer's reading, must not reach it
    clashing = (("f", "y"), "z"), (("z", "y"), "f")
    assert magma._forcing_source(*clashing) == magma._forcing_source(*magma.LEFT_INVERTIVE)


def test_forcers_read_each_side_once():
    # renaming x and z swaps the sides of (xy)z = (zy)x, so its rhs block
    # would read what the lhs block reads; the associative law has no
    # such renaming, and a law whose sides are variables has no forcer
    def loops(law):
        tree = ast.parse(magma._forcing_source(*law))
        return sum(isinstance(node, ast.For) for node in ast.walk(tree))

    assert loops(magma.LEFT_INVERTIVE) == loops(magma.SWAP_LAW) == 1
    assert loops(magma.ASSOCIATIVE) == 2
    assert magma._forcing_source(("x", "y"), ("y", "x")).count("if f != ") == 1
    assert magma._forcer("x", "y") is None
    # the lhs block of xx = x(xx) would read the cell itself in x(xx)
    assert magma._forcing_source(("x", "x"), ("x", ("x", "x"))).count("if f != ") == 1


@pytest.mark.parametrize(
    "law", [magma.LEFT_INVERTIVE, magma.SWAP_LAW, magma.ASSOCIATIVE, magma.COMMUTATIVE]
)
def test_incremental_checks_of_the_search_laws_nest_no_loops(law):
    # an operand product of two free variables is read from the value
    # index W, so each block of these laws is at most one loop: O(n)
    # instances when the table's values are spread evenly
    tree = ast.parse(magma._incremental_source(*law))
    for loop in ast.walk(tree):
        if isinstance(loop, ast.For):
            inner = [node for node in ast.walk(loop) if isinstance(node, ast.For)]
            assert inner == [loop], ast.unparse(loop)
