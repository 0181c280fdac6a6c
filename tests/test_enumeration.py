"""Table generation, canonical forms, census goldens."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggroupoids import (
    EnumerationSpec,
    are_isomorphic,
    canonical_form,
    census,
    classify,
    enumerate_groupoids,
)
from aggroupoids import enumeration
from aggroupoids.enumeration import _LAW_CHECKS, canonical_table
from aggroupoids.errors import AlgebraError, BoundExceeded, InvalidStructure
from aggroupoids.magma import (
    ASSOCIATIVE,
    COMMUTATIVE,
    LEFT_INVERTIVE,
    MEDIAL,
    PARAMEDIAL,
    SWAP_LAW,
    Groupoid,
    check_identity,
    is_ag_star_star,
    is_completely_inverse,
    is_idempotent_table,
    _forcer,
    _incremental_check,
)
from aggroupoids.samples import cyclic_group, inverse_monoid4


def test_spec_validation():
    with pytest.raises(AlgebraError):
        EnumerationSpec(0, "ag")
    with pytest.raises(AlgebraError):
        EnumerationSpec(2, "group")


# self-consistency goldens, pinned after the dual-strategy agreement check
CENSUS = {
    "ag": (1, 3, 20, 331),
    "ag-star-star": (1, 3, 16, 101),
    "ag-band": (1, 1, 2, 6),
    "ag-group": (1, 1, 2, 4, 2),
    "completely-inverse": (1, 2, 6, 20, 63),
}


@pytest.mark.parametrize("class_filter", ["ag-star-star", "ag-band"])
def test_census_small(class_filter):
    got = tuple(
        census(EnumerationSpec(n, class_filter))
        for n in range(1, len(CENSUS[class_filter]) + 1)
    )
    assert got == CENSUS[class_filter]


def test_census_ag():
    assert tuple(census(EnumerationSpec(n, "ag")) for n in (1, 2, 3)) == (1, 3, 20)


def test_census_ag_order_four():
    assert census(EnumerationSpec(4, "ag")) == 331


def test_census_ag_group():
    got = tuple(census(EnumerationSpec(n, "ag-group")) for n in range(1, 6))
    assert got == CENSUS["ag-group"]


def test_census_completely_inverse():
    got = tuple(
        census(EnumerationSpec(n, "completely-inverse")) for n in range(1, 6)
    )
    assert got == CENSUS["completely-inverse"]


def test_labeled_censuses():
    assert census(EnumerationSpec(2, "ag", up_to_isomorphism=False)) == 6
    assert census(EnumerationSpec(3, "ag", up_to_isomorphism=False)) == 105
    assert census(EnumerationSpec(3, "ag-star-star", up_to_isomorphism=False)) == 81
    assert (
        census(EnumerationSpec(3, "completely-inverse", up_to_isomorphism=False))
        == 27
    )


def test_dual_strategies_agree():
    for n in (1, 2, 3, 4):
        spec = EnumerationSpec(n, "completely-inverse")
        filtered, synthesized = (
            [g.table for g in enumerate_groupoids(spec, strategy)]
            for strategy in ("filter", "synthesis")
        )
        assert filtered == synthesized


def test_synthesis_skips_only_families_that_do_not_compose(monkeypatch):
    # a constant map onto the non-identity of Z2 preserves no operation;
    # compose must reject it as such, and synthesis must not swallow that
    def broken(src, dst):
        return (tuple(len(dst) - 1 for _ in src),)

    monkeypatch.setattr(enumeration, "_homomorphisms", broken)
    with pytest.raises(InvalidStructure) as info:
        enumeration._synthesized_tables(3)
    assert info.value.condition == "homomorphism"


CLASS_FLAG = {
    "ag": "is_ag",
    "ag-star-star": "is_ag_star_star",
    "ag-band": "is_ag_band",
    "ag-group": "is_ag_group",
    "completely-inverse": "is_completely_inverse",
}


def test_enumerated_tables_satisfy_their_class():
    for class_filter, flag in CLASS_FLAG.items():
        top = 5 if class_filter in ("ag-group", "completely-inverse") else 4
        for n in range(1, top + 1):
            members = enumerate_groupoids(EnumerationSpec(n, class_filter))
            assert members
            for g in members:
                assert getattr(classify(g), flag), (class_filter, n, g.table)
    # and completeness: each pruned subclass search (the compiled swap
    # check, the idempotent diagonal prefill) lists exactly the ag
    # tables that pass the class's predicate on the finished table
    for n in range(1, 5):
        ag = enumerate_groupoids(EnumerationSpec(n, "ag"))
        for class_filter, strategy, predicate in (
            ("ag-star-star", None, is_ag_star_star),
            ("ag-band", None, is_idempotent_table),
            ("completely-inverse", "filter", is_completely_inverse),
        ):
            members = enumerate_groupoids(EnumerationSpec(n, class_filter), strategy)
            assert members == tuple(g for g in ag if predicate(g)), (class_filter, n)


def test_stream_is_sorted_canonically():
    found = enumerate_groupoids(EnumerationSpec(3, "ag-star-star"))
    tables = [g.table for g in found]
    assert tables == sorted(tables)
    assert all(canonical_table(t) == t for t in tables)


@settings(max_examples=40)
@given(st.data())
def test_canonical_table_is_relabeling_invariant(data):
    n = data.draw(st.integers(1, 5))
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    perm = data.draw(st.permutations(range(n)))
    table = tuple(map(tuple, rows))
    # relabel by perm: new[p[i]][p[j]] = p[old[i][j]]
    new = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            new[perm[i]][perm[j]] = perm[table[i][j]]
    assert canonical_table(table) == canonical_table(tuple(map(tuple, new)))


LAW_TERMS = {
    "left-invertive": LEFT_INVERTIVE,
    "swap": SWAP_LAW,
    "associative": ASSOCIATIVE,
    "commutative": COMMUTATIVE,
}
# compiled the same way, to reach shapes the four laws lack: four
# variables, a variable on one side, a product of a variable with itself,
# a nested product as an operand, and an operand product repeating a
# variable that the other operand binds
MORE_TERMS = (
    MEDIAL,
    PARAMEDIAL,
    (("x", "x"), "x"),
    (("x", ("x", "y")), ("y", "y")),
    (((("x", "y"), "z"), "w"), (("w", "z"), ("y", "x"))),
    ((("x", "y"), ("y", "z")), ("z", ("y", "x"))),
)


def _failing_steps(cells, n, step_of, lhs, rhs):
    """The fill steps at which a failing instance of the law becomes
    complete: each instance is evaluated once on the finished flat
    table, and completes at the largest fill step of the cells it reads."""
    def variables(term):
        if isinstance(term, str):
            return {term}
        return variables(term[0]) | variables(term[1])

    names = sorted(variables(lhs) | variables(rhs))

    def value(term, env, steps):
        if isinstance(term, str):
            return env[term]
        pos = value(term[0], env, steps) * n + value(term[1], env, steps)
        steps.append(step_of[pos])
        return cells[pos]

    failing = set()
    for values in itertools.product(range(n), repeat=len(names)):
        env = dict(zip(names, values))
        steps = []
        if value(lhs, env, steps) != value(rhs, env, steps):
            failing.add(max(steps))
    return failing


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_incremental_checks_agree_with_check_identity(data):
    # each step passes exactly when no instance it completes fails, so
    # a whole fill passes exactly when the finished table obeys the law;
    # W is T's value index, kept the way the search keeps it
    n = data.draw(st.integers(1, 5))
    cells = data.draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    order = data.draw(st.permutations(range(n * n)))
    step_of = {pos: step for step, pos in enumerate(order)}
    g = Groupoid(
        tuple(str(i) for i in range(n)),
        tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n)),
    )
    checks = [(_LAW_CHECKS[name], law) for name, law in LAW_TERMS.items()]
    checks += [(_incremental_check(*law), law) for law in MORE_TERMS]
    for check, (lhs, rhs) in checks:
        failing = _failing_steps(cells, n, step_of, lhs, rhs)
        T = [-1] * (n * n)
        W = [[] for _ in range(n)]
        for step, pos in enumerate(order):
            T[pos] = cells[pos]
            W[cells[pos]].append(divmod(pos, n))
            ok = check(T, W, n, *divmod(pos, n), cells[pos])
            assert ok == (step not in failing), (lhs, rhs, T, pos)
        assert (not failing) == check_identity(g, lhs, rhs)


# each forcer with the check of its law; the terms of MORE_TERMS reach
# shapes of the forcer source the search laws lack
FORCERS = [(enumeration._LAW_FORCERS[name], _LAW_CHECKS[name]) for name in LAW_TERMS] + [
    (force, _incremental_check(*law)) for law in MORE_TERMS if (force := _forcer(*law))
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_forcers_drop_only_values_the_check_rejects(data):
    # a forcer reads the free cell's value off known cells: when it
    # reads one value every other value must fail the law's incremental
    # check, and when it reads two every value must; a reading passed in
    # is kept when the law reads nothing or the same, else it conflicts
    n = data.draw(st.integers(1, 5))
    cells = data.draw(st.lists(st.integers(-1, n - 1), min_size=n * n, max_size=n * n))
    pos = data.draw(st.integers(0, n * n - 1))
    cells[pos] = -1
    r, c = divmod(pos, n)
    prior = data.draw(st.integers(-1, n - 1))
    for force, check in FORCERS:
        T = list(cells)
        W = [[] for _ in range(n)]
        for p, w in enumerate(T):
            if w >= 0:
                W[w].append(divmod(p, n))
        f = force(T, W, n, r, c, -1)
        assert -2 <= f < n
        for v in range(n):
            T[pos] = v
            W[v].append((r, c))
            if f == -2 or 0 <= f != v:
                assert not check(T, W, n, r, c, v), (T, pos, f, v)
            W[v].pop()
            T[pos] = -1
        expected = prior if f == -1 else f if prior in (-1, f) else -2
        assert force(T, W, n, r, c, prior) == expected


def test_distinct_columns_has_no_forcer():
    assert set(enumeration._LAW_FORCERS) == set(LAW_TERMS)
    assert set(_LAW_CHECKS) - set(enumeration._LAW_FORCERS) == {"distinct-columns"}


def test_are_isomorphic(f1):
    shuffled = Groupoid(
        ("w", "x", "y", "z"),
        tuple(
            tuple((3, 2, 1, 0)[f1.table[3 - i][3 - j]] for j in range(4))
            for i in range(4)
        ),
    )
    assert are_isomorphic(f1, shuffled)
    assert not are_isomorphic(f1, cyclic_group(4))
    assert canonical_form(f1) == canonical_form(shuffled)


def test_fill_order_puts_each_cell_next_to_its_transpose():
    order = [(r, c) for _, _, r, c, _ in enumeration._fill_order(4, ())]
    assert order == [
        (0, 0),
        (1, 0), (0, 1), (1, 1),
        (2, 0), (0, 2), (2, 1), (1, 2), (2, 2),
        (3, 0), (0, 3), (3, 1), (1, 3), (3, 2), (2, 3), (3, 3),
    ]


@pytest.mark.parametrize(
    "prefill",
    [{i * 4 + i: i for i in range(4)}, {j: j for j in range(4)}],
    ids=["diagonal", "row 0"],
)
def test_fill_order_skips_the_prefill_and_tests_only_shell_ends(prefill):
    full = [(r, c) for _, _, r, c, _ in enumeration._fill_order(4, ())]
    free = enumeration._fill_order(4, tuple(sorted(prefill.items())))
    assert [(r, c) for _, _, r, c, _ in free] == [
        cell for cell in full if cell[0] * 4 + cell[1] not in prefill
    ]
    for i, (top, pos, r, c, test) in enumerate(free):
        assert top == max(r, c) and pos == r * 4 + c
        last_of_shell = i + 1 == len(free) or free[i + 1][0] != top
        assert test is None or last_of_shell


def test_bound_errors_name_the_limit():
    with pytest.raises(BoundExceeded) as err:
        enumerate_groupoids(EnumerationSpec(5, "ag"))
    assert "order 5 exceeds the bound 4 for class 'ag' (filter)" in str(err.value)
    with pytest.raises(BoundExceeded):
        enumerate_groupoids(EnumerationSpec(6, "completely-inverse"))
    # order five is reachable for this class only through synthesis
    assert census(EnumerationSpec(5, "completely-inverse")) == 63
    with pytest.raises(BoundExceeded):
        enumerate_groupoids(
            EnumerationSpec(5, "completely-inverse"), strategy="filter"
        )


def test_strategy_gates():
    with pytest.raises(AlgebraError) as err:
        enumerate_groupoids(EnumerationSpec(3, "ag"), strategy="synthesis")
    assert "only the completely inverse class" in str(err.value)
    with pytest.raises(AlgebraError) as err:
        enumerate_groupoids(
            EnumerationSpec(3, "completely-inverse", up_to_isomorphism=False),
            strategy="synthesis",
        )
    assert "labeled enumeration requires the filter strategy" in str(err.value)
