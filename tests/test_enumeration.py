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
from aggroupoids.enumeration import _LAW_CHECKS, _pool_size, canonical_table
from aggroupoids.errors import AlgebraError, BoundExceeded
from aggroupoids.magma import (
    ASSOCIATIVE,
    COMMUTATIVE,
    LEFT_INVERTIVE,
    MEDIAL,
    PARAMEDIAL,
    SWAP_LAW,
    Groupoid,
    check_identity,
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
        assert census(spec, strategy="filter") == census(spec, strategy="synthesis")


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


def test_workers_do_not_change_the_output():
    spec = EnumerationSpec(3, "ag")
    assert enumerate_groupoids(spec) == enumerate_groupoids(spec, workers=2)


def test_pool_size_is_clamped(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert _pool_size(1000, 36) == 4
    assert _pool_size(3, 36) == 3
    assert _pool_size(8, 2) == 2
    assert _pool_size(8, 0) == 0
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _pool_size(8, 36) == 1


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


def _failing_instances(T, n, lhs, rhs):
    """(complete, failing) sets of variable assignments over a flat
    partial table, -1 marking an unknown cell."""
    def variables(term):
        if isinstance(term, str):
            return {term}
        return variables(term[0]) | variables(term[1])

    names = sorted(variables(lhs) | variables(rhs))

    def value(term, env):
        if isinstance(term, str):
            return env[term]
        a, b = value(term[0], env), value(term[1], env)
        return -1 if a < 0 or b < 0 else T[a * n + b]

    complete, failing = set(), set()
    for values in itertools.product(range(n), repeat=len(names)):
        env = dict(zip(names, values))
        left, right = value(lhs, env), value(rhs, env)
        if left >= 0 and right >= 0:
            complete.add(values)
            if left != right:
                failing.add(values)
    return complete, failing


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_incremental_checks_agree_with_check_identity(data):
    # each step passes exactly when no instance it completes fails, so
    # a whole fill passes exactly when the finished table obeys the law;
    # W is T's value index, kept the way the search keeps it
    n = data.draw(st.integers(1, 5))
    cells = data.draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    order = data.draw(st.permutations(range(n * n)))
    g = Groupoid(
        tuple(str(i) for i in range(n)),
        tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n)),
    )
    checks = [(_LAW_CHECKS[name], law) for name, law in LAW_TERMS.items()]
    checks += [(_incremental_check(*law), law) for law in MORE_TERMS]
    for check, (lhs, rhs) in checks:
        T = [-1] * (n * n)
        W = [[] for _ in range(n)]
        before = set()
        passed = True
        for pos in order:
            T[pos] = cells[pos]
            W[cells[pos]].append(divmod(pos, n))
            ok = check(T, W, n, *divmod(pos, n), cells[pos])
            complete, failing = _failing_instances(T, n, lhs, rhs)
            assert ok == (not failing - before), (lhs, rhs, T, pos)
            before = complete
            passed = passed and ok
        assert passed == check_identity(g, lhs, rhs)


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
