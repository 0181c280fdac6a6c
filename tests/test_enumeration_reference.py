"""The symmetry-broken table search against a plain reference search,
and the canonical form against a plain relabeling.

The reference search fills the table in row-major order and tries every
value in every cell, so it lists every labeled table of a class. It
shares only the incremental law checks (`_LAW_CHECKS`) with the library:
no cell order, value limit, isomorph fold or relabeling expansion. The
reference canonical form builds every relabeling as row lists, one cell
at a time, and takes the least.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggroupoids import EnumerationSpec, classify, enumerate_groupoids
from aggroupoids.enumeration import CLASSES, _LAW_CHECKS, _search_tables, canonical_table
from aggroupoids.magma import Groupoid


def _row_major_search(n, laws, prefill=None, column_distinct=False):
    """Every labeled table satisfying the laws, as nested tuples."""
    checks = [_LAW_CHECKS[name] for name in laws]
    T = [-1] * (n * n)
    W = [[] for _ in range(n)]  # W[v]: the (row, column) of each cell holding v

    def assign(pos, v):
        r, c = divmod(pos, n)
        if column_distinct and any(T[x * n + c] == v for x in range(n)):
            return False
        T[pos] = v
        W[v].append((r, c))
        if all(fn(T, W, n, r, c, v) for fn in checks):
            return True
        undo(pos)
        return False

    def undo(pos):
        W[T[pos]].pop()
        T[pos] = -1

    for pos, v in sorted((prefill or {}).items()):
        if not assign(pos, v):
            return set()
    free = [p for p in range(n * n) if T[p] < 0]
    found = set()

    def fill(k):
        if k == len(free):
            found.add(tuple(tuple(T[i * n:(i + 1) * n]) for i in range(n)))
            return
        for v in range(n):
            if assign(free[k], v):
                fill(k + 1)
                undo(free[k])

    fill(0)
    return found


def _reference_labeled(n, class_filter):
    names = tuple(str(i) for i in range(n))
    if class_filter == "ag":
        return _row_major_search(n, ("left-invertive",))
    if class_filter == "ag-star-star":
        return _row_major_search(n, ("left-invertive", "swap"))
    if class_filter == "ag-band":
        diagonal = {i * n + i: i for i in range(n)}
        return _row_major_search(n, ("left-invertive",), diagonal)
    if class_filter == "ag-group":
        # distinct columns plus a left identity
        return {
            t
            for t in _row_major_search(n, ("left-invertive", "swap"), column_distinct=True)
            if any(row == tuple(range(n)) for row in t)
        }
    return {
        t
        for t in _row_major_search(n, ("left-invertive", "swap"))
        if classify(Groupoid(names, t)).is_completely_inverse
    }


def _automorphism_count(table):
    n = len(table)
    return sum(
        all(p[table[i][j]] == table[p[i]][p[j]] for i in range(n) for j in range(n))
        for p in itertools.permutations(range(n))
    )


CASES = [(c, n) for c in CLASSES for n in (1, 2, 3)] + [
    ("ag-star-star", 4),
    ("ag-band", 4),
    ("completely-inverse", 4),
]


@pytest.mark.parametrize("class_filter,n", CASES)
def test_labeled_output_matches_the_reference(class_filter, n):
    spec = EnumerationSpec(n, class_filter, up_to_isomorphism=False)
    got = [g.table for g in enumerate_groupoids(spec, strategy="filter")]
    assert got == sorted(_reference_labeled(n, class_filter))


@pytest.mark.parametrize("class_filter", CLASSES)
def test_labeled_counts_are_orbit_sums(class_filter):
    for n in (1, 2, 3, 4):
        reps = enumerate_groupoids(EnumerationSpec(n, class_filter))
        labeled = enumerate_groupoids(
            EnumerationSpec(n, class_filter, up_to_isomorphism=False)
        )
        expected = sum(math.factorial(n) // _automorphism_count(g.table) for g in reps)
        assert len(labeled) == expected, n


def test_split_search_explores_the_same_tree():
    laws = ("left-invertive", "swap")
    assert _search_tables(4, laws, workers=2) == _search_tables(4, laws)
    # each subtree rebuilds its value index from a snapshot that also
    # holds the prefilled cells: the ag-band diagonal, the AG-group row 0
    diagonal = {i * 4 + i: i for i in range(4)}
    band = ("left-invertive",)
    assert _search_tables(4, band, diagonal, workers=2) == _search_tables(4, band, diagonal)
    row0 = {j: j for j in range(5)}
    group = ("distinct-columns", "left-invertive", "swap")
    assert _search_tables(5, group, row0, workers=2) == _search_tables(5, group, row0)
    for labeled in (False, True):
        spec = EnumerationSpec(4, "ag-star-star", up_to_isomorphism=not labeled)
        assert enumerate_groupoids(spec, workers=2) == enumerate_groupoids(spec)


def _reference_canonical(table):
    """The least of the table's relabelings, each built cell by cell."""
    n = len(table)
    relabelings = []
    for perm in itertools.permutations(range(n)):
        relabeled = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                relabeled[perm[i]][perm[j]] = perm[table[i][j]]
        relabelings.append(tuple(tuple(row) for row in relabeled))
    return min(relabelings)


@settings(max_examples=100)
@given(st.data())
def test_canonical_table_matches_the_reference(data):
    n = data.draw(st.integers(1, 5))
    cells = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    table = tuple(map(tuple, data.draw(st.lists(cells, min_size=n, max_size=n))))
    assert canonical_table(table) == _reference_canonical(table)


def test_canonical_table_of_order_1():
    # a one-cell gather must still give a sequence, not a scalar
    assert canonical_table(((0,),)) == _reference_canonical(((0,),)) == ((0,),)


def test_canonical_table_matches_the_reference_on_the_order_4_ag_search():
    # every search output, not only the representatives it folds to
    found = _search_tables(4, ("left-invertive",))
    tables = {tuple(tuple(t[i * 4:(i + 1) * 4]) for i in range(4)) for t in found}
    expected = {t: _reference_canonical(t) for t in tables}
    assert all(canonical_table(t) == c for t, c in expected.items())
    reps = {g.table for g in enumerate_groupoids(EnumerationSpec(4, "ag"))}
    assert reps == set(expected.values())
