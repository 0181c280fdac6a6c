"""The symmetry-broken table search against a plain reference search.

The reference fills the table in row-major order and tries every value
in every cell, so it lists every labeled table of a class. It shares
only the incremental law checks (`_LAW_CHECKS`) with the library: no
cell order, value limit, isomorph fold or relabeling expansion.
"""

import itertools
import math

import pytest

from aggroupoids import EnumerationSpec, classify, enumerate_groupoids
from aggroupoids.enumeration import CLASSES, _LAW_CHECKS, _search_tables
from aggroupoids.magma import Groupoid


def _row_major_search(n, laws, prefill=None, column_distinct=False):
    """Every labeled table satisfying the laws, as nested tuples."""
    checks = [_LAW_CHECKS[name] for name in laws]
    T = [-1] * (n * n)

    def assign(pos, v):
        r, c = divmod(pos, n)
        if column_distinct and any(T[x * n + c] == v for x in range(n)):
            return False
        T[pos] = v
        if all(fn(T, n, r, c, v) for fn in checks):
            return True
        T[pos] = -1
        return False

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
                T[free[k]] = -1

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
    for labeled in (False, True):
        spec = EnumerationSpec(4, "ag-star-star", up_to_isomorphism=not labeled)
        assert enumerate_groupoids(spec, workers=2) == enumerate_groupoids(spec)
