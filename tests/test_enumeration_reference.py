"""The orderly table search against a plain reference search and
against pinned representatives, and the canonical form against a plain
relabeling.

The reference search fills the table in row-major order and tries every
value in every cell, so it lists every labeled table of a class. It
shares only the incremental law checks (`_LAW_CHECKS`) with the library:
no cell order, value limit, isomorph fold or relabeling expansion. Those
are the halved checks, which let the new cell play only the products of
the lhs of a law whose sides a renaming swaps, so this search cannot
tell whether they read every equation;
`tests/test_enumeration.py::test_incremental_checks_agree_with_check_identity`
ties them, step by step, to a plain evaluator of the law terms. The
reference canonical form builds every relabeling as row lists, one cell
at a time, and takes the least.
"""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggroupoids import EnumerationSpec, classify, enumerate_groupoids
from aggroupoids import enumeration
from aggroupoids.enumeration import (
    CLASSES,
    _LAW_CHECKS,
    _fold,
    _search_tables,
    canonical_table,
)
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


# every search the library runs: its laws and its prefill
SEARCHES = {
    "ag": (("left-invertive",), None),
    "ag-star-star": (("left-invertive", "swap"), None),
    "ag-band": (("left-invertive",), "diagonal"),
    "semilattice": (("commutative", "associative"), "diagonal"),
    "ag-group": (("distinct-columns", "left-invertive", "swap"), "row 0"),
}


def _prefill(kind, n):
    if kind == "diagonal":
        return {i * n + i: i for i in range(n)}
    if kind == "row 0":
        return {j: j for j in range(n)}
    return None


# (class count, sha256 prefix of the repr of _fold's output), taken from
# the search before it pruned by shells, which yielded several tables per
# class and folded them to the same representatives
PINNED = {
    ("ag", 1): (1, "0d7246e98111784f"),
    ("ag", 2): (3, "a0c19dac6e5f5917"),
    ("ag", 3): (20, "c5b6f2ffd56dbb1e"),
    ("ag", 4): (331, "8e27a14d9a9545d8"),
    ("ag-star-star", 1): (1, "0d7246e98111784f"),
    ("ag-star-star", 2): (3, "a0c19dac6e5f5917"),
    ("ag-star-star", 3): (16, "4afd18989e5f21a1"),
    ("ag-star-star", 4): (101, "e18e61faf8c4b278"),
    ("ag-band", 1): (1, "0d7246e98111784f"),
    ("ag-band", 2): (1, "efe72829bd7f3c19"),
    ("ag-band", 3): (2, "4bb720a296a97c4c"),
    ("ag-band", 4): (6, "0da02853cc7cdcd7"),
    ("semilattice", 1): (1, "0d7246e98111784f"),
    ("semilattice", 2): (1, "efe72829bd7f3c19"),
    ("semilattice", 3): (2, "4bb720a296a97c4c"),
    ("semilattice", 4): (5, "230a3f9fbb9f0f95"),
    ("semilattice", 5): (15, "d34867819fd165d2"),
    ("ag-group", 1): (1, "0d7246e98111784f"),
    ("ag-group", 2): (1, "363cc47a40bad12b"),
    ("ag-group", 3): (2, "90c795a47a0b969b"),
    ("ag-group", 4): (4, "8efbf31775f84633"),
    ("ag-group", 5): (2, "ed4a5707f23aab82"),
}


@pytest.mark.parametrize("search,n", sorted(PINNED))
def test_search_yields_one_table_per_class(search, n):
    laws, kind = SEARCHES[search]
    found = _search_tables(n, laws, _prefill(kind, n))
    reps = _fold(found, n)
    assert len(found) == len(reps)
    digest = hashlib.sha256(repr(reps).encode()).hexdigest()[:16]
    assert (len(reps), digest) == PINNED[search, n]


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
    # the search yields one table per class, least in fill order, so
    # the labeled order-4 ag-star-star tables supply the inputs that are
    # mostly not canonical
    labeled = enumerate_groupoids(EnumerationSpec(4, "ag-star-star", up_to_isomorphism=False))
    assert all(canonical_table(g.table) == _reference_canonical(g.table) for g in labeled)
    found = _search_tables(4, ("left-invertive",))
    tables = {tuple(tuple(t[i * 4:(i + 1) * 4]) for i in range(4)) for t in found}
    expected = {t: _reference_canonical(t) for t in tables}
    assert all(canonical_table(t) == c for t, c in expected.items())
    reps = {g.table for g in enumerate_groupoids(EnumerationSpec(4, "ag"))}
    assert reps == set(expected.values())


def _edge_tables():
    """Tables where the first cell of the least relabeling is decided in
    each way: every table of orders 1 and 2, a -> a+1 mod n (no
    idempotent, so the first cell is 1), left zero bands (every element
    idempotent) and seeded order-6 tables, half without idempotents."""
    for n in (1, 2):
        for cells in itertools.product(range(n), repeat=n * n):
            yield tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n))
    for n in range(2, 7):
        yield tuple(tuple((a + 1) % n for _ in range(n)) for a in range(n))
    for n in range(1, 7):
        yield tuple(tuple(a for _ in range(n)) for a in range(n))
    rng = random.Random(6)
    for k in range(8):
        rows = [[rng.randrange(6) for _ in range(6)] for _ in range(6)]
        if k % 2:
            for a in range(6):
                rows[a][a] = (a + rng.randrange(1, 6)) % 6
        yield tuple(map(tuple, rows))


def test_canonical_table_matches_the_reference_on_first_cell_edge_cases():
    for table in _edge_tables():
        assert canonical_table(table) == _reference_canonical(table), table


def _reference_least_block(T, n, k, prefill):
    """Whether the k x k block of the flat table T, read in fill order,
    is no larger than its relabeling by any permutation of 0..k-1, other
    than the identity, that maps the prefill onto itself."""
    block = sorted(
        ((a, b) for a in range(k) for b in range(k)),
        key=lambda cell: (max(cell), min(cell), -(cell[0] * n + cell[1])),
    )
    values = [T[a * n + b] for a, b in block]
    for head in itertools.permutations(range(k)):
        p = head + tuple(range(k, n))
        moved = {p[pos // n] * n + p[pos % n]: p[v] for pos, v in prefill.items()}
        if p == tuple(range(n)) or moved != prefill:
            continue
        relabeled = {(p[a], p[b]): p[T[a * n + b]] for a, b in block}
        if [relabeled[cell] for cell in block] < values:
            return False
    return True


@pytest.mark.parametrize(
    "search,n", [("ag", 4), ("ag-star-star", 4), ("semilattice", 5), ("ag-group", 5)]
)
def test_least_block_matches_every_allowed_relabeling(monkeypatch, search, n):
    # each shell test the search makes, against a comparison with every
    # relabeling the shell allows, built here from the prefill
    laws, kind = SEARCHES[search]
    prefill = _prefill(kind, n)
    least_block = enumeration._least_block
    verdicts = []

    def compared(T, order, cells, grid):
        got = least_block(T, order, cells, grid)
        assert got == _reference_least_block(T, n, len(grid), prefill or {}), T
        verdicts.append(got)
        return got

    monkeypatch.setattr(enumeration, "_least_block", compared)
    _search_tables(n, laws, prefill)
    assert True in verdicts and False in verdicts
