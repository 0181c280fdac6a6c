"""Exhaustive generation of small tables in each groupoid class.

A backtracking search fills the Cayley table cell by cell, rejecting a
value as soon as it completes a violated law instance. Each law's check
is compiled from its term in magma: the new cell is tried in the role of
every product of the law, so a check visits only the instances that
cell can complete. Next to the table the search keeps a value index W,
the filled cells grouped by value, from which a check reads the cells
whose value is the new cell's row or column instead of scanning the
table for them. The completely inverse class has a second, independent
generator that builds strong semilattices of AG-groups and composes
them; the two censuses must agree wherever both run, and tests pin that
agreement.

The search breaks relabeling symmetry with the least-number heuristic
of SEM-style model finders (J. Zhang and H. Zhang, "SEM: a system for
enumerating models", IJCAI 1995; Distler, Shah and Sorge use it for
AG-groupoids in "Enumeration of AG-groupoids", CICM 2011). Cells are
filled in order of their larger index, and a cell tries only the
elements already mentioned (as a row, a column or a value of a cell the
search filled or is filling) plus the least unmentioned one: the
unmentioned elements are interchangeable, so any other choice leads to
a relabeling of a table that is still reached. The search thus yields
at least one table of every isomorphism class rather than every
labeled table.

Tables enumerate up to isomorphism by default: each found table is
replaced by the least relabeling and deduplicated. Labeled enumeration
lists every relabeling of each class representative.

Relabelings are computed on flat row-major tables held as bytes. For
each permutation of an order, `_relabelers` keeps one
`operator.itemgetter` that moves every cell to its relabeled position
and one 256-byte `bytes.translate` map that relabels the values, so a
relabeling is two C-level calls. Row-major order on flat tables is the
order on tuples of rows, so the least relabeling is the least bytes.
The table of relabelers is built once per order, the first time that
order is relabeled, and kept: it holds n! entries, about 70 kB at
order 5, 3 MB at order 7, 35 MB (built in about half a second) at
order 8, and more than ten times that at order 9.
"""

from __future__ import annotations

import itertools
import multiprocessing
import operator
import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import AlgebraError, BoundExceeded
from .magma import (
    ASSOCIATIVE,
    COMMUTATIVE,
    LEFT_INVERTIVE,
    SWAP_LAW,
    Groupoid,
    _incremental_check,
    is_completely_inverse,
)
from .structure import StrongSemilattice, compose

__all__ = [
    "EnumerationSpec",
    "CLASSES",
    "canonical_table",
    "canonical_form",
    "are_isomorphic",
    "enumerate_groupoids",
    "census",
]

CLASSES = ("ag", "ag-star-star", "ag-band", "ag-group", "completely-inverse")


@dataclass(frozen=True)
class EnumerationSpec:
    order: int
    class_filter: str
    up_to_isomorphism: bool = True

    def __post_init__(self):
        if self.order < 1:
            raise AlgebraError("order must be positive")
        if self.class_filter not in CLASSES:
            raise AlgebraError(f"unknown class {self.class_filter!r}")


@lru_cache(maxsize=None)
def _relabelers(n) -> tuple:
    """(cells, values) for each permutation p of 0..n-1: cells gathers a
    flat table so that new cell (a, b) reads old cell (p^-1 a, p^-1 b),
    and values is the bytes.translate map x -> p(x)."""
    relabelers = []
    for p in itertools.permutations(range(n)):
        inverse = sorted(range(n), key=p.__getitem__)  # inverse[p[i]] == i
        sources = [inverse[a] * n + inverse[b] for a in range(n) for b in range(n)]
        # itemgetter of one index returns a scalar; a slice keeps a sequence
        cells = operator.itemgetter(*sources) if n > 1 else operator.itemgetter(slice(1))
        relabelers.append((cells, bytes(p) + bytes(range(n, 256))))
    return tuple(relabelers)


def _relabelings(flat, n) -> list:
    """A flat table relabeled by each permutation of its elements, as
    bytes, with repeats when it has automorphisms."""
    return [bytes(cells(flat)).translate(values) for cells, values in _relabelers(n)]


def _flat(table) -> bytes:
    return bytes(itertools.chain.from_iterable(table))


def _rows(flat, n) -> tuple:
    return tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))


def canonical_table(table) -> tuple:
    """Least relabeling of a table; equal exactly on isomorphic inputs."""
    n = len(table)
    return _rows(min(_relabelings(_flat(table), n)), n)


def _fold(found, n) -> tuple:
    """Canonical tables of flat search output, sorted, without repeats."""
    return tuple(_rows(t, n) for t in sorted({min(_relabelings(f, n)) for f in found}))


def canonical_form(g: Groupoid) -> tuple:
    return canonical_table(g.table)


def are_isomorphic(g: Groupoid, h: Groupoid) -> bool:
    if g.order != h.order:
        return False
    return canonical_form(g) == canonical_form(h)


# incremental checks over a flat table T, -1 meaning unknown, and its
# value index W, W[w] listing the (row, column) of each known cell that
# holds w; each runs once cell (r, c) holds v and W[v] lists it. A law's
# check is compiled from its term (see magma._incremental_source), and
# distinct-columns keeps v out of the rest of column c
_LAW_CHECKS = {
    "left-invertive": _incremental_check(*LEFT_INVERTIVE),
    "swap": _incremental_check(*SWAP_LAW),
    "associative": _incremental_check(*ASSOCIATIVE),
    "commutative": _incremental_check(*COMMUTATIVE),
    "distinct-columns": lambda T, W, n, r, c, v: all(
        x == r or y != c for x, y in W[v]
    ),
}


def _value_index(T, n):
    """The value index W of a flat table (see _LAW_CHECKS), each list
    in position order."""
    W = [[] for _ in range(n)]
    for pos, v in enumerate(T):
        if v >= 0:
            W[v].append(divmod(pos, n))
    return W


def _complete(T, W, n, free, start, stop, m, checks, out):
    """Fill the cells free[start:stop] and record each (table, m) reached.

    Each free entry is (larger of row and column, position, row,
    column), which sorts in fill order. W is
    T's value index: a value is appended to it as the cell takes it and
    popped as the cell gives it up, so it follows the backtracking. m is
    the largest element mentioned by the cells filled so far: their
    rows, columns and values. Prefilled cells do not count; every prefill
    in use (an idempotent diagonal, an identity row 0) is fixed by each
    permutation fixing 0, and m >= 0 once a cell is filled.
    """
    if start == stop:
        out.append((tuple(T), m))
        return
    top, pos, r, c = free[start]
    if top > m:
        m = top
    cell = r, c
    for v in range(min(n, m + 2)):
        T[pos] = v
        cells = W[v]
        cells.append(cell)
        for fn in checks:
            if not fn(T, W, n, r, c, v):
                break
        else:
            _complete(T, W, n, free, start + 1, stop, v if v > m else m, checks, out)
        cells.pop()
    T[pos] = -1


def _subtree_task(args):
    n, laws, snapshot, m, free, start = args
    checks = tuple(_LAW_CHECKS[name] for name in laws)
    T = list(snapshot)
    out = []
    _complete(T, _value_index(T, n), n, free, start, len(free), m, checks, out)
    return [table for table, _ in out]


def _search_tables(n, laws, prefill=None, workers=None):
    """Tables satisfying the given laws: at least one of each isomorphism
    class, not every labeled table.

    Cells are filled in order of (larger index, position), each trying
    only the values 0..m+1 (see _complete). This is sound because the
    checks survive every relabeling and the prefill survives every
    relabeling that fixes 0. The order of the result is deterministic
    and independent of the worker count.
    """
    checks = tuple(_LAW_CHECKS[name] for name in laws)
    prefill = prefill or {}
    T = [prefill.get(p, -1) for p in range(n * n)]
    W = _value_index(T, n)
    # with every prefilled cell known, each one's checks together visit
    # every instance the prefill completes
    for pos, v in prefill.items():
        if not all(fn(T, W, n, *divmod(pos, n), v) for fn in checks):
            return []
    free = sorted((max(divmod(p, n)), p, *divmod(p, n)) for p in range(n * n) if T[p] < 0)
    if workers and workers > 1 and len(free) >= 3:
        depth = 2  # split the tree here; each task carries its own m
    else:
        depth = len(free)
    prefixes = []
    _complete(T, W, n, free, 0, depth, -1, checks, prefixes)
    if depth == len(free):
        return [table for table, _ in prefixes]
    tasks = [(n, laws, snap, m, free, depth) for snap, m in prefixes]
    size = _pool_size(workers, len(tasks))
    if size <= 1:
        chunks = map(_subtree_task, tasks)
    else:
        with multiprocessing.Pool(size) as pool:
            chunks = pool.map(_subtree_task, tasks)
    return [table for chunk in chunks for table in chunk]


def _pool_size(workers, tasks):
    """Worker processes to start: no more than asked for, than there are
    tasks, or than the machine has CPUs."""
    return min(workers, tasks, os.cpu_count() or 1)


def _groupoid_from_flat(flat, n) -> Groupoid:
    return Groupoid(tuple(str(i) for i in range(n)), _rows(flat, n))


def _searched_tables(n, class_filter, workers):
    """Search output for a class without a dedicated generator."""
    if class_filter == "ag":
        return _search_tables(n, ("left-invertive",), workers=workers)
    if class_filter == "ag-star-star":
        return _search_tables(n, ("left-invertive", "swap"), workers=workers)
    if class_filter == "ag-band":
        prefill = {i * n + i: i for i in range(n)}
        return _search_tables(n, ("left-invertive",), prefill, workers=workers)
    if class_filter == "completely-inverse":
        return [
            t
            for t in _search_tables(n, ("left-invertive", "swap"), workers=workers)
            if is_completely_inverse(_groupoid_from_flat(t, n))
        ]
    raise AlgebraError(f"unknown class {class_filter!r}")


@lru_cache(maxsize=None)
def _ag_group_reps(n) -> tuple:
    """Canonical tables of the AG-groups of one order.

    Normalized search: the left identity sits at element 0, so row 0 is
    prefilled and only tables with distinct columns are explored.
    """
    prefill = {j: j for j in range(n)}
    found = _search_tables(n, ("distinct-columns", "left-invertive", "swap"), prefill)
    return _fold(found, n)


@lru_cache(maxsize=None)
def _semilattice_reps(n) -> tuple:
    """Canonical tables of the semilattices of one order."""
    prefill = {i * n + i: i for i in range(n)}
    found = _search_tables(n, ("commutative", "associative"), prefill)
    return _fold(found, n)


@lru_cache(maxsize=None)
def _homomorphisms(src_table, dst_table) -> tuple:
    """Every operation-preserving map between two small tables."""
    n, m = len(src_table), len(dst_table)
    found = []
    for images in itertools.product(range(m), repeat=n):
        if all(
            images[src_table[a][b]] == dst_table[images[a]][images[b]]
            for a in range(n)
            for b in range(n)
        ):
            found.append(images)
    return tuple(found)


def _compositions(total, parts):
    """Ordered tuples of positive sizes with the given sum."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _coherent_map_families(strict, chains, options):
    """Backtrack over the strict comparable pairs; composition along
    every chain must match the direct map."""
    order = sorted(strict)
    chosen = {}

    def consistent():
        for i, j, k in chains:
            if (i, j) in chosen and (j, k) in chosen and (i, k) in chosen:
                upper, lower, direct = chosen[(i, j)], chosen[(j, k)], chosen[(i, k)]
                if any(lower[upper[a]] != direct[a] for a in range(len(upper))):
                    return False
        return True

    def rec(idx):
        if idx == len(order):
            yield dict(chosen)
            return
        pair = order[idx]
        for images in options[pair]:
            chosen[pair] = images
            if consistent():
                yield from rec(idx + 1)
            del chosen[pair]

    yield from rec(0)


def _synthesized_tables(n) -> tuple:
    """Canonical tables of all completely inverse carriers of one order,
    built as strong semilattices of AG-groups."""
    result = set()
    for k in range(1, n + 1):
        for y_table in _semilattice_reps(k):
            y = Groupoid(
                tuple(f"y{i}" for i in range(k)),
                y_table,
            )
            strict = [
                (i, j)
                for i in range(k)
                for j in range(k)
                if i != j and y_table[i][j] == j
            ]
            chains = [
                (i, j, l)
                for i, j in strict
                for j2, l in strict
                if j2 == j and (i, l) in set(strict)
            ]
            for sizes in _compositions(n, k):
                group_pools = [_ag_group_reps(size) for size in sizes]
                for groups in itertools.product(*group_pools):
                    components = tuple(
                        Groupoid(
                            tuple(f"{i}_{t}" for t in range(sizes[i])),
                            groups[i],
                        )
                        for i in range(k)
                    )
                    options = {
                        pair: _homomorphisms(groups[pair[0]], groups[pair[1]])
                        for pair in strict
                    }
                    for family in _coherent_map_families(strict, chains, options):
                        maps = [
                            (i, i, tuple(range(sizes[i]))) for i in range(k)
                        ]
                        maps.extend(
                            (i, j, family[(i, j)]) for i, j in strict
                        )
                        s = StrongSemilattice(y, components, tuple(maps))
                        result.add(canonical_table(compose(s).table))
    return tuple(sorted(result))


def _bound_for(spec: EnumerationSpec, strategy: str) -> int:
    if spec.class_filter == "completely-inverse" and strategy == "synthesis":
        return 5
    if spec.class_filter == "ag-group" and spec.up_to_isomorphism:
        return 5
    return 4


def _resolve_strategy(spec: EnumerationSpec, strategy) -> str:
    if spec.class_filter == "completely-inverse":
        if strategy is None:
            strategy = "synthesis" if spec.up_to_isomorphism else "filter"
        if strategy not in ("filter", "synthesis"):
            raise AlgebraError(f"unknown strategy {strategy!r}")
        if strategy == "synthesis" and not spec.up_to_isomorphism:
            raise AlgebraError("labeled enumeration requires the filter strategy")
        return strategy
    if strategy not in (None, "filter"):
        raise AlgebraError("only the completely inverse class has a synthesis strategy")
    return "filter"


def enumerate_groupoids(spec: EnumerationSpec, strategy=None, workers=None) -> tuple[Groupoid, ...]:
    """All groupoids matching the spec, in a deterministic order
    independent of the worker count."""
    strategy = _resolve_strategy(spec, strategy)
    bound = _bound_for(spec, strategy)
    if spec.order > bound:
        raise BoundExceeded(
            f"order {spec.order} exceeds the bound {bound} for "
            f"class {spec.class_filter!r} ({strategy})"
        )
    n = spec.order
    if spec.class_filter == "completely-inverse" and strategy == "synthesis":
        reps = _synthesized_tables(n)
    elif spec.class_filter == "ag-group":
        reps = _ag_group_reps(n)
    else:
        found = _searched_tables(n, spec.class_filter, workers)
        reps = _fold(found, n)
    if spec.up_to_isomorphism:
        tables = reps
    else:
        labeled = {t for rep in reps for t in _relabelings(_flat(rep), n)}
        tables = [_rows(t, n) for t in sorted(labeled)]
    names = tuple(str(i) for i in range(n))
    return tuple(Groupoid(names, table) for table in tables)


def census(spec: EnumerationSpec, strategy=None, workers=None) -> int:
    return len(enumerate_groupoids(spec, strategy, workers))
