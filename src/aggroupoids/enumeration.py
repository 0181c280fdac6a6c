"""Exhaustive generation of small tables in each groupoid class.

A backtracking search fills the Cayley table cell by cell, rejecting a
value as soon as it completes a violated law instance. Each law's check
is compiled from its term in magma: the new cell is tried in the role of
every product of the law, so a check visits only the instances that
cell can complete. When a renaming of the variables swaps the two sides,
as x <-> z does for the left invertive law (xy)z = (zy)x and x <-> y for
the swap and commutative laws, each instance is the same equation as its
renamed twin, and the cell is tried only in the roles of the products of
the lhs: the left invertive and swap checks have two blocks, not four,
and each equation the cell completes is read once. Next to the table
the search keeps a value index W, the filled cells grouped by value,
from which a check reads the cells whose value is the new cell's row or
column instead of scanning the table for them. Before a cell tries any value, each law's forcer,
compiled from the same term, lets the cell be a whole side of the law
and reads the other side off known cells: one reading is the only
value the cell tries, two different readings drop the partial table.
The completely inverse class has a second, independent
generator that builds strong semilattices of AG-groups: it composes
every family of homomorphisms between the components, and compose
rejects the families whose maps do not compose along a chain of the
semilattice (1 of 72 at order 5). The two censuses must agree wherever
both run, and tests pin that agreement.

The search yields exactly one table of each isomorphism class, by
orderly generation (R. C. Read, "Every one a winner", Ann. Discrete
Math. 2, 1978; compare B. McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998). Cells are filled shell by shell: shell k holds
the cells whose larger index is k-1, so once the last cell of shell k
is filled the k x k block of the table is complete. Within a shell each
cell (k-1, j) comes right before its transpose (j, k-1), j ascending,
and (k-1, k-1) comes last: an instance of the left invertive or the
swap law ties a cell to cells in the transposed position, so this order
closes instances, and rejects values, sooner than row-major order
would. The argument below holds for any order inside a shell.
Read in fill order, the completed block is then compared with its
relabelings by each permutation q of 0..k-1 that fixes every larger
element and maps the prefill onto itself, and the partial table is
dropped if one of them is strictly smaller. Each cell also tries only
the elements already mentioned (as a row, a column or a value of a
cell the search filled or is filling) plus the least unmentioned one,
the least-number rule of SEM-style model finders (J. Zhang and H.
Zhang, "SEM: a system for enumerating models", IJCAI 1995; Distler,
Shah and Sorge use it for AG-groupoids in "Enumeration of
AG-groupoids", CICM 2011).

Why this is sound: take the relabeling S of a table that is least in
fill order among those that keep the prefill. Its k x k block is least
under every such q, because a q-relabeled block is the prefix of a
relabeling of the whole table. It also obeys the least-number rule: if
a cell of S held a value w > m+1, m being the largest element mentioned
before it, then swapping w with m+1 would change no earlier cell and
lower this one. So the search reaches S and keeps it. The last shell is
the whole table, compared with all its relabelings, so nothing else of
the class survives. The relabelings that keep a prefill in use are all
of them for the idempotent diagonal, and the ones fixing 0 for the
identity row 0 of the AG-group search, whose left identity is unique;
both keep the swap above, which fixes 0. So every search yields exactly
one table per isomorphism class. The shell tests of each order and
prefill are built the first time that search runs, and kept.

Two prunings leave this output unchanged, table for table and in the
same order. The first is the first-cell bound. Relabeling a table by p
puts p(T[a][a]) in cell (0, 0), where a = p^-1(0): 0 exactly when a is
idempotent, 1 exactly when p^-1(1) = T[a][a], and 2 or more otherwise.
Cell (0, 0) comes first in row-major and in fill order, and it holds 0
or 1: the least-number rule allows no more, and the prefills in use put
0 there. A relabeling whose first cell is larger than the table's is
larger, and one whose first cell is smaller is smaller. So the least
relabeling is the least of those whose first cell is the least any
relabeling gives (0 when an element is idempotent, else 1, which
p^-1(0) = a and p^-1(1) = T[a][a] give for any a), and a shell test
fails at once when one of its relabelings puts 0 first and the block
starts with 1, and otherwise compares only the relabelings whose first
cell equals the block's. The relabelers are grouped once by
(p^-1(0), p^-1(1)) for this, per order and per shell test, so the
groups to compare are read off the diagonal.

The second is forcing. When the new cell can be a whole side of a law
and an instance's other side reads known cells only, a value v of the
cell other than that reading fails the instance, and the law's check
visits the instance once the cell holds v, since the cells it reads
other than the new one are unchanged. So a forcer drops only values a
check would reject: after one reading f the cell tries f alone, and
only if the least-number rule allows it (f <= m+1), after two different
readings none. Every value tried still passes every check, so the
search keeps and yields the same tables. The distinct-columns check
of the AG-group search has no forcer.

Tables enumerate up to isomorphism by default: each found table is
replaced by its least relabeling in row-major order, which need not be
the one the search kept, and the results are sorted. Labeled
enumeration lists every relabeling of each class representative.

Relabelings are computed on flat row-major tables held as bytes. For
each permutation of an order, `_relabelers` keeps one
`operator.itemgetter` that moves every cell to its relabeled position
and one 256-byte `bytes.translate` map that relabels the values, so a
relabeling is two C-level calls. Row-major order on flat tables is the
order on tuples of rows, so the least relabeling is the least bytes.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import AlgebraError, BoundExceeded, InvalidStructure
from .magma import (
    ASSOCIATIVE,
    COMMUTATIVE,
    LEFT_INVERTIVE,
    SWAP_LAW,
    Groupoid,
    _forcer,
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


def _relabeler(p, n, positions):
    """(cells, values) for a permutation p of 0..n-1: cells gathers, for
    each given position (a, b) of a flat table, the old cell
    (p^-1 a, p^-1 b), and values is the bytes.translate map x -> p(x)."""
    inverse = sorted(range(n), key=p.__getitem__)  # inverse[p[i]] == i
    sources = [inverse[pos // n] * n + inverse[pos % n] for pos in positions]
    # itemgetter of one index returns a scalar; a slice keeps a sequence
    cells = operator.itemgetter(*sources) if n > 1 else operator.itemgetter(slice(1))
    return cells, bytes(p) + bytes(range(n, 256))


def _by_first_cell(n, k, perms, positions) -> tuple:
    """The relabelers of the given positions by permutations p of 0..n-1
    that move only 0..k-1, as a k x k grid: grid[a][b] holds those of
    the p with p^-1(0) = a and p^-1(1) = b, in the order given."""
    grid = [[[] for _ in range(k)] for _ in range(k)]
    for p in perms:
        # an order-1 table has no element 1: its one relabeler is at (0, 0)
        grid[p.index(0)][p.index(min(1, k - 1))].append(_relabeler(p, n, positions))
    return tuple(tuple(map(tuple, row)) for row in grid)


@lru_cache(maxsize=None)
def _relabelers(n) -> tuple:
    """The relabeler of the whole flat table by each permutation of
    0..n-1, grouped by first cell (see _by_first_cell).

    Built the first time order n is relabeled, and kept: it holds n!
    relabelers, about 70 kB at order 5, 3 MB at order 7, 36 MB (built
    in under a second) at order 8, and more than ten times that at
    order 9; the grid adds n^2 small tuples."""
    return _by_first_cell(n, n, itertools.permutations(range(n)), range(n * n))


def _tied(T, n, grid):
    """(0, the groups of the grid of _by_first_cell whose relabelers put
    0 in the first cell of the flat n x n table T) when there are some,
    else (1, the groups that put 1 there).

    A relabeler by p puts p(T[a][a]) in cell (0, 0), a = p^-1(0): that is
    0 exactly when a is idempotent, and 1 exactly when p^-1(1) = T[a][a].
    Only the diagonal cells (a, a) of the grid's k x k block are read.
    """
    k = len(grid)
    diagonal = T[:k * (n + 1):n + 1]
    zero = [group for a, t in enumerate(diagonal) if t == a for group in grid[a] if group]
    if zero:
        return 0, zero
    return 1, [grid[a][t] for a, t in enumerate(diagonal) if t < k and grid[a][t]]


def _least_relabeling(flat, n) -> bytes:
    """The least relabeling of a flat table: the least of those whose
    first cell is the least any relabeling has."""
    _, groups = _tied(flat, n, _relabelers(n))
    return min(bytes(cells(flat)).translate(values) for group in groups for cells, values in group)


def _relabelings(flat, n) -> list:
    """A flat table relabeled by each permutation of its elements, as
    bytes, with repeats when it has automorphisms."""
    return [
        bytes(cells(flat)).translate(values)
        for row in _relabelers(n)
        for group in row
        for cells, values in group
    ]


def _flat(table) -> bytes:
    return bytes(itertools.chain.from_iterable(table))


def _rows(flat, n) -> tuple:
    return tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))


def canonical_table(table) -> tuple:
    """Least relabeling of a table; equal exactly on isomorphic inputs."""
    n = len(table)
    return _rows(_least_relabeling(_flat(table), n), n)


def _fold(found, n) -> tuple:
    """Canonical tables of flat search output, sorted, without repeats."""
    return tuple(_rows(t, n) for t in sorted({_least_relabeling(f, n) for f in found}))


def canonical_form(g: Groupoid) -> tuple:
    return canonical_table(g.table)


def are_isomorphic(g: Groupoid, h: Groupoid) -> bool:
    if g.order != h.order:
        return False
    return canonical_form(g) == canonical_form(h)


_LAW_TERMS = {
    "left-invertive": LEFT_INVERTIVE,
    "swap": SWAP_LAW,
    "associative": ASSOCIATIVE,
    "commutative": COMMUTATIVE,
}

# incremental checks over a flat table T, -1 meaning unknown, and its
# value index W, W[w] listing the (row, column) of each known cell that
# holds w; each runs once cell (r, c) holds v and W[v] lists it. A law's
# check is compiled from its term (see magma._incremental_source), and
# distinct-columns keeps v out of the rest of column c
_LAW_CHECKS = {name: _incremental_check(*law) for name, law in _LAW_TERMS.items()}
_LAW_CHECKS["distinct-columns"] = lambda T, W, n, r, c, v: all(
    x == r or y != c for x, y in W[v]
)

# the forcer of each law, run on a free cell before it tries a value
# (see magma._forcing_source); distinct-columns has none
_LAW_FORCERS = {name: _forcer(*law) for name, law in _LAW_TERMS.items()}


def _value_index(T, n):
    """The value index W of a flat table (see _LAW_CHECKS), each list
    in position order."""
    W = [[] for _ in range(n)]
    for pos, v in enumerate(T):
        if v >= 0:
            W[v].append(divmod(pos, n))
    return W


@lru_cache(maxsize=None)
def _fill_order(n, prefill) -> tuple:
    """The free cells of a search in fill order, each as (larger of row
    and column, position, row, column, shell test).

    Shell k, the cells whose larger index is k-1, fills (k-1, 0),
    (0, k-1), (k-1, 1), (1, k-1), ..., (k-1, k-1): each cell right before
    its transpose (see the module docstring). Cell (0, 0) is first.

    prefill is a sorted tuple of (position, value) pairs. The shell test
    is None except on the last free cell of shell k, if some
    permutation q of 0..k-1 other than the identity fixes every larger
    element and maps the prefill onto itself. There it is (cells, grid)
    from _shell_test.
    """
    filled = dict(prefill)
    cells = sorted(range(n * n), key=lambda p: (max(divmod(p, n)), min(divmod(p, n)), -p))
    free = []
    for k in range(1, n + 1):
        shell = [p for p in cells[(k - 1) ** 2:k * k] if p not in filled]
        for p in shell:
            test = _shell_test(n, k, filled, cells[:k * k]) if p == shell[-1] else None
            free.append((k - 1, p, *divmod(p, n), test))
    return tuple(free)


def _shell_test(n, k, filled, block):
    """The shell test of _fill_order for the k x k block, listed by its
    positions in fill order: (cells, grid), where cells gathers that
    block of a flat table, and grid groups by first cell (see
    _by_first_cell) the relabelers (gather, values) of _relabeler that
    read the same block of the table relabeled by each allowed q."""
    allowed = []
    for head in itertools.permutations(range(k)):
        p = head + tuple(range(k, n))
        moved = {p[pos // n] * n + p[pos % n]: p[v] for pos, v in filled.items()}
        if p != tuple(range(n)) and moved == filled:
            allowed.append(p)
    if not allowed:
        return None
    return operator.itemgetter(*block), _by_first_cell(n, k, allowed, block)


def _complete(T, W, n, free, start, m, checks, forcers, out):
    """Fill the cells free[start:] and record each table reached.

    free comes from _fill_order: shell by shell, each cell of a shell
    next to its transpose. W is T's value index: a value is
    appended to it as the cell takes it and popped as the cell gives it
    up, so it follows the backtracking. m is the largest element
    mentioned by the cells filled so far: their rows, columns and
    values. Prefilled cells do not count; every prefill in use (an
    idempotent diagonal, an identity row 0) is fixed by each permutation
    fixing 0, and m >= 0 once a cell is filled. The forcers of the laws
    run before the cell tries a value: a reading f leaves f alone to
    try, if f <= m+1, and -2 (two readings) leaves none. A cell that
    completes a shell keeps a value only if the block it completes is
    least in fill order among the block's relabelings.
    """
    if start == len(free):
        out.append(tuple(T))
        return
    top, pos, r, c, shell = free[start]
    if top > m:
        m = top
    f = -1
    for force in forcers:
        f = force(T, W, n, r, c, f)
        if f < -1:
            return
    if f > m + 1:
        return
    cell = r, c
    for v in range(min(n, m + 2)) if f < 0 else (f,):
        T[pos] = v
        cells = W[v]
        cells.append(cell)
        for fn in checks:
            if not fn(T, W, n, r, c, v):
                break
        else:
            if shell is None or _least_block(T, n, *shell):
                _complete(T, W, n, free, start + 1, v if v > m else m, checks, forcers, out)
        cells.pop()
    T[pos] = -1


def _least_block(T, n, cells, grid):
    """Whether no relabeler of a shell test gives a block of T smaller
    than the block itself.

    The block's first cell, (0, 0), holds 0 or 1. A relabeler that puts
    a smaller value there gives a smaller block, one that puts a larger
    value a larger block, so only those of _tied are compared (none
    when no relabeler puts 0 or 1 there).
    """
    least, groups = _tied(T, n, grid)
    if least != T[0]:
        return least > T[0]
    block = bytes(cells(T))
    return all(
        bytes(gather(T)).translate(values) >= block for group in groups for gather, values in group
    )


def _search_tables(n, laws, prefill=None):
    """Tables satisfying the given laws and agreeing with the prefill,
    exactly one of each isomorphism class, in a deterministic order.

    Cells are filled shell by shell, each trying only the values 0..m+1,
    and each completed shell's block must be least among its
    relabelings (see _complete and the module docstring).
    """
    checks = tuple(_LAW_CHECKS[name] for name in laws)
    forcers = tuple(_LAW_FORCERS[name] for name in laws if name in _LAW_FORCERS)
    prefill = prefill or {}
    T = [prefill.get(p, -1) for p in range(n * n)]
    W = _value_index(T, n)
    # with every prefilled cell known, each one's checks together visit
    # every instance the prefill completes
    for pos, v in prefill.items():
        if not all(fn(T, W, n, *divmod(pos, n), v) for fn in checks):
            return []
    free = _fill_order(n, tuple(sorted(prefill.items())))
    out = []
    _complete(T, W, n, free, 0, -1, checks, forcers, out)
    return out


def _groupoid_from_flat(flat, n) -> Groupoid:
    return Groupoid(tuple(str(i) for i in range(n)), _rows(flat, n))


def _searched_tables(n, class_filter):
    """Search output for a class without a dedicated generator."""
    if class_filter == "ag":
        return _search_tables(n, ("left-invertive",))
    if class_filter == "ag-star-star":
        return _search_tables(n, ("left-invertive", "swap"))
    if class_filter == "ag-band":
        prefill = {i * n + i: i for i in range(n)}
        return _search_tables(n, ("left-invertive",), prefill)
    if class_filter == "completely-inverse":
        return [
            t
            for t in _search_tables(n, ("left-invertive", "swap"))
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


def _synthesized_tables(n) -> tuple:
    """Canonical tables of all completely inverse carriers of one order,
    composed from every family of homomorphisms between AG-groups over
    each semilattice Y. Only a family whose maps do not compose along a
    chain of Y is skipped; any other rejection by compose is a bug here.
    """
    result = set()
    for k in range(1, n + 1):
        for y_table in _semilattice_reps(k):
            y = Groupoid(tuple(f"y{i}" for i in range(k)), y_table)
            strict = [
                (i, j) for i in range(k) for j in range(k) if i != j and y_table[i][j] == j
            ]
            for cuts in itertools.combinations(range(1, n), k - 1):
                sizes = [b - a for a, b in zip((0, *cuts), (*cuts, n))]
                identities = [(i, i, tuple(range(size))) for i, size in enumerate(sizes)]
                for groups in itertools.product(*map(_ag_group_reps, sizes)):
                    components = tuple(
                        Groupoid(tuple(f"{i}_{t}" for t in range(size)), group)
                        for i, (size, group) in enumerate(zip(sizes, groups))
                    )
                    options = [_homomorphisms(groups[i], groups[j]) for i, j in strict]
                    for family in itertools.product(*options):
                        glued = [(i, j, images) for (i, j), images in zip(strict, family)]
                        s = StrongSemilattice(y, components, tuple(identities + glued))
                        try:
                            table = compose(s).table
                        except InvalidStructure as exc:
                            if exc.condition != "composition":
                                raise
                            continue
                        result.add(canonical_table(table))
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


def enumerate_groupoids(spec: EnumerationSpec, strategy=None) -> tuple[Groupoid, ...]:
    """All groupoids matching the spec, in a deterministic order."""
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
        found = _searched_tables(n, spec.class_filter)
        reps = _fold(found, n)
    if spec.up_to_isomorphism:
        tables = reps
    else:
        labeled = {t for rep in reps for t in _relabelings(_flat(rep), n)}
        tables = [_rows(t, n) for t in sorted(labeled)]
    names = tuple(str(i) for i in range(n))
    return tuple(Groupoid(names, table) for table in tables)


def census(spec: EnumerationSpec, strategy=None) -> int:
    return len(enumerate_groupoids(spec, strategy))
