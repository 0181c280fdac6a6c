"""Finite magmas as Cayley tables, and the Abel-Grassmann class tests.

Elements are dense indices 0..n-1 internally; labels exist only at the
I/O boundary. Each law is written once, as a term, and compiled two
ways. check_identity compiles it, on first use, into one nested loop per
variable that evaluates every product subterm once, in the outermost
loop binding its variables, and caches the result; the orders this
library targets (n <= 8 or so) keep the O(n^3) and O(n^4) scans small.
_incremental_check compiles it for the table search in enumeration: a
check over a partly filled table that visits only the instances one new
cell can complete. The search also passes a value index W, W[w] listing
the cells that hold w; a block whose operand is a product of two free
variables walks the cells W holds for that operand's value, so the
checks of the left invertive, swap and associative laws nest no loops.
_forcer compiles the same blocks, for the sides of the law, into the
search's forcer: the value a law leaves a free cell, read off known
cells before the cell tries any.

All three read each equation of a mirrored law once. When a renaming
of the variables swaps the two sides (_mirror), as for the left
invertive, swap, commutative, medial and paramedial laws, each instance
is the same equation as its renamed twin: the scan starts the loop of
one exchanged variable at, or just past, the other's value, and the
check and the forcer let the new cell play only the products of the lhs.

A carrier keeps its inverse map, its idempotents, its AG** verdict and
its idempotent subgroupoid once computed, each in a declared slot. Each
kept fact is one function, decorated by _kept with its slot's name (see
_Keeps).

The laws the lattice markers test on quotient tables have their body
on a bare table, whose rows may be tuples or lists: is_semilattice,
idempotents, left_identities and is_ag_group read g.table through
_is_semilattice_table, _idempotents_of, _left_identities_of and
_is_ag_group_table, and _is_e_unitary and _ag_group_by_solutions take
the table itself.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    AlgebraError,
    NotAgStarStar,
    NotAnAgGroup,
    NotCompletelyInverse,
    ParseError,
)

__all__ = [
    "Groupoid",
    "ClassificationReport",
    "check_identity",
    "is_left_invertive",
    "is_ag_star_star",
    "is_medial",
    "is_paramedial",
    "is_commutative",
    "is_associative",
    "is_idempotent_table",
    "is_semilattice",
    "idempotents",
    "left_identities",
    "inverses_of",
    "is_regular",
    "require_completely_inverse",
    "is_completely_inverse",
    "is_ag_group",
    "ag_group_left_identity",
    "classify",
    "subgroupoid",
    "idempotent_semilattice",
    "same_operation",
    "parse_mag",
    "format_mag",
]


@functools.lru_cache(maxsize=None)
def _element_range(n: int) -> range:
    # one shared range per order keeps each carrier one pointer larger
    return range(n)


def _kept(name):
    """Decorate compute(obj) into the reader of the fact kept in obj's
    slot name: on first use it stores compute(obj) there, and later
    reads return the stored value. An unset slot means "not computed
    yet"; a compute that raises keeps nothing, so it raises on every
    call."""

    def reader(compute):
        @functools.wraps(compute)
        def read(obj):
            value = getattr(obj, name, None)
            if value is None:
                value = compute(obj)
                object.__setattr__(obj, name, value)
            return value

        return read

    return reader


class _Keeps:
    """A frozen object that keeps facts about itself: each kept fact is
    a private slot, declared in the class's __slots__ beside its fields,
    that a _kept reader fills on first use.

    Kept facts are not fields, so equality, hash, repr and pickles ignore
    them, and an unpickled object has none until first use. No object has
    a __dict__, so a kept name missing from __slots__ fails at its first
    store.
    """

    __slots__ = ()

    def __reduce__(self):
        # rebuilt through the constructor from its fields alone
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Groupoid(_Keeps):
    """A finite magma: a tuple of element names and an index Cayley table.

    It keeps (see _kept) its inverse map or the message saying why it
    has none (see _find_inverse_map), its idempotents, the verdict of
    is_ag_star_star and its idempotent subgroupoid E, and for the
    canonical module the congruences mu, sigma and tau."""

    __slots__ = (
        "names",
        "table",
        # not a field: law scans read it in their innermost loops
        "elements",
        "_inverse",
        "_idempotents",
        "_ag_star_star",
        "_idempotent_semilattice",
        "_mu",
        "_sigma",
        "_tau",
    )

    names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.names)
        if n == 0:
            raise AlgebraError("a groupoid needs at least one element")
        if len(set(self.names)) != n:
            raise AlgebraError("duplicate element names")
        for name in self.names:
            # labels must survive the table file format: one token, no comments
            if not isinstance(name, str) or name.split() != [name] or "#" in name:
                raise AlgebraError(f"bad element name {name!r}")
        # a table that is no tuple or list counts as empty
        rows = self.table if isinstance(self.table, (tuple, list)) else ()
        if len(rows) != n or any(
            not isinstance(row, (tuple, list)) or len(row) != n for row in rows
        ):
            raise AlgebraError("table shape does not match the carrier size")
        for row in self.table:
            for value in row:
                if not isinstance(value, int) or not 0 <= value < n:
                    raise AlgebraError(f"table entry {value!r} out of range")
        object.__setattr__(self, "elements", _element_range(n))

    @classmethod
    def _trusted(cls, names: tuple[str, ...], table: tuple[tuple[int, ...], ...]) -> "Groupoid":
        """A groupoid built without the __post_init__ validation, for
        distinct names and a square table of indices in range, such as
        a quotient table read off a compatible partition."""
        g = object.__new__(cls)
        object.__setattr__(g, "names", names)
        object.__setattr__(g, "table", table)
        object.__setattr__(g, "elements", _element_range(len(names)))
        return g

    @property
    def order(self) -> int:
        return len(self.names)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def index(self, label: str) -> int:
        try:
            return self.names.index(label)
        except ValueError:
            raise AlgebraError(f"unknown element {label!r}") from None

    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Sequence[Sequence[str]]) -> "Groupoid":
        """Build from a label matrix rather than an index matrix."""
        names = tuple(names)
        position = {name: i for i, name in enumerate(names)}
        if len(position) != len(names):
            raise AlgebraError("duplicate element names")
        table = []
        for row in rows:
            try:
                table.append(tuple(position[entry] for entry in row))
            except KeyError as exc:
                raise AlgebraError(f"unknown element {exc.args[0]!r}") from None
        return cls(names, tuple(table))

    @classmethod
    def from_function(cls, names: Sequence[str], op: Callable[[int, int], int]) -> "Groupoid":
        n = len(names)
        table = tuple(tuple(op(i, j) for j in range(n)) for i in range(n))
        return cls(tuple(names), table)


# Identities are nested pair terms over named variables, e.g. the left
# invertive law (xy)z = (zy)x is (("x","y"),"z") == (("z","y"),"x").
Term = "str | tuple"

LEFT_INVERTIVE = ((("x", "y"), "z"), (("z", "y"), "x"))
SWAP_LAW = (("x", ("y", "z")), ("y", ("x", "z")))
MEDIAL = ((("a", "b"), ("c", "d")), (("a", "c"), ("b", "d")))
PARAMEDIAL = ((("a", "b"), ("c", "d")), (("d", "b"), ("c", "a")))
COMMUTATIVE = (("x", "y"), ("y", "x"))
ASSOCIATIVE = ((("x", "y"), "z"), ("x", ("y", "z")))


def _variables(term) -> set:
    if isinstance(term, str):
        return {term}
    return _variables(term[0]) | _variables(term[1])


def _terms(lhs, rhs):
    """Sorted variables, distinct product subterms operands first, and the
    positional local name of each (v0.., t0..), so no variable name given
    by the caller appears in generated source."""
    variables = sorted(_variables(lhs) | _variables(rhs))
    local = {v: f"v{i}" for i, v in enumerate(variables)}
    products = []

    def visit(term):
        if term in local:
            return
        visit(term[0])
        visit(term[1])
        local[term] = f"t{len(products)}"
        products.append(term)

    visit(lhs)
    visit(rhs)
    return variables, products, local


def _identity_source(lhs, rhs) -> str:
    """Python source of check(T, E), which scans lhs = rhs over E^v.

    One loop per variable, in sorted variable order. Each distinct product
    subterm is computed once, in the outermost loop that binds all of its
    variables, and a row T[a] read by a deeper loop is hoisted to where a
    is known into the local r<name of a>. E is the range 0..n-1. When a
    renaming that swaps the sides exchanges a and b (see _mirror), the
    loop of b runs over E[a:] only: an instance with b's value below a's
    is the same equation as its renamed twin, which the scan reads. This
    halves the scans of the left invertive and swap laws, and of the
    medial and paramedial laws. When that renaming moves a and b only,
    as for all of these, it maps an instance with equal values of a and
    b onto itself, so the instance holds and b's loop runs over E[a+1:].
    """
    variables, products, local = _terms(lhs, rhs)
    depth = {v: i for i, v in enumerate(variables)}
    for term in products:
        depth[term] = max(depth[term[0]], depth[term[1]])
    hoisted = {term[0] for term in products if depth[term] > depth[term[0]]}

    def row(term):
        return f"r{local[term]}" if term in hoisted else f"T[{local[term]}]"

    mirror = _mirror(lhs, rhs)
    past = "+1" if len(_side_swap(lhs, rhs)) == 2 else ""
    lines = ["def check(T, E):"]
    for d, v in enumerate(variables):
        start = f"[{local[mirror[0]]}{past}:]" if mirror and v == mirror[1] else ""
        lines.append("    " * (d + 1) + f"for {local[v]} in E{start}:")
        indent = "    " * (d + 2)
        if v in hoisted:
            lines.append(f"{indent}r{local[v]} = T[{local[v]}]")
        for term in products:
            if depth[term] != d:
                continue
            lines.append(f"{indent}{local[term]} = {row(term[0])}[{local[term[1]]}]")
            if term in hoisted:
                lines.append(f"{indent}r{local[term]} = T[{local[term]}]")
    lines.append(f"{indent}if {local[lhs]} != {local[rhs]}:")
    lines.append(f"{indent}    return False")
    lines.append("    return True")
    return "\n".join(lines) + "\n"


def _incremental_source(lhs, rhs) -> str:
    """Python source of check(T, W, n, r, c, v) over a flat n*n table, -1
    marking an unknown cell, whose cell (r, c) was just set to v: False
    when an instance of lhs = rhs that uses that cell fails with every
    cell known. W[w] lists the (row, column) of every known cell holding
    w, (r, c) in W[v] included.

    One block per distinct product lets the new cell play that role (see
    _role_block), with the role's value v known before any loop; each
    instance compares the two sides. When a renaming swaps the sides (see
    _mirror), only the products of lhs get a block: each product of rhs
    is the renamed image of one of lhs, and the instances in which the
    cell plays it are the renamed twins, the same equations, of those in
    which the cell plays that product of lhs. So the left invertive and
    swap checks have 2 blocks, not 4, and the commutative check 1, not
    2; the associative check keeps 4.
    """
    variables, products, local = _terms(lhs, rhs)
    roles = [t for t in products if _contains(lhs, t)] if _mirror(lhs, rhs) else products
    lines = ["def check(T, W, n, r, c, v):"]
    for role in roles:
        indent = _role_block(lines, role, lhs, rhs, variables, products, local)
        lines += [f"{indent}if {local[lhs]} != {local[rhs]}:", f"{indent}    return False"]
    lines.append("    return True")
    return "\n".join(lines) + "\n"


def _forcing_source(lhs, rhs) -> "str | None":
    """Python source of force(T, W, n, r, c, f) over the table and value
    index of _incremental_source, whose cell (r, c) is still unknown: the
    one value the law leaves that cell, read off known cells, or -2 when
    two readings differ. f is a reading already made (-1 for none) and
    is returned unchanged when this law reads none. None when neither
    side of the law is a product the cell can be.

    One block per side that is a product lets the cell be that whole
    side (see _role_block); each instance whose other side is known reads
    it as the cell's value. A block is left out when its other side
    contains that product, which would read the unknown cell, and the
    rhs block when a renaming of the variables swaps the two sides (see
    _mirror), as it does for the left invertive, swap and commutative
    laws: each instance the rhs block reads is then the renamed twin of
    one the lhs block reads, the same equation. The cell
    is unknown, so it reads only instances that check reads once the
    cell holds a value v, with the same other side: a v other than a
    reading fails check, and the search may try the reading alone.
    """
    variables, products, local = _terms(lhs, rhs)
    lines = ["def force(T, W, n, r, c, f):"]
    sides = ((lhs, rhs),) if _mirror(lhs, rhs) else ((lhs, rhs), (rhs, lhs))
    for role, other in sides:
        if not isinstance(role, tuple) or role == other or _contains(other, role):
            continue
        indent = _role_block(lines, role, lhs, rhs, variables, products, local, known=False)
        side = local[other]
        lines += [
            f"{indent}if f != {side}:",
            f"{indent}    if f >= 0:",
            f"{indent}        return -2",
            f"{indent}    f = {side}",
        ]
    if len(lines) == 1:
        return None
    lines.append("    return f")
    return "\n".join(lines) + "\n"


def _mirror(lhs, rhs) -> "tuple[str, str] | None":
    """The least pair of variables (a, b), a < b, that a renaming of the
    variables which swaps lhs and rhs exchanges, or None when no renaming
    that moves a variable swaps them: (x, z) for the left invertive law,
    (x, y) for the swap and commutative laws, (b, c) for the medial law
    and (a, d) for the paramedial law.

    Such a renaming turns each instance of the law into the same equation
    with the sides swapped, so each equation is read once when a's value
    is at most b's, or when the new cell of a partial table plays only
    the products of lhs. The renaming is read off by matching lhs against
    rhs and back; applied twice it fixes both sides, so it is an
    involution, and it exchanges each variable it moves with its image.
    The identity swaps lhs = lhs and moves none.
    """
    return min(((a, b) for a, b in _side_swap(lhs, rhs).items() if a < b), default=None)


def _side_swap(lhs, rhs) -> dict:
    """Each variable that a renaming swapping lhs and rhs moves, mapped
    to its image; empty when no such renaming moves a variable."""
    rename = {}

    def match(term, image):
        if isinstance(term, str):
            return isinstance(image, str) and rename.setdefault(term, image) == image
        return isinstance(image, tuple) and match(term[0], image[0]) and match(term[1], image[1])

    if match(lhs, rhs) and match(rhs, lhs):
        return {a: b for a, b in rename.items() if a != b}
    return {}


def _contains(term, sub) -> bool:
    return term == sub or (isinstance(term, tuple) and any(_contains(t, sub) for t in term))


def _role_block(lines, role, lhs, rhs, variables, products, local, known=True) -> str:
    """Append to lines the block of one role of _incremental_source or
    _forcing_source, up to its innermost instance, and return that
    instance's indent. The role is v when known, else left unread.

    The role's operands come to r and c. Operand variables are bound.
    An operand that is a product of two distinct variables, neither bound
    yet, binds both with one loop over the cells W holds for its value;
    the remaining variables get a loop over range(n) each, the role's
    first. So each block of the left invertive, swap and associative laws
    is one loop, over O(n) instances when the table's values are spread
    evenly. Each product is read once
    its operands are known, the role's subterms first, and the instance
    is skipped when a cell is unknown or an operand misses r or c. Locals
    are those of _identity_source; a row offset a * n read in a deeper
    loop is hoisted to where a is known, as r<name of a>.
    """
    left, right = role
    inside = _variables(role)
    bound = [x for x in variables if x in role]
    # W binds an operand product of two distinct free variables; any
    # other keeps its scan: with one free variable that is one loop,
    # while W[r] may hold n^2 cells, and an operand on both sides is
    # tested against r and c
    indexed, taken = {}, set(bound)
    for operand, cell in ((left, "r"), (right, "c")):
        if (
            left != right
            and isinstance(operand, tuple)
            and operand[0] != operand[1]
            and all(isinstance(x, str) and x not in taken for x in operand)
        ):
            indexed[operand] = cell
            taken.update(operand)
    loops = sorted(set(variables) - taken, key=lambda x: (x not in inside, x))
    depth = dict.fromkeys(bound, 0)
    for i, operand in enumerate(indexed, 1):
        depth.update(dict.fromkeys(operand, i))
    depth.update((x, len(indexed) + i) for i, x in enumerate(loops, 1))
    for term in products:
        # the role is v, known before any loop
        depth[term] = 0 if term == role else max(depth[term[0]], depth[term[1]])
    hoisted = {t[0] for t in products if t != role and depth[t] > depth[t[0]]}
    within = {role}
    for term in reversed(products):
        if term in within:
            within.update(term)
    computed = [t for t in products if t not in indexed and (known or t != role)]
    indent = "    "
    for term in sorted(
        [*bound, *indexed, *loops, *computed],
        key=lambda t: (depth[t], t in computed, t not in within),
    ):
        name = local[term]
        if term in bound:
            steps = [f"{name} = {'r' if term == left else 'c'}"]
            if term == left == right:
                steps.append(f"if {name} == c:")
        elif term in indexed:
            a, b = term
            steps = [f"for {local[a]}, {local[b]} in W[{indexed[term]}]:"]
            steps += [f"r{local[x]} = {local[x]} * n" for x in term if x in hoisted]
            if term in {lhs, rhs}.union(*(t for t in products if t != role)):
                steps.append(f"{name} = {indexed[term]}")
        elif term in loops:
            steps = [f"for {name} in range(n):"]
        elif term == role:
            steps = [f"{name} = v"]
        else:
            a, b = term
            row = f"r{local[a]}" if a in hoisted else f"{local[a]} * n"
            tests = [f"{name} == {x}" for x, o in (("r", left), ("c", right)) if o == term]
            test = " and ".join(tests) or f"{name} >= 0"
            steps = [f"{name} = T[{row} + {local[b]}]", f"if {test}:"]
        if term in hoisted:
            steps.append(f"r{name} = {name} * n")
        for step in steps:
            lines.append(indent + step)
            indent += "    " * step.endswith(":")
    return indent


def _compiled(source, label, name="check"):
    # a label per law keeps each compiled check apart in a profile
    namespace = {}
    exec(compile(source, label, "exec"), namespace)
    return namespace[name]


@functools.lru_cache
def _compiled_identity(lhs, rhs):
    return _compiled(_identity_source(lhs, rhs), f"<identity {lhs} = {rhs}>")


def _incremental_check(lhs, rhs):
    """The table search's check of lhs = rhs (see _incremental_source)."""
    return _compiled(_incremental_source(lhs, rhs), f"<incremental {lhs} = {rhs}>")


def _forcer(lhs, rhs):
    """The table search's forcer of lhs = rhs (see _forcing_source), or
    None when the law has none."""
    source = _forcing_source(lhs, rhs)
    return source and _compiled(source, f"<forcing {lhs} = {rhs}>", "force")


def check_identity(g: Groupoid, lhs, rhs) -> bool:
    """Exhaustively test lhs = rhs over all assignments of its variables.

    Each (lhs, rhs) pair is compiled once into nested loops, one per
    variable, and cached; the scan returns at the first assignment where
    the sides differ. Cost is O(n^v) for v variables, with every product
    subterm evaluated once per assignment of the variables it contains;
    for a law whose sides a renaming swaps, such as the left invertive
    law, about half of that: one of each pair of renamed twins (see
    _identity_source).
    """
    return _compiled_identity(lhs, rhs)(g.table, g.elements)


def is_left_invertive(g: Groupoid) -> bool:
    """(xy)z = (zy)x for all x, y, z."""
    return check_identity(g, *LEFT_INVERTIVE)


@_kept("_ag_star_star")
def is_ag_star_star(g: Groupoid) -> bool:
    """Left invertive plus x(yz) = y(xz) for all x, y, z; kept on g."""
    # the swap law first: where it fails, classify's own left invertive
    # scan is the only one
    return check_identity(g, *SWAP_LAW) and is_left_invertive(g)


def is_medial(g: Groupoid) -> bool:
    """(ab)(cd) = (ac)(bd) for all a, b, c, d."""
    return check_identity(g, *MEDIAL)


def is_paramedial(g: Groupoid) -> bool:
    """(ab)(cd) = (db)(ca) for all a, b, c, d."""
    return check_identity(g, *PARAMEDIAL)


def is_commutative(g: Groupoid) -> bool:
    return check_identity(g, *COMMUTATIVE)


def is_associative(g: Groupoid) -> bool:
    return check_identity(g, *ASSOCIATIVE)


def is_idempotent_table(g: Groupoid) -> bool:
    return len(idempotents(g)) == g.order


def is_semilattice(g: Groupoid) -> bool:
    """Idempotent, commutative and associative."""
    return _is_semilattice_table(g.table)


def _is_semilattice_table(table) -> bool:
    # is_semilattice on a bare table, such as a quotient with no Groupoid
    elements = _element_range(len(table))
    return (
        len(_idempotents_of(table)) == len(table)
        and _compiled_identity(*COMMUTATIVE)(table, elements)
        and _compiled_identity(*ASSOCIATIVE)(table, elements)
    )


@_kept("_idempotents")
def idempotents(g: Groupoid) -> tuple[int, ...]:
    """The idempotents of g in increasing order; kept on g."""
    return _idempotents_of(g.table)


def _idempotents_of(table) -> tuple[int, ...]:
    return tuple([x for x, row in enumerate(table) if row[x] == x])


def left_identities(g: Groupoid) -> tuple[int, ...]:
    return _left_identities_of(g.table)


def _left_identities_of(table) -> tuple[int, ...]:
    # entry by entry: the rows of a public Groupoid may be lists
    elements = _element_range(len(table))
    return tuple([e for e, row in enumerate(table) if all(map(operator.eq, row, elements))])


def inverses_of(g: Groupoid, a: int) -> tuple[int, ...]:
    """All x with a = (ax)a and x = (xa)x; possibly empty, never an error."""
    table = g.table
    return tuple(
        x
        for x in g.elements
        if table[table[a][x]][a] == a and table[table[x][a]][x] == x
    )


def is_regular(g: Groupoid) -> bool:
    """Every element has at least one inverse."""
    return all(inverses_of(g, a) for a in g.elements)


@_kept("_inverse")
def _find_inverse_map(g: Groupoid) -> "tuple[int, ...] | str":
    """The inverse map a -> a^-1, or the message saying why there is none;
    kept on g.

    Checks, in order: both defining identities (the kept verdict of
    is_ag_star_star; on failure the left invertive scan alone names the
    law that fails), existence of inverses, uniqueness, and
    that each element commutes with its inverse. The uniqueness check is
    redundant once the identities hold, but it is cheap and turns a
    theorem into a guard.
    """
    if not is_ag_star_star(g):
        if not is_left_invertive(g):
            return "the left invertive law (xy)z = (zy)x fails"
        return "the identity x(yz) = y(xz) fails"
    inverse = []
    for a in g.elements:
        candidates = inverses_of(g, a)
        if not candidates:
            return f"element {g.names[a]!r} has no inverse"
        if len(candidates) > 1:
            return f"element {g.names[a]!r} has {len(candidates)} inverses"
        x = candidates[0]
        if g.table[a][x] != g.table[x][a]:
            return f"element {g.names[a]!r} does not commute with its inverse"
        inverse.append(x)
    return tuple(inverse)


def require_completely_inverse(g: Groupoid) -> tuple[int, ...]:
    """Return the inverse map a -> a^-1, or raise NotCompletelyInverse
    saying why there is none (see _find_inverse_map for the checks).

    The map, or the failure message, is kept on the carrier, so each
    failing call raises a fresh exception with the same message.
    """
    inverse = _find_inverse_map(g)
    if isinstance(inverse, str):
        raise NotCompletelyInverse(inverse)
    return inverse


def is_completely_inverse(g: Groupoid) -> bool:
    """Both defining identities hold and every element has exactly one
    inverse, which commutes with it; require_completely_inverse is the
    definition, and both read the same per-carrier result."""
    return not isinstance(_find_inverse_map(g), str)


def _ag_group_by_solutions(table) -> bool:
    # every xa = b uniquely solvable for x, i.e. every column of the
    # table is a permutation, and a left identity present
    n = len(table)
    return all(len(set(column)) == n for column in zip(*table)) and bool(
        _left_identities_of(table)
    )


def is_ag_group(g: Groupoid) -> bool:
    """Left invertive with every xa = b uniquely solvable and a left identity."""
    return _is_ag_group_table(g.table)


def _is_ag_group_table(table) -> bool:
    # is_ag_group on a bare table; the O(n^2) column test first: most
    # tables fail it
    return _ag_group_by_solutions(table) and _compiled_identity(*LEFT_INVERTIVE)(
        table, _element_range(len(table))
    )


def _ag_group_by_inverses(g: Groupoid) -> bool:
    # left identity e present and every a has some x with xa = e
    for e in left_identities(g):
        if all(any(g.table[x][a] == e for x in g.elements) for a in g.elements):
            return True
    return False


@dataclass(frozen=True)
class ClassificationReport:
    is_ag: bool
    is_ag_star_star: bool
    is_medial: bool
    is_paramedial: bool
    is_commutative: bool
    is_associative: bool
    is_ag_band: bool
    is_ag_semilattice: bool
    is_regular: bool
    is_inverse_ag_star_star: bool
    is_completely_inverse: bool
    is_ag_group: bool
    is_e_unitary: bool

    def items(self) -> Iterator[tuple[str, bool]]:
        """(kebab-case flag name, value) pairs in declaration order."""
        for name in self.__dataclass_fields__:
            yield name[3:].replace("_", "-"), getattr(self, name)


def classify(g: Groupoid) -> ClassificationReport:
    """Compute every class membership flag for a finite magma."""
    ag_ss = is_ag_star_star(g)
    ag = ag_ss or is_left_invertive(g)
    idem = is_idempotent_table(g)
    commutative = is_commutative(g)

    regular = is_regular(g)
    inverse_ag_ss = ag_ss and regular
    return ClassificationReport(
        is_ag=ag,
        is_ag_star_star=ag_ss,
        is_medial=is_medial(g),
        is_paramedial=is_paramedial(g),
        is_commutative=commutative,
        is_associative=is_associative(g),
        is_ag_band=ag and idem,
        is_ag_semilattice=ag and idem and commutative,
        is_regular=regular,
        is_inverse_ag_star_star=inverse_ag_ss,
        is_completely_inverse=inverse_ag_ss and is_completely_inverse(g),
        is_ag_group=is_ag_group(g),
        is_e_unitary=_is_e_unitary(g.table),
    )


def _is_e_unitary(table) -> bool:
    # ea idempotent for some idempotent e forces a idempotent; with no
    # idempotents at all the condition is vacuous
    ids = set(_idempotents_of(table))
    for e in ids:
        for a, ea in enumerate(table[e]):
            if ea in ids and a not in ids:
                return False
    return True


def ag_group_left_identity(g: Groupoid) -> int:
    """The unique left identity of an AG-group (also its one idempotent)."""
    if not is_ag_group(g):
        raise NotAnAgGroup("the carrier is not an AG-group")
    # unique, and the only idempotent (thm-ag-group-characterizations)
    return left_identities(g)[0]


def _require_elements(g: Groupoid, members: Iterable[int]) -> None:
    """Raise AlgebraError naming a member that is no element of g."""
    for a in members:
        if not (isinstance(a, int) and 0 <= a < g.order):
            raise AlgebraError(f"element {a} out of range")


def subgroupoid(g: Groupoid, subset: Iterable[int]) -> Groupoid:
    """Restrict to a subset closed under the product, keeping labels."""
    members = list(subset)
    _require_elements(g, members)
    members = sorted(set(members))
    if not members:
        raise AlgebraError("a subgroupoid needs at least one element")
    position = {a: k for k, a in enumerate(members)}
    table = []
    for a in members:
        row = []
        for b in members:
            c = g.table[a][b]
            if c not in position:
                raise AlgebraError(
                    f"subset not closed: {g.names[a]} * {g.names[b]} = {g.names[c]}"
                )
            row.append(position[c])
        table.append(tuple(row))
    return Groupoid(tuple(g.names[a] for a in members), tuple(table))


@_kept("_idempotent_semilattice")
def idempotent_semilattice(g: Groupoid) -> Groupoid:
    """The subgroupoid on the idempotents; a semilattice whenever both
    defining identities hold and there is at least one idempotent (the
    battery check thm-idempotents-form-semilattice tests this); kept
    on g."""
    if not is_ag_star_star(g):
        raise NotAgStarStar("idempotents form a subgroupoid only under both identities")
    ids = idempotents(g)
    if not ids:
        raise AlgebraError("no idempotents")
    return subgroupoid(g, ids)


def same_operation(g: Groupoid, h: Groupoid) -> bool:
    """Same label set and same products label-for-label; element order is
    allowed to differ."""
    if set(g.names) != set(h.names):
        return False
    to_h = {name: h.index(name) for name in g.names}
    for a in g.elements:
        for b in g.elements:
            lhs = h.names[h.table[to_h[g.names[a]]][to_h[g.names[b]]]]
            if lhs != g.names[g.table[a][b]]:
                return False
    return True


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            lines.append((lineno, tokens))
    return lines


def _parse_mag_lines(lines: list[tuple[int, list[str]]]) -> Groupoid:
    """Parse a table block: count line, label line, n matrix rows."""
    if not lines:
        raise ParseError("empty input, expected an element count")
    lineno, tokens = lines[0]
    # str.isdigit() also accepts digits such as '²' that int() rejects
    if len(tokens) != 1 or not (tokens[0].isascii() and tokens[0].isdigit()):
        raise ParseError(f"expected a single element count, got {' '.join(tokens)!r}", lineno)
    n = int(tokens[0])
    if n == 0:
        raise ParseError("element count must be positive", lineno)
    if len(lines) < 2:
        raise ParseError("missing label line", lineno)
    lineno, labels = lines[1]
    if len(labels) != n:
        raise ParseError(f"expected {n} labels, got {len(labels)}", lineno)
    seen = set()
    for label in labels:
        if label in seen:
            raise ParseError(f"duplicate label {label!r}", lineno)
        seen.add(label)
    if len(lines) != 2 + n:
        raise ParseError(
            f"expected {n} table rows, got {len(lines) - 2}",
            lines[-1][0] if len(lines) > 2 + n else lineno,
        )
    position = {label: i for i, label in enumerate(labels)}
    table = []
    for lineno, tokens in lines[2:]:
        if len(tokens) != n:
            raise ParseError(f"expected {n} entries in table row, got {len(tokens)}", lineno)
        row = []
        for token in tokens:
            if token not in position:
                raise ParseError(f"unknown element {token!r} in table row", lineno)
            row.append(position[token])
        table.append(tuple(row))
    return Groupoid(tuple(labels), tuple(table))


def parse_mag(text: str) -> Groupoid:
    """Read the table text format: element count, labels, label matrix.

    '#' starts a comment and blank lines are skipped anywhere.
    """
    return _parse_mag_lines(_content_lines(text))


def format_mag(g: Groupoid) -> str:
    """Inverse of parse_mag, single-space separated, trailing newline."""
    out = [str(g.order), " ".join(g.names)]
    for row in g.table:
        out.append(" ".join(g.names[v] for v in row))
    return "\n".join(out) + "\n"
