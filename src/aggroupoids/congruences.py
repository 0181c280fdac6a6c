"""Equivalence relations and congruences on finite groupoids.

Relations use canonical minimal-representative block ids, so relation
equality is plain structural equality. Kernels and traces follow the
completely inverse theory: a congruence there is determined by the set
of elements its idempotent classes cover plus its restriction to the
idempotents, and both directions of that correspondence live here. A
quotient is a plain Groupoid on the blocks, each named after its least
member, so x goes to the element named g.names[rel.block_of[x]].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

from .errors import (
    AlgebraError,
    InvalidCongruencePair,
    KernelMismatch,
    NotACongruence,
    NotAgStarStar,
    NotARefinement,
    ParseError,
)
from .magma import (
    Groupoid,
    _Keeps,
    _kept,
    idempotent_semilattice,
    idempotents,
    is_ag_star_star,
    is_completely_inverse,
    require_completely_inverse,
)

__all__ = [
    "EquivRelation",
    "Congruence",
    "CongruencePair",
    "parse_partition",
    "format_partition",
    "is_congruence",
    "congruence_generated_by",
    "kernel",
    "trace",
    "congruence_pair_of",
    "is_congruence_pair",
    "from_kernel_trace",
    "quotient",
    "induced_congruence",
    "syntactic_congruence",
    "congruence_meet",
    "congruence_join",
]


def _canonical_labels(keys: Iterable[Hashable]) -> tuple[int, ...]:
    # relabel keys to least members; a key's block id is the index of
    # its first occurrence because we scan in ascending element order
    first: dict = {}
    out = []
    for x, b in enumerate(keys):
        if b not in first:
            first[b] = x
        out.append(first[b])
    return tuple(out)


@dataclass(frozen=True)
class EquivRelation:
    """A partition of 0..order-1; block ids are the minimal members."""

    order: int
    block_of: tuple[int, ...]

    def __post_init__(self):
        if self.order <= 0 or len(self.block_of) != self.order:
            raise AlgebraError("partition does not match the carrier size")
        for x, b in enumerate(self.block_of):
            if not isinstance(b, int) or not 0 <= b <= x or self.block_of[b] != b:
                raise AlgebraError("block ids must be minimal block members")

    @classmethod
    def identity(cls, order: int) -> "EquivRelation":
        return cls(order, tuple(range(order)))

    @classmethod
    def universal(cls, order: int) -> "EquivRelation":
        return cls(order, (0,) * order)

    @classmethod
    def from_keys(cls, keys: Iterable[Hashable]) -> "EquivRelation":
        """Relate x and y exactly when keys[x] == keys[y]."""
        block_of = _canonical_labels(keys)
        if not block_of:
            raise AlgebraError("partition does not match the carrier size")
        return cls._trusted(block_of)

    @classmethod
    def _trusted(cls, block_of: tuple[int, ...]) -> "EquivRelation":
        """A relation built without the __post_init__ validation, for a
        nonempty tuple of least-member labels, such as _canonical_labels
        returns."""
        rel = object.__new__(cls)
        object.__setattr__(rel, "order", len(block_of))
        object.__setattr__(rel, "block_of", block_of)
        return rel

    @classmethod
    def from_pairs(cls, order: int, pairs: Iterable[tuple[int, int]]) -> "EquivRelation":
        """Smallest equivalence relating every given pair."""
        parent = list(range(order))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            if not (0 <= a < order and 0 <= b < order):
                raise AlgebraError(f"element {b if 0 <= a < order else a} out of range")
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        return cls.from_keys(find(x) for x in range(order))

    @classmethod
    def from_blocks(cls, order: int, blocks: Iterable[Iterable[int]]) -> "EquivRelation":
        block_of = [-1] * order
        for block in blocks:
            members = list(block)
            if not members:
                raise AlgebraError("empty block")
            least = min(members)
            for x in members:
                if not 0 <= x < order or block_of[x] != -1:
                    raise AlgebraError(f"element {x} repeated or out of range")
                block_of[x] = least
        if -1 in block_of:
            raise AlgebraError("blocks do not cover the carrier")
        return cls(order, tuple(block_of))

    def related(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]

    @property
    def num_blocks(self) -> int:
        return len(set(self.block_of))

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks ordered by their least member; members ascending."""
        grouped: dict[int, list[int]] = {}
        # block b is first met at x = b, so the dict is in least-member order
        for x, b in enumerate(self.block_of):
            grouped.setdefault(b, []).append(x)
        return tuple(map(tuple, grouped.values()))

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Related pairs (a, b) with a < b."""
        for block in self.blocks():
            yield from itertools.combinations(block, 2)

    def _require_same_order(self, other: "EquivRelation") -> None:
        if other.order != self.order:
            raise AlgebraError("partition does not match the carrier size")

    def leq(self, other: "EquivRelation") -> bool:
        """Refinement: every block of self lies inside a block of other."""
        self._require_same_order(other)
        return all(
            other.block_of[x] == other.block_of[self.block_of[x]]
            for x in range(self.order)
        )

    def meet(self, other: "EquivRelation") -> "EquivRelation":
        self._require_same_order(other)
        return EquivRelation.from_keys(zip(self.block_of, other.block_of))

    def join(self, other: "EquivRelation") -> "EquivRelation":
        self._require_same_order(other)
        return EquivRelation.from_pairs(
            self.order,
            [(x, self.block_of[x]) for x in range(self.order)]
            + [(x, other.block_of[x]) for x in range(self.order)],
        )

    def restrict(self, members: Sequence[int]) -> "EquivRelation":
        """The induced relation on a subset, re-indexed along sorted order."""
        return EquivRelation.from_keys(self.block_of[a] for a in sorted(members))


def parse_partition(text: str, names: Sequence[str]) -> EquivRelation:
    """Read "a e | b | f" syntax; every element must appear exactly once."""
    position = {name: i for i, name in enumerate(names)}
    seen = set()
    blocks = []
    for chunk in text.split("|"):
        tokens = chunk.split()
        if not tokens:
            raise ParseError("empty block in partition")
        block = []
        for token in tokens:
            if token not in position:
                raise ParseError(f"unknown element {token!r} in partition")
            if token in seen:
                raise ParseError(f"element {token!r} repeated in partition")
            seen.add(token)
            block.append(position[token])
        blocks.append(block)
    if len(seen) != len(names):
        missing = sorted(set(names) - seen)
        raise ParseError(f"partition misses elements: {' '.join(missing)}")
    return EquivRelation.from_blocks(len(names), blocks)


def format_partition(rel: EquivRelation, names: Sequence[str]) -> str:
    """Inverse of parse_partition, canonical block and member order."""
    return " | ".join([" ".join([names[x] for x in block]) for block in rel.blocks()])


@dataclass(frozen=True)
class Congruence(_Keeps):
    """An equivalence relation compatible with a groupoid's product.

    The public constructor Congruence(g, rel) validates: it raises
    NotACongruence with a separating translation when rel is not
    compatible. The private Congruence._trusted(g, rel) does not; the
    library uses it only where rel is compatible by construction (the
    lattice scan, generated congruences, meets and joins) or by a
    theorem the verify battery tests on its own.

    It keeps (see magma._kept), each in a declared slot, its quotient,
    kernel and trace, and for the canonical module trace_max, trace_min,
    kernel_max and ag_group_closure.
    """

    __slots__ = (
        "groupoid",
        "rel",
        "_quotient",
        "_kernel",
        "_trace",
        "_trace_max",
        "_trace_min",
        "_kernel_max",
        "_ag_group_closure",
    )

    groupoid: Groupoid
    rel: EquivRelation

    def __post_init__(self):
        g, rel = self.groupoid, self.rel
        if rel.order != g.order:
            raise AlgebraError("relation does not match the carrier size")
        witness = _compatibility_witness(g.table, rel.block_of)
        if witness is not None:
            a, b, c, side = witness
            raise NotACongruence(
                f"{g.names[a]} ~ {g.names[b]} but {side} translation by "
                f"{g.names[c]} separates them"
            )

    @classmethod
    def _trusted(cls, g: Groupoid, rel: EquivRelation) -> "Congruence":
        """A congruence built without the compatibility test, for a
        relation of g's order known to be compatible."""
        c = object.__new__(cls)
        object.__setattr__(c, "groupoid", g)
        object.__setattr__(c, "rel", rel)
        return c

    def related(self, a: int, b: int) -> bool:
        return self.rel.related(a, b)

    def partition_text(self) -> str:
        return format_partition(self.rel, self.groupoid.names)


def _compatibility_witness(table, block_of: Sequence[int]):
    """First (a, b, c, side) with a < b in one block whose translates by
    c on that side fall in different blocks, or None for a congruence.

    Takes the bare table and block labels, so the lattice scan can test
    a partition before building its relation."""
    n = len(block_of)
    for a in range(n):
        row_a = table[a]
        for b in range(a + 1, n):
            if block_of[b] != a:
                continue
            row_b = table[b]
            for c in range(n):
                row_c = table[c]
                if block_of[row_c[a]] != block_of[row_c[b]]:
                    return a, b, c, "left"
                if block_of[row_a[c]] != block_of[row_b[c]]:
                    return a, b, c, "right"
    return None


def is_congruence(g: Groupoid, rel: EquivRelation) -> bool:
    if rel.order != g.order:
        raise AlgebraError("relation does not match the carrier size")
    return _compatibility_witness(g.table, rel.block_of) is None


def congruence_generated_by(g: Groupoid, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Smallest congruence relating every given pair.

    Close the seed pairs to an equivalence, then merge every translate
    of each element and its block's least member, and repeat until
    nothing changes; every round but the last merges two blocks, so
    there are at most n rounds.
    """
    n = g.order
    table = g.table
    rel = EquivRelation.from_pairs(n, pairs)
    while True:
        links = [(a, b) for a, b in enumerate(rel.block_of) if a != b]
        grown = EquivRelation.from_pairs(
            n,
            links
            + [(table[c][a], table[c][b]) for a, b in links for c in range(n)]
            + [(table[a][c], table[b][c]) for a, b in links for c in range(n)],
        )
        if grown == rel:
            # closed under translations, so compatible
            return Congruence._trusted(g, rel)
        rel = grown


@_kept("_kernel")
def kernel(c: Congruence) -> frozenset[int]:
    """Union of classes containing idempotents; kept on c.

    On a carrier that is not completely inverse this must agree with the
    square characterization {a : a related to a*a}, else KernelMismatch.
    On a completely inverse one the two agree by a theorem that
    thm-idempotent-classes-contain-idempotents checks, so only the class
    reading is computed."""
    g = c.groupoid
    labels = c.rel.block_of
    id_labels = {labels[e] for e in idempotents(g)}
    by_classes = frozenset(a for a in g.elements if labels[a] in id_labels)
    if is_completely_inverse(g):
        return by_classes
    by_squares = frozenset(
        a for a in g.elements if c.related(a, g.table[a][a])
    )
    if by_classes != by_squares:
        raise KernelMismatch(
            "the class and square readings of the kernel disagree; "
            "the carrier is not idempotent-surjective"
        )
    return by_classes


@_kept("_trace")
def trace(c: Congruence) -> EquivRelation:
    """Restriction to the idempotents, indexed along their sorted order;
    kept on c."""
    ids = idempotents(c.groupoid)
    if not ids:
        raise AlgebraError("no idempotents to restrict to")
    return c.rel.restrict(ids)


@dataclass(frozen=True)
class CongruencePair:
    """Kernel candidate plus a trace relation indexed over sorted idempotents."""

    kernel: frozenset
    trace: EquivRelation


def congruence_pair_of(c: Congruence) -> CongruencePair:
    return CongruencePair(kernel(c), trace(c))


def _kernel_violation(g: Groupoid, inverse, members) -> str | None:
    """First failed kernel property of a subset, in a fixed order:
    nonempty subset, subgroupoid, inverse-closed, full, symmetric."""
    if not members or not all(isinstance(a, int) and 0 <= a < g.order for a in members):
        return "not a nonempty subset of the carrier"
    for a in members:
        for b in members:
            if g.table[a][b] not in members:
                return f"not a subgroupoid: {g.names[a]} * {g.names[b]} escapes it"
    if any(inverse[a] not in members for a in members):
        return "not inverse-closed"
    if not set(idempotents(g)) <= members:
        return "not full: misses an idempotent"
    for a in g.elements:
        for b in g.elements:
            if g.table[a][b] in members and g.table[b][a] not in members:
                return (
                    f"not symmetric: {g.names[a]} * {g.names[b]} is inside "
                    f"but the reversed product is not"
                )
    return None


def _pair_violation(g: Groupoid, pair: CongruencePair) -> str | None:
    """First violated pair condition, or None. Assumes g completely inverse."""
    inverse = require_completely_inverse(g)
    K = pair.kernel
    violation = _kernel_violation(g, inverse, K)
    if violation is not None:
        return "kernel is " + violation
    ids = idempotents(g)
    if pair.trace.order != len(ids):
        return "trace is not a relation on the idempotents"
    if not is_congruence(idempotent_semilattice(g), pair.trace):
        return "trace is not a congruence on the idempotent semilattice"
    index_of = {e: i for i, e in enumerate(ids)}
    for e in ids:
        for a in g.elements:
            if g.table[e][a] in K and pair.trace.related(
                index_of[e], index_of[g.table[a][inverse[a]]]
            ):
                if a not in K:
                    return (
                        f"pair condition fails: {g.names[e]} * {g.names[a]} "
                        f"lies in the kernel and the traces match, "
                        f"yet {g.names[a]} is outside"
                    )
    return None


def is_congruence_pair(g: Groupoid, K: Iterable[int], tau: EquivRelation) -> bool:
    return _pair_violation(g, CongruencePair(frozenset(K), tau)) is None


def _kernel_trace_congruence(g: Groupoid, pair: CongruencePair) -> Congruence:
    """The congruence of a pair by the paper's rule: a ~ b iff the traces
    of a*a^-1 and b*b^-1 match and a*b^-1 lies in the kernel. Each b is
    labelled by the least related a <= b. The caller has checked the pair
    conditions, which make the rule an equivalence; it is not closed, so
    a rule that is not transitive gives a wrong partition or an error."""
    inverse = require_completely_inverse(g)
    index_of = {e: i for i, e in enumerate(idempotents(g))}

    def related(a, b):
        ea = index_of[g.table[a][inverse[a]]]
        eb = index_of[g.table[b][inverse[b]]]
        return pair.trace.related(ea, eb) and g.table[a][inverse[b]] in pair.kernel

    labels = tuple(next((a for a in range(b) if related(a, b)), b) for b in g.elements)
    return Congruence._trusted(g, EquivRelation(g.order, labels))


def from_kernel_trace(g: Groupoid, pair: CongruencePair) -> Congruence:
    """Rebuild the unique congruence with the given kernel and trace,
    after validating the pair conditions."""
    violation = _pair_violation(g, pair)
    if violation is not None:
        raise InvalidCongruencePair(violation)
    return _kernel_trace_congruence(g, pair)


def _block_index(block_of: Sequence[int]) -> dict[int, int]:
    """The index of each block by ascending least member, keyed by that
    least member, in ascending order."""
    return {b: i for i, b in enumerate(sorted(set(block_of)))}


def _quotient_table(table, block_of: Sequence[int], index: dict[int, int]):
    """The product table on the blocks of a compatible partition, rows
    and columns in the order of index (see _block_index): the product of
    two blocks is the block of the product of their least members."""
    return tuple([tuple([index[block_of[table[a][b]]] for b in index]) for a in index])


@_kept("_quotient")
def quotient(c: Congruence) -> Groupoid:
    """The groupoid on the blocks, well defined by compatibility, built
    without validation; kept on c. Each block is named after its least
    member, blocks in ascending order of least member, so the names are
    distinct whatever the carrier's names are and x lies in the block
    q.index(g.names[c.rel.block_of[x]]). The quotient by the identity is
    the carrier itself, with the facts it keeps."""
    g, block_of = c.groupoid, c.rel.block_of
    index = _block_index(block_of)
    if len(index) == len(block_of):
        return g
    return Groupoid._trusted(
        tuple([g.names[b] for b in index]), _quotient_table(g.table, block_of, index)
    )


def _require_same_groupoid(c1: Congruence, c2: Congruence) -> None:
    if c1.groupoid is not c2.groupoid and c1.groupoid != c2.groupoid:
        raise AlgebraError("congruences live on different groupoids")


def induced_congruence(upsilon: Congruence, rho: Congruence) -> Congruence:
    """Push a coarser congruence down to the quotient by a finer one;
    the image is compatible because upsilon is (thm-quotient-mu-lifts
    catches an image that is not). The image lives on quotient(rho),
    whose elements are the least members of rho's blocks."""
    _require_same_groupoid(upsilon, rho)
    if not rho.rel.leq(upsilon.rel):
        raise NotARefinement("the quotient congruence does not refine the other")
    return Congruence._trusted(
        quotient(rho), upsilon.rel.restrict(_block_index(rho.rel.block_of))
    )


def syntactic_congruence(g: Groupoid, Q: Iterable[int]) -> Congruence:
    """Largest congruence for which the subset is a union of classes.

    Elements are grouped by their probe signature: membership of a,
    of all products x*a and a*y, and of all x*(a*y). The one-sided and
    bare probes stand in for contexts with an absent factor, so no
    identity element is ever adjoined to the table. The membership
    column left[b] of the products x*b, over all x, is built once per
    element, and the x*(a*y) probe of a reads left[a*y] for each y, so
    the signatures cost O(n^2), not O(n^3).
    """
    members = frozenset(Q)
    if not members:
        raise AlgebraError("the saturated subset must be nonempty")
    if not all(isinstance(a, int) and 0 <= a < g.order for a in members):
        raise AlgebraError("subset not within the carrier")
    if not is_ag_star_star(g):
        raise NotAgStarStar("the probe relation is a congruence only under both identities")
    table = g.table
    left = [tuple(row[b] in members for row in table) for b in g.elements]
    signatures = [
        (
            a in members,
            left[a],
            tuple(ay in members for ay in table[a]),
            tuple(left[ay] for ay in table[a]),
        )
        for a in g.elements
    ]
    return Congruence._trusted(g, EquivRelation.from_keys(signatures))


def congruence_meet(c1: Congruence, c2: Congruence) -> Congruence:
    """Meet in the congruence lattice: the intersection."""
    _require_same_groupoid(c1, c2)
    return Congruence._trusted(c1.groupoid, c1.rel.meet(c2.rel))


def congruence_join(c1: Congruence, c2: Congruence) -> Congruence:
    """Join in the congruence lattice: transitive closure of the union."""
    _require_same_groupoid(c1, c2)
    return Congruence._trusted(c1.groupoid, c1.rel.join(c2.rel))
