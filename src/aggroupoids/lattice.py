"""Exhaustive congruence-lattice analysis for small carriers.

Every partition of the carrier is tested for compatibility, giving the
complete congruence lattice, per-congruence markers, and the derived
structure: trace and kernel classes (both are intervals), the trace
homomorphism onto the idempotent semilattice's lattice, fundamental
congruences, and the E-unitary families indexed by normal subgroupoids.

The scan grows least-member label tuples one element at a time and
cuts a prefix once element i has joined the block of b while a left or
right translate of i and the same translate of b are labelled and in
different blocks. An extension changes no label, so that pair stays
split and no extension is a congruence. Every tuple that survives the cut still goes through the
full compatibility test, so the congruences kept are exactly the
compatible partitions; a relation is built only for those.

The congruences are sorted by decreasing number of blocks, so no
relation comes after one strictly above it. The report keeps the order
once, as `up` and `down` index masks read off one column mask per pair
of elements, and computes meet and join on demand from them (see
`all_congruences`), without building any relation. The formatter reads
each meet and join row in one call (`LatticeReport.meet_row` and
`join_row`).

On a completely inverse table the fundamental and E-disjunctive markers
are read off the same masks: a congruence is a fixed point of
`trace_max` (of `kernel_max`) exactly when it is the top of its trace
(kernel) class. The semilattice, ag-group and e-unitary markers stay
tests of the laws they name on the quotient: the battery checks the
closed forms of the least semilattice, AG-group and E-unitary
congruences against them, and a marker read as "lies above the closed
form" would make those checks restate themselves. All markers are read
from the label tuples, the laws on the bare quotient table over the
blocks' least members (`congruences._quotient_table`), not on the
`Groupoid` that `congruences.quotient` keeps, and each law runs the same
table-level body as its `magma` predicate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

from .errors import AlgebraError, BoundExceeded, NotASublattice
from .magma import (
    Groupoid,
    _Keeps,
    _is_ag_group_table,
    _is_e_unitary,
    _is_semilattice_table,
    _kept,
    idempotent_semilattice,
    idempotents,
    is_completely_inverse,
    require_completely_inverse,
)
from .congruences import (
    Congruence,
    EquivRelation,
    _canonical_labels,
    _compatibility_witness,
    _block_index,
    _quotient_table,
    format_partition,
    kernel,
    trace,
)
from .canonical import _grouped_by_idempotent, max_idempotent_separating
from .structure import congruence_of_normal, is_normal

__all__ = [
    "CongruenceMarkers",
    "LatticeReport",
    "TraceHomomorphism",
    "iter_partitions",
    "all_congruences",
    "is_modular_sublattice",
    "satisfies_modular_law",
    "commuting_check",
    "trace_homomorphism",
    "trace_class",
    "kernel_class",
    "fundamental_congruences",
    "normal_subgroupoids",
    "e_unitary_congruences",
    "format_lattice_report",
]


@dataclass(frozen=True)
class CongruenceMarkers:
    idempotent_separating: bool
    idempotent_pure: bool
    semilattice: bool
    ag_group: bool
    e_unitary: bool
    fundamental: bool | None
    e_disjunctive: bool | None

    def names(self) -> tuple[str, ...]:
        """Kebab-case names of the markers that hold."""
        return tuple([label for name, label in _MARKER_LABELS if getattr(self, name)])


# (field, kebab-case label) of each marker, in declaration order
_MARKER_LABELS = tuple((f.name, f.name.replace("_", "-")) for f in fields(CongruenceMarkers))


@dataclass(frozen=True)
class LatticeReport(_Keeps):
    """The congruences of a carrier in scan order, their markers, and the
    order as index masks. meet and join read one entry, meet_row and
    join_row a whole row, as format_lattice_report does. It keeps (see
    magma._kept), in a declared slot, the dict from label tuple to index
    that index_of reads."""

    __slots__ = ("groupoid", "congruences", "markers", "up", "down", "_index")

    groupoid: Groupoid
    congruences: tuple[Congruence, ...]
    markers: tuple[CongruenceMarkers, ...]
    up: tuple[int, ...]  # bit j of up[i] is set when congruence i <= congruence j
    down: tuple[int, ...]  # bit i of down[j] is set under the same condition

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def meet(self, i: int, j: int) -> int:
        return (self.down[i] & self.down[j]).bit_length() - 1

    def join(self, i: int, j: int) -> int:
        return ((above := self.up[i] & self.up[j]) & -above).bit_length() - 1

    def meet_row(self, i: int) -> tuple[int, ...]:
        """meet(i, j) for every index j, in index order."""
        below = self.down[i]
        return tuple([(below & down).bit_length() - 1 for down in self.down])

    def join_row(self, i: int) -> tuple[int, ...]:
        """join(i, j) for every index j, in index order."""
        above = self.up[i]
        return tuple([((both := above & up) & -both).bit_length() - 1 for up in self.up])

    def index_of(self, rel: EquivRelation) -> int:
        i = _index_by_labels(self).get(rel.block_of)
        if i is None:
            raise KeyError("relation is not a congruence of this lattice")
        return i

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.congruences) - 1


@_kept("_index")
def _index_by_labels(report: LatticeReport) -> dict:
    return {c.rel.block_of: i for i, c in enumerate(report.congruences)}


def _partition_labels(n: int, table=None) -> list[tuple[int, ...]]:
    """The least-member `block_of` tuple of every partition of 0..n-1,
    in restricted-growth order: each element joins the blocks opened so
    far, by ascending least member, and then opens a new block.

    The tuples grow one element at a time, level by level. Given a
    table, a prefix is dropped as soon as `_translates_agree` fails on
    it; the tuples left still need the full compatibility test."""
    if n < 1:
        raise AlgebraError(f"no partitions of a carrier of size {n}")
    columns = None if table is None else tuple(zip(*table))
    level = [((0,), (0,))]  # (prefix, least members of its blocks)
    for i in range(1, n):
        grown = []
        for prefix, leaders in level:
            for b in leaders:
                labels = prefix + (b,)
                if table is None or _translates_agree(table, columns, labels, b):
                    grown.append((labels, leaders))
            grown.append((prefix + (i,), leaders + (i,)))
        level = grown
    return [labels for labels, _ in level]


def _translates_agree(table, columns, labels: tuple[int, ...], b: int) -> bool:
    """False when the last labelled element, placed in the block of b,
    and b have a left or right translate pair labelled in two blocks."""
    k = len(labels)
    i = k - 1
    for translates in (zip(columns[i], columns[b]), zip(table[i], table[b])):
        for x, y in translates:
            if x < k and y < k and labels[x] != labels[y]:
                return False
    return True


def iter_partitions(n: int) -> Iterator[EquivRelation]:
    """All partitions of 0..n-1 in restricted-growth order."""
    return (EquivRelation._trusted(block_of) for block_of in _partition_labels(n))


def _markers_for(
    table,
    block_of: tuple[int, ...],
    num_ids: int,
    id_blocks: set[int],
    fundamental: bool | None,
    e_disjunctive: bool | None,
) -> CongruenceMarkers:
    """The markers of one congruence; id_blocks holds the labels of the
    blocks that contain an idempotent."""
    q = _quotient_table(table, block_of, _block_index(block_of))
    return CongruenceMarkers(
        idempotent_separating=len(id_blocks) == num_ids,
        # the blocks of the idempotents hold no other element
        idempotent_pure=sum(map(id_blocks.__contains__, block_of)) == num_ids,
        semilattice=_is_semilattice_table(q),
        ag_group=_is_ag_group_table(q),
        e_unitary=_is_e_unitary(q),
        fundamental=fundamental,
        e_disjunctive=e_disjunctive,
    )


def _class_tops(up: Sequence[int], keys: Sequence) -> list[bool]:
    """For each index i, whether no strictly larger congruence has the
    same key: up[i] meets the mask of its key's class only at i."""
    same: dict = {}
    for i, key in enumerate(keys):
        same[key] = same.get(key, 0) | 1 << i
    return [(up[i] & same[key]) == 1 << i for i, key in enumerate(keys)]


def all_congruences(g: Groupoid, bound: int = 6) -> LatticeReport:
    """Filter every partition of the carrier; the default bound keeps
    the scan at 203 partitions or fewer.

    The scan grows label tuples one element at a time and drops a
    prefix once its last element i and the least member b of the block
    it joins have a labelled left or right translate pair in different
    blocks: an extension changes no label, so that pair stays split in
    every partition the prefix grows into. Every tuple that survives
    still goes through the full compatibility test, so the congruences
    kept are exactly the compatible partitions. A relation is built
    only for them; everything else reads their label tuples.

    They are sorted by (-number of blocks, block_of): the identity
    comes first, the universal relation last, and a congruence strictly
    above another has fewer blocks and so a larger index. The report
    keeps the `up` and `down` index masks, read off one column mask per
    pair a < b of elements, whose bit i is set when congruence i relates
    a and b: i <= j exactly when j relates every pair i relates, so
    `up[i]` is the AND of the columns of the pairs i relates and
    `down[j]` the AND of the complements of the columns of the pairs j
    does not relate: O(k n^2) operations on k-bit masks for k
    congruences. Every common upper bound of i and j other than their
    join has fewer blocks than the join, so the join is the lowest
    index among the common upper bounds; dually, the meet is the
    highest index among the common lower bounds. `LatticeReport`
    computes both on demand, one entry or one row per call.

    On a completely inverse table a congruence is fundamental when it
    is the top of its trace class, and E-disjunctive when it is the top
    of its kernel class; both classes are intervals, so these markers
    are read off the index masks too, keyed by the labels of the
    idempotents (the trace) and by which elements share a block with an
    idempotent (the kernel). The set of the blocks holding an idempotent
    is built once per congruence; it gives the kernel key and the
    separating and pure markers. The semilattice, ag-group and e-unitary
    markers test their laws on the bare quotient table over the blocks'
    least members, with the table-level bodies of `is_semilattice`,
    `is_ag_group` and `_is_e_unitary`, so that the battery checks
    comparing them with the closed-form least congruences
    (`thm-mu-least-semilattice`, `thm-sigma-least-ag-group`,
    `thm-pi-least-e-unitary`) compare two independent readings. No
    quotient carrier is built for them.
    """
    if g.order > bound:
        raise BoundExceeded(
            f"order {g.order} exceeds the exhaustive-enumeration bound {bound}"
        )
    table = g.table
    labels = [
        block_of
        for block_of in _partition_labels(g.order, table)
        if _compatibility_witness(table, block_of) is None
    ]
    labels.sort(key=lambda block_of: (-len(set(block_of)), block_of))
    # the scan has just tested each of these labels for compatibility
    congruences = tuple(
        Congruence._trusted(g, EquivRelation._trusted(block_of)) for block_of in labels
    )
    up = [(1 << len(labels)) - 1] * len(labels)
    down = up[:]
    for a, b in itertools.combinations(g.elements, 2):
        column = 0
        for i, block_of in enumerate(labels):
            if block_of[a] == block_of[b]:
                column |= 1 << i
        outside = ~column
        for i, block_of in enumerate(labels):
            if block_of[a] == block_of[b]:
                up[i] &= column
            else:
                down[i] &= outside
    ids = idempotents(g)
    id_blocks = [{block_of[e] for e in ids} for block_of in labels]
    if is_completely_inverse(g):
        fundamental = _class_tops(
            up, [_canonical_labels(block_of[e] for e in ids) for block_of in labels]
        )
        # the kernel: whether each element lies in the block of an idempotent
        kernels = [
            tuple(map(blocks.__contains__, block_of))
            for block_of, blocks in zip(labels, id_blocks)
        ]
        e_disjunctive = _class_tops(up, kernels)
    else:
        fundamental = e_disjunctive = [None] * len(congruences)
    markers = tuple(
        _markers_for(table, block_of, len(ids), blocks, f, e)
        for block_of, blocks, f, e in zip(labels, id_blocks, fundamental, e_disjunctive)
    )
    return LatticeReport(g, congruences, markers, tuple(up), tuple(down))


def _require_sublattice(report: LatticeReport, subset: Sequence[int]) -> tuple[int, ...]:
    members = tuple(sorted(set(subset)))
    for i in members:
        if i not in range(len(report.congruences)):
            raise NotASublattice(f"index {i} names no congruence of this lattice")
    inside = set(members)
    for i in members:
        for j in members:
            if report.meet(i, j) not in inside or report.join(i, j) not in inside:
                raise NotASublattice(
                    f"subset is not closed under meet/join at indices ({i}, {j})"
                )
    return members


def is_modular_sublattice(report: LatticeReport, subset: Sequence[int]):
    """(True, None) when no pentagon embeds in the subset, else
    (False, witness) with witness = (bottom, low, side, high, top)."""
    members = _require_sublattice(report, subset)
    for o, a, b, c, i in itertools.permutations(members, 5):
        if not (
            report.leq(o, a)
            and report.leq(a, c)
            and report.leq(c, i)
            and report.leq(o, b)
            and report.leq(b, i)
        ):
            continue
        if (
            report.meet(a, b) == o
            and report.meet(c, b) == o
            and report.join(a, b) == i
            and report.join(c, b) == i
        ):
            return False, (o, a, b, c, i)
    return True, None


def satisfies_modular_law(report: LatticeReport, subset: Sequence[int]) -> bool:
    """x <= z implies join(x, meet(y, z)) = meet(join(x, y), z)."""
    members = _require_sublattice(report, subset)
    for x in members:
        for z in members:
            if not report.leq(x, z):
                continue
            for y in members:
                if report.join(x, report.meet(y, z)) != report.meet(report.join(x, y), z):
                    return False
    return True


def _ordered_pairs(rel: EquivRelation) -> frozenset:
    return frozenset(
        (a, b)
        for a in range(rel.order)
        for b in range(rel.order)
        if rel.related(a, b)
    )


def _compose(p, q) -> frozenset:
    by_first: dict = {}
    for b, c in q:
        by_first.setdefault(b, []).append(c)
    return frozenset((a, c) for a, b in p for c in by_first.get(b, ()))


def commuting_check(report: LatticeReport, subset: Sequence[int]) -> bool:
    """Relational composition commutes for every pair in the subset."""
    members = _require_sublattice(report, subset)
    pair_sets = {i: _ordered_pairs(report.congruences[i].rel) for i in members}
    return all(
        _compose(pair_sets[i], pair_sets[j])
        == _compose(pair_sets[j], pair_sets[i])
        for i in members
        for j in members
    )


@dataclass(frozen=True)
class TraceHomomorphism:
    """The restriction map from the congruence lattice onto the lattice
    of the idempotent semilattice, with a section witnessing ontoness."""

    source: LatticeReport
    target: LatticeReport
    image: tuple[int, ...]
    section: tuple[int, ...]


def trace_homomorphism(g: Groupoid) -> TraceHomomorphism:
    """Raises NotCompletelyInverse on a table that is not completely
    inverse."""
    require_completely_inverse(g)
    source = all_congruences(g)
    ids = idempotents(g)
    target = all_congruences(idempotent_semilattice(g))
    image = tuple(
        target.index_of(trace(c)) for c in source.congruences
    )
    # onto: rebuild a congruence from each idempotent relation, relating
    # a and b when the classes of a*a^-1 and b*b^-1 match under it
    section = tuple(
        source.index_of(_grouped_by_idempotent(g, dict(zip(ids, tau.rel.block_of))))
        for tau in target.congruences
    )
    return TraceHomomorphism(source, target, image, section)


def _congruence_at(report: LatticeReport, index: int) -> Congruence:
    if index not in range(len(report.congruences)):
        raise AlgebraError(f"index {index} names no congruence of this lattice")
    return report.congruences[index]


def trace_class(report: LatticeReport, index: int) -> tuple[int, ...]:
    """All congruences sharing a trace: the interval from trace_min to
    trace_max, modular and with commuting composition."""
    t = trace(_congruence_at(report, index))
    return tuple(
        i for i, c in enumerate(report.congruences) if trace(c) == t
    )


def kernel_class(report: LatticeReport, index: int) -> tuple[int, ...]:
    """All congruences sharing a kernel: the interval from kernel_min
    to kernel_max."""
    k = kernel(_congruence_at(report, index))
    return tuple(
        i for i, c in enumerate(report.congruences) if kernel(c) == k
    )


def fundamental_congruences(report: LatticeReport) -> tuple[int, ...]:
    """The congruences marked fundamental, the fixed points of trace_max;
    least member is the maximum idempotent-separating congruence,
    greatest is the top, and the trace map restricts to an order
    isomorphism onto the idempotent semilattice's congruence lattice.
    Raises NotCompletelyInverse on a table without the markers."""
    require_completely_inverse(report.groupoid)
    return tuple(i for i, m in enumerate(report.markers) if m.fundamental)


def normal_subgroupoids(g: Groupoid) -> tuple[frozenset, ...]:
    """Every normal subgroupoid, smallest first, by subset scan."""
    found = []
    for size in range(1, g.order + 1):
        for subset in itertools.combinations(g.elements, size):
            if is_normal(g, subset):
                found.append(frozenset(subset))
    return tuple(found)


def e_unitary_congruences(report: LatticeReport):
    """The congruences with E-unitary quotients, grouped by the normal
    subgroupoid that carries each family.

    Returns (members, families) where families maps each normal
    subgroupoid N to the interval from meet(rho_N, mu) to rho_N.
    """
    g = report.groupoid
    members = tuple(
        i for i, m in enumerate(report.markers) if m.e_unitary
    )
    mu_index = report.index_of(max_idempotent_separating(g).rel)
    families = []
    for n in normal_subgroupoids(g):
        rho_n = report.index_of(congruence_of_normal(g, n).rel)
        low = report.meet(rho_n, mu_index)
        interval = tuple(
            i for i in members
            if report.leq(low, i) and report.leq(i, rho_n)
        )
        families.append((n, interval))
    return members, tuple(families)


def format_lattice_report(report: LatticeReport) -> str:
    """Structured text: partitions, meet and join index tables, marker
    lines; deterministic for byte-exact comparison."""
    g = report.groupoid
    indices = [str(i) for i in range(len(report.congruences))]
    lines = ["congruences:"]
    for i, c in zip(indices, report.congruences):
        lines.append(f"  {i}: {format_partition(c.rel, g.names)}")
    for name, row in (("meet", report.meet_row), ("join", report.join_row)):
        lines.append(f"{name}:")
        for i in range(len(indices)):
            lines.append("  " + " ".join([indices[j] for j in row(i)]))
    lines.append("markers:")
    for i, m in zip(indices, report.markers):
        lines.append(f"  {i}: " + (" ".join(m.names()) or "-"))
    return "\n".join(lines) + "\n"
