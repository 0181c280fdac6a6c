"""Exhaustive congruence-lattice analysis for small carriers.

Every partition of the carrier is tested for compatibility, giving the
complete congruence lattice, per-congruence markers, and the derived
structure: trace and kernel classes (both are intervals), the trace
homomorphism onto the idempotent semilattice's lattice, fundamental
congruences, and the E-unitary families indexed by normal subgroupoids.

The congruences are sorted by decreasing number of blocks, so no
relation comes after one strictly above it. The report keeps the order
once, as `up` and `down` index masks that compare related-pair bit
masks, and computes meet and join on demand from them (see
`all_congruences`), without building any relation. The scan tests each
partition as a label tuple and builds a relation only for the
congruences.

On a completely inverse table the fundamental and E-disjunctive markers
are read off the same masks: a congruence is a fixed point of
`trace_max` (of `kernel_max`) exactly when it is the top of its trace
(kernel) class. The semilattice, ag-group and e-unitary markers stay
tests of the laws they name on the quotient: the battery checks the
closed forms of the least semilattice, AG-group and E-unitary
congruences against them, and a marker read as "lies above the closed
form" would make those checks restate themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

from .errors import AlgebraError, NotASublattice, OrderTooLarge
from .magma import (
    Groupoid,
    _is_e_unitary,
    idempotents,
    is_ag_group,
    is_completely_inverse,
    is_semilattice,
    require_completely_inverse,
    subgroupoid,
)
from .congruences import (
    Congruence,
    EquivRelation,
    _compatibility_witness,
    format_partition,
    kernel,
    quotient,
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
        return tuple(
            f.name.replace("_", "-") for f in fields(self) if getattr(self, f.name)
        )


@dataclass(frozen=True)
class LatticeReport:
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

    def index_of(self, rel: EquivRelation) -> int:
        for i, c in enumerate(self.congruences):
            if c.rel == rel:
                return i
        raise KeyError("relation is not a congruence of this lattice")

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.congruences) - 1


def _partition_labels(n: int) -> Iterator[tuple[int, ...]]:
    """The least-member `block_of` tuple of every partition of 0..n-1,
    in restricted-growth order: each element joins the blocks opened so
    far, by ascending least member, and then opens a new block."""
    if n < 1:
        raise AlgebraError(f"no partitions of a carrier of size {n}")

    def extend(prefix, leaders):
        i = len(prefix)
        if i == n:
            yield prefix
            return
        for b in leaders:
            yield from extend(prefix + (b,), leaders)
        yield from extend(prefix + (i,), leaders + (i,))

    return extend((0,), (0,))


def iter_partitions(n: int) -> Iterator[EquivRelation]:
    """All partitions of 0..n-1 in restricted-growth order."""
    return (EquivRelation(n, block_of) for block_of in _partition_labels(n))


def _markers_for(
    c: Congruence, fundamental: bool | None, e_disjunctive: bool | None
) -> CongruenceMarkers:
    g = c.groupoid
    ids = idempotents(g)
    labels = c.rel.block_of
    id_blocks = {labels[e] for e in ids}
    q = quotient(c).groupoid
    return CongruenceMarkers(
        idempotent_separating=len(id_blocks) == len(ids),
        idempotent_pure=not any(
            labels[a] in id_blocks for a in g.elements if a not in ids
        ),
        semilattice=is_semilattice(q),
        ag_group=is_ag_group(q),
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


def _pair_mask(rel: EquivRelation) -> int:
    """Bit a*n + b is set when a < b are related; containment of these
    masks is refinement of the relations."""
    return sum(1 << (a * rel.order + b) for a, b in rel.pairs())


def all_congruences(g: Groupoid, bound: int = 6) -> LatticeReport:
    """Filter every partition of the carrier; the default bound keeps
    the scan at 203 partitions or fewer.

    The scan tests each partition's label tuple against the table and
    builds a relation only for the congruences. They are sorted by
    (-number of blocks, block_of): the identity comes first, the
    universal relation last, and a congruence strictly above another
    has fewer blocks and so a larger index. The report keeps the `up`
    and `down` index masks, which compare bit masks of related pairs.
    Every common upper bound of i and j other than their join has fewer
    blocks than the join, so the join is the lowest index among the
    common upper bounds; dually, the meet is the highest index among
    the common lower bounds. `LatticeReport` computes both on demand.

    On a completely inverse table a congruence is fundamental when it
    is the top of its trace class, and E-disjunctive when it is the top
    of its kernel class; both classes are intervals, so these markers
    are read off the index masks too, keyed by `trace` and `kernel`.
    The semilattice, ag-group and e-unitary markers test the quotient,
    so that the battery checks comparing them with the closed-form
    least congruences (`thm-mu-least-semilattice`,
    `thm-sigma-least-ag-group`, `thm-pi-least-e-unitary`) compare two
    independent readings.
    """
    if g.order > bound:
        raise OrderTooLarge(
            f"order {g.order} exceeds the exhaustive-enumeration bound {bound}"
        )
    table = g.table
    labels = [
        block_of
        for block_of in _partition_labels(g.order)
        if _compatibility_witness(table, block_of) is None
    ]
    labels.sort(key=lambda block_of: (-len(set(block_of)), block_of))
    rels = [EquivRelation(g.order, block_of) for block_of in labels]
    # the scan has just tested each of these labels for compatibility
    congruences = tuple(Congruence._trusted(g, rel) for rel in rels)
    masks = [_pair_mask(rel) for rel in rels]
    # by the sort, a congruence lies below another only at an equal or
    # larger index, so each pair i <= j is compared once
    up = [0] * len(masks)
    down = [0] * len(masks)
    for j, q in enumerate(masks):
        for i in range(j + 1):
            if masks[i] | q == q:
                up[i] |= 1 << j
                down[j] |= 1 << i
    if is_completely_inverse(g):
        fundamental = _class_tops(up, [trace(c) for c in congruences])
        e_disjunctive = _class_tops(up, [kernel(c) for c in congruences])
    else:
        fundamental = e_disjunctive = [None] * len(congruences)
    markers = tuple(
        _markers_for(c, f, e)
        for c, f, e in zip(congruences, fundamental, e_disjunctive)
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
    source = all_congruences(g)
    ids = idempotents(g)
    target = all_congruences(subgroupoid(g, ids))
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


def trace_class(report: LatticeReport, index: int) -> tuple[int, ...]:
    """All congruences sharing a trace: the interval from trace_min to
    trace_max, modular and with commuting composition."""
    t = trace(report.congruences[index])
    return tuple(
        i for i, c in enumerate(report.congruences) if trace(c) == t
    )


def kernel_class(report: LatticeReport, index: int) -> tuple[int, ...]:
    """All congruences sharing a kernel: the interval from kernel_min
    to kernel_max."""
    k = kernel(report.congruences[index])
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
    lines = ["congruences:"]
    for i, c in enumerate(report.congruences):
        lines.append(f"  {i}: {format_partition(c.rel, g.names)}")
    indices = range(len(report.congruences))
    for name, op in (("meet", report.meet), ("join", report.join)):
        lines.append(f"{name}:")
        lines.extend("  " + " ".join(str(op(i, j)) for j in indices) for i in indices)
    lines.append("markers:")
    for i, m in enumerate(report.markers):
        names = m.names()
        lines.append(f"  {i}: " + (" ".join(names) if names else "-"))
    return "\n".join(lines) + "\n"
