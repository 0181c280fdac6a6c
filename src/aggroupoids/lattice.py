"""Exhaustive congruence-lattice analysis for small carriers.

Every partition of the carrier is tested for compatibility, giving the
complete congruence lattice with meet and join tables, per-congruence
markers, and the derived structure: trace and kernel classes (both are
intervals), the trace homomorphism onto the idempotent semilattice's
lattice, fundamental congruences, and the E-unitary families indexed by
normal subgroupoids.

The congruences are sorted by decreasing number of blocks, so no
relation comes after one strictly above it. The order table compares
related-pair bit masks, and the meet and join tables are read off the
sort order with bit operations on index masks (see `all_congruences`),
without building any relation. The quotient markers test only the laws
they name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import NotASublattice, OrderTooLarge
from .magma import (
    Groupoid,
    _ag_group_by_solutions,
    _is_e_unitary,
    classify,
    idempotents,
    is_associative,
    is_commutative,
    is_idempotent_table,
    is_left_invertive,
    subgroupoid,
)
from .congruences import (
    Congruence,
    EquivRelation,
    _canonical_labels,
    format_partition,
    is_congruence,
    kernel,
    quotient,
    trace,
)
from .canonical import (
    _compose,
    _ordered_pairs,
    ag_group_closure,
    kernel_max,
    kernel_min,
    least_e_unitary,
    max_idempotent_separating,
    trace_max,
    trace_min,
)
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

MARKER_NAMES = (
    "idempotent-separating",
    "idempotent-pure",
    "semilattice",
    "ag-group",
    "e-unitary",
    "fundamental",
    "e-disjunctive",
)


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
        values = (
            self.idempotent_separating,
            self.idempotent_pure,
            self.semilattice,
            self.ag_group,
            self.e_unitary,
            self.fundamental,
            self.e_disjunctive,
        )
        return tuple(n for n, v in zip(MARKER_NAMES, values) if v)


@dataclass(frozen=True)
class LatticeReport:
    groupoid: Groupoid
    congruences: tuple[Congruence, ...]
    markers: tuple[CongruenceMarkers, ...]
    leq: tuple[tuple[bool, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]

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


def iter_partitions(n: int) -> Iterator[EquivRelation]:
    """All partitions of 0..n-1 in restricted-growth order."""
    labels = [0] * n

    def rec(i: int, used: int):
        if i == n:
            yield EquivRelation(n, _canonical_labels(labels))
            return
        for v in range(used + 1):
            labels[i] = v
            yield from rec(i + 1, used + (1 if v == used else 0))

    yield from rec(1, 1)


def _markers_for(c: Congruence, completely_inverse: bool) -> CongruenceMarkers:
    g = c.groupoid
    ids = idempotents(g)
    separating = all(
        not c.related(e, f) for e, f in itertools.combinations(ids, 2)
    )
    id_set = set(ids)
    pure = all(
        set(block) <= id_set
        for block in c.rel.blocks()
        if set(block) & id_set
    )
    q = quotient(c).groupoid
    fundamental = None
    e_disjunctive = None
    if completely_inverse:
        fundamental = trace_max(c).rel == c.rel
        e_disjunctive = kernel_max(c).rel == c.rel
    return CongruenceMarkers(
        idempotent_separating=separating,
        idempotent_pure=pure,
        semilattice=is_idempotent_table(q) and is_commutative(q) and is_associative(q),
        ag_group=is_left_invertive(q) and _ag_group_by_solutions(q),
        e_unitary=_is_e_unitary(q),
        fundamental=fundamental,
        e_disjunctive=e_disjunctive,
    )


def _pair_mask(rel: EquivRelation) -> int:
    """Bit a*n + b is set when a < b are related; containment of these
    masks is refinement of the relations."""
    return sum(1 << (a * rel.order + b) for a, b in rel.pairs())


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def all_congruences(g: Groupoid, bound: int = 6) -> LatticeReport:
    """Filter every partition of the carrier; the default bound keeps
    the scan at 203 partitions or fewer.

    Congruences are sorted by (-number of blocks, block_of): the
    identity comes first, the universal relation last, and a congruence
    strictly above another has fewer blocks and so a larger index. The
    order table compares bit masks of related pairs. Every common upper
    bound of i and j other than their join has fewer blocks than the
    join, so the join is the lowest index among the common upper
    bounds; dually, the meet is the highest index among the common
    lower bounds. Both are read off index masks with bit operations.
    """
    if g.order > bound:
        raise OrderTooLarge(
            f"order {g.order} exceeds the exhaustive-enumeration bound {bound}"
        )
    rels = [rel for rel in iter_partitions(g.order) if is_congruence(g, rel)]
    rels.sort(key=lambda rel: (-rel.num_blocks, rel.block_of))
    congruences = tuple(Congruence(g, rel) for rel in rels)
    masks = [_pair_mask(rel) for rel in rels]
    leq = tuple(tuple(p | q == q for q in masks) for p in masks)
    up = [sum(1 << j for j, above in enumerate(row) if above) for row in leq]
    down = [
        sum(1 << i for i, row in enumerate(leq) if row[j]) for j in range(len(rels))
    ]
    meet = tuple(tuple((d & e).bit_length() - 1 for e in down) for d in down)
    join = tuple(tuple(_lowest_bit(u & v) for v in up) for u in up)
    completely_inverse = classify(g).is_completely_inverse
    markers = tuple(_markers_for(c, completely_inverse) for c in congruences)
    return LatticeReport(g, congruences, markers, leq, meet, join)


def _require_sublattice(report: LatticeReport, subset: Sequence[int]) -> tuple[int, ...]:
    members = tuple(sorted(set(subset)))
    inside = set(members)
    for i in members:
        for j in members:
            if report.meet[i][j] not in inside or report.join[i][j] not in inside:
                raise NotASublattice(
                    f"subset is not closed under meet/join at indices ({i}, {j})"
                )
    return members


def is_modular_sublattice(report: LatticeReport, subset: Sequence[int]):
    """(True, None) when no pentagon embeds in the subset, else
    (False, witness) with witness = (bottom, low, side, high, top)."""
    members = _require_sublattice(report, subset)
    witness = None
    for o, a, b, c, i in itertools.permutations(members, 5):
        if not (
            report.leq[o][a]
            and report.leq[a][c]
            and report.leq[c][i]
            and report.leq[o][b]
            and report.leq[b][i]
        ):
            continue
        if (
            report.meet[a][b] == o
            and report.meet[c][b] == o
            and report.join[a][b] == i
            and report.join[c][b] == i
        ):
            witness = (o, a, b, c, i)
            break
    # pentagon-freeness and the modular law must agree
    assert (witness is None) == satisfies_modular_law(report, members)
    return witness is None, witness


def satisfies_modular_law(report: LatticeReport, subset: Sequence[int]) -> bool:
    """x <= z implies join(x, meet(y, z)) = meet(join(x, y), z)."""
    members = _require_sublattice(report, subset)
    for x in members:
        for z in members:
            if not report.leq[x][z]:
                continue
            for y in members:
                if report.join[x][report.meet[y][z]] != report.meet[report.join[x][y]][z]:
                    return False
    return True


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


def trace_homomorphism(g: Groupoid, bound: int = 6) -> TraceHomomorphism:
    source = all_congruences(g, bound)
    ids = idempotents(g)
    target = all_congruences(subgroupoid(g, ids), bound)
    image = tuple(
        target.index_of(trace(c)) for c in source.congruences
    )
    # complete lattice homomorphism: meets and joins pass through
    size = len(source.congruences)
    for i in range(size):
        for j in range(size):
            assert image[source.meet[i][j]] == target.meet[image[i]][image[j]]
            assert image[source.join[i][j]] == target.join[image[i]][image[j]]
    # onto: rebuild a congruence from each idempotent relation
    section = []
    for t, tau in enumerate(target.congruences):
        lifted = _lift_idempotent_relation(g, ids, tau.rel)
        s = source.index_of(lifted)
        assert image[s] == t
        section.append(s)
    return TraceHomomorphism(source, target, image, tuple(section))


def _lift_idempotent_relation(g: Groupoid, ids, tau: EquivRelation) -> EquivRelation:
    # relate a, b when the classes of a*a^-1 and b*b^-1 match under tau
    from .magma import require_completely_inverse

    inverse = require_completely_inverse(g)
    position = {e: k for k, e in enumerate(ids)}
    grouped: dict = {}
    for a in g.elements:
        key = tau.block_of[position[g.table[a][inverse[a]]]]
        grouped.setdefault(key, []).append(a)
    return EquivRelation.from_blocks(g.order, grouped.values())


def trace_class(report: LatticeReport, index: int) -> tuple[int, ...]:
    """All congruences sharing a trace: the interval from trace_min to
    trace_max, modular and with commuting composition."""
    rho = report.congruences[index]
    t = trace(rho)
    members = tuple(
        i for i, c in enumerate(report.congruences) if trace(c) == t
    )
    low = report.index_of(trace_min(rho).rel)
    high = report.index_of(trace_max(rho).rel)
    assert members == tuple(
        i for i in range(len(report.congruences))
        if report.leq[low][i] and report.leq[i][high]
    )
    assert is_modular_sublattice(report, members)[0]
    assert commuting_check(report, members)
    return members


def kernel_class(report: LatticeReport, index: int) -> tuple[int, ...]:
    """All congruences sharing a kernel: the interval from kernel_min
    to kernel_max."""
    rho = report.congruences[index]
    k = kernel(rho)
    members = tuple(
        i for i, c in enumerate(report.congruences) if kernel(c) == k
    )
    low = report.index_of(kernel_min(rho).rel)
    high = report.index_of(kernel_max(rho).rel)
    assert members == tuple(
        i for i in range(len(report.congruences))
        if report.leq[low][i] and report.leq[i][high]
    )
    return members


def fundamental_congruences(report: LatticeReport) -> tuple[int, ...]:
    """Fixed points of trace_max; least member is the maximum
    idempotent-separating congruence, greatest is the top, and the
    trace map restricts to an order isomorphism onto the idempotent
    semilattice's congruence lattice."""
    g = report.groupoid
    members = tuple(
        i for i, c in enumerate(report.congruences)
        if trace_max(c).rel == c.rel
    )
    assert members[0] == report.index_of(max_idempotent_separating(g).rel)
    assert members[-1] == report.top
    ids = idempotents(g)
    target = all_congruences(subgroupoid(g, ids))
    images = [target.index_of(trace(report.congruences[i])) for i in members]
    assert sorted(images) == list(range(len(target.congruences)))
    for a, i in zip(members, images):
        for b, j in zip(members, images):
            assert report.leq[a][b] == target.leq[i][j]
    return members


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
    assert members
    assert members[0] == report.index_of(least_e_unitary(g).rel)
    mu_index = report.index_of(max_idempotent_separating(g).rel)
    families = []
    covered = set()
    for n in normal_subgroupoids(g):
        rho_n = report.index_of(congruence_of_normal(g, n).rel)
        low = report.meet[rho_n][mu_index]
        interval = tuple(
            i for i in members
            if report.leq[low][i] and report.leq[i][rho_n]
        )
        expected = tuple(
            i for i in members
            if kernel(ag_group_closure(report.congruences[i])) == n
        )
        assert interval == expected
        families.append((n, interval))
        covered.update(interval)
    assert covered == set(members)
    return members, tuple(families)


def format_lattice_report(report: LatticeReport) -> str:
    """Structured text: partitions, meet and join index tables, marker
    lines; deterministic for byte-exact comparison."""
    g = report.groupoid
    lines = ["congruences:"]
    for i, c in enumerate(report.congruences):
        lines.append(f"  {i}: {format_partition(c.rel, g.names)}")
    lines.append("meet:")
    for row in report.meet:
        lines.append("  " + " ".join(str(v) for v in row))
    lines.append("join:")
    for row in report.join:
        lines.append("  " + " ".join(str(v) for v in row))
    lines.append("markers:")
    for i, m in enumerate(report.markers):
        names = m.names()
        lines.append(f"  {i}: " + (" ".join(names) if names else "-"))
    return "\n".join(lines) + "\n"
