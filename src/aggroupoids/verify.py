"""Executable checks for the theory behind the library.

Every structural claim the code relies on is registered here as a
small exhaustive test over the enumerated universe of tables plus a
handful of fixed carriers. A failing check reports the offending table
in the interchange format, so each counterexample replays directly.

Each check names one universe, a key of `_UNIVERSES`, which maps it to
the check's instances: carriers, (carrier, report, index) triples over
their congruences, subsets, or orders. The check body tests a single
instance and returns its finding or None; `_check` wires the body to
its universe, and `_each` attaches the carrier's table to a returned or
raised finding, so no check iterates its own instances or formats its
own counterexample.

Checks resolve the canonical operators through their modules at call
time; swapping one out (to validate the suite itself) makes the
matching check fail rather than crash.

Four helpers hold the check shapes that recur: `_is_least` and
`_is_greatest` (a closed form is the extreme marked congruence),
`_between` (the interval of a lattice), `_relates_exactly` (a relation
relates a and b exactly when a rule holds) and `_central_idempotents`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import canonical as _canonical
from . import congruences as _congruences
from . import lattice as _lattice
from . import magma as _magma
from . import structure as _structure
from .congruences import EquivRelation
from .enumeration import EnumerationSpec, census, enumerate_groupoids
from .errors import AlgebraError, BoundExceeded, NotCompletelyInverse
from .magma import Groupoid, format_mag, idempotents, inverses_of
from .samples import (
    chain_semilattice,
    collapsing_strong_semilattice,
    cyclic_group,
    inverse_monoid4,
    subtraction_mod,
    vee_semilattice,
)

__all__ = ["TheoremCheck", "CheckResult", "checks", "run_all"]


@dataclass(frozen=True)
class TheoremCheck:
    check_id: str
    statement: str
    universe: str


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    instances: int
    detail: str = ""


_REGISTRY: list = []


class _Context:
    """Lazily built families, fixtures and lattices, shared by all checks
    of one run: the carriers live as long as the run, and so do the facts
    they keep."""

    def __init__(self, bound):
        self.bound = bound
        self._families: dict = {}
        self._lattices: dict = {}

    def family(self, class_filter):
        if class_filter not in self._families:
            members = []
            for n in range(1, self.bound + 1):
                members.extend(enumerate_groupoids(EnumerationSpec(n, class_filter)))
            self._families[class_filter] = tuple(members)
        return self._families[class_filter]

    @functools.cached_property
    def fixtures(self):
        """The six named carriers, beside the enumerated families."""
        return (
            inverse_monoid4(),
            subtraction_mod(3),
            cyclic_group(3),
            chain_semilattice(3),
            vee_semilattice(),
            _structure.compose(collapsing_strong_semilattice()),
        )

    def lattice(self, g):
        key = (g.names, g.table)
        if key not in self._lattices:
            self._lattices[key] = _lattice.all_congruences(g)
        return self._lattices[key]


# --- the universes: each check's instances, by universe name ---


def _completely_inverse(ctx):
    return ctx.family("completely-inverse") + ctx.fixtures


def _congruences_of(ctx):
    """(g, report, index) for every congruence of every carrier."""
    for g in _completely_inverse(ctx):
        report = ctx.lattice(g)
        for i in range(len(report.congruences)):
            yield g, report, i


def _congruence_pairs(ctx):
    """(g, report, i, j) for every pair of congruences of one carrier."""
    for g, report, i in _congruences_of(ctx):
        for j in range(len(report.congruences)):
            yield g, report, i, j


def _closed_subgroupoids(ctx):
    """(g, natural order, subset) for every completely inverse
    subgroupoid of every carrier."""
    for g in _completely_inverse(ctx):
        order = _structure.natural_order(g)
        for size in range(1, g.order + 1):
            for subset in itertools.combinations(g.elements, size):
                members = set(subset)
                if all(g.mul(a, b) in members for a in subset for b in subset):
                    part = _magma.subgroupoid(g, subset)
                    if _magma.is_completely_inverse(part):
                        yield g, order, subset


def _subsets(ctx):
    """(g, report, subset) for every nonempty subset of every two-law table."""
    for g in ctx.family("ag-star-star"):
        report = ctx.lattice(g)
        for size in range(1, g.order + 1):
            for subset in itertools.combinations(g.elements, size):
                yield g, report, subset


_UNIVERSES = {
    "ag": lambda ctx: ctx.family("ag"),
    "ag-star-star": lambda ctx: ctx.family("ag-star-star"),
    "ag-group": lambda ctx: ctx.family("ag-group"),
    "ag-star-star and fixtures": lambda ctx: ctx.family("ag-star-star") + ctx.fixtures,
    "completely-inverse": _completely_inverse,
    "commutative-inverse": lambda ctx: tuple(
        g for g in _completely_inverse(ctx) if _magma.is_commutative(g)
    ),
    "completely-inverse x congruences": _congruences_of,
    "completely-inverse x congruence pairs": _congruence_pairs,
    "completely-inverse x subgroupoids": _closed_subgroupoids,
    "ag-star-star x subsets": _subsets,
    # the four-element inverse monoid
    "fixture": lambda ctx: ctx.fixtures[:1],
    "engine": lambda ctx: range(2, min(ctx.bound, 4) + 1),
}


def _each(items, fn):
    """Run fn over items; fn returns its finding or None.

    An item is a carrier g, a tuple (g, ...) of fn's arguments, or an
    order. A returned finding and a raised one both fail the check at
    that instance, and both get g's table attached when there is one, so
    every detail replays as a counterexample.
    """
    count = 0
    for item in items:
        args = item if isinstance(item, tuple) else (item,)
        count += 1
        try:
            message = fn(*args)
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
        if message is not None:
            if isinstance(args[0], Groupoid):
                message = f"{message}\n{format_mag(args[0]).rstrip()}"
            return False, count, message
    return True, count, ""


def _check(check_id, statement, universe):
    """Register body(ctx, *instance) -> finding | None over the universe."""
    instances = _UNIVERSES[universe]

    def wrap(body):
        def run(ctx):
            return _each(instances(ctx), functools.partial(body, ctx))

        _REGISTRY.append((TheoremCheck(check_id, statement, universe), run))
        return body

    return wrap


def checks() -> tuple[TheoremCheck, ...]:
    return tuple(tc for tc, _ in _REGISTRY)


def _marked(report, name):
    return tuple(
        i for i, m in enumerate(report.markers) if getattr(m, name)
    )


def _least_of(report, indices):
    for i in indices:
        if all(report.leq(i, j) for j in indices):
            return i
    return None


def _greatest_of(report, indices):
    for i in indices:
        if all(report.leq(j, i) for j in indices):
            return i
    return None


def _is_least(report, marker, rel):
    """rel is the least of the congruences marked `marker`."""
    least = _least_of(report, _marked(report, marker))
    return least is not None and report.congruences[least].rel == rel


def _is_greatest(report, marker, rel):
    """rel is the greatest of the congruences marked `marker`."""
    greatest = _greatest_of(report, _marked(report, marker))
    return greatest is not None and report.congruences[greatest].rel == rel


def _between(report, low, high):
    """The indices of the congruences from index low up to index high."""
    return tuple(
        j for j in range(len(report.congruences)) if report.leq(low, j) and report.leq(j, high)
    )


def _relates_exactly(g, rel, rule):
    """rel relates a and b exactly when rule(a, b), for all a, b of g."""
    return all(rel.related(a, b) == rule(a, b) for a in g.elements for b in g.elements)


def _central_idempotents(g):
    """Every idempotent of g commutes with every element."""
    return all(g.mul(e, a) == g.mul(a, e) for e in idempotents(g) for a in g.elements)


def _sandwich(outer, inner):
    """The related pairs of outer o inner o outer."""
    around = _lattice._ordered_pairs(outer)
    return _lattice._compose(
        _lattice._compose(around, _lattice._ordered_pairs(inner)), around
    )


def _saturates(rel, members):
    """members is a union of blocks: each element is a member exactly
    when the least member of its block is."""
    inside = set(members)
    return all((x in inside) == (b in inside) for x, b in enumerate(rel.block_of))


def _join_preserves(report, i, j, c):
    """None when joining with c preserves the meet and join of i and j."""
    s = report.index_of(c.rel)
    if report.join(report.meet(i, j), s) != report.meet(
        report.join(i, s), report.join(j, s)
    ):
        return "meet is not preserved"
    if report.join(report.join(i, j), s) != report.join(
        report.join(i, s), report.join(j, s)
    ):
        return "join is not preserved"
    return None


def _class_mirror(ctx, report, members, bottom, marker, name, target):
    """None when the class members map onto the congruences marked
    `marker` in the quotient by bottom, as an order isomorphism."""
    mirror = ctx.lattice(_congruences.quotient(bottom))
    marked = set(_marked(mirror, marker))
    images = [
        mirror.index_of(
            _congruences.induced_congruence(report.congruences[j], bottom).rel
        )
        for j in members
    ]
    if set(images) != marked or len(images) != len(marked):
        return f"{name} class does not mirror {target}"
    for a, j in zip(images, members):
        for b, k in zip(images, members):
            if report.leq(j, k) != mirror.leq(a, b):
                return f"{name} class mirror is not an order isomorphism"
    return None


# --- the defining laws and their consequences ---


@_check(
    "thm-medial",
    "every left invertive table satisfies (ab)(cd) = (ac)(bd)",
    "ag",
)
def _(ctx, g):
    return None if _magma.is_medial(g) else "medial law fails"


@_check(
    "thm-paramedial",
    "every table with both defining laws satisfies (ab)(cd) = (db)(ca)",
    "ag-star-star",
)
def _(ctx, g):
    return None if _magma.is_paramedial(g) else "paramedial law fails"


@_check(
    "thm-left-identity-upgrades",
    "a left invertive table with a left identity satisfies the second defining law",
    "ag",
)
def _(ctx, g):
    if _magma.left_identities(g) and not _magma.is_ag_star_star(g):
        return "left identity without the second law"
    return None


@_check(
    "thm-idempotents-form-semilattice",
    "the idempotents of any two-law table form a commutative band under the "
    "induced product",
    "ag-star-star",
)
def _(ctx, g):
    if not idempotents(g):
        return None
    sub = _magma.idempotent_semilattice(g)
    if not _magma.is_semilattice(sub):
        return "idempotent part is not a semilattice"
    return None


@_check(
    "thm-ag-group-characterizations",
    "with a left identity, unique solvability of xa = b and existence of "
    "left inverses coincide; the group case has exactly one idempotent",
    "ag",
)
def _(ctx, g):
    if not _magma.left_identities(g):
        return None
    by_solutions = _magma._ag_group_by_solutions(g.table)
    by_inverses = _magma._ag_group_by_inverses(g)
    if by_solutions != by_inverses:
        return "the two group characterizations disagree"
    if by_solutions:
        e = _magma.ag_group_left_identity(g)
        if idempotents(g) != (e,):
            return "group table with more than one idempotent"
        if _magma.left_identities(g) != (e,):
            return "group table with more than one left identity"
    return None


@_check(
    "thm-single-idempotent-ag-group",
    "a completely inverse carrier with exactly one idempotent is an AG-group",
    "completely-inverse",
)
def _(ctx, g):
    if len(idempotents(g)) == 1 and not _magma.is_ag_group(g):
        return "single idempotent but not a group"
    return None


@_check(
    "thm-idempotent-classes-contain-idempotents",
    "in every congruence class that squares into itself there is an "
    "idempotent, so the two kernel readings agree",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    c = report.congruences[i]
    by_class = frozenset(
        a
        for a in g.elements
        if any(c.related(a, e) for e in idempotents(g))
    )
    by_square = frozenset(
        a for a in g.elements if c.related(a, g.mul(a, a))
    )
    if by_class != by_square:
        return f"kernel readings disagree on {c.partition_text()}"
    if _congruences.kernel(c) != by_class:
        return "kernel helper disagrees with both readings"
    return None


# --- the canonical component congruence ---


@_check(
    "thm-mu-greatest-idempotent-separating",
    "grouping by a a^-1 gives the greatest congruence whose restriction to "
    "the idempotents is trivial",
    "completely-inverse",
)
def _(ctx, g):
    mu = _canonical.max_idempotent_separating(g)
    report = ctx.lattice(g)
    if not _is_greatest(report, "idempotent_separating", mu.rel):
        return "computed relation is not the greatest separating one"
    # the greatest marked congruence carries the marker, so mu separates idempotents
    return None


@_check(
    "thm-mu-least-semilattice",
    "the same relation is the least congruence with a semilattice quotient",
    "completely-inverse",
)
def _(ctx, g):
    mu = _canonical.max_idempotent_separating(g)
    report = ctx.lattice(g)
    if not _is_least(report, "semilattice", mu.rel):
        least = _least_of(report, _marked(report, "semilattice"))
        found = report.congruences[least].partition_text() if least is not None else "none"
        return (
            "computed relation disagrees with the scan: "
            f"got {mu.partition_text()}, least semilattice congruence is {found}"
        )
    return None


@_check(
    "thm-mu-classes-ag-groups",
    "every class of the component congruence is an AG-group",
    "completely-inverse",
)
def _(ctx, g):
    mu = _canonical.max_idempotent_separating(g)
    for block in mu.rel.blocks():
        part = _magma.subgroupoid(g, block)
        if not _magma.is_ag_group(part):
            return f"class {block} is not a group"
    return None


@_check(
    "thm-idempotents-mirror-components",
    "the idempotent semilattice is isomorphic to the quotient by the "
    "component congruence",
    "completely-inverse",
)
def _(ctx, g):
    mu = _canonical.max_idempotent_separating(g)
    ids = idempotents(g)
    if len(ids) != mu.rel.num_blocks:
        return "component count differs from idempotent count"
    q = _congruences.quotient(mu)
    block = {e: q.index(g.names[mu.rel.block_of[e]]) for e in ids}
    e_of_block = {b: e for e, b in block.items()}
    if len(e_of_block) != len(ids):
        return "two idempotents share a component"
    for x in ids:
        for y in ids:
            if g.mul(x, y) != e_of_block[q.mul(block[x], block[y])]:
                return "idempotent table differs from the component table"
    return None


@_check(
    "thm-idempotent-separating-interval-modular",
    "the idempotent-separating congruences form a modular interval with "
    "commuting composition",
    "completely-inverse",
)
def _(ctx, g):
    report = ctx.lattice(g)
    separating = _marked(report, "idempotent_separating")
    modular, witness = _lattice.is_modular_sublattice(report, separating)
    if not modular:
        return f"pentagon {witness} inside the separating interval"
    if not _lattice.commuting_check(report, separating):
        return "separating congruences do not commute"
    return None


@_check(
    "thm-ag-group-lattice-modular",
    "the congruence lattice of an AG-group is modular",
    "ag-group",
)
def _(ctx, g):
    report = ctx.lattice(g)
    whole = range(len(report.congruences))
    modular, witness = _lattice.is_modular_sublattice(report, whole)
    if not modular:
        return f"pentagon {witness} in a group congruence lattice"
    return None


# --- strong semilattice structure ---


@_check(
    "thm-structure-equivalence",
    "a two-law table decomposes into a strong semilattice of AG-groups "
    "exactly when it is completely inverse, and composition restores it",
    "ag-star-star and fixtures",
)
def _(ctx, g):
    complete = _magma.is_completely_inverse(g)
    try:
        s = _structure.decompose(g)
    except NotCompletelyInverse:
        if complete:
            return "decomposition rejected a completely inverse table"
        return None
    if not complete:
        return "decomposition accepted a non completely inverse table"
    if not _magma.same_operation(g, _structure.compose(s)):
        return "round trip changed the operation"
    return None


@_check(
    "thm-central-idempotents-give-commutative",
    "central idempotents force the whole carrier to be a commutative "
    "semigroup with abelian components",
    "completely-inverse",
)
def _(ctx, g):
    if not _central_idempotents(g):
        return None
    if not (_magma.is_commutative(g) and _magma.is_associative(g)):
        return "central idempotents but not a commutative semigroup"
    return None


@_check(
    "thm-central-idempotents-criterion",
    "idempotents are central exactly when a = a(a^-1 a) holds everywhere",
    "completely-inverse",
)
def _(ctx, g):
    inv = _magma.require_completely_inverse(g)
    pointwise = all(
        g.mul(a, g.mul(inv[a], a)) == a for a in g.elements
    )
    if _central_idempotents(g) != pointwise:
        return "centrality criterion fails"
    return None


@_check(
    "thm-squares-form-clifford",
    "the squares form a commutative semigroup of the same idempotents, "
    "completely inverse with central idempotents",
    "completely-inverse",
)
def _(ctx, g):
    part = _structure.square_part(g)
    if not (_magma.is_commutative(part) and _magma.is_associative(part)):
        return "squares are not a commutative semigroup"
    if set(idempotents(part)) != {
        part.index(g.names[e]) for e in idempotents(g)
    }:
        return "squares lost or gained idempotents"
    if not _magma.is_completely_inverse(part):
        return "squares are not completely inverse"
    # part is commutative, so its idempotents are central
    return None


@_check(
    "thm-derived-operation",
    "twisting a commutative inverse semigroup by a b = a^-1 b yields a "
    "completely inverse carrier with the same idempotents and self-inverse "
    "elements",
    "commutative-inverse",
)
def _(ctx, g):
    derived = _structure.derived_groupoid(g)
    if not _magma.is_completely_inverse(derived):
        return "twisted table is not completely inverse"
    if idempotents(derived) != idempotents(g):
        return "twisting changed the idempotents"
    if any(inverses_of(derived, a) != (a,) for a in derived.elements):
        return "twisted elements are not self-inverse"
    return None


# --- the natural partial order ---


@_check(
    "thm-natural-order-partial",
    "multiplication by idempotents induces a compatible partial order that "
    "inversion preserves",
    "completely-inverse",
)
def _(ctx, g):
    inv = _magma.require_completely_inverse(g)
    order = _structure.natural_order(g)
    if not all(order.leq(a, a) for a in g.elements):
        return "the order is not reflexive"
    for a, b in order.pairs:
        if a != b and order.leq(b, a):
            return "the order is not antisymmetric"
        if (inv[a], inv[b]) not in order.pairs:
            return "inversion breaks the order"
        for c in g.elements:
            if order.leq(b, c) and not order.leq(a, c):
                return "the order is not transitive"
            if not order.leq(g.mul(a, c), g.mul(b, c)):
                return "right multiplication breaks the order"
            if not order.leq(g.mul(c, a), g.mul(c, b)):
                return "left multiplication breaks the order"
    return None


@_check(
    "thm-order-trivial-on-components",
    "two comparable elements of one component are equal",
    "completely-inverse",
)
def _(ctx, g):
    mu = _canonical.max_idempotent_separating(g)
    order = _structure.natural_order(g)
    for a, b in order.pairs:
        if a != b and mu.related(a, b):
            return f"order is not trivial on the component of {g.names[a]}"
    return None


@_check(
    "thm-upward-closure-closed",
    "the upward closure of a completely inverse subgroupoid is a closed "
    "completely inverse subgroupoid",
    "completely-inverse x subgroupoids",
)
def _(ctx, g, order, subset):
    up = _structure.upward_closure(g, subset)
    if up != {a for a in g.elements if any(order.leq(b, a) for b in subset)}:
        return "closure disagrees with the natural order"
    if not all(g.mul(a, b) in up for a in up for b in up):
        return "closure is not a subgroupoid"
    part = _magma.subgroupoid(g, sorted(up))
    if not _magma.is_completely_inverse(part):
        return "closure is not completely inverse"
    if _structure.upward_closure(g, up) != up:
        return "closure is not closed"
    return None


@_check(
    "thm-idempotent-products-commute",
    "a product that lands in the idempotents equals the reversed product",
    "completely-inverse",
)
def _(ctx, g):
    ids = set(idempotents(g))
    for a in g.elements:
        for b in g.elements:
            if g.mul(a, b) in ids and g.mul(a, b) != g.mul(b, a):
                return f"{g.names[a]} {g.names[b]} commutation fails"
    return None


# --- kernel and trace ---


@_check(
    "thm-kernel-trace",
    "a congruence is reconstructed exactly from its kernel and trace",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    c = report.congruences[i]
    rebuilt = _congruences.from_kernel_trace(
        g, _congruences.kernel(c), _congruences.trace(c)
    )
    if rebuilt.rel != c.rel:
        return f"reconstruction changed {c.partition_text()}"
    return None


@_check(
    "thm-containment-transfer",
    "containment of congruences is equivalent to containment of kernels "
    "together with containment of traces",
    "completely-inverse x congruence pairs",
)
def _(ctx, g, report, i, j):
    rho, gamma = report.congruences[i], report.congruences[j]
    direct = report.leq(i, j)
    transferred = _congruences.kernel(rho) <= _congruences.kernel(gamma) and (
        _congruences.trace(rho).leq(_congruences.trace(gamma))
    )
    if direct != transferred:
        return f"transfer fails for {rho.partition_text()} vs {gamma.partition_text()}"
    return None


@_check(
    "thm-congruence-pair-bijection",
    "valid kernel-trace pairs and congruences are in bijection",
    "completely-inverse",
)
def _(ctx, g):
    report = ctx.lattice(g)
    ids = idempotents(g)
    valid = []
    for size in range(1, g.order + 1):
        for subset in itertools.combinations(g.elements, size):
            for tau in _lattice.iter_partitions(len(ids)):
                if _congruences.is_congruence_pair(g, subset, tau):
                    valid.append((frozenset(subset), tau))
    if len(valid) != len(report.congruences):
        return f"{len(valid)} valid pairs against {len(report.congruences)} congruences"
    inv = _magma.require_completely_inverse(g)
    index_of = {e: k for k, e in enumerate(ids)}
    for kernel_part, tau in valid:
        built = _congruences.from_kernel_trace(g, kernel_part, tau)
        if not _relates_exactly(
            g,
            built,
            lambda a, b: g.mul(a, inv[b]) in kernel_part
            and tau.related(index_of[g.mul(a, inv[a])], index_of[g.mul(b, inv[b])]),
        ):
            return "the kernel-trace rule is not an equivalence"
        if _congruences.kernel(built) != kernel_part:
            return "reconstruction moved the kernel"
        if _congruences.trace(built) != tau:
            return "reconstruction moved the trace"
    return None


# --- the least AG-group congruence ---


@_check(
    "thm-unitary-left-right",
    "the idempotents absorb on the left exactly when they absorb on the right",
    "ag-star-star",
)
def _(ctx, g):
    ids = set(idempotents(g))
    if not ids:
        return None
    left = all(
        a in ids
        for e in ids
        for a in g.elements
        if g.mul(e, a) in ids
    )
    right = all(
        a in ids
        for e in ids
        for a in g.elements
        if g.mul(a, e) in ids
    )
    if left != right:
        return "one-sided absorption"
    if left != _magma._is_e_unitary(g.table):
        return "absorption disagrees with the unitary test"
    return None


@_check(
    "thm-sigma-least-ag-group",
    "identifying elements merged by some idempotent gives the least "
    "congruence with a group quotient, and its kernel is the upward "
    "closure of the idempotents",
    "completely-inverse",
)
def _(ctx, g):
    sigma = _canonical.least_ag_group_congruence(g)
    if not _is_least(ctx.lattice(g), "ag_group", sigma.rel):
        return "scan finds a different least group congruence"
    closure = _structure.upward_closure(g, idempotents(g))
    if _congruences.kernel(sigma) != closure:
        return "kernel is not the closure of the idempotents"
    inv = _magma.require_completely_inverse(g)
    if not _relates_exactly(g, sigma, lambda a, b: g.mul(a, inv[b]) in closure):
        return "quotient-by-inverse criterion fails"
    return None


@_check(
    "thm-idempotent-pure-inside-sigma",
    "every congruence whose idempotent classes are purely idempotent is "
    "contained in the least group congruence",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    if not report.markers[i].idempotent_pure:
        return None
    sigma = _canonical.least_ag_group_congruence(g)
    if not report.congruences[i].rel.leq(sigma.rel):
        return "pure congruence escapes the group congruence"
    return None


@_check(
    "thm-group-congruences-interval",
    "the group congruences form the modular interval above the least one, "
    "mirrored by the quotient's lattice",
    "completely-inverse",
)
def _(ctx, g):
    report = ctx.lattice(g)
    groups = set(_marked(report, "ag_group"))
    sigma = _canonical.least_ag_group_congruence(g)
    s = report.index_of(sigma.rel)
    if groups != {j for j in range(len(report.congruences)) if report.leq(s, j)}:
        return "group congruences are not the upper interval"
    modular, witness = _lattice.is_modular_sublattice(report, sorted(groups))
    if not modular:
        return f"pentagon {witness} among group congruences"
    mirror = ctx.lattice(_congruences.quotient(sigma))
    if len(mirror.congruences) != len(groups):
        return "quotient lattice size disagrees"
    return None


@_check(
    "thm-normal-subgroupoid-bijection",
    "normal subgroupoids correspond one to one with group congruences, "
    "matching kernels, and the correspondence preserves meets",
    "completely-inverse",
)
def _(ctx, g):
    report = ctx.lattice(g)
    normals = _lattice.normal_subgroupoids(g)
    groups = _marked(report, "ag_group")
    if len(normals) != len(groups):
        return "counts disagree"
    for n in normals:
        rho_n = _structure.congruence_of_normal(g, n)
        if _congruences.kernel(rho_n) != n:
            return "kernel moved"
        if report.index_of(rho_n.rel) not in groups:
            return "image is not a group congruence"
    for i in groups:
        k = _congruences.kernel(report.congruences[i])
        if k not in normals:
            return "a group congruence has a non-normal kernel"
        back = _structure.congruence_of_normal(g, k)
        if back.rel != report.congruences[i].rel:
            return "round trip changed the congruence"
    for n in normals:
        for m in normals:
            joint = _structure.congruence_of_normal(g, n & m)
            direct = _structure.congruence_of_normal(g, n).rel.meet(
                _structure.congruence_of_normal(g, m).rel
            )
            if joint.rel != direct:
                return "meets do not correspond"
    return None


# --- the unitary property of the carrier ---


@_check(
    "thm-e-unitary-battery",
    "unitarity of the carrier, the kernel of the group congruence being "
    "the idempotents, that congruence being the largest pure one, its "
    "trivial meet with the component congruence, and injectivity of the "
    "structure maps all coincide",
    "completely-inverse",
)
def _(ctx, g):
    sigma = _canonical.least_ag_group_congruence(g)
    mu = _canonical.max_idempotent_separating(g)
    tau = _canonical.max_idempotent_pure(g)
    ids = frozenset(idempotents(g))
    conditions = (
        _magma._is_e_unitary(g.table),
        _congruences.kernel(sigma) == ids,
        sigma.rel == tau.rel,
        sigma.rel.meet(mu.rel) == EquivRelation.identity(g.order),
        all(
            len(set(images)) == len(images)
            for _, _, images in _structure.decompose(g).maps
        ),
    )
    if len(set(conditions)) != 1:
        return f"battery splits: {conditions}"
    return None


@_check(
    "thm-group-meet-semilattice-unitary",
    "the meet of a group congruence and a semilattice congruence has a "
    "unitary quotient",
    "completely-inverse x congruence pairs",
)
def _(ctx, g, report, i, j):
    if not (report.markers[i].ag_group and report.markers[j].semilattice):
        return None
    met = report.meet(i, j)
    if not report.markers[met].e_unitary:
        return "meet fails to be unitary"
    return None


@_check(
    "thm-pi-least-e-unitary",
    "the meet of the least group congruence with the component congruence "
    "is the least congruence with a unitary quotient",
    "completely-inverse",
)
def _(ctx, g):
    pi = _canonical.least_e_unitary(g)
    if not _is_least(ctx.lattice(g), "e_unitary", pi.rel):
        return "scan finds a different least unitary congruence"
    return None


@_check(
    "thm-e-unitary-meet-closed",
    "congruences with unitary quotients are closed under meets and include "
    "the universal one",
    "completely-inverse",
)
def _(ctx, g):
    report = ctx.lattice(g)
    unitary = set(_marked(report, "e_unitary"))
    if report.top not in unitary:
        return "universal congruence is not unitary"
    for i in unitary:
        for j in unitary:
            if report.meet(i, j) not in unitary:
                return "meet escapes the unitary family"
    return None


@_check(
    "thm-unitary-iff-kernel-closed",
    "a congruence has a unitary quotient exactly when its kernel is closed "
    "under the natural order",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    k = _congruences.kernel(report.congruences[i])
    closed = _structure.upward_closure(g, k) == k
    if closed != report.markers[i].e_unitary:
        return "kernel closure disagrees with unitarity"
    return None


@_check(
    "thm-unitary-kernel-normal",
    "the kernel of a congruence with a unitary quotient is a normal "
    "subgroupoid, and the kernel-trace expression over it is unique",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    if not report.markers[i].e_unitary:
        return None
    c = report.congruences[i]
    k = _congruences.kernel(c)
    if not _structure.is_normal(g, k):
        return "unitary kernel is not normal"
    rebuilt = _congruences.from_kernel_trace(g, k, _congruences.trace(c))
    if rebuilt.rel != c.rel:
        return "kernel-trace expression is not unique"
    return None


# --- the trace map on the congruence lattice ---


@_check(
    "thm-trace-map-onto-homomorphism",
    "restriction to the idempotents maps the congruence lattice onto the "
    "idempotent lattice, preserving meets and joins",
    "completely-inverse",
)
def _(ctx, g):
    hom = _lattice.trace_homomorphism(ctx.lattice(g))
    if set(hom.image) != set(range(len(hom.target.congruences))):
        return "trace map is not onto"
    if any(hom.image[s] != t for t, s in enumerate(hom.section)):
        return "the lifted relations are not a section of the trace map"
    return None


@_check(
    "thm-trace-meet-join",
    "the trace of a meet is the meet of traces, and the same for joins",
    "completely-inverse x congruence pairs",
)
def _(ctx, g, report, i, j):
    tr = lambda k: _congruences.trace(report.congruences[k])
    if tr(report.meet(i, j)) != tr(i).meet(tr(j)):
        return "trace misses the meet"
    if tr(report.join(i, j)) != tr(i).join(tr(j)):
        return "trace misses the join"
    return None


@_check(
    "thm-sigma-trace-min-universal",
    "the trace-least form of the universal congruence is the least group "
    "congruence",
    "completely-inverse",
)
def _(ctx, g):
    top = _congruences.Congruence(g, EquivRelation.universal(g.order))
    if _canonical.trace_min(top).rel != _canonical.least_ag_group_congruence(g).rel:
        return "trace-least universal congruence differs"
    return None


@_check(
    "thm-trace-min-unitary-battery",
    "the carrier is unitary exactly when every trace-least congruence is "
    "the meet with the least group congruence, equivalently is pure",
    "completely-inverse",
)
def _(ctx, g):
    report = ctx.lattice(g)
    sigma = _canonical.least_ag_group_congruence(g)
    meets = all(
        _canonical.trace_min(c).rel == c.rel.meet(sigma.rel)
        for c in report.congruences
    )
    pure_indices = set(_marked(report, "idempotent_pure"))
    pure = all(
        report.index_of(_canonical.trace_min(c).rel) in pure_indices
        for c in report.congruences
    )
    unitary = _magma._is_e_unitary(g.table)
    if not (unitary == meets == pure):
        return f"battery splits: {(unitary, meets, pure)}"
    return None


@_check(
    "thm-unitary-pure-projection",
    "on a unitary carrier, meeting with the least group congruence projects "
    "the lattice onto the pure congruences, preserving meets and joins",
    "completely-inverse",
)
def _(ctx, g):
    if not _magma._is_e_unitary(g.table):
        return None
    report = ctx.lattice(g)
    sigma = _canonical.least_ag_group_congruence(g)
    s = report.index_of(sigma.rel)
    pure = set(_marked(report, "idempotent_pure"))
    image = {report.meet(i, s) for i in range(len(report.congruences))}
    if image != pure:
        return "projection misses the pure congruences"
    for i in range(len(report.congruences)):
        for j in range(len(report.congruences)):
            if report.meet(report.meet(i, j), s) != report.meet(
                report.meet(i, s), report.meet(j, s)
            ):
                return "projection misses a meet"
            if report.meet(report.join(i, j), s) != report.join(
                report.meet(i, s), report.meet(j, s)
            ):
                return "projection misses a join"
    return None


@_check(
    "thm-quotient-mu-lifts",
    "the component congruence of a quotient is the image of the trace-"
    "greatest form of the congruence",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    c = report.congruences[i]
    expected = _canonical.max_idempotent_separating(_congruences.quotient(c))
    pushed = _congruences.induced_congruence(_canonical.trace_max(c), c)
    if pushed.rel != expected.rel:
        return f"component congruence of the quotient by {c.partition_text()} differs"
    return None


@_check(
    "thm-trace-class-isomorphism",
    "congruences sharing a trace form an interval isomorphic to the "
    "idempotent-separating interval of the quotient by its least member",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    c = report.congruences[i]
    members = _lattice.trace_class(report, i)
    low = report.index_of(_canonical.trace_min(c).rel)
    high = report.index_of(_canonical.trace_max(c).rel)
    if members != _between(report, low, high):
        return "trace class is not the interval between its extreme forms"
    if not _lattice.is_modular_sublattice(report, members)[0]:
        return "trace class is not modular"
    if not _lattice.commuting_check(report, members):
        return "trace class does not commute"
    bottom = report.congruences[low]
    inv = _magma.require_completely_inverse(g)
    ids = idempotents(g)

    def rule(a, b):
        ea, eb = g.mul(a, inv[a]), g.mul(b, inv[b])
        return c.related(ea, eb) and any(
            c.related(e, ea) and g.mul(e, a) == g.mul(e, b) for e in ids
        )

    if not _relates_exactly(g, bottom, rule):
        return "the trace-least rule is not an equivalence"
    return _class_mirror(
        ctx, report, members, bottom,
        "idempotent_separating", "trace", "the separating interval",
    )


@_check(
    "thm-fundamental-fixed-point",
    "a quotient has a trivial component congruence exactly when the "
    "congruence equals its trace-greatest form, and the lattice marks "
    "exactly these congruences fundamental",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    c = report.congruences[i]
    q = _congruences.quotient(c)
    fundamental = _canonical.max_idempotent_separating(q).rel == EquivRelation.identity(
        q.order
    )
    fixed = _canonical.trace_max(c).rel == c.rel
    if fundamental != fixed:
        return "fixed point test disagrees"
    if report.markers[i].fundamental != fixed:
        return f"fundamental marker disagrees on {c.partition_text()}"
    return None


@_check(
    "thm-fundamental-sublattice",
    "the trace-greatest fixed points are meet-closed from the component "
    "congruence up to the universal one, with joins taken by the operator",
    "completely-inverse",
)
def _(ctx, g):
    report = ctx.lattice(g)
    fundamental = set(_lattice.fundamental_congruences(report))
    mu = report.index_of(_canonical.max_idempotent_separating(g).rel)
    if _least_of(report, sorted(fundamental)) != mu:
        return "least fixed point is not the component congruence"
    if report.top not in fundamental:
        return "universal congruence is not a fixed point"
    target = ctx.lattice(_magma.idempotent_semilattice(g))
    image = {
        i: target.index_of(_congruences.trace(report.congruences[i]))
        for i in fundamental
    }
    if sorted(image.values()) != list(range(len(target.congruences))):
        return "fixed points do not mirror the idempotent lattice"
    for i in fundamental:
        for j in fundamental:
            if report.leq(i, j) != target.leq(image[i], image[j]):
                return "the trace map on fixed points is not an order isomorphism"
    for i in fundamental:
        for j in fundamental:
            if report.meet(i, j) not in fundamental:
                return "fixed points are not meet-closed"
            lifted = report.index_of(
                _canonical.trace_max(report.congruences[report.join(i, j)]).rel
            )
            if lifted not in fundamental:
                return "operator join leaves the fixed points"
            above = [
                k
                for k in fundamental
                if report.leq(report.join(i, j), k)
            ]
            if _least_of(report, above) != lifted:
                return "operator join is not the least fixed point above"
    return None


# --- syntactic congruences and the kernel map ---


@_check(
    "thm-syntactic-largest-saturating",
    "the syntactic congruence of a subset is the largest congruence "
    "keeping the subset a union of classes",
    "ag-star-star x subsets",
)
def _(ctx, g, report, subset):
    syntactic = _congruences.syntactic_congruence(g, subset)
    if not _saturates(syntactic.rel, subset):
        return "syntactic congruence splits the subset"
    for c in report.congruences:
        if _saturates(c.rel, subset) and not c.rel.leq(syntactic.rel):
            return f"{c.partition_text()} saturates but is not below"
    return None


@_check(
    "thm-tau-largest-idempotent-pure",
    "the syntactic congruence of the idempotents is the largest pure "
    "congruence",
    "completely-inverse",
)
def _(ctx, g):
    tau = _canonical.max_idempotent_pure(g)
    if not _is_greatest(ctx.lattice(g), "idempotent_pure", tau.rel):
        return "scan finds a different largest pure congruence"
    return None


@_check(
    "thm-kernel-class-interval",
    "congruences sharing a kernel form the interval between the meet with "
    "the component congruence and the syntactic congruence of the kernel",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    c = report.congruences[i]
    members = set(_lattice.kernel_class(report, i))
    low = report.index_of(_canonical.kernel_min(c).rel)
    high = report.index_of(_canonical.kernel_max(c).rel)
    if members != set(_between(report, low, high)):
        return "kernel class is not the expected interval"
    k = _congruences.kernel(c)
    if _congruences.kernel(report.congruences[low]) != k:
        return "least member changed the kernel"
    if _congruences.kernel(report.congruences[high]) != k:
        return "greatest member changed the kernel"
    return None


@_check(
    "thm-kernel-operator-not-monotone",
    "the kernel-greatest operator is not monotone: the four-element "
    "inverse monoid has nested congruences with incomparable images",
    "fixture",
)
def _(ctx, g):
    report = ctx.lattice(g)
    for i in range(len(report.congruences)):
        for j in range(len(report.congruences)):
            if i != j and report.leq(i, j):
                hi = _canonical.kernel_max(report.congruences[i])
                hj = _canonical.kernel_max(report.congruences[j])
                if not hi.rel.leq(hj.rel):
                    return None
    return "operator turned out to be monotone here"


@_check(
    "thm-operator-decomposition",
    "every congruence is the join of its trace-least and kernel-least "
    "forms, and the meet of its trace-greatest and kernel-greatest forms",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    c = report.congruences[i]
    low = _canonical.trace_min(c).rel.join(_canonical.kernel_min(c).rel)
    high = _canonical.trace_max(c).rel.meet(_canonical.kernel_max(c).rel)
    if low != c.rel or high != c.rel:
        return f"decomposition misses {c.partition_text()}"
    return None


@_check(
    "thm-quotient-tau-lifts",
    "the largest pure congruence of a quotient is the image of the kernel-"
    "greatest form of the congruence",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    c = report.congruences[i]
    expected = _canonical.max_idempotent_pure(_congruences.quotient(c))
    pushed = _congruences.induced_congruence(_canonical.kernel_max(c), c)
    if pushed.rel != expected.rel:
        return f"pure congruence of the quotient by {c.partition_text()} differs"
    return None


@_check(
    "thm-kernel-class-isomorphism",
    "congruences sharing a kernel mirror the pure congruences of the "
    "quotient by their least member",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    members = _lattice.kernel_class(report, i)
    bottom = report.congruences[
        report.index_of(_canonical.kernel_min(report.congruences[i]).rel)
    ]
    return _class_mirror(
        ctx, report, members, bottom,
        "idempotent_pure", "kernel", "the pure congruences",
    )


@_check(
    "thm-disjunctive-fixed-point",
    "a quotient has a trivial largest pure congruence exactly when the "
    "congruence equals its kernel-greatest form, and the lattice marks "
    "exactly these congruences E-disjunctive",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    c = report.congruences[i]
    q = _congruences.quotient(c)
    disjunctive = _canonical.max_idempotent_pure(q).rel == EquivRelation.identity(
        q.order
    )
    fixed = _canonical.kernel_max(c).rel == c.rel
    if disjunctive != fixed:
        return "fixed point test disagrees"
    if report.markers[i].e_disjunctive != fixed:
        return f"e-disjunctive marker disagrees on {c.partition_text()}"
    return None


@_check(
    "thm-disjunctive-not-sublattice",
    "kernel-greatest fixed points need not be meet-closed: on the four-"
    "element inverse monoid two maximal members meet in the identity",
    "fixture",
)
def _(ctx, g):
    tau = _canonical.max_idempotent_pure(g)
    rho = _congruences.congruence_generated_by(
        g, [(g.index("a"), g.index("e"))]
    )
    tau_rho = _canonical.kernel_max(rho)
    if _canonical.kernel_max(tau).rel != tau.rel:
        return "first member is not a fixed point"
    if tau_rho.rel != rho.rel:
        return "second member is not a fixed point"
    met = tau.rel.meet(tau_rho.rel)
    if met != EquivRelation.identity(g.order):
        return "the meet is not the identity"
    fixed = _canonical.kernel_max(
        _congruences.Congruence(g, met)
    ).rel == met
    if fixed:
        return "the meet stayed a fixed point"
    return None


# --- closures and the final equivalences ---


@_check(
    "thm-group-join-sandwich",
    "the join with the least group congruence is its two-sided sandwich, "
    "described by one idempotent multiplier, with kernel the closure of "
    "the original kernel",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    c = report.congruences[i]
    sigma = _canonical.least_ag_group_congruence(g)
    join = c.rel.join(sigma.rel)
    closure = _canonical.ag_group_closure(c)
    if closure.rel != join:
        return "closure differs from the join"
    if _sandwich(sigma.rel, c.rel) != _lattice._ordered_pairs(join):
        return "the join is not the two-sided sandwich"
    ids = idempotents(g)
    if not _relates_exactly(
        g, join, lambda a, b: any(c.related(g.mul(e, a), g.mul(e, b)) for e in ids)
    ):
        return "multiplier description fails"
    expected = _structure.upward_closure(g, _congruences.kernel(c))
    if _congruences.kernel(closure) != expected:
        return "kernel of the join is not the closure"
    return None


@_check(
    "thm-group-closure-homomorphism",
    "joining with the least group congruence preserves meets and joins "
    "onto the group interval",
    "completely-inverse x congruence pairs",
)
def _(ctx, g, report, i, j):
    return _join_preserves(report, i, j, _canonical.least_ag_group_congruence(g))


@_check(
    "thm-e-unitary-closure-chain",
    "the unitary closure of a congruence lies between it and its join with "
    "the least group congruence, and all three share that join",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    c = report.congruences[i]
    sigma = _canonical.least_ag_group_congruence(g)
    closure = _canonical.e_unitary_closure(c)
    join = c.rel.join(sigma.rel)
    if not (c.rel.leq(closure.rel) and closure.rel.leq(join)):
        return "closure breaks the chain"
    if not report.markers[report.index_of(closure.rel)].e_unitary:
        return "closure is not unitary"
    if closure.rel.join(sigma.rel) != join:
        return "closure changed the group join"
    return None


@_check(
    "thm-group-image-factorization",
    "the trace-least form sits inside the least group congruence and its "
    "trace-greatest form recovers everything above, splitting any quotient "
    "into a group-image-preserving step and a separating step",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    c = report.congruences[i]
    low = _canonical.trace_min(c)
    if not low.rel.leq(_canonical.least_ag_group_congruence(g).rel):
        return "first factor moves the group image"
    if not c.rel.leq(_canonical.trace_max(low).rel):
        return "second factor is not separating"
    return None


@_check(
    "thm-pure-image-factorization",
    "the kernel-least form sits inside the component congruence and keeps "
    "the kernel, splitting any quotient into a component-preserving step "
    "and a pure step",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    c = report.congruences[i]
    low = _canonical.kernel_min(c)
    if not low.rel.leq(_canonical.max_idempotent_separating(g).rel):
        return "first factor is not separating-bounded"
    if _congruences.kernel(low) != _congruences.kernel(c):
        return "first factor moved the kernel"
    pushed = _congruences.induced_congruence(c, low)
    mirror_pure = _canonical.max_idempotent_pure(_congruences.quotient(low))
    if not pushed.rel.leq(mirror_pure.rel):
        return "second factor is not pure"
    return None


@_check(
    "thm-unitary-congruence-battery",
    "for one congruence: a unitary quotient, a closed kernel, kernel "
    "stability under the group join, the group join matching the kernel-"
    "greatest form, and that form having a group quotient all coincide",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    c = report.congruences[i]
    sigma = _canonical.least_ag_group_congruence(g)
    join = c.rel.join(sigma.rel)
    join_cong = report.congruences[report.index_of(join)]
    high = _canonical.kernel_max(c)
    k = _congruences.kernel(c)
    conditions = (
        report.markers[i].e_unitary,
        _structure.upward_closure(g, k) == k,
        k == _congruences.kernel(join_cong),
        join == high.rel,
        report.markers[report.index_of(high.rel)].ag_group,
    )
    if len(set(conditions)) != 1:
        return f"battery splits on {c.partition_text()}: {conditions}"
    return None


@_check(
    "thm-unitary-family-decomposition",
    "the congruences with unitary quotients split into kernel classes "
    "indexed by the normal subgroupoids",
    "completely-inverse",
)
def _(ctx, g):
    report = ctx.lattice(g)
    members, families = _lattice.e_unitary_congruences(report)
    if {i for _, interval in families for i in interval} != set(members):
        return "families do not cover the unitary congruences"
    for n, interval in families:
        rho_n = _structure.congruence_of_normal(g, n)
        mu = _canonical.max_idempotent_separating(g)
        low = rho_n.rel.meet(mu.rel)
        high = report.index_of(rho_n.rel)
        if interval != _between(report, report.index_of(low), high):
            return f"family of {sorted(n)} is not the full interval"
        by_kernel = tuple(
            i
            for i in members
            if _congruences.kernel(_canonical.ag_group_closure(report.congruences[i])) == n
        )
        if interval != by_kernel:
            return f"family of {sorted(n)} is not its group-closure kernel class"
    return None


@_check(
    "thm-semilattice-join-sandwich",
    "the join with the component congruence is its two-sided sandwich and "
    "relates elements exactly when their idempotent squares are related",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    c = report.congruences[i]
    mu = _canonical.max_idempotent_separating(g)
    join = c.rel.join(mu.rel)
    if _canonical.semilattice_closure(c).rel != join:
        return "closure differs from the join"
    if _sandwich(mu.rel, c.rel) != _lattice._ordered_pairs(join):
        return "the join is not the two-sided sandwich"
    inv = _magma.require_completely_inverse(g)
    if not _relates_exactly(
        g, join, lambda a, b: c.related(g.mul(a, inv[a]), g.mul(b, inv[b]))
    ):
        return "square description fails"
    return None


@_check(
    "thm-e-unitary-closure-sandwich",
    "the unitary closure is the meet of the two sandwiches around the "
    "least group and component congruences",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    c = report.congruences[i]
    sigma = _canonical.least_ag_group_congruence(g)
    mu = _canonical.max_idempotent_separating(g)
    sandwich = c.rel.join(sigma.rel).meet(c.rel.join(mu.rel))
    if _canonical.e_unitary_closure(c).rel != sandwich:
        return f"sandwich misses the closure of {c.partition_text()}"
    if report.markers[i].e_unitary:
        group_part, semilattice_part = _canonical.e_unitary_factorization(c)
        if group_part.rel.meet(semilattice_part.rel) != c.rel:
            return f"factors of {c.partition_text()} do not meet in it"
        if not report.markers[report.index_of(group_part.rel)].ag_group:
            return "group factor has no group quotient"
        if not report.markers[report.index_of(semilattice_part.rel)].semilattice:
            return "semilattice factor has no semilattice quotient"
    return None


@_check(
    "thm-semilattice-closure-homomorphism",
    "joining with the component congruence preserves meets and joins onto "
    "the semilattice interval",
    "completely-inverse x congruence pairs",
)
def _(ctx, g, report, i, j):
    return _join_preserves(report, i, j, _canonical.max_idempotent_separating(g))


@_check(
    "thm-semilattice-closure-chain",
    "the join with the component congruence is the least congruence above "
    "with a semilattice quotient, the largest element sharing that join",
    "completely-inverse x congruences",
)
def _(ctx, g, report, i):
    mu = _canonical.max_idempotent_separating(g)
    join = report.congruences[i].rel.join(mu.rel)
    j = report.index_of(join)
    above = [
        k
        for k in _marked(report, "semilattice")
        if report.leq(i, k)
    ]
    if _least_of(report, above) != j:
        return "join is not the least semilattice congruence above"
    sharing = [
        k
        for k in range(len(report.congruences))
        if report.join(k, report.index_of(mu.rel)) == j
    ]
    if _greatest_of(report, sharing) != j:
        return "join is not the largest element of its fiber"
    return None


@_check(
    "thm-final-equivalence-battery",
    "a unitary carrier, the group and pure canonical congruences agreeing, "
    "all pure congruences having unitary quotients, some pure congruence "
    "having one, and the largest pure one having one are all the same fact",
    "completely-inverse",
)
def _(ctx, g):
    report = ctx.lattice(g)
    sigma = _canonical.least_ag_group_congruence(g)
    tau = _canonical.max_idempotent_pure(g)
    pure = _marked(report, "idempotent_pure")
    unitary = set(_marked(report, "e_unitary"))
    conditions = (
        _magma._is_e_unitary(g.table),
        sigma.rel == tau.rel,
        all(i in unitary for i in pure),
        any(i in unitary for i in pure),
        report.index_of(tau.rel) in unitary,
    )
    if len(set(conditions)) != 1:
        return f"battery splits: {conditions}"
    return None


@_check(
    "thm-ag-group-unitary-disjunctive",
    "a completely inverse carrier is an AG-group exactly when it is both "
    "unitary and has a trivial largest pure congruence",
    "completely-inverse",
)
def _(ctx, g):
    tau = _canonical.max_idempotent_pure(g)
    both = _magma._is_e_unitary(g.table) and tau.rel == EquivRelation.identity(g.order)
    if both != _magma.is_ag_group(g):
        return "characterization fails"
    return None


@_check(
    "thm-subdirect-embedding",
    "the pair of largest-pure class and idempotent square separates points",
    "completely-inverse",
)
def _(ctx, g):
    tau = _canonical.max_idempotent_pure(g)
    inv = _magma.require_completely_inverse(g)
    seen = {}
    for a in g.elements:
        key = (tau.rel.block_of[a], g.mul(a, inv[a]))
        if key in seen:
            return f"{g.names[seen[key]]} and {g.names[a]} collide"
        seen[key] = a
    return None


@_check(
    "thm-dual-census-agreement",
    "independent generation strategies agree on the census of completely "
    "inverse tables",
    "engine",
)
def _(ctx, n):
    spec = EnumerationSpec(n, "completely-inverse")
    filtered = census(spec, strategy="filter")
    synthesized = census(spec, strategy="synthesis")
    if filtered != synthesized:
        return f"order {n}: filter found {filtered}, synthesis found {synthesized}"
    return None


def run_all(bound: int = 3, only=None) -> tuple[CheckResult, ...]:
    """Run the registered checks over all tables up to the bound.

    Universes are enumerated once per run and shared. A check that
    raises is reported as failed, with the exception type and message as
    its detail.
    """
    if bound < 1 or bound > 4:
        raise BoundExceeded("verification runs at orders 1 through 4")
    selected = [
        (tc, fn) for tc, fn in _REGISTRY if only is None or tc.check_id == only
    ]
    if only is not None and not selected:
        raise AlgebraError(f"unknown check id {only!r}")
    ctx = _Context(bound)
    results = []
    for tc, fn in selected:
        try:
            passed, instances, detail = fn(ctx)
        except Exception as exc:
            passed, instances, detail = False, 0, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(tc.check_id, passed, instances, detail))
    return tuple(results)
