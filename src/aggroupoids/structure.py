"""Strong semilattices of AG-groups and the natural partial order.

A completely inverse carrier splits into AG-group components indexed by
its idempotent semilattice, glued by structure homomorphisms; compose
reverses the split. The natural order, upward closure, and normal
subgroupoids (which classify the AG-group congruences) also live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    AlgebraError,
    InvalidStructure,
    NotCommutativeInverseSemigroup,
    NotCompletelyInverse,
    NotNormal,
    ParseError,
)
from .magma import (
    Groupoid,
    _content_lines,
    _parse_mag_lines,
    format_mag,
    idempotents,
    is_ag_group,
    is_associative,
    is_commutative,
    is_semilattice,
    require_completely_inverse,
    subgroupoid,
)
from .congruences import (
    Congruence,
    CongruencePair,
    EquivRelation,
    _kernel_trace_congruence,
    _kernel_violation,
)
from .canonical import max_idempotent_separating

__all__ = [
    "StrongSemilattice",
    "NaturalOrder",
    "validate_structure",
    "decompose",
    "compose",
    "derived_groupoid",
    "square_part",
    "natural_order",
    "upward_closure",
    "is_normal",
    "normality_violation",
    "congruence_of_normal",
    "format_strong_semilattice",
    "parse_strong_semilattice",
]


@dataclass(frozen=True)
class StrongSemilattice:
    """Semilattice-indexed components glued by downward maps.

    maps holds one entry (alpha, beta, images) per comparable index pair
    alpha >= beta, diagonals included; images[i] is the target-component
    index of the i-th source-component element. Construction checks only
    shape; validate_structure checks the algebraic laws.
    """

    semilattice: Groupoid
    components: tuple[Groupoid, ...]
    maps: tuple[tuple[int, int, tuple[int, ...]], ...]

    def __post_init__(self):
        y = self.semilattice
        if len(self.components) != y.order:
            raise InvalidStructure("component", "one component per index element required")
        all_labels = [name for c in self.components for name in c.names]
        if len(set(all_labels)) != len(all_labels):
            raise InvalidStructure("component", "component label spaces must be disjoint")
        expected = {
            (i, j) for i in y.elements for j in y.elements if y.table[i][j] == j
        }
        given = {(i, j) for i, j, _ in self.maps}
        if given != expected or len(self.maps) != len(expected):
            raise InvalidStructure("maps", "maps must cover exactly the comparable index pairs")
        for i, j, images in self.maps:
            if len(images) != self.components[i].order or not all(
                0 <= v < self.components[j].order for v in images
            ):
                raise InvalidStructure("maps", f"map {i} -> {j} has the wrong shape")

    def map_images(self, alpha: int, beta: int) -> tuple[int, ...]:
        for i, j, images in self.maps:
            if (i, j) == (alpha, beta):
                return images
        raise AlgebraError(f"no map for index pair ({alpha}, {beta})")


def validate_structure(s: StrongSemilattice) -> None:
    """Check the algebraic laws; raises naming the first violated one."""
    y = s.semilattice
    if not is_semilattice(y):
        raise InvalidStructure("semilattice", "the index groupoid is not a semilattice")
    for i, c in enumerate(s.components):
        if not is_ag_group(c):
            raise InvalidStructure(
                "component", f"component {y.names[i]!r} is not an AG-group"
            )
    for i, j, images in s.maps:
        if i == j and images != tuple(range(s.components[i].order)):
            raise InvalidStructure(
                "identity-map", f"the map {y.names[i]!r} -> itself is not the identity"
            )
    for i, j, images in s.maps:
        source, target = s.components[i], s.components[j]
        for a in source.elements:
            for b in source.elements:
                if images[source.table[a][b]] != target.table[images[a]][images[b]]:
                    raise InvalidStructure(
                        "homomorphism",
                        f"the map {y.names[i]!r} -> {y.names[j]!r} is not a homomorphism",
                    )
    comparable = {(i, j) for i, j, _ in s.maps}
    for i, j in comparable:
        for k in y.elements:
            if (j, k) in comparable and (i, k) in comparable:
                lower = s.map_images(j, k)
                upper = s.map_images(i, j)
                direct = s.map_images(i, k)
                if any(lower[upper[a]] != direct[a] for a in s.components[i].elements):
                    raise InvalidStructure(
                        "composition",
                        f"maps {y.names[i]!r} -> {y.names[j]!r} -> {y.names[k]!r} "
                        f"do not compose to the direct map",
                    )


def compose(s: StrongSemilattice) -> Groupoid:
    """Glue the components into one groupoid.

    The product of a in component alpha and b in component beta maps
    both into the component at alpha*beta and multiplies there. With
    AG-group components the result is completely inverse.
    """
    validate_structure(s)
    y = s.semilattice
    names = []
    home = []  # (component index, index within component) per element
    for i, c in enumerate(s.components):
        names.extend(c.names)
        home.extend((i, k) for k in c.elements)
    offset = []
    total = 0
    for c in s.components:
        offset.append(total)
        total += c.order

    def product(x, yy):
        alpha, a = home[x]
        beta, b = home[yy]
        gamma = y.table[alpha][beta]
        down_a = s.map_images(alpha, gamma)[a]
        down_b = s.map_images(beta, gamma)[b]
        return offset[gamma] + s.components[gamma].table[down_a][down_b]

    return Groupoid.from_function(names, product)


def decompose(g: Groupoid) -> StrongSemilattice:
    """Split a completely inverse carrier along its idempotents.

    The index semilattice is the idempotent subgroupoid (ascending
    index order), each component is the class of the maximum
    idempotent-separating congruence around its idempotent, and the map
    below an idempotent pair is translation by the lower idempotent.
    """
    mu = max_idempotent_separating(g)
    ids = idempotents(g)
    y = subgroupoid(g, ids)
    classes = []
    for e in ids:
        members = sorted(x for x in g.elements if mu.related(x, e))
        classes.append(members)
    components = tuple(subgroupoid(g, members) for members in classes)
    maps = []
    for i, e in enumerate(ids):
        for j, f in enumerate(ids):
            if y.table[i][j] != j:
                continue
            # translation by the lower idempotent stays in its class
            images = tuple(classes[j].index(g.table[f][x]) for x in classes[i])
            maps.append((i, j, images))
    return StrongSemilattice(y, components, tuple(maps))


def derived_groupoid(g: Groupoid) -> Groupoid:
    """Twist a commutative inverse semigroup into a completely inverse
    carrier by multiplying through the left factor's inverse.

    A commutative semigroup satisfies both defining identities of the
    completely inverse class and commutes with any inverse, so the
    class's inverse search can fail here only for a missing or a
    repeated inverse."""
    if not is_commutative(g):
        raise NotCommutativeInverseSemigroup("the carrier is not commutative")
    if not is_associative(g):
        raise NotCommutativeInverseSemigroup("the carrier is not associative")
    try:
        inverse = require_completely_inverse(g)
    except NotCompletelyInverse as exc:
        raise NotCommutativeInverseSemigroup(str(exc)) from exc
    return Groupoid.from_function(g.names, lambda a, b: g.table[inverse[a]][b])


def square_part(g: Groupoid) -> Groupoid:
    """The subgroupoid on the squares; commutative and associative with
    central idempotents, and the same idempotents as the carrier."""
    require_completely_inverse(g)
    return subgroupoid(g, {g.table[a][a] for a in g.elements})


@dataclass(frozen=True)
class NaturalOrder:
    """a <= b exactly when a arises from b by an idempotent translation."""

    order: int
    pairs: frozenset

    def leq(self, a: int, b: int) -> bool:
        return (a, b) in self.pairs


def natural_order(g: Groupoid) -> NaturalOrder:
    require_completely_inverse(g)
    ids = idempotents(g)
    pairs = frozenset(
        (a, b)
        for b in g.elements
        for a in {g.table[e][b] for e in ids}
    )
    return NaturalOrder(g.order, pairs)


def upward_closure(g: Groupoid, subset: Iterable[int]) -> frozenset:
    """All elements above some member of the subset in the natural order."""
    members = frozenset(subset)
    if not members:
        raise AlgebraError("upward closure of the empty set")
    require_completely_inverse(g)
    ids = idempotents(g)
    return frozenset(
        a for a in g.elements if any(g.table[e][a] in members for e in ids)
    )


def normality_violation(g: Groupoid, subset: Iterable[int]) -> str | None:
    """First failed normality property in a fixed order, or None."""
    inverse = require_completely_inverse(g)
    members = frozenset(subset)
    violation = _kernel_violation(g, inverse, members)
    if violation is None and upward_closure(g, members) != members:
        violation = "not closed under the natural order"
    return violation


def is_normal(g: Groupoid, subset: Iterable[int]) -> bool:
    return normality_violation(g, subset) is None


def congruence_of_normal(g: Groupoid, subset: Iterable[int]) -> Congruence:
    """The unique AG-group congruence whose kernel is the given normal
    subgroupoid: relate a and b when a * b^-1 lies inside."""
    members = frozenset(subset)
    violation = normality_violation(g, members)
    if violation is not None:
        raise NotNormal(violation)
    # with the universal trace the kernel-trace rule is a * b^-1 in N
    universal = EquivRelation.universal(len(idempotents(g)))
    return _kernel_trace_congruence(g, CongruencePair(members, universal))


def format_strong_semilattice(s: StrongSemilattice) -> str:
    """Sectioned text: the index table, one table per component, and
    one arrow block per map, all in deterministic order."""
    y = s.semilattice
    parts = ["[Y]\n" + format_mag(y)]
    for i, c in enumerate(s.components):
        parts.append(f"[component {y.names[i]}]\n" + format_mag(c))
    for i, j, images in sorted(s.maps):
        lines = [f"[map {y.names[i]} {y.names[j]}]"]
        for a, image in enumerate(images):
            lines.append(f"{s.components[i].names[a]} -> {s.components[j].names[image]}")
        parts.append("\n".join(lines) + "\n")
    return "\n".join(parts)


def _split_sections(text: str):
    sections = []
    current = None
    for lineno, tokens in _content_lines(text):
        joined = " ".join(tokens)
        if joined.startswith("["):
            if not joined.endswith("]"):
                raise ParseError(f"malformed section header {joined!r}", lineno)
            current = (joined[1:-1].split(), lineno, [])
            sections.append(current)
        else:
            if current is None:
                raise ParseError(f"content before any section header: {joined!r}", lineno)
            current[2].append((lineno, tokens))
    return sections


def parse_strong_semilattice(text: str) -> StrongSemilattice:
    """Inverse of format_strong_semilattice; sections may be reordered."""
    y = None
    component_blocks: dict[str, Groupoid] = {}
    map_blocks: dict[tuple[str, str], list] = {}
    for header, lineno, body in _split_sections(text):
        if header == ["Y"]:
            if y is not None:
                raise ParseError("duplicate [Y] section", lineno)
            y = _parse_mag_lines(body)
        elif len(header) == 2 and header[0] == "component":
            if header[1] in component_blocks:
                raise ParseError(f"duplicate component section {header[1]!r}", lineno)
            component_blocks[header[1]] = _parse_mag_lines(body)
        elif len(header) == 3 and header[0] == "map":
            key = (header[1], header[2])
            if key in map_blocks:
                raise ParseError(f"duplicate map section {key}", lineno)
            map_blocks[key] = body
        else:
            raise ParseError(f"unknown section header {' '.join(header)!r}", lineno)
    if y is None:
        raise ParseError("missing [Y] section")
    if set(component_blocks) != set(y.names):
        raise ParseError("component sections do not match the index elements")
    components = tuple(component_blocks[name] for name in y.names)
    for alpha_name, beta_name in map_blocks:
        if alpha_name not in y.names or beta_name not in y.names:
            raise ParseError(f"map section references unknown index {alpha_name} {beta_name}")
    maps = []
    for (alpha_name, beta_name), body in sorted(
        map_blocks.items(), key=lambda kv: (y.index(kv[0][0]), y.index(kv[0][1]))
    ):
        alpha, beta = y.index(alpha_name), y.index(beta_name)
        source, target = components[alpha], components[beta]
        images = [-1] * source.order
        for lineno, tokens in body:
            if len(tokens) != 3 or tokens[1] != "->":
                raise ParseError(f"expected 'x -> y', got {' '.join(tokens)!r}", lineno)
            if tokens[0] not in source.names:
                raise ParseError(f"unknown source element {tokens[0]!r}", lineno)
            if tokens[2] not in target.names:
                raise ParseError(f"unknown target element {tokens[2]!r}", lineno)
            a = source.index(tokens[0])
            if images[a] != -1:
                raise ParseError(f"source element {tokens[0]!r} mapped twice", lineno)
            images[a] = target.index(tokens[2])
        if -1 in images:
            missing = source.names[images.index(-1)]
            raise ParseError(f"map {alpha_name} -> {beta_name} misses {missing!r}")
        maps.append((alpha, beta, tuple(images)))
    return StrongSemilattice(y, components, tuple(maps))
