"""Closed-form canonical congruences on completely inverse carriers.

Four distinguished congruences exist in closed form: the maximum
idempotent-separating one (equal to the least semilattice congruence),
the least AG-group congruence, the maximum idempotent pure congruence,
and their meet, the least E-unitary congruence. Around them sit the
trace and kernel operators: every congruence's trace class and kernel
class are intervals, and the four functions computing their endpoints
live here as well.

The theorems behind each formula, its extremality against the full
congruence lattice included, are checked by the verify battery, not
here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotEUnitary
from .congruences import (
    Congruence,
    EquivRelation,
    _congruence_of_rule,
    congruence_meet,
    kernel,
    quotient,
    syntactic_congruence,
)
from .magma import (
    Groupoid,
    _is_e_unitary,
    idempotents,
    require_completely_inverse,
)

__all__ = [
    "CanonicalSuite",
    "max_idempotent_separating",
    "least_ag_group_congruence",
    "max_idempotent_pure",
    "least_e_unitary",
    "canonical_suite",
    "trace_max",
    "trace_min",
    "kernel_min",
    "kernel_max",
    "ag_group_closure",
    "semilattice_closure",
    "e_unitary_closure",
    "e_unitary_factorization",
]


@dataclass(frozen=True)
class CanonicalSuite:
    max_idempotent_separating: Congruence
    least_ag_group: Congruence
    max_idempotent_pure: Congruence
    least_e_unitary: Congruence

    def items(self):
        """(kebab-case name, congruence) pairs in declaration order."""
        for field in self.__dataclass_fields__:
            yield field.replace("_", "-"), getattr(self, field)


def _grouped_by_idempotent(g: Groupoid, label) -> EquivRelation:
    """Relate a and b when label[a*a^-1] == label[b*b^-1]; label maps
    each idempotent to the block it lies in."""
    inverse = require_completely_inverse(g)
    return EquivRelation.from_keys(label[g.table[a][inverse[a]]] for a in g.elements)


def max_idempotent_separating(g: Groupoid) -> Congruence:
    """Partition by the idempotent a*a^-1; also the least congruence
    with a semilattice quotient."""
    # each idempotent labels its own block
    return Congruence._trusted(g, _grouped_by_idempotent(g, g.elements))


def least_ag_group_congruence(g: Groupoid) -> Congruence:
    """a ~ b iff some idempotent translates them to the same element."""
    require_completely_inverse(g)
    ids = idempotents(g)
    return _congruence_of_rule(
        g, lambda a, b: any(g.table[e][a] == g.table[e][b] for e in ids)
    )


def max_idempotent_pure(g: Groupoid) -> Congruence:
    """Largest congruence whose idempotent classes are purely idempotent."""
    require_completely_inverse(g)
    return syntactic_congruence(g, idempotents(g))


def least_e_unitary(g: Groupoid) -> Congruence:
    return congruence_meet(
        least_ag_group_congruence(g), max_idempotent_separating(g)
    )


def canonical_suite(g: Groupoid) -> CanonicalSuite:
    mu = max_idempotent_separating(g)
    sigma = least_ag_group_congruence(g)
    tau = max_idempotent_pure(g)
    return CanonicalSuite(mu, sigma, tau, congruence_meet(sigma, mu))


def trace_max(rho: Congruence) -> Congruence:
    """Largest congruence with the same trace: relate a, b whenever
    a*a^-1 and b*b^-1 were already related."""
    g = rho.groupoid
    return Congruence._trusted(g, _grouped_by_idempotent(g, rho.rel.block_of))


def trace_min(rho: Congruence) -> Congruence:
    """Smallest congruence with the same trace: additionally demand a
    witnessing idempotent inside the class of a*a^-1 translating a and
    b to the same element."""
    g = rho.groupoid
    inverse = require_completely_inverse(g)
    ids = idempotents(g)

    def related(a, b):
        ea, eb = g.table[a][inverse[a]], g.table[b][inverse[b]]
        if not rho.related(ea, eb):
            return False
        return any(
            rho.related(e, ea) and g.table[e][a] == g.table[e][b] for e in ids
        )

    return _congruence_of_rule(g, related)


def kernel_min(rho: Congruence) -> Congruence:
    """Smallest congruence with the same kernel: the meet with the
    maximum idempotent-separating congruence."""
    return congruence_meet(rho, max_idempotent_separating(rho.groupoid))


def kernel_max(rho: Congruence) -> Congruence:
    """Largest congruence with the same kernel: the largest congruence
    saturating it. Maximality with respect to the kernel forces kernel
    preservation, which thm-kernel-class-interval checks."""
    return syntactic_congruence(rho.groupoid, kernel(rho))


def ag_group_closure(rho: Congruence) -> Congruence:
    """Join with the least AG-group congruence, by the translation
    criterion: a ~ b iff (ea, eb) lands in rho for some idempotent e."""
    g = rho.groupoid
    require_completely_inverse(g)
    ids = idempotents(g)
    return _congruence_of_rule(
        g, lambda a, b: any(rho.related(g.table[e][a], g.table[e][b]) for e in ids)
    )


def semilattice_closure(rho: Congruence) -> Congruence:
    """Join with the maximum idempotent-separating congruence; this is
    the same relation trace_max computes."""
    return trace_max(rho)


def e_unitary_closure(rho: Congruence) -> Congruence:
    """Least congruence containing rho whose quotient is E-unitary."""
    return congruence_meet(ag_group_closure(rho), semilattice_closure(rho))


def e_unitary_factorization(rho: Congruence) -> tuple[Congruence, Congruence]:
    """Split an E-unitary congruence into its unique AG-group and
    semilattice factors; their meet gives rho back."""
    if not _is_e_unitary(quotient(rho).groupoid):
        raise NotEUnitary("the quotient by this congruence is not E-unitary")
    return ag_group_closure(rho), semilattice_closure(rho)
