"""Closed-form canonical congruences on completely inverse carriers.

Four distinguished congruences exist in closed form: the maximum
idempotent-separating one (equal to the least semilattice congruence),
the least AG-group congruence, the maximum idempotent pure congruence,
and their meet, the least E-unitary congruence. Around them sit the
trace and kernel operators: every congruence's trace class and kernel
class are intervals, and the four functions computing their endpoints
live here as well.

The least AG-group congruence, its join with rho and the least
congruence with rho's trace relate a and b when some idempotent e of a
product-closed set makes e*a and e*b agree or rho-related. The product
z of that set is then a witness too, as z*(e*a) = e*(z*a) = z*a, so
each of the three groups a by a key built from z*a.

The closed forms are kept on their carrier or congruence (see
magma._kept): mu, sigma and tau on the carrier, the trace and kernel
endpoints and the join with sigma on the congruence.

The theorems behind each formula, its extremality against the full
congruence lattice included, are checked by the verify battery, not
here.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import NotEUnitary
from .congruences import (
    Congruence,
    EquivRelation,
    congruence_meet,
    kernel,
    quotient,
    syntactic_congruence,
)
from .magma import (
    Groupoid,
    _is_e_unitary,
    _kept,
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


@_kept("_mu")
def max_idempotent_separating(g: Groupoid) -> Congruence:
    """Partition by the idempotent a*a^-1; also the least congruence
    with a semilattice quotient. Kept on g."""
    # each idempotent labels its own block
    return Congruence._trusted(g, _grouped_by_idempotent(g, g.elements))


def _least_idempotent(g: Groupoid, ids) -> int:
    """The least of a product-closed set of idempotents: their product."""
    return functools.reduce(lambda x, e: g.table[x][e], ids)


@_kept("_sigma")
def least_ag_group_congruence(g: Groupoid) -> Congruence:
    """a ~ b iff some idempotent translates them to the same element.
    Kept on g."""
    require_completely_inverse(g)
    z = _least_idempotent(g, idempotents(g))
    return Congruence._trusted(g, EquivRelation.from_keys(g.table[z]))


@_kept("_tau")
def max_idempotent_pure(g: Groupoid) -> Congruence:
    """Largest congruence whose idempotent classes are purely idempotent.
    Kept on g."""
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
    return CanonicalSuite(mu, sigma, tau, least_e_unitary(g))


@_kept("_trace_max")
def trace_max(rho: Congruence) -> Congruence:
    """Largest congruence with the same trace: relate a, b whenever
    a*a^-1 and b*b^-1 were already related. Kept on rho."""
    g = rho.groupoid
    return Congruence._trusted(g, _grouped_by_idempotent(g, rho.rel.block_of))


@_kept("_trace_min")
def trace_min(rho: Congruence) -> Congruence:
    """Smallest congruence with the same trace: additionally demand a
    witnessing idempotent inside the class of a*a^-1 translating a and
    b to the same element. Kept on rho."""
    g = rho.groupoid
    inverse = require_completely_inverse(g)
    label = rho.rel.block_of
    ids = sorted(idempotents(g), key=label.__getitem__)
    classes = itertools.groupby(ids, key=label.__getitem__)
    least = {k: _least_idempotent(g, members) for k, members in classes}
    keys = ((label[g.table[a][inverse[a]]], a) for a in g.elements)
    return Congruence._trusted(
        g, EquivRelation.from_keys((k, g.table[least[k]][a]) for k, a in keys)
    )


def kernel_min(rho: Congruence) -> Congruence:
    """Smallest congruence with the same kernel: the meet with the
    maximum idempotent-separating congruence."""
    return congruence_meet(rho, max_idempotent_separating(rho.groupoid))


@_kept("_kernel_max")
def kernel_max(rho: Congruence) -> Congruence:
    """Largest congruence with the same kernel: the largest congruence
    saturating it. Maximality with respect to the kernel forces kernel
    preservation, which thm-kernel-class-interval checks. Kept on rho."""
    return syntactic_congruence(rho.groupoid, kernel(rho))


@_kept("_ag_group_closure")
def ag_group_closure(rho: Congruence) -> Congruence:
    """Join with the least AG-group congruence, by the translation
    criterion: a ~ b iff (ea, eb) lands in rho for some idempotent e.
    Kept on rho."""
    g = rho.groupoid
    require_completely_inverse(g)
    z = _least_idempotent(g, idempotents(g))
    label = rho.rel.block_of
    return Congruence._trusted(g, EquivRelation.from_keys(label[x] for x in g.table[z]))


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
    if not _is_e_unitary(quotient(rho).table):
        raise NotEUnitary("the quotient by this congruence is not E-unitary")
    return ag_group_closure(rho), semilattice_closure(rho)
