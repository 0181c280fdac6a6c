"""The four distinguished congruences and the eight operators on them."""

import pickle
from pathlib import Path

import pytest

from aggroupoids import (
    Congruence,
    EquivRelation,
    ag_group_closure,
    canonical_suite,
    e_unitary_closure,
    e_unitary_factorization,
    kernel_max,
    kernel_min,
    least_ag_group_congruence,
    least_e_unitary,
    max_idempotent_pure,
    max_idempotent_separating,
    semilattice_closure,
    trace_max,
    trace_min,
)
from aggroupoids.enumeration import EnumerationSpec, enumerate_groupoids
from aggroupoids.errors import AlgebraError, NotCompletelyInverse, NotEUnitary
from aggroupoids.lattice import all_congruences
from aggroupoids.magma import (
    Groupoid,
    idempotent_semilattice,
    idempotents,
    parse_mag,
    require_completely_inverse,
)
from aggroupoids.samples import chain_semilattice, cyclic_group


def test_suite_on_the_running_example(f1):
    assert [(n, c.partition_text()) for n, c in canonical_suite(f1).items()] == [
        ("max-idempotent-separating", "a e | b f"),
        ("least-ag-group", "a b | e f"),
        ("max-idempotent-pure", "a b | e f"),
        ("least-e-unitary", "a | b | e | f"),
    ]


def test_suite_on_a_group(f2):
    # one idempotent: components collapse, the group congruence is trivial
    suite = canonical_suite(f2)
    assert suite.max_idempotent_separating.rel == EquivRelation.universal(3)
    assert suite.least_ag_group.rel == EquivRelation.identity(3)
    assert suite.max_idempotent_pure.rel == EquivRelation.identity(3)
    assert suite.least_e_unitary.rel == EquivRelation.identity(3)


def test_suite_on_a_semilattice():
    g = chain_semilattice(3)
    suite = canonical_suite(g)
    assert suite.max_idempotent_separating.rel == EquivRelation.identity(3)
    assert suite.least_ag_group.rel == EquivRelation.universal(3)


def test_suite_on_the_collapsing_fixture(collapse):
    assert [(n, c.partition_text()) for n, c in canonical_suite(collapse).items()] == [
        ("max-idempotent-separating", "t0 t1 | b0 b1"),
        ("least-ag-group", "t0 t1 b0 | b1"),
        ("max-idempotent-pure", "t0 | t1 | b0 | b1"),
        ("least-e-unitary", "t0 t1 | b0 | b1"),
    ]
    # the group and pure congruences split: the carrier is not E-unitary
    assert least_ag_group_congruence(collapse).rel != max_idempotent_pure(collapse).rel


def test_canonical_functions_match_the_suite(f1):
    suite = canonical_suite(f1)
    assert max_idempotent_separating(f1).rel == suite.max_idempotent_separating.rel
    assert least_ag_group_congruence(f1).rel == suite.least_ag_group.rel
    assert max_idempotent_pure(f1).rel == suite.max_idempotent_pure.rel
    assert least_e_unitary(f1).rel == suite.least_e_unitary.rel


def test_canonical_rejects_non_completely_inverse():
    band = Groupoid.from_rows(["l", "r"], [["l", "l"], ["r", "r"]])
    with pytest.raises(NotCompletelyInverse):
        canonical_suite(band)


@pytest.mark.parametrize(
    "build",
    [
        least_ag_group_congruence,
        lambda g: ag_group_closure(Congruence(g, EquivRelation.identity(g.order))),
        lambda g: trace_min(Congruence(g, EquivRelation.identity(g.order))),
    ],
    ids=["sigma", "ag_group_closure", "trace_min"],
)
def test_keyed_operators_reject_non_completely_inverse(build):
    # the band's idempotents have a product, so a grouping by it would
    # return a relation instead of raising
    band = Groupoid.from_rows(["l", "r"], [["l", "l"], ["r", "r"]])
    with pytest.raises(NotCompletelyInverse):
        build(band)


# each kept operator, the name of the slot it keeps its value in, and
# whether that is on a congruence rather than on the carrier
KEPT_OPERATORS = [
    pytest.param(max_idempotent_separating, "_mu", False, id="mu"),
    pytest.param(least_ag_group_congruence, "_sigma", False, id="sigma"),
    pytest.param(max_idempotent_pure, "_tau", False, id="tau"),
    pytest.param(idempotent_semilattice, "_idempotent_semilattice", False, id="E"),
    pytest.param(trace_max, "_trace_max", True, id="trace_max"),
    pytest.param(trace_min, "_trace_min", True, id="trace_min"),
    pytest.param(kernel_max, "_kernel_max", True, id="kernel_max"),
    pytest.param(ag_group_closure, "_ag_group_closure", True, id="ag_group_closure"),
]
KEPT_ARGS = "operator, name, on_congruence"


def _fresh(g, on_congruence):
    """A new carrier equal to g, or a congruence on one, with nothing kept."""
    carrier = Groupoid(g.names, g.table)
    if not on_congruence:
        return carrier
    return Congruence(carrier, EquivRelation.from_blocks(carrier.order, [(0, 2), (1,), (3,)]))


@pytest.mark.parametrize(KEPT_ARGS, KEPT_OPERATORS)
def test_each_kept_operator_computes_once_per_object(f1, operator, name, on_congruence):
    obj = _fresh(f1, on_congruence)
    first = operator(obj)
    assert getattr(obj, name) is first and operator(obj) is first
    # a value already in the slot is read, not computed again
    primed = _fresh(f1, on_congruence)
    stored = object()
    object.__setattr__(primed, name, stored)
    assert operator(primed) is stored


@pytest.mark.parametrize(KEPT_ARGS, KEPT_OPERATORS)
def test_an_unpickled_object_recomputes_each_kept_fact(f1, operator, name, on_congruence):
    obj = _fresh(f1, on_congruence)
    first = operator(obj)
    again = pickle.loads(pickle.dumps(obj))
    assert again == obj and getattr(again, name, None) is None
    recomputed = operator(again)
    assert recomputed == first and recomputed is not first


@pytest.mark.parametrize(KEPT_ARGS, KEPT_OPERATORS)
def test_a_kept_operator_that_raises_keeps_nothing(operator, name, on_congruence):
    band = Groupoid.from_rows(["l", "r"], [["l", "l"], ["r", "r"]])
    obj = Congruence(band, EquivRelation.identity(2)) if on_congruence else band
    for _ in range(2):
        with pytest.raises(AlgebraError):
            operator(obj)
    assert getattr(obj, name, None) is None


def _order_five_and_six_tables():
    data = Path(__file__).resolve().parents[1] / "demos" / "data"
    tables = enumerate_groupoids(EnumerationSpec(5, "completely-inverse"))
    return tables + (parse_mag((data / "z2_chain6.mag").read_text()),)


def test_keyed_operators_match_the_existential_rules_at_orders_5_and_6():
    # the paper's definitions, each closed by from_pairs rather than
    # grouped by a least idempotent
    tables = _order_five_and_six_tables()
    assert len(tables) == 64
    for g in tables:
        inverse = require_completely_inverse(g)
        ids = idempotents(g)
        mul = g.mul
        square = [mul(a, inverse[a]) for a in g.elements]
        pairs = [(a, b) for a in g.elements for b in g.elements]
        sigma = EquivRelation.from_pairs(
            g.order,
            ((a, b) for a, b in pairs if any(mul(e, a) == mul(e, b) for e in ids)),
        )
        assert least_ag_group_congruence(g).rel == sigma
        for rho in all_congruences(g).congruences:
            closure = EquivRelation.from_pairs(
                g.order,
                (
                    (a, b)
                    for a, b in pairs
                    if any(rho.related(mul(e, a), mul(e, b)) for e in ids)
                ),
            )
            assert ag_group_closure(rho).rel == closure
            least = EquivRelation.from_pairs(
                g.order,
                (
                    (a, b)
                    for a, b in pairs
                    if rho.related(square[a], square[b])
                    and any(
                        rho.related(e, square[a]) and mul(e, a) == mul(e, b)
                        for e in ids
                    )
                ),
            )
            assert trace_min(rho).rel == least


# every operator image on every congruence of the running example
OPERATOR_TABLE = {
    "a | b | e | f": {
        trace_min: "a | b | e | f",
        trace_max: "a e | b f",
        kernel_min: "a | b | e | f",
        kernel_max: "a b | e f",
        ag_group_closure: "a b | e f",
        semilattice_closure: "a e | b f",
        e_unitary_closure: "a | b | e | f",
    },
    "a e | b | f": {
        trace_min: "a | b | e | f",
        trace_max: "a e | b f",
        kernel_min: "a e | b | f",
        kernel_max: "a e | b | f",
        ag_group_closure: "a b e f",
        semilattice_closure: "a e | b f",
        e_unitary_closure: "a e | b f",
    },
    "a b | e f": {
        trace_min: "a b | e f",
        trace_max: "a b e f",
        kernel_min: "a | b | e | f",
        kernel_max: "a b | e f",
        ag_group_closure: "a b | e f",
        semilattice_closure: "a b e f",
        e_unitary_closure: "a b | e f",
    },
    "a e | b f": {
        trace_min: "a | b | e | f",
        trace_max: "a e | b f",
        kernel_min: "a e | b f",
        kernel_max: "a b e f",
        ag_group_closure: "a b e f",
        semilattice_closure: "a e | b f",
        e_unitary_closure: "a e | b f",
    },
    "a b e f": {
        trace_min: "a b | e f",
        trace_max: "a b e f",
        kernel_min: "a e | b f",
        kernel_max: "a b e f",
        ag_group_closure: "a b e f",
        semilattice_closure: "a b e f",
        e_unitary_closure: "a b e f",
    },
}


def test_operator_images_on_the_running_example(f1_report):
    for c in f1_report.congruences:
        expected = OPERATOR_TABLE[c.partition_text()]
        for op, image in expected.items():
            assert op(c).partition_text() == image, (c.partition_text(), op.__name__)


def test_kernel_operators_fix_the_generated_congruence(f1, f1_report):
    # the congruence a e | b | f is its own kernel-least and kernel-greatest
    # form; this pins the syntactic construction over a non-idempotent class
    rho = f1_report.congruences[1]
    assert kernel_max(rho).rel == rho.rel
    assert kernel_min(rho).rel == rho.rel


def test_operator_images_decompose_every_congruence(f1_report):
    for c in f1_report.congruences:
        assert trace_min(c).rel.join(kernel_min(c).rel) == c.rel
        assert trace_max(c).rel.meet(kernel_max(c).rel) == c.rel


def test_factorization_splits_an_e_unitary_congruence(f1_report):
    mu = f1_report.congruences[3]
    group_part, semilattice_part = e_unitary_factorization(mu)
    assert group_part.partition_text() == "a b e f"
    assert semilattice_part.partition_text() == "a e | b f"
    assert group_part.rel.meet(semilattice_part.rel) == mu.rel


def test_factorization_rejects_non_e_unitary_congruences(f1_report):
    with pytest.raises(NotEUnitary):
        e_unitary_factorization(f1_report.congruences[1])


def test_operators_on_a_group():
    g = cyclic_group(4)
    bottom = Congruence(g, EquivRelation.identity(4))
    # single idempotent: every congruence is idempotent separating
    assert trace_max(bottom).rel == EquivRelation.universal(4)
    assert trace_min(bottom).rel == EquivRelation.identity(4)
    assert kernel_max(bottom).rel == EquivRelation.identity(4)
