"""Strong semilattice decomposition, natural order, normal subgroupoids."""

import pytest

from aggroupoids import (
    Groupoid,
    StrongSemilattice,
    compose,
    decompose,
    derived_groupoid,
    format_strong_semilattice,
    natural_order,
    parse_strong_semilattice,
    square_part,
    upward_closure,
)
from aggroupoids.errors import (
    InvalidStructure,
    NotCommutativeInverseSemigroup,
    NotCompletelyInverse,
    ParseError,
)
from aggroupoids.magma import same_operation
from aggroupoids.samples import (
    collapsing_strong_semilattice,
    cyclic_group,
    inverse_monoid4,
    subtraction_mod,
)
from aggroupoids.structure import congruence_of_normal, is_normal, normality_violation


def test_decompose_the_running_example(f1):
    s = decompose(f1)
    assert s.semilattice.names == ("e", "f")
    assert s.semilattice.table == ((0, 0), (0, 1))
    assert [(c.names, c.table) for c in s.components] == [
        (("a", "e"), ((1, 0), (0, 1))),
        (("b", "f"), ((1, 0), (0, 1))),
    ]
    assert s.maps == ((0, 0, (0, 1)), (1, 0, (0, 1)), (1, 1, (0, 1)))


def test_compose_restores_the_operation(f1, f2, collapse):
    for g in (f1, f2, collapse):
        assert same_operation(g, compose(decompose(g)))


def test_decompose_rejects_non_completely_inverse():
    band = Groupoid.from_rows(["l", "r"], [["l", "l"], ["r", "r"]])
    with pytest.raises(NotCompletelyInverse):
        decompose(band)


def test_collapsing_fixture_shape():
    s = collapsing_strong_semilattice()
    assert s.semilattice.names == ("T", "B")
    # the downward map folds the two-element group onto a point
    assert (0, 1, (0, 0)) in s.maps


def test_structure_validation_catches_bad_maps():
    s = collapsing_strong_semilattice()
    with pytest.raises(InvalidStructure):
        StrongSemilattice(s.semilattice, s.components, s.maps[:2])
    with pytest.raises(InvalidStructure):
        StrongSemilattice(s.semilattice, s.components[:1], s.maps)
    # right shape, but the cross map is not operation-preserving
    broken = ((0, 0, (0, 1)), (0, 1, (1, 0)), (1, 1, (0, 1)))
    swapped = StrongSemilattice(s.semilattice, s.components, broken)
    with pytest.raises(InvalidStructure):
        compose(swapped)


def test_structure_text_round_trip(f1, collapse):
    for g in (f1, collapse):
        s = decompose(g)
        again = parse_strong_semilattice(format_strong_semilattice(s))
        assert again.semilattice.table == s.semilattice.table
        assert [c.table for c in again.components] == [c.table for c in s.components]
        assert again.maps == s.maps
        assert same_operation(compose(again), g)


def test_parse_structure_rejects_missing_sections():
    with pytest.raises(ParseError):
        parse_strong_semilattice("[Y]\n1\ny\ny\n")


def test_parse_structure_rejects_a_map_to_an_unknown_index(f1):
    text = format_strong_semilattice(decompose(f1)) + "[map e z]\na -> a\n"
    with pytest.raises(ParseError, match="map section references unknown index e z"):
        parse_strong_semilattice(text)


def test_natural_order_on_the_running_example(f1):
    order = natural_order(f1)
    assert sorted(order.pairs) == [
        (0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 3),
    ]
    assert order.leq(0, 1) and not order.leq(1, 0)


def test_upward_closure(f1):
    assert upward_closure(f1, {2}) == frozenset({2, 3})
    assert upward_closure(f1, {0}) == frozenset({0, 1})
    assert upward_closure(f1, {2, 3}) == frozenset({2, 3})


def test_normality(f1):
    assert is_normal(f1, {2, 3})
    assert normality_violation(f1, {2, 3}) is None
    assert normality_violation(f1, {0, 2, 3}) == "not closed under the natural order"
    assert normality_violation(f1, {2}) == "not full: misses an idempotent"


def test_congruence_of_normal(f1):
    assert congruence_of_normal(f1, {2, 3}).partition_text() == "a b | e f"
    assert congruence_of_normal(f1, {0, 1, 2, 3}).partition_text() == "a b e f"


def test_square_part(f1):
    part = square_part(f1)
    assert part.names == ("e", "f")
    assert part.table == ((0, 0), (0, 1))


def test_derived_groupoid_twists_a_cyclic_group():
    d = derived_groupoid(cyclic_group(3))
    assert d.table == subtraction_mod(3).table


def test_derived_groupoid_fixes_a_self_inverse_carrier(f1):
    # with every element self-inverse the twist changes nothing
    assert same_operation(derived_groupoid(f1), f1)


def test_derived_groupoid_rejects_noncommutative_input(f2):
    with pytest.raises(NotCommutativeInverseSemigroup):
        derived_groupoid(f2)
