"""Strong semilattice decomposition, natural order, normal subgroupoids."""

import pickle

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
    AlgebraError,
    InvalidStructure,
    NotCommutativeInverseSemigroup,
    NotCompletelyInverse,
    ParseError,
)
from aggroupoids.magma import same_operation
from aggroupoids.samples import (
    chain_semilattice,
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
    # an image that is no integer element of the target component
    for image in ("a", 1.0):
        maps = s.maps[:2] + ((1, 1, (image, 1)),)
        with pytest.raises(InvalidStructure, match="wrong shape"):
            StrongSemilattice(s.semilattice, s.components, maps)
    # right shape, but the cross map is not operation-preserving
    broken = ((0, 0, (0, 1)), (0, 1, (1, 0)), (1, 1, (0, 1)))
    swapped = StrongSemilattice(s.semilattice, s.components, broken)
    with pytest.raises(InvalidStructure):
        compose(swapped)


def test_map_images_reads_each_pair_and_rejects_an_incomparable_one():
    s = collapsing_strong_semilattice()
    for alpha, beta, images in s.maps:
        assert s.map_images(alpha, beta) is images
    # maps run down the index chain from 0 to 1, never back up
    with pytest.raises(AlgebraError, match=r"no map for index pair \(1, 0\)"):
        s.map_images(1, 0)
    # the lookup table is no field: equality and repr read maps alone
    again = StrongSemilattice(s.semilattice, s.components, tuple(reversed(s.maps)))
    assert again != s
    assert StrongSemilattice(s.semilattice, s.components, s.maps) == s
    assert "_images_of" not in repr(s)
    # it is a declared slot: no __dict__, and a pickle rebuilds from maps
    assert not hasattr(s, "__dict__")
    again = pickle.loads(pickle.dumps(s))
    assert again == s and getattr(again, "_images_of", None) is None
    assert again.map_images(0, 1) == s.map_images(0, 1)


def test_compose_rejects_maps_that_do_not_compose_along_a_chain():
    # Z2 at the top and bottom of the chain 0 < 1 < 2, the trivial group
    # between them: the composite 2 -> 1 -> 0 is constant, so the direct
    # map 2 -> 0 must be too
    z2 = ((0, 1), (1, 0))
    components = (
        Groupoid(("b0", "b1"), z2),
        Groupoid(("m0",), ((0,),)),
        Groupoid(("t0", "t1"), z2),
    )
    identities = ((0, 0, (0, 1)), (1, 1, (0,)), (2, 2, (0, 1)))
    through = ((1, 0, (0,)), (2, 1, (0, 0)))
    y = chain_semilattice(3)
    direct = StrongSemilattice(y, components, identities + through + ((2, 0, (0, 1)),))
    with pytest.raises(InvalidStructure) as info:
        compose(direct)
    assert info.value.condition == "composition"
    constant = StrongSemilattice(y, components, identities + through + ((2, 0, (0, 0)),))
    assert compose(constant).order == 5


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


@pytest.mark.parametrize("outside", [-1, 4, "a", 1.5])
def test_upward_closure_rejects_elements_outside_the_carrier(f1, outside):
    with pytest.raises(AlgebraError, match=f"^element {outside} out of range"):
        upward_closure(f1, [outside])


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


def test_derived_groupoid_rejects_a_missing_inverse():
    # the null semigroup on {a, b}: commutative and associative, but
    # b*x*b = a for every x
    null = Groupoid(("a", "b"), ((0, 0), (0, 0)))
    message = "^element 'b' has no inverse$"
    with pytest.raises(NotCommutativeInverseSemigroup, match=message):
        derived_groupoid(null)
