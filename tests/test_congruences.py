"""Equivalence relations, congruences, kernel-trace machinery."""

import dataclasses
import itertools
import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aggroupoids import (
    Congruence,
    EquivRelation,
    all_congruences,
    congruence_generated_by,
    congruence_join,
    congruence_meet,
    format_partition,
    from_kernel_trace,
    induced_congruence,
    is_congruence,
    is_congruence_pair,
    kernel,
    parse_partition,
    quotient,
    syntactic_congruence,
    trace,
)
from aggroupoids.enumeration import EnumerationSpec, enumerate_groupoids
from aggroupoids.errors import (
    AlgebraError,
    InvalidCongruencePair,
    KernelMismatch,
    NotACongruence,
    NotARefinement,
    NotCompletelyInverse,
    ParseError,
)
from aggroupoids.lattice import LatticeReport, iter_partitions
from aggroupoids.magma import Groupoid
from aggroupoids.samples import chain_semilattice, inverse_monoid4


def relations(max_order=6):
    # a random block assignment, closed into an equivalence
    return st.integers(1, max_order).flatmap(
        lambda n: st.builds(
            lambda labels: EquivRelation.from_pairs(
                n, [(i, j) for i in range(n) for j in range(n) if labels[i] == labels[j]]
            ),
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        )
    )


def paired_relations(max_order=6):
    return st.integers(1, max_order).flatmap(
        lambda n: st.tuples(*(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),) * 3).map(
            lambda triples: tuple(
                EquivRelation.from_pairs(
                    n,
                    [(i, j) for i in range(n) for j in range(n) if labels[i] == labels[j]],
                )
                for labels in triples
            )
        )
    )


@given(st.integers(1, 6), st.data())
def test_from_pairs_closes_transitively(n, data):
    raw = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8)
    )
    rel = EquivRelation.from_pairs(n, raw)
    for a, b in raw:
        assert rel.related(a, b)
    for a in range(n):
        assert rel.related(a, a)
        for b in range(n):
            assert rel.related(a, b) == rel.related(b, a)
            for c in range(n):
                if rel.related(a, b) and rel.related(b, c):
                    assert rel.related(a, c)


@given(st.lists(st.sampled_from("xyz"), min_size=1, max_size=6))
def test_from_keys_relates_exactly_the_equal_keys(keys):
    rel = EquivRelation.from_keys(keys)
    assert rel.order == len(keys)
    for a in range(len(keys)):
        for b in range(len(keys)):
            assert rel.related(a, b) == (keys[a] == keys[b])


@given(
    st.lists(
        st.one_of(st.integers(-3, 3), st.tuples(st.integers(0, 2), st.sampled_from("ab"))),
        min_size=1,
        max_size=8,
    )
)
def test_from_keys_passes_the_validating_constructor(keys):
    # from_keys skips the __post_init__ validation; this keeps it checked
    rel = EquivRelation.from_keys(keys)
    assert EquivRelation(rel.order, rel.block_of) == rel


def test_from_keys_rejects_no_keys():
    with pytest.raises(AlgebraError):
        EquivRelation.from_keys([])


@given(paired_relations())
def test_meet_relates_the_common_pairs(rels):
    p, q, _ = rels
    assert set(p.meet(q).pairs()) == set(p.pairs()) & set(q.pairs())


@given(relations(), st.data())
def test_restrict_reads_the_sorted_subset(rel, data):
    subset = data.draw(
        st.lists(st.integers(0, rel.order - 1), min_size=1, unique=True)
    )
    members = sorted(subset)
    restricted = rel.restrict(subset)
    assert restricted.order == len(members)
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            assert restricted.related(i, j) == rel.related(a, b)


@given(paired_relations())
def test_meet_join_are_lattice_operations(rels):
    p, q, r = rels
    assert p.meet(q) == q.meet(p)
    assert p.join(q) == q.join(p)
    assert p.meet(p.join(q)) == p
    assert p.join(p.meet(q)) == p
    assert p.meet(q).meet(r) == p.meet(q.meet(r))
    assert p.join(q).join(r) == p.join(q.join(r))
    # meet and join really are the bounds for leq
    assert p.meet(q).leq(p) and p.meet(q).leq(q)
    assert p.leq(p.join(q)) and q.leq(p.join(q))
    if r.leq(p) and r.leq(q):
        assert r.leq(p.meet(q))
    if p.leq(r) and q.leq(r):
        assert p.join(q).leq(r)


@pytest.mark.parametrize("element", [-1, 4, "a", 1.5])
def test_from_pairs_rejects_elements_outside_the_carrier(element):
    # -1 must not wrap round to element 3, nor 4 escape as an IndexError,
    # nor a non-integer as a TypeError
    with pytest.raises(AlgebraError, match=f"element {element} out of range"):
        EquivRelation.from_pairs(4, [(element, 0)])
    with pytest.raises(AlgebraError, match=f"element {element} out of range"):
        congruence_generated_by(inverse_monoid4(), [(0, element)])


def test_from_blocks_names_each_block_by_its_least_member():
    rel = EquivRelation.from_blocks(4, [(3, 1), [2, 0]])
    assert rel.block_of == (0, 1, 0, 1)
    assert rel == EquivRelation.from_pairs(4, [(1, 3), (0, 2)])


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([[0, 1], [], [2]], "empty block"),
        ([[0, 1], [1, 2]], "element 1 repeated or out of range"),
        ([[-1], [0, 1, 2]], "element -1 repeated or out of range"),
        ([[0, 1, 2, 3]], "element 3 repeated or out of range"),
        ([["a"], [1, 2]], "element a repeated or out of range"),
        ([[0, 1.0], [2]], "element 1.0 repeated or out of range"),
        ([[0, 2]], "blocks do not cover the carrier"),
    ],
)
def test_from_blocks_rejects_malformed_blocks(blocks, message):
    with pytest.raises(AlgebraError, match=f"^{re.escape(message)}$"):
        EquivRelation.from_blocks(3, blocks)


@given(relations())
def test_leq_matches_pair_containment(rel):
    n = rel.order
    identity = EquivRelation.identity(n)
    universal = EquivRelation.universal(n)
    assert identity.leq(rel) and rel.leq(universal)
    assert rel.leq(rel)
    assert set(identity.pairs()) == set()
    assert len(universal.blocks()) == 1


@pytest.mark.parametrize("method", ["leq", "meet", "join"])
@pytest.mark.parametrize("orders", [(2, 3), (3, 2)])
def test_relation_operations_reject_another_order(method, orders):
    small, large = orders
    left, right = EquivRelation.identity(small), EquivRelation.universal(large)
    with pytest.raises(AlgebraError, match="partition does not match the carrier size"):
        getattr(left, method)(right)


@given(relations())
def test_blocks_partition_the_carrier(rel):
    blocks = rel.blocks()
    seen = sorted(x for b in blocks for x in b)
    assert seen == list(range(rel.order))
    assert rel.num_blocks == len(blocks)
    for b in blocks:
        for x in b:
            for y in b:
                assert rel.related(x, y)


@given(relations())
def test_partition_text_round_trip(rel):
    names = tuple(f"x{i}" for i in range(rel.order))
    text = format_partition(rel, names)
    assert parse_partition(text, names) == rel


@pytest.mark.parametrize("n", range(1, 7))
def test_blocks_and_partition_text_of_every_partition(n):
    # blocks() reads its blocks in first-seen order: least members ascending
    names = tuple(f"x{i}" for i in range(n))
    for rel in iter_partitions(n):
        assert rel.blocks() == tuple(
            sorted(tuple(x for x in range(n) if rel.related(x, b)) for b in set(rel.block_of))
        )
        assert parse_partition(format_partition(rel, names), names) == rel


def test_parse_partition_rejects_bad_text(f1):
    with pytest.raises(ParseError):
        parse_partition("a b | z", f1.names)
    with pytest.raises(ParseError):
        parse_partition("a b | b f", f1.names)
    with pytest.raises(ParseError):
        parse_partition("a b", f1.names)  # e and f missing


def test_congruence_rejects_non_compatible_relation(f1):
    rel = parse_partition("a e | b f", f1.names)
    assert is_congruence(f1, rel)
    bad = parse_partition("a b | e | f", f1.names)
    assert not is_congruence(f1, bad)
    with pytest.raises(NotACongruence):
        Congruence(f1, bad)


def test_the_public_constructor_validates_after_a_scan(f1, f1_report):
    # the lattice scan builds its congruences without re-testing them;
    # Congruence(g, rel) keeps the test and its message
    assert all_congruences(f1).congruences == f1_report.congruences
    bad = parse_partition("a b | e | f", f1.names)
    with pytest.raises(NotACongruence) as err:
        Congruence(f1, bad)
    assert str(err.value) == "a ~ b but left translation by b separates them"


def test_meet_and_join_need_one_groupoid(f1_report):
    # both build their result without a compatibility test
    chain = chain_semilattice(4)
    other = Congruence(chain, EquivRelation.identity(4))
    for combine in (congruence_meet, congruence_join):
        with pytest.raises(AlgebraError, match="different groupoids"):
            combine(f1_report.congruences[0], other)


def test_generated_congruence_is_least(f1, f1_report):
    rho = congruence_generated_by(f1, [(0, 2)])
    assert rho.partition_text() == "a e | b | f"
    for c in f1_report.congruences:
        if c.related(0, 2):
            assert rho.rel.leq(c.rel)


@given(st.data())
def test_generated_congruence_minimality(f1, f1_report, data):
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4)
    )
    c = congruence_generated_by(f1, pairs)
    assert all(c.related(a, b) for a, b in pairs)
    for other in f1_report.congruences:
        if all(other.related(a, b) for a, b in pairs):
            assert c.rel.leq(other.rel)


def test_congruence_meet_join(f1, f1_report):
    rho = f1_report.congruences[1]
    sigma = f1_report.congruences[2]
    assert congruence_meet(rho, sigma).partition_text() == "a | b | e | f"
    assert congruence_join(rho, sigma).partition_text() == "a b e f"


def test_kernels_on_the_running_example(f1, f1_report):
    assert [sorted(kernel(c)) for c in f1_report.congruences] == [
        [2, 3],
        [0, 2, 3],
        [2, 3],
        [0, 1, 2, 3],
        [0, 1, 2, 3],
    ]


def test_traces_on_the_running_example(f1_report):
    identity = EquivRelation.identity(2)
    universal = EquivRelation.universal(2)
    assert [trace(c) for c in f1_report.congruences] == [
        identity,
        identity,
        universal,
        identity,
        universal,
    ]


def test_kernel_trace_round_trip(f1, f1_report):
    for c in f1_report.congruences:
        rebuilt = from_kernel_trace(f1, kernel(c), trace(c))
        assert rebuilt.rel == c.rel


def _rebuilt_or_refusal(g, K, tau):
    """The rebuilt relation, or the message of the refusal."""
    try:
        return from_kernel_trace(g, K, tau).rel
    except InvalidCongruencePair as exc:
        return str(exc)


def test_exactly_the_valid_pairs_reconstruct(f1):
    valid = 0
    for size in range(1, 5):
        for subset in itertools.combinations(range(4), size):
            for tau in (EquivRelation.identity(2), EquivRelation.universal(2)):
                # a list, tuple or frozenset kernel gives the same outcome
                outcomes = {
                    _rebuilt_or_refusal(f1, kind(subset), tau)
                    for kind in (list, tuple, frozenset)
                }
                assert len(outcomes) == 1
                rebuilt = isinstance(outcomes.pop(), EquivRelation)
                assert is_congruence_pair(f1, subset, tau) == rebuilt
                valid += rebuilt
    assert valid == 5


@pytest.mark.parametrize("check", [is_congruence_pair, from_kernel_trace])
def test_kernel_trace_pairs_reject_non_completely_inverse(check):
    band = Groupoid.from_rows(["l", "r"], [["l", "l"], ["r", "r"]])
    with pytest.raises(NotCompletelyInverse):
        check(band, [0, 1], EquivRelation.identity(2))


def test_quotient_of_the_running_example(f1, f1_report):
    # each block is named after its least member: a e | b | f
    assert quotient(f1_report.congruences[1]).names == ("a", "b", "f")
    for c in f1_report.congruences:
        q = quotient(c)
        assert isinstance(q, Groupoid)
        least = sorted(set(c.rel.block_of))
        assert q.names == tuple(f1.names[b] for b in least)
        # x goes to the block named after its least member, a surjective
        # operation-preserving map
        image = [q.index(f1.names[c.rel.block_of[x]]) for x in f1.elements]
        assert sorted(set(image)) == list(q.elements)
        for a in f1.elements:
            for b in f1.elements:
                assert image[f1.mul(a, b)] == q.mul(image[a], image[b])
    # the quotient by the identity congruence is the carrier itself
    assert quotient(f1_report.congruences[0]) is f1


@pytest.mark.parametrize("trusted", [False, True])
def test_quotient_is_kept_once_per_congruence_outside_identity(f1, trusted):
    rel = EquivRelation.from_blocks(4, [(0, 2), (1,), (3,)])
    build = Congruence._trusted if trusted else Congruence
    c = build(f1, rel)
    before = (hash(c), repr(c), pickle.dumps(c))
    first = quotient(c)
    assert quotient(c) is first
    assert c == Congruence(f1, rel)
    assert (hash(c), repr(c), pickle.dumps(c)) == before
    again = pickle.loads(pickle.dumps(c))
    assert getattr(again, "_quotient", None) is None
    assert again == c and quotient(again) == first


@pytest.mark.parametrize("trusted", [False, True])
def test_kernel_and_trace_are_kept_once_per_congruence_outside_identity(f1, trusted):
    rel = EquivRelation.from_blocks(4, [(0, 2), (1,), (3,)])
    build = Congruence._trusted if trusted else Congruence
    c = build(f1, rel)
    before = (hash(c), repr(c), pickle.dumps(c))
    first_kernel, first_trace = kernel(c), trace(c)
    assert kernel(c) is first_kernel and trace(c) is first_trace
    assert c == Congruence(f1, rel)
    assert (hash(c), repr(c), pickle.dumps(c)) == before
    again = pickle.loads(pickle.dumps(c))
    assert getattr(again, "_kernel", None) is None
    assert getattr(again, "_trace", None) is None
    assert again == c and (kernel(again), trace(again)) == (first_kernel, first_trace)


def test_kernel_and_trace_failures_raise_on_every_call():
    g = Groupoid.from_function(("0", "1", "2"), lambda a, b: (a + 1) % 3)
    c = Congruence(g, EquivRelation.universal(3))
    for _ in range(2):
        with pytest.raises(KernelMismatch):
            kernel(c)
        with pytest.raises(AlgebraError, match="no idempotents"):
            trace(c)


def test_no_kept_object_has_a_dict_however_it_is_built(f1, f1_report):
    # every kept fact is a declared slot: an object with a __dict__ would
    # be larger and slower to read, and an undeclared kept name would be
    # stored in it without an error
    rel = EquivRelation.from_blocks(4, [(0, 2), (1,), (3,)])
    built = [
        Groupoid(f1.names, f1.table),
        Groupoid._trusted(f1.names, f1.table),
        Congruence(f1, rel),
        Congruence._trusted(f1, rel),
        LatticeReport(*(getattr(f1_report, f.name) for f in dataclasses.fields(LatticeReport))),
        f1_report,
    ]
    for obj in built + [pickle.loads(pickle.dumps(obj)) for obj in built]:
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(obj, "_undeclared", 1)


def _cubic_syntactic_labels(g, members):
    # the probe signatures in full: a, x*a, a*y and x*(a*y) for all x, y
    def signature(a):
        return (
            a in members,
            tuple(g.table[x][a] in members for x in g.elements),
            tuple(g.table[a][y] in members for y in g.elements),
            tuple(g.table[x][g.table[a][y]] in members for x in g.elements for y in g.elements),
        )

    return EquivRelation.from_keys(signature(a) for a in g.elements).block_of


def test_syntactic_congruence_matches_the_cubic_signatures(f1, f2, collapse):
    carriers = [f1, f2, collapse]
    for n in range(1, 5):
        carriers += enumerate_groupoids(EnumerationSpec(n, "ag-star-star"))
    checked = 0
    for g in carriers:
        for size in range(1, g.order + 1):
            for subset in itertools.combinations(g.elements, size):
                expected = _cubic_syntactic_labels(g, frozenset(subset))
                assert syntactic_congruence(g, subset).rel.block_of == expected, (g, subset)
                checked += 1
    assert checked > 1500


def test_induced_congruence(f1, f1_report):
    rho = f1_report.congruences[1]
    mu = f1_report.congruences[3]
    ind = induced_congruence(mu, rho)
    assert ind.partition_text() == "a | b f"
    with pytest.raises(NotARefinement):
        induced_congruence(rho, f1_report.congruences[2])


def test_quotient_raises_when_block_labels_collide():
    # the name is kept from when the block of a and b was labelled "{a,b}",
    # like the element "a,b", and the quotient raised; least-member names
    # cannot collide, so the quotient now builds
    g = Groupoid.from_function(("a", "b", "a,b"), lambda x, y: 0)
    rho = Congruence(g, EquivRelation.from_blocks(3, [(0, 1), (2,)]))
    q = quotient(rho)
    assert isinstance(q, Groupoid)
    assert q.names == ("a", "a,b")
    assert [q.index(g.names[b]) for b in rho.rel.block_of] == [0, 0, 1]


def test_induced_congruence_raises_when_block_labels_collide():
    # as above: on the least-member quotient of the same table the induced
    # congruence builds and relates both blocks
    g = Groupoid.from_function(("a", "b", "a,b"), lambda x, y: 0)
    rho = Congruence(g, EquivRelation.from_blocks(3, [(0, 1), (2,)]))
    universal = Congruence(g, EquivRelation.universal(3))
    induced = induced_congruence(universal, rho)
    assert induced.groupoid is quotient(rho)
    assert induced.related(0, 1)


def test_syntactic_congruence(f1):
    assert syntactic_congruence(f1, (2, 3)).partition_text() == "a b | e f"
    assert syntactic_congruence(f1, (0, 1, 2, 3)).partition_text() == "a b e f"
    # {b} is already a class of a e | b | f, and nothing larger keeps it whole
    assert syntactic_congruence(f1, (1,)).partition_text() == "a e | b | f"


def test_kernel_readings_disagree_without_idempotents():
    # a -> a+1 mod 3 has no idempotent, so no class holds one, yet the
    # universal relation relates every a to a*a
    g = Groupoid.from_function(("0", "1", "2"), lambda a, b: (a + 1) % 3)
    with pytest.raises(KernelMismatch):
        kernel(Congruence(g, EquivRelation.universal(3)))
