"""The congruence lattice against relation-level references.

`all_congruences` scans label tuples, keeps its order as index masks
over the sorted congruence list and computes meet and join from them
with bit operations, reads the fundamental and e-disjunctive markers
off the trace and kernel classes, and tests only the laws the other
markers name. Here the congruences come from a set-partition scan and a
compatibility test of this file's own, the order, meet and join from
`EquivRelation.leq`, `.meet` and `.join`, and the markers from a copy of
the earlier `_markers_for`, which ran a full `classify` on every
quotient and tested the `trace_max` and `kernel_max` fixed points. The
universe is every `ag` class representative of order 1-4, every
completely inverse one of order 5, and composed tables of order 5 and
6, one of them left invertive but not completely inverse. The order,
meet and join are also checked on the order-7 chain (64 congruences).

The pruned partition scan is checked against the unpruned filter, and
the markers against the reference, on the `ag` classes of order 1-4,
every `demos/data` table, and the order-7 chain and null table.

`is_modular_sublattice` scans the modular law and builds a pentagon from
its first failure. Its verdict is checked against a walk over every
five-tuple of congruences on the whole lattice of each `ag` class of
order 1-4, and every witness it returns against the pentagon relations.
"""

import itertools
import pathlib

import pytest

from aggroupoids import (
    EnumerationSpec,
    all_congruences,
    classify,
    enumerate_groupoids,
    is_modular_sublattice,
    parse_mag,
)
from aggroupoids.canonical import kernel_max, trace_max
from aggroupoids.congruences import (
    EquivRelation,
    _compatibility_witness,
    is_congruence,
    quotient,
)
from aggroupoids.lattice import CongruenceMarkers, _partition_labels, iter_partitions
from aggroupoids.magma import Groupoid, idempotents, is_idempotent_table
from aggroupoids.samples import (
    chain_semilattice,
    cyclic_group,
    subtraction_mod,
    vee_semilattice,
)
from aggroupoids.structure import StrongSemilattice, compose


def _reference_markers(c, completely_inverse):
    """The markers as read off a full classification of the quotient."""
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
    q = quotient(c)
    report = classify(q)
    semilattice = report.is_commutative and report.is_associative and is_idempotent_table(q)
    fundamental = None
    e_disjunctive = None
    if completely_inverse:
        fundamental = trace_max(c).rel == c.rel
        e_disjunctive = kernel_max(c).rel == c.rel
    return CongruenceMarkers(
        idempotent_separating=separating,
        idempotent_pure=pure,
        semilattice=semilattice,
        ag_group=report.is_ag_group,
        e_unitary=report.is_e_unitary,
        fundamental=fundamental,
        e_disjunctive=e_disjunctive,
    )


def _relabel(g, prefix):
    return Groupoid(tuple(prefix + name for name in g.names), g.table)


def _strong(y, groups, down):
    """Compose AG-groups over the semilattice y; down maps (i, j) with
    i above j to the images of component i in component j."""
    maps = [(i, i, tuple(range(g.order))) for i, g in enumerate(groups)]
    maps += [(i, j, images) for (i, j), images in down.items()]
    components = tuple(_relabel(g, f"c{i}_") for i, g in enumerate(groups))
    return compose(StrongSemilattice(y, components, tuple(sorted(maps))))


def _with_null_factor(g, k):
    """Direct product with the k-element null table: left invertive
    whenever g is, never completely inverse."""
    names = tuple(f"{a}_{x}" for a in g.names for x in range(k))
    return Groupoid.from_function(names, lambda p, q: g.table[p // k][q // k] * k)


def _composed_tables():
    two, three = cyclic_group(2), subtraction_mod(3)
    return [
        _strong(chain_semilattice(2), (two, three), {(1, 0): (0, 0, 0)}),
        _strong(chain_semilattice(2), (two, cyclic_group(4)), {(1, 0): (0, 1, 0, 1)}),
        _strong(chain_semilattice(2), (subtraction_mod(2), subtraction_mod(4)), {(1, 0): (0, 1, 0, 1)}),
        _strong(chain_semilattice(2), (cyclic_group(1), subtraction_mod(5)), {(1, 0): (0,) * 5}),
        _strong(
            chain_semilattice(3),
            (two, two, two),
            {(1, 0): (0, 1), (2, 0): (0, 1), (2, 1): (0, 1)},
        ),
        _strong(
            chain_semilattice(3),
            (cyclic_group(1), two, three),
            {(1, 0): (0, 0), (2, 0): (0, 0, 0), (2, 1): (0, 0, 0)},
        ),
        _strong(vee_semilattice(), (cyclic_group(1), two, two), {(1, 0): (0, 0), (2, 0): (0, 0)}),
        _strong(vee_semilattice(), (cyclic_group(1), two, three), {(1, 0): (0, 0), (2, 0): (0, 0, 0)}),
        _with_null_factor(three, 2),
    ]


UNIVERSES = ["ag-1", "ag-2", "ag-3", "ag-4", "ci-5", "composed"]
SCAN_UNIVERSES = ["ag-1", "ag-2", "ag-3", "ag-4", "golden", "chain-7", "null-7"]
CLASS_OF_PREFIX = {"ag": "ag", "ci": "completely-inverse"}
DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"


def _universe(name):
    if name == "composed":
        return _composed_tables()
    if name == "golden":
        paths = sorted(DATA.glob("*.mag"))
        return [parse_mag(path.read_text(encoding="utf-8")) for path in paths]
    if name == "chain-7":
        return [chain_semilattice(7)]
    if name == "null-7":
        return [Groupoid.from_function(tuple(f"x{i}" for i in range(7)), lambda a, b: 0)]
    prefix, n = name.split("-")
    return enumerate_groupoids(EnumerationSpec(int(n), CLASS_OF_PREFIX[prefix]))


def _set_partitions(elements):
    """Every partition of a list as a list of blocks: the last element
    joins each block of a partition of the rest, or stands alone."""
    if not elements:
        yield []
        return
    *rest, last = elements
    for blocks in _set_partitions(rest):
        for k in range(len(blocks)):
            yield blocks[:k] + [blocks[k] + [last]] + blocks[k + 1:]
        yield blocks + [[last]]


def _compatible(g, rel):
    t = g.table
    return all(
        rel.related(t[c][a], t[c][b]) and rel.related(t[a][c], t[b][c])
        for a, b in rel.pairs()
        for c in g.elements
    )


def _first_split(table, block_of):
    """The first (a, b, c, side) over every pair a < b in one block, then
    every c, left translation before right, whose translates fall in
    different blocks; None when there is none."""
    for a, b in itertools.combinations(range(len(block_of)), 2):
        if block_of[a] != block_of[b]:
            continue
        for c in range(len(block_of)):
            if block_of[table[c][a]] != block_of[table[c][b]]:
                return a, b, c, "left"
            if block_of[table[a][c]] != block_of[table[b][c]]:
                return a, b, c, "right"
    return None


def _scanned_congruences(g):
    return [
        rel
        for rel in (
            EquivRelation.from_blocks(g.order, blocks)
            for blocks in _set_partitions(list(g.elements))
        )
        if _compatible(g, rel)
    ]


def test_composed_tables_cover_orders_five_and_six():
    tables = _composed_tables()
    assert {g.order for g in tables} == {5, 6}
    inverse = [classify(g).is_completely_inverse for g in tables]
    assert inverse == [True] * (len(tables) - 1) + [False]
    assert classify(tables[-1]).is_ag


@pytest.mark.parametrize("universe", UNIVERSES + ["chain-7"])
def test_tables_match_the_relation_oracle(universe):
    for g in _universe(universe):
        report = all_congruences(g, bound=7)
        rels = [c.rel for c in report.congruences]
        scanned = _scanned_congruences(g)
        assert len(rels) == len(scanned) and set(rels) == set(scanned)
        assert rels[0] == EquivRelation.identity(g.order)
        assert rels[-1] == EquivRelation.universal(g.order)
        index = {rel: i for i, rel in enumerate(rels)}
        for i, p in enumerate(rels):
            for j, q in enumerate(rels):
                assert report.leq(i, j) == p.leq(q)
                assert report.meet(i, j) == index[p.meet(q)]
                assert report.join(i, j) == index[p.join(q)]


@pytest.mark.parametrize("universe", SCAN_UNIVERSES)
def test_pruned_scan_keeps_exactly_the_congruences(universe):
    """With the prefix cut or without it, the tuples that pass the
    compatibility test are those of iter_partitions that is_congruence
    accepts; the cut drops tuples but keeps the order of the rest. The
    test's witness, which starts pairs only at least members, is the
    first split over all pairs."""
    for g in _universe(universe):
        expected = sorted(
            rel.block_of for rel in iter_partitions(g.order) if is_congruence(g, rel)
        )
        every = _partition_labels(g.order)
        pruned = _partition_labels(g.order, g.table)
        rest = iter(every)
        assert all(labels in rest for labels in pruned)
        for labels in every:
            assert _compatibility_witness(g.table, labels) == _first_split(g.table, labels)
        for scanned in (every, pruned):
            kept = [b for b in scanned if _compatibility_witness(g.table, b) is None]
            assert sorted(kept) == expected
        report = all_congruences(g, bound=7)
        assert sorted(c.rel.block_of for c in report.congruences) == expected


def test_the_prefix_cut_drops_partitions():
    # on the order-7 chain the cut leaves exactly the 64 congruences of
    # its 877 partitions
    g = chain_semilattice(7)
    assert len(_partition_labels(7)) == 877
    assert len(_partition_labels(7, g.table)) == 64


@pytest.mark.parametrize("universe", sorted(set(UNIVERSES + SCAN_UNIVERSES)))
def test_markers_match_the_classify_reference(universe):
    for g in _universe(universe):
        report = all_congruences(g, bound=7)
        completely_inverse = classify(g).is_completely_inverse
        assert report.markers == tuple(
            _reference_markers(c, completely_inverse) for c in report.congruences
        )


def _is_pentagon(report, witness):
    """The ten relations of a pentagon (bottom, low, side, high, top):
    the five edges of its diagram, low strictly below high, and the side
    meeting and joining both."""
    o, a, b, c, i = witness
    return (
        report.leq(o, a)
        and report.leq(a, c)
        and report.leq(c, i)
        and report.leq(o, b)
        and report.leq(b, i)
        and a != c
        and report.meet(a, b) == o
        and report.meet(c, b) == o
        and report.join(a, b) == i
        and report.join(c, b) == i
    )


def _reference_pentagon(report, members):
    """The first ordered five-tuple of distinct members that forms a
    pentagon, else None."""
    return next(
        (t for t in itertools.permutations(members, 5) if _is_pentagon(report, t)),
        None,
    )


def test_modularity_matches_the_pentagon_walk():
    tables = [g for n in range(1, 5) for g in _universe(f"ag-{n}")]
    assert len(tables) == 355
    non_modular = 0
    for g in tables:
        report = all_congruences(g)
        whole = range(len(report.congruences))
        modular, witness = is_modular_sublattice(report, whole)
        assert modular == (_reference_pentagon(report, whole) is None)
        if modular:
            assert witness is None
        else:
            non_modular += 1
            assert _is_pentagon(report, witness)
    assert non_modular == 5


def test_modularity_of_two_whole_order_six_lattices():
    chain = all_congruences(chain_semilattice(6))
    assert len(chain.congruences) == 32
    assert is_modular_sublattice(chain, range(32)) == (True, None)
    names = tuple(f"x{i}" for i in range(6))
    null = all_congruences(Groupoid.from_function(names, lambda a, b: 0))
    assert len(null.congruences) == 203
    modular, witness = is_modular_sublattice(null, range(203))
    assert not modular and _is_pentagon(null, witness)
