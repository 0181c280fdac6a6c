"""Exhaustive congruence lattices, markers, sublattice analysis."""

import dataclasses
import pickle
from pathlib import Path

import pytest

from aggroupoids import (
    all_congruences,
    e_unitary_congruences,
    format_lattice_report,
    fundamental_congruences,
    is_modular_sublattice,
    kernel_class,
    normal_subgroupoids,
    trace_class,
    trace_homomorphism,
)
from aggroupoids.congruences import EquivRelation, _canonical_labels
from aggroupoids.errors import (
    AlgebraError,
    BoundExceeded,
    NotASublattice,
    NotCompletelyInverse,
)
from aggroupoids.lattice import (
    LatticeReport,
    commuting_check,
    iter_partitions,
    satisfies_modular_law,
)
from aggroupoids.magma import Groupoid, parse_mag
from aggroupoids.samples import chain_semilattice
from test_lattice_reference import _composed_tables


def test_congruences_of_the_running_example(f1_report):
    assert [c.partition_text() for c in f1_report.congruences] == [
        "a | b | e | f",
        "a e | b | f",
        "a b | e f",
        "a e | b f",
        "a b e f",
    ]
    assert f1_report.bottom == 0
    assert f1_report.top == 4


def _table(report, op):
    indices = range(len(report.congruences))
    return tuple(tuple(op(i, j) for j in indices) for i in indices)


def test_meet_join_tables(f1_report):
    assert _table(f1_report, f1_report.meet) == (
        (0, 0, 0, 0, 0),
        (0, 1, 0, 1, 1),
        (0, 0, 2, 0, 2),
        (0, 1, 0, 3, 3),
        (0, 1, 2, 3, 4),
    )
    assert _table(f1_report, f1_report.join) == (
        (0, 1, 2, 3, 4),
        (1, 1, 4, 3, 4),
        (2, 4, 2, 4, 4),
        (3, 3, 4, 3, 4),
        (4, 4, 4, 4, 4),
    )


def test_markers(f1_report):
    marked = [m.names() for m in f1_report.markers]
    assert marked == [
        ("idempotent-separating", "idempotent-pure", "e-unitary"),
        ("idempotent-separating", "e-disjunctive"),
        ("idempotent-pure", "ag-group", "e-unitary", "e-disjunctive"),
        ("idempotent-separating", "semilattice", "e-unitary", "fundamental"),
        ("semilattice", "ag-group", "e-unitary", "fundamental", "e-disjunctive"),
    ]


def test_index_of(f1_report):
    for i, c in enumerate(f1_report.congruences):
        assert f1_report.index_of(c.rel) == i
    with pytest.raises(KeyError):
        f1_report.index_of(f1_report.congruences[0].rel.restrict((0, 1)))


def test_index_of_keeps_its_dict_outside_identity_and_names_a_miss(f1_report):
    report = LatticeReport(
        *(getattr(f1_report, f.name) for f in dataclasses.fields(LatticeReport))
    )
    before = (hash(report), repr(report), pickle.dumps(report))
    assert report.index_of(report.congruences[2].rel) == 2
    assert report._index is not None and report == f1_report
    assert (hash(report), repr(report), pickle.dumps(report)) == before
    # the same order, but a partition that is no congruence of f1
    missing = EquivRelation.from_blocks(4, [(0, 1), (2,), (3,)])
    assert all(c.rel != missing for c in report.congruences)
    for rel in missing, report.congruences[0].rel.restrict((0, 1)):
        with pytest.raises(KeyError) as err:
            report.index_of(rel)
        assert err.value.args == ("relation is not a congruence of this lattice",)
    again = pickle.loads(pickle.dumps(report))
    assert getattr(again, "_index", None) is None
    assert again == report and again.index_of(report.congruences[2].rel) == 2


def test_whole_lattice_is_a_pentagon(f1_report):
    # five congruences in the minimal non-modular configuration
    modular, witness = is_modular_sublattice(f1_report, range(5))
    assert not modular
    assert witness == (0, 1, 2, 3, 4)


def test_separating_interval_is_modular_and_commuting(f1_report):
    separating = [
        i for i, m in enumerate(f1_report.markers) if m.idempotent_separating
    ]
    assert separating == [0, 1, 3]
    modular, witness = is_modular_sublattice(f1_report, separating)
    assert modular and witness is None
    assert commuting_check(f1_report, separating)


def test_sublattice_check_rejects_non_sublattices(f1_report):
    with pytest.raises(NotASublattice):
        is_modular_sublattice(f1_report, [1, 2])  # join 4 missing


@pytest.mark.parametrize("subset, bad", [([-1, 0], -1), ([0, 4, 9], 9)])
@pytest.mark.parametrize(
    "helper", [is_modular_sublattice, satisfies_modular_law, commuting_check]
)
def test_sublattice_helpers_reject_indices_outside_the_lattice(
    f1_report, helper, subset, bad
):
    # the lattice of inverse_monoid4 has five congruences, indices 0..4
    with pytest.raises(NotASublattice, match=f"^index {bad} names no congruence"):
        helper(f1_report, subset)


def test_trace_homomorphism(f1):
    hom = trace_homomorphism(f1)
    assert hom.image == (0, 0, 1, 0, 1)
    assert hom.section == (3, 4)
    assert [c.partition_text() for c in hom.target.congruences] == [
        "e | f",
        "e f",
    ]


@pytest.mark.parametrize(
    "rows",
    [
        # a left-zero band: its idempotents form a subgroupoid
        [["l", "l"], ["r", "r"]],
        # idempotents l and r whose product x is no idempotent
        [["l", "x", "x"], ["x", "r", "x"], ["x", "x", "l"]],
    ],
    ids=["band", "unclosed"],
)
def test_trace_homomorphism_rejects_non_completely_inverse(rows):
    g = Groupoid.from_rows(["l", "r", "x"][: len(rows)], rows)
    with pytest.raises(NotCompletelyInverse):
        trace_homomorphism(g)


def test_trace_classes(f1_report):
    assert trace_class(f1_report, 0) == (0, 1, 3)
    assert trace_class(f1_report, 2) == (2, 4)


def test_kernel_classes(f1_report):
    assert kernel_class(f1_report, 0) == (0, 2)
    assert kernel_class(f1_report, 1) == (1,)
    assert kernel_class(f1_report, 3) == (3, 4)


@pytest.mark.parametrize("index", [-1, 5])
@pytest.mark.parametrize("helper", [trace_class, kernel_class])
def test_class_helpers_reject_indices_outside_the_lattice(f1_report, helper, index):
    with pytest.raises(AlgebraError, match=f"^index {index} names no congruence"):
        helper(f1_report, index)


def test_fundamental_congruences(f1_report):
    assert fundamental_congruences(f1_report) == (3, 4)


def test_fundamental_congruences_reject_a_table_without_inverses():
    data = Path(__file__).resolve().parents[1] / "demos" / "data"
    g = parse_mag((data / "subtraction_null6.mag").read_text())
    with pytest.raises(NotCompletelyInverse, match="^element '0_1' has no inverse$"):
        fundamental_congruences(all_congruences(g))


def test_normal_subgroupoids(f1):
    assert [sorted(n) for n in normal_subgroupoids(f1)] == [
        [2, 3],
        [0, 1, 2, 3],
    ]


def test_e_unitary_families(f1_report):
    members, families = e_unitary_congruences(f1_report)
    assert members == (0, 2, 3, 4)
    assert [(sorted(n), interval) for n, interval in families] == [
        ([2, 3], (0, 2)),
        ([0, 1, 2, 3], (3, 4)),
    ]


def test_collapse_lattice(collapse):
    report = all_congruences(collapse)
    assert [c.partition_text() for c in report.congruences] == [
        "t0 | t1 | b0 | b1",
        "t0 t1 | b0 | b1",
        "t0 | t1 | b0 b1",
        "t0 t1 b0 | b1",
        "t0 t1 | b0 b1",
        "t0 t1 b0 b1",
    ]
    members, families = e_unitary_congruences(report)
    assert members == (1, 3, 4, 5)
    assert [(sorted(n), interval) for n, interval in families] == [
        ([0, 1, 2], (1, 3)),
        ([0, 1, 2, 3], (4, 5)),
    ]


def _restricted_growth(n):
    """Restricted-growth label lists of 0..n-1, the first label 0 and
    each later one at most one above the largest before it."""
    labels = [0] * n

    def rec(i, used):
        if i == n:
            yield list(labels)
            return
        for v in range(used + 1):
            labels[i] = v
            yield from rec(i + 1, used + (v == used))

    yield from rec(1, 1)


def test_iter_partitions_counts_bell_numbers():
    """Bell(n) distinct partitions, in restricted-growth order with the
    labels relabelled to least block members."""
    for n, bell in enumerate((1, 2, 5, 15, 52, 203), start=1):
        found = list(iter_partitions(n))
        assert len(set(found)) == bell
        assert found == [
            EquivRelation(n, _canonical_labels(labels)) for labels in _restricted_growth(n)
        ]


@pytest.mark.parametrize("n", [0, -1])
def test_iter_partitions_rejects_an_empty_carrier(n):
    with pytest.raises(AlgebraError):
        iter_partitions(n)


def test_all_congruences_respects_the_bound():
    table = tuple(tuple(min(i, j) for j in range(7)) for i in range(7))
    g = Groupoid(tuple(f"x{i}" for i in range(7)), table)
    with pytest.raises(BoundExceeded):
        all_congruences(g)
    report = all_congruences(g, bound=7)
    assert len(report.congruences) > 1


def test_order_seven_null_table_keeps_only_index_masks():
    # every partition of a null table is a congruence: Bell(7) of them
    g = Groupoid.from_function(tuple(f"x{i}" for i in range(7)), lambda a, b: 0)
    report = all_congruences(g, bound=7)
    assert len(report.congruences) == 877
    assert [f.name for f in dataclasses.fields(LatticeReport)] == [
        "groupoid",
        "congruences",
        "markers",
        "up",
        "down",
    ]
    assert report.meet(0, report.top) == 0
    assert report.join(0, report.top) == report.top


def test_report_format_is_stable(f1_report):
    text = format_lattice_report(f1_report)
    assert text.startswith("congruences:\n  0: a | b | e | f\n")
    assert "meet:" in text and "join:" in text and "markers:" in text
    assert text == format_lattice_report(f1_report)


def _printed_sections(text):
    """Each section of a lattice report, by header, as its lines."""
    sections = {}
    for line in text.splitlines():
        if line.startswith("  "):
            sections[header].append(line)
        else:
            header = line.removesuffix(":")
            sections[header] = []
    return sections


def _universe(name):
    if name == "null-6":
        return [Groupoid.from_function(tuple(f"x{i}" for i in range(6)), lambda a, b: 0)]
    if name == "chain-6":
        return [chain_semilattice(6)]
    return _composed_tables()


@pytest.mark.parametrize("universe", ["null-6", "chain-6", "composed"])
def test_printed_meet_and_join_tables_read_the_report(universe):
    for g in _universe(universe):
        report = all_congruences(g)
        indices = range(len(report.congruences))
        if universe == "null-6":
            # every partition is a congruence: Bell(6) of them
            assert len(indices) == 203
        sections = _printed_sections(format_lattice_report(report))
        for name, entry, row in (
            ("meet", report.meet, report.meet_row),
            ("join", report.join, report.join_row),
        ):
            printed = [tuple(map(int, line.split())) for line in sections[name]]
            assert printed == [tuple(entry(i, j) for j in indices) for i in indices]
            assert [row(i) for i in indices] == printed


def test_semilattice_congruences_are_all_partitions():
    # on a chain every order-convex grouping is a congruence; spot check count
    report = all_congruences(chain_semilattice(2))
    assert len(report.congruences) == 2
