"""Command-line front end.

Every command reads plain text and writes plain text, so outputs diff
cleanly and repeated runs are byte-identical. Tables travel in the .mag
format; decompositions in the sectioned structure format.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .canonical import canonical_suite
from .congruences import format_partition
from .enumeration import CLASSES, EnumerationSpec, enumerate_groupoids
from .errors import AlgebraError
from .lattice import all_congruences, format_lattice_report
from .magma import classify, format_mag, parse_mag
from .structure import (
    compose,
    decompose,
    derived_groupoid,
    format_strong_semilattice,
    parse_strong_semilattice,
)
from .verify import run_all

__all__ = ["main"]


def _read(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise AlgebraError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise AlgebraError(f"cannot read {path}: not UTF-8 text") from exc


def _table(path):
    return parse_mag(_read(path))


def _cmd_check(args):
    g = _table(args.file)
    print(f"order: {g.order}")
    for name, value in classify(g).items():
        print(f"{name}: {'yes' if value else 'no'}")
    return 0


def _cmd_analyze(args):
    g = _table(args.file)
    for name, c in canonical_suite(g).items():
        print(f"{name}: {c.partition_text()}")
    return 0


def _cmd_congruences(args):
    g = _table(args.file)
    report = all_congruences(g)
    for i, c in enumerate(report.congruences):
        names = report.markers[i].names()
        tags = " ".join(names) if names else "-"
        print(f"{i}: {format_partition(c.rel, g.names)}  [{tags}]")
    return 0


def _cmd_lattice(args):
    g = _table(args.file)
    sys.stdout.write(format_lattice_report(all_congruences(g)))
    return 0


def _cmd_decompose(args):
    g = _table(args.file)
    sys.stdout.write(format_strong_semilattice(decompose(g)))
    return 0


def _cmd_compose(args):
    s = parse_strong_semilattice(_read(args.file))
    sys.stdout.write(format_mag(compose(s)))
    return 0


def _cmd_derive(args):
    g = _table(args.file)
    sys.stdout.write(format_mag(derived_groupoid(g)))
    return 0


def _cmd_enumerate(args):
    spec = EnumerationSpec(
        args.order, args.class_filter, up_to_isomorphism=not args.labeled
    )
    found = enumerate_groupoids(spec, strategy=args.strategy)
    if args.census_only:
        print(len(found))
        return 0
    sys.stdout.write("\n".join(format_mag(g) for g in found))
    return 0


def _cmd_verify(args):
    results = run_all(bound=args.order, only=args.only)
    failed = False
    for r in results:
        if r.passed:
            print(f"ok {r.check_id} ({r.instances} instances)")
        else:
            failed = True
            print(f"FAIL {r.check_id} ({r.instances} instances)")
            for line in r.detail.splitlines():
                print(f"  {line}")
    return 1 if failed else 0


@functools.cache
def _parser():
    # built once per process: parse_args leaves the tree unchanged
    parser = argparse.ArgumentParser(
        prog="aggroupoids",
        description="analyze, decompose, and enumerate left invertive tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help=".mag table, or - for stdin")
        p.set_defaults(handler=handler)
        return p

    with_file("check", _cmd_check, "classify a table")
    with_file("analyze", _cmd_analyze, "print the four canonical congruences")
    with_file("congruences", _cmd_congruences, "list every congruence with markers")
    with_file("lattice", _cmd_lattice, "print the full congruence lattice")
    with_file("decompose", _cmd_decompose, "split a table into indexed components")
    p = sub.add_parser("compose", help="rebuild a table from its components")
    p.add_argument("file", help="structure description, or - for stdin")
    p.set_defaults(handler=_cmd_compose)
    with_file("derive", _cmd_derive, "twist a commutative inverse semigroup")

    p = sub.add_parser("enumerate", help="generate all tables of a class")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--class", dest="class_filter", required=True, choices=CLASSES)
    p.add_argument("--census-only", action="store_true", help="print only the count")
    p.add_argument("--labeled", action="store_true", help="do not fold isomorphs")
    p.add_argument("--strategy", choices=("filter", "synthesis"))
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", help="run the theorem checks")
    p.add_argument("--order", type=int, default=3, help="largest table order")
    p.add_argument("--only", help="run a single check id")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
