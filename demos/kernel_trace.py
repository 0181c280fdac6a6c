"""Show that a congruence is its kernel plus its trace, nothing more.

Each congruence of the running example is read as its kernel and its
trace, and rebuilt from those two values. The script then prints the
images of the six bounding operators for a generated congruence, the
coordinates every other congruence with the same kernel or trace must
sit between.
"""

from aggroupoids import (
    all_congruences,
    congruence_generated_by,
    format_partition,
    from_kernel_trace,
    idempotents,
    kernel,
    kernel_max,
    kernel_min,
    trace,
    trace_max,
    trace_min,
)
from aggroupoids.samples import inverse_monoid4


def main():
    g = inverse_monoid4()
    report = all_congruences(g)
    id_names = [g.names[i] for i in idempotents(g)]

    print("kernel-trace coordinates")
    for c in report.congruences:
        K, tau = kernel(c), trace(c)
        names = sorted(g.names[i] for i in K)
        rebuilt = from_kernel_trace(g, K, tau)
        assert rebuilt.rel == c.rel
        trace_text = format_partition(tau, id_names)
        print(
            f"  {c.partition_text():<14} "
            f"kernel {{{' '.join(names)}}}  trace {trace_text}"
        )
    print()

    rho = congruence_generated_by(g, [(g.index("a"), g.index("e"))])
    print(f"generated congruence: {rho.partition_text()}")
    for label, op in [
        ("smallest with this trace", trace_min),
        ("largest with this trace", trace_max),
        ("smallest with this kernel", kernel_min),
        ("largest with this kernel", kernel_max),
    ]:
        print(f"  {label}: {op(rho).partition_text()}")


if __name__ == "__main__":
    main()
