"""Exception types shared across the library."""

__all__ = [
    "AlgebraError",
    "ParseError",
    "NotCompletelyInverse",
    "NotAgStarStar",
    "NotAnAgGroup",
    "NotACongruence",
    "KernelMismatch",
    "InvalidCongruencePair",
    "NotARefinement",
    "NotEUnitary",
    "InvalidStructure",
    "NotCommutativeInverseSemigroup",
    "NotNormal",
    "NotASublattice",
    "BoundExceeded",
]


class AlgebraError(ValueError):
    """Base class for all domain errors raised by this library."""


class ParseError(AlgebraError):
    """Malformed textual input. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        self.message = message
        super().__init__(message if line is None else f"line {line}: {message}")


class NotCompletelyInverse(AlgebraError):
    """The operation needs a completely inverse AG**-carrier."""


class NotAgStarStar(AlgebraError):
    """The operation needs an AG**-carrier."""


class NotAnAgGroup(AlgebraError):
    """The operation needs an AG-group."""


class NotACongruence(AlgebraError):
    """The given partition is not compatible with the product."""


class KernelMismatch(AlgebraError):
    """The two kernel definitions disagree, so the carrier is not
    idempotent-surjective and the kernel is not well defined here."""


class InvalidCongruencePair(AlgebraError):
    """The (kernel, trace) candidate violates one of the pair conditions."""


class NotARefinement(AlgebraError):
    """Pushing a congruence to a quotient needs the quotient's congruence
    to refine it."""


class NotEUnitary(AlgebraError):
    """The operation needs an E-unitary quotient."""


class InvalidStructure(AlgebraError):
    """A strong-semilattice presentation violates one of its conditions.

    ``condition`` names the first violated one: "semilattice", "component",
    "maps", "identity-map", "homomorphism" or "composition".
    """

    def __init__(self, condition: str, message: str):
        self.condition = condition
        super().__init__(message)


class NotCommutativeInverseSemigroup(AlgebraError):
    """The derived-product construction needs a commutative inverse
    semigroup as input."""


class NotNormal(AlgebraError):
    """The subset is not a normal subgroupoid; ``violation`` says why."""

    def __init__(self, violation: str):
        self.violation = violation
        super().__init__(f"not a normal subgroupoid: {violation}")


class NotASublattice(AlgebraError):
    """The subset is not closed under the report's meet and join."""


class BoundExceeded(AlgebraError):
    """The order is above the fixed bound for its class and strategy
    (table enumeration), for the theorem battery, or for the exhaustive
    congruence scan."""
