"""Exception types shared across the package.

All domain errors derive from QgorError so callers (and the CLI) can
catch library failures without swallowing genuine bugs.  Hypothesis
failures of the verified theorems are deliberately *not* exceptions;
they come back as in-band report fields.
"""


class QgorError(Exception):
    """Base class for every error raised by this package."""


class VertexOutOfRange(QgorError):
    """A vertex id is nonpositive or exceeds the ambient vertex count."""


class NotAFace(QgorError):
    """The given vertex set is not a face of the complex."""


class IndexOutOfRange(QgorError):
    """A facet index does not refer to a position in the facet list."""


class EmptySelection(QgorError):
    """A facet selection was empty where at least one facet is required."""


class CapacityExceeded(QgorError):
    """Work would exceed the configured face cap: the span of the facets
    (the sum of 2^|F| over them), the boundary ids of a cell build, or
    the entries touched by an elimination."""


class NotASubcomplex(QgorError):
    """The alleged subcomplex has a face outside the ambient complex."""


class NotPure(QgorError):
    """The operation requires all facets to have equal dimension."""


class NotAPseudomanifold(QgorError):
    """The operation requires a pseudomanifold (pure, strongly connected,
    every ridge in exactly two facets)."""


class TOutOfRange(QgorError):
    """The Gamma graph parameter t lies outside 0..dim+1."""


class GammaTwoNotIsolated(QgorError):
    """The removal set B is not edgeless in Gamma_2."""

    def __init__(self, pair, message=None):
        self.pair = pair
        super().__init__(message or f"facets {pair[0]} and {pair[1]} are adjacent in Gamma_2")


class HypothesesNotMet(QgorError):
    """A theorem-instance check was invoked with a failing premise."""

    def __init__(self, failed):
        self.failed = list(failed)
        super().__init__("hypotheses not met: " + "; ".join(self.failed))


class InvalidPartition(QgorError):
    """A facet partition (A, B) is empty on one side or ill-indexed."""


class InvalidStep(QgorError):
    """A collapse trace step is not a valid free pair when replayed."""

    def __init__(self, index, message):
        self.index = index
        super().__init__(f"step {index}: {message}")


class ParseError(QgorError):
    """A facet file failed to parse; carries the 1-based line number."""

    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class TooLarge(QgorError):
    """The brute-force oracle refuses complexes over its face budget."""
