"""Exception types shared across the package.

Every package error derives from :class:`FibanyonError` and from a
builtin base: ``AssertionError`` for a violated closed-form identity,
``ValueError`` for everything else.
"""


class FibanyonError(Exception):
    """Root of every error the package raises."""


class ValidationError(FibanyonError, ValueError):
    """Input data violates a structural requirement."""


class NormalizationError(ValidationError):
    """Coefficients deviate from unit total beyond the accepted tolerance."""


class NotAState(FibanyonError, ValueError):
    """Operator fails positivity or unit quantum trace."""


class SupportViolation(FibanyonError, ValueError):
    """Relative entropy undefined: rho carries weight outside sigma's support."""


class BlockMismatch(FibanyonError, ValueError):
    """Graded operators disagree on block keys, ranks, or representation."""


class DecompositionViolation(FibanyonError, AssertionError):
    """A closed-form identity fails beyond tolerance (AREE = ACE + CE, or the n-copy
    AREE against its constructed state); signals an implementation bug."""


class CopyLimitExceeded(FibanyonError, ValueError):
    """A request too large to compute: a copy count past 66, whose binomials
    pass int64, an n-copy over the composition budget or past an int64 joint
    rank, or dense witness observables, operators or random separable
    directions past 2048 rows."""


class DimensionMismatch(FibanyonError, ValueError):
    """Observable blocks do not match the state's sector ranks."""


class TargetRankError(FibanyonError, ValueError):
    """Rotation observable targets a sector of insufficient rank."""


class DomainError(FibanyonError, ValueError):
    """Arguments lie outside the mathematical domain of a formula."""
