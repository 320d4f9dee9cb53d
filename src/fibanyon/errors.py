"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input data violates a structural requirement."""


class NormalizationError(ValidationError):
    """Coefficients deviate from unit total beyond the accepted tolerance."""


class NotAState(ValueError):
    """Operator fails positivity or unit quantum trace."""


class SupportViolation(ValueError):
    """Relative entropy undefined: rho carries weight outside sigma's support."""


class BlockMismatch(ValueError):
    """Graded operators disagree on block keys, ranks, or representation."""


class DecompositionViolation(AssertionError):
    """A closed-form identity fails beyond tolerance (AREE = ACE + CE, the n-copy AREE
    against its constructed state, or a locality certificate against the Omega image);
    signals an implementation bug."""


class CopyLimitExceeded(ValueError):
    """Requested copy count exceeds the configured maximum."""


class DimensionMismatch(ValueError):
    """Observable blocks do not match the state's sector ranks."""


class TargetRankError(ValueError):
    """Rotation observable targets a sector of insufficient rank."""


class DomainError(ValueError):
    """Arguments lie outside the mathematical domain of a formula."""
