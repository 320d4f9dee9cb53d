"""Exception types shared across the package.

Every package error derives from :class:`FibanyonError` and from a
builtin base: ``AssertionError`` for a violated closed-form identity,
``ValueError`` for everything else.
"""


class FibanyonError(Exception):
    """Root of every error the package raises."""


class ValidationError(FibanyonError, ValueError):
    """An input or argument the package cannot accept.

    That covers malformed or unnormalised Schmidt data, an argument outside
    a formula's domain (a copy count below 1, a negative power), and, in
    the dense oracle, an operator that is not a state, graded operators
    whose blocks, ranks or stacks disagree, a relative entropy with weight
    outside the reference's support, and observables whose blocks miss the
    state's sector ranks or target a sector of too low a rank.  The message
    names which check failed.
    """


class DecompositionViolation(FibanyonError, AssertionError):
    """A closed-form identity fails beyond tolerance (AREE = ACE + CE, or the n-copy
    AREE against its constructed state); signals an implementation bug."""


class CopyLimitExceeded(FibanyonError, ValueError):
    """A request too large to compute: a copy count past 66, whose binomials
    pass int64, an n-copy over the composition budget or past an int64 joint
    rank, or dense witness observables, operators or random separable
    directions past 2048 rows."""
