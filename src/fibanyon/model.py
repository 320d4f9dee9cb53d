"""Fibonacci anyon model: charges, fusion rules, exact quantum dimensions.

The model has two topological charges, the vacuum (label ``"1"``) and the
Fibonacci anyon tau.  Fusion is multiplicity-free::

    1 x 1 = 1,   1 x tau = tau x 1 = tau,   tau x tau = 1 + tau

Quantum dimensions live in the quadratic field Q[sqrt(5)]: d_1 = 1 and
d_tau = (1 + sqrt(5)) / 2, the golden ratio.  They are kept exact
(:class:`QSqrt5`, a pair of rationals) so that identities such as
``sum_c dim(n, c) * d_c = d_tau**n`` hold with no rounding; floats enter
only at entropy and optimization boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ValidationError

_SQRT5 = math.sqrt(5.0)


class Charge(str, Enum):
    """Topological charge label.  String values match the on-disk format."""

    VACUUM = "1"
    TAU = "tau"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


CHARGE_ORDER: tuple[Charge, Charge] = (Charge.VACUUM, Charge.TAU)


def fuse(a: Charge, b: Charge) -> frozenset[Charge]:
    """Set of possible fusion outcomes of ``a x b``."""
    if a is Charge.VACUUM:
        return frozenset((b,))
    if b is Charge.VACUUM:
        return frozenset((a,))
    return frozenset(CHARGE_ORDER)


@dataclass(frozen=True)
class QSqrt5:
    """Element a + b*sqrt(5) of Q[sqrt(5)] with rational a, b."""

    a: Fraction
    b: Fraction

    @classmethod
    def from_int(cls, n: int) -> QSqrt5:
        return cls(Fraction(n), Fraction(0))

    def __add__(self, other: QSqrt5 | int) -> QSqrt5:
        other = _coerce(other)
        return QSqrt5(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: QSqrt5 | int) -> QSqrt5:
        other = _coerce(other)
        return QSqrt5(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: QSqrt5 | int) -> QSqrt5:
        return _coerce(other) - self

    def __neg__(self) -> QSqrt5:
        return QSqrt5(-self.a, -self.b)

    def __mul__(self, other: QSqrt5 | int) -> QSqrt5:
        other = _coerce(other)
        return QSqrt5(
            self.a * other.a + 5 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QSqrt5:
        if n < 0:
            raise ValidationError("negative powers not supported")
        out = QSqrt5.from_int(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * _SQRT5

    def __repr__(self) -> str:
        return f"QSqrt5({self.a}, {self.b})"


def _coerce(x: QSqrt5 | int) -> QSqrt5:
    return x if isinstance(x, QSqrt5) else QSqrt5.from_int(x)


#: Golden ratio (1 + sqrt(5)) / 2, exact and as a float.
PHI_EXACT = QSqrt5(Fraction(1, 2), Fraction(1, 2))
PHI = float(PHI_EXACT)

#: log2 of the golden ratio; the single-copy anyonic entanglement entropy
#: of the two-anyon vacuum-channel state.
LOG2_PHI = math.log2(PHI)


def qdim(a: Charge) -> QSqrt5:
    """Exact quantum dimension of a charge."""
    return PHI_EXACT if a is Charge.TAU else QSqrt5.from_int(1)


def qdim_float(a: Charge) -> float:
    return PHI if a is Charge.TAU else 1.0


def fusion_space_dim(n: int, c: Charge) -> int:
    """Number of fusion-tree basis states of ``n`` tau anyons with total charge ``c``.

    Counts paths of cumulative charges c_1 = tau, c_{k+1} in c_k x tau,
    ending at c_n = c.  The two sector counts follow the Fibonacci
    recurrence dim(n+1, 1) = dim(n, tau), dim(n+1, tau) = dim(n, 1) + dim(n, tau).
    """
    if n < 1:
        raise ValidationError(f"need at least one anyon, got n={n}")
    dim_vac, dim_tau = 0, 1  # one tau anyon
    for _ in range(n - 1):
        dim_vac, dim_tau = dim_tau, dim_vac + dim_tau
    return dim_tau if c is Charge.TAU else dim_vac

