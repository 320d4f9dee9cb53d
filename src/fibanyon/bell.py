"""CHSH values and locality certificates of joint multi-copy states, in closed form.

Local observables are Hermitian involutions, block diagonal across the
charge sectors of the measured subsystem, so the CHSH combination on a
pure state only pairs coefficients that share a sector.  Locality is
decided exactly by one predicate, :attr:`SchmidtState.max_rank` of the
joint n-copy state: a sector of rank >= 2 (equivalently CE > 0) violates
CHSH (Gisin, Phys. Lett. A 154, 201 (1991)), and a state whose sectors
all have rank <= 1 is certified local by a separable mixture of one
product term per sector.  The reported CHSH value, the plane bound of
the top coefficient pair of the best rank->=2 sector, is a witnessed
lower bound.  All read only the grouped Schmidt data; the dense
observables, expectations, witnesses and mixtures that reproduce them
live in :mod:`fibanyon.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import ValidationError
from .model import Charge
from .multicopy import n_copy
from .states import SchmidtState

TSIRELSON = 2.0 * math.sqrt(2.0)

_VIOLATION_TOL = 1e-9
_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Analytic one-plane bound
# ---------------------------------------------------------------------------


def type_c_bound(l1: float, l2: float) -> tuple[float, tuple[float, float, float, float]]:
    """CHSH value reachable on the 2-plane of two same-sector coefficients.

    For coefficients l1, l2 sharing a sector (p = l1 + l2 <= 1, the
    remaining probability 1 - p pinned to +1 eigenvectors)::

        value = 2 p sqrt(1 + 4 l1 l2 / p**2) + 2 (1 - p)

    attained at alpha1 = 0, alpha2 = pi/2, beta1 = -beta2 =
    arctan(2 sqrt(l1 l2) / p).  Exceeds 2 whenever l1, l2 > 0.
    """
    if l1 <= 0.0 or l2 <= 0.0:
        raise ValidationError(f"plane coefficients must be positive, got {l1!r}, {l2!r}")
    if l1 + l2 > 1.0 + 1e-9:
        raise ValidationError(f"plane coefficients sum to {l1 + l2!r}, more than 1")
    p = l1 + l2
    q = 2.0 * math.sqrt(l1 * l2)
    value = 2.0 * math.sqrt(p * p + q * q) + 2.0 * (1.0 - p)
    beta = math.atan2(q, p)
    return value, (0.0, 0.5 * math.pi, beta, -beta)


# ---------------------------------------------------------------------------
# CHSH value of the joint state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CHSHResult:
    """Closed-form CHSH verdict and value of a joint state, with its witness.

    ``verdict`` is exact: ``"violation"`` when some joint sector has
    Schmidt rank >= 2 (equivalently CE > 0).  ``value`` is the top-pair
    plane bound of the best rank->=2 sector, a witnessed lower bound on
    the CHSH optimum (exact at 2 sqrt(2)) that can round to 2 on a tiny
    coefficient, or 2 for a local state.  The witness is the rotation
    family of ``sector`` at ``angles`` (alpha1, alpha2, beta1, beta2),
    non-null exactly on a violation, else four identities;
    :func:`fibanyon.oracle.witness` builds its dense observables on request.
    """

    value: float
    angles: tuple[float, float, float, float] | None
    copies: int
    verdict: str
    sector: Charge | None
    ranks: Mapping[Charge, int] = field(repr=False)

    def __post_init__(self) -> None:
        if abs(self.value) > TSIRELSON + _VIOLATION_TOL:
            raise ValidationError(f"CHSH value {self.value!r} exceeds the quantum bound")


def optimize_chsh(state: SchmidtState, copies: int = 1) -> CHSHResult:
    """CHSH verdict and value of the joint ``copies``-fold state, in closed form.

    The verdict is ``"violation"`` exactly when the joint ``max_rank`` is
    >= 2.  Each sector of rank >= 2 then offers the rotation family on the
    plane of its two largest coefficients, worth :func:`type_c_bound` of
    that pair (Horodecki et al., Phys. Lett. A 200, 340 (1995)); the
    largest bound wins, ties going to the first sector, with angles (0,
    pi/2, beta, 2 pi - beta).  A local state gets 2, reached by identity
    observables.  Only the grouped Schmidt data is read, so every copy
    count that :func:`n_copy` accepts works; the witness observables are
    built by :func:`fibanyon.oracle.witness`.
    """
    joint = n_copy(state, copies)
    if joint.max_rank < 2:
        return CHSHResult(2.0, None, copies, "local-bound-respected", None, joint.ranks)
    planes = []
    for c in joint.charges:
        if joint.rank(c) >= 2:
            values, mults = joint.grouped(c)
            l1 = float(values[0])
            l2 = l1 if mults[0] >= 2 else float(values[1])
            bound, (a1, a2, b1, b2) = type_c_bound(l1, l2)
            planes.append((bound, c, (a1, a2, b1, b2 % _TWO_PI)))
    value, sector, angles = max(planes, key=lambda plane: plane[0])
    return CHSHResult(value, angles, copies, "violation", sector, joint.ranks)


def local_terms(state: SchmidtState, copies: int = 1) -> tuple[tuple[float, Charge], ...] | None:
    """Separable certificate of locality of the joint ``copies``-fold state, or None.

    A joint state whose sectors all have Schmidt rank <= 1 has no
    conventional entanglement, and its Omega image is the mixture of one
    product term per sector c: with probability p_c, both sides hold the
    sector's basis state.  The terms are (p_c, c) in charge order.  When
    ``max_rank`` is >= 2 the state is nonlocal, the CHSH verdict is
    ``"violation"``, and None is returned.  The dense mixture is rebuilt
    by :func:`fibanyon.oracle.certificate_gap`.
    """
    joint = n_copy(state, copies)
    if joint.max_rank >= 2:
        return None
    return tuple((joint.sector_probability(c), c) for c in joint.charges)
