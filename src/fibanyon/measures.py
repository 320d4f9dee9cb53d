"""Entanglement measures for pure anyonic states, in closed form.

Four measures are computed, all in bits:

* AEE  -- anyonic entanglement entropy of a reduced subsystem;
* AREE -- relative entropy of entanglement, the quantum-trace relative
  entropy to the closest separable state;
* ACE  -- anyonic charge entanglement, the relative entropy to the
  Omega image of the state (its projection onto the operator subspace
  with tensor-product structure);
* CE   -- conventional entanglement, the AREE of the Omega image.

Each is a closed form in the grouped Schmidt data, built from Shannon
entropies.  :func:`measure_report` is the one route to all four; for
pure states AREE = ACE + CE holds exactly, and it asserts that.
:func:`classify` sorts states into types A, B and C exactly by the
sector ranks, the predicate that also decides the CHSH verdict.
The numeric route through block relative entropies, which rebuilds these
values and certifies the closest separable state a minimum, lives in
:mod:`fibanyon.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DecompositionViolation
from .model import LOG2_PHI, Charge
from .states import SchmidtState

_DECOMP_TOL = 1e-9


def _shannon_entropy(
    values: Sequence[float] | np.ndarray, mults: Sequence[int] | np.ndarray | None = None
) -> float:
    """Shannon entropy in bits; zero-probability entries contribute 0.

    A distribution on one point gives +0.0, not -0.0.
    """
    vals = np.asarray(values, dtype=float)
    m = np.ones_like(vals) if mults is None else np.asarray(mults, dtype=float)
    mask = vals > 0.0
    if not np.any(mask):
        return 0.0
    v = vals[mask]
    return 0.0 - float(np.sum(m[mask] * v * np.log2(v)))


def _schmidt_entropy(state: SchmidtState) -> float:
    """H({lambda_{c,i}}) in bits, over the grouped Schmidt data of every sector.

    The terms mult * value * log2(value) are added left to right in charge
    and group order by ``np.cumsum`` (``np.sum`` adds pairwise), and
    ``0.0 - total`` gives a rank-1 state +0.0 where ``-total`` gives -0.0.
    """
    terms = [
        mults * values * np.log2(values) for values, mults in map(state.grouped, state.charges)
    ]
    return 0.0 - float(np.cumsum(np.concatenate(terms))[-1])


@dataclass(frozen=True)
class MeasureReport:
    """AEE / AREE / ACE / CE values for one state, in bits."""

    aee: float
    aree: float
    ace: float
    ce: float

    def __post_init__(self) -> None:
        if abs(self.aree - self.ace - self.ce) > _DECOMP_TOL:
            raise DecompositionViolation(
                f"AREE {self.aree!r} != ACE {self.ace!r} + CE {self.ce!r}"
            )
        if self.aee > self.aree + _DECOMP_TOL:
            raise DecompositionViolation(f"AEE {self.aee!r} exceeds AREE {self.aree!r}")

    def as_dict(self) -> dict[str, float]:
        return {"aee": self.aee, "aree": self.aree, "ace": self.ace, "ce": self.ce}


def measure_report(state: SchmidtState) -> MeasureReport:
    """All four closed-form measures of a pure state, the one route to each.

    With H = H({lambda_{c,i}}) and p_c the sector probabilities:
    AEE = H + p_tau log2(d_tau), AREE = H + 2 p_tau log2(d_tau),
    ACE = H({p_c}) + 2 p_tau log2(d_tau) and CE = sum_c p_c H({lambda_{c,i} / p_c}).
    With one sector H({p_c}) is exactly +0.0, not the rounding of a p_c
    one ulp off 1.  :class:`MeasureReport` asserts AREE = ACE + CE before
    it is returned.
    """
    h = _schmidt_entropy(state)
    probs = {c: state.sector_probability(c) for c in state.charges}
    p_tau = probs.get(Charge.TAU, 0.0)
    ce = 0.0
    for c, p in probs.items():
        values, mults = state.grouped(c)
        ce += p * _shannon_entropy(values / p, mults)
    charge_entropy = _shannon_entropy(list(probs.values())) if len(probs) > 1 else 0.0
    return MeasureReport(
        aee=h + p_tau * LOG2_PHI,
        aree=h + 2.0 * p_tau * LOG2_PHI,
        ace=charge_entropy + 2.0 * p_tau * LOG2_PHI,
        ce=ce,
    )


class StateClass(Enum):
    """Entanglement classes of pure anyonic states.

    TYPE_A: no entanglement of any kind (product states).
    TYPE_B: charge entanglement only; local, but multi-copy measurements
        activate a Bell violation.
    TYPE_C: nonzero conventional entanglement; violates CHSH outright.
    """

    TYPE_A = "A"
    TYPE_B = "B"
    TYPE_C = "C"


def classify(state: SchmidtState) -> StateClass:
    """C if some sector has Schmidt rank >= 2 (CE > 0), else B if p_tau > 0 (ACE > 0), else A."""
    if state.max_rank >= 2:
        return StateClass.TYPE_C
    if Charge.TAU in state.charges:
        return StateClass.TYPE_B
    return StateClass.TYPE_A
