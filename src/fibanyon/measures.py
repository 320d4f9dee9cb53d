"""Entanglement measures for pure anyonic states, in closed form.

Four measures are computed, all in bits:

* AEE  -- anyonic entanglement entropy of a reduced subsystem;
* AREE -- relative entropy of entanglement, the quantum-trace relative
  entropy to the closest separable state;
* ACE  -- anyonic charge entanglement, the relative entropy to the
  Omega image of the state (its projection onto the operator subspace
  with tensor-product structure);
* CE   -- conventional entanglement, the AREE of the Omega image.

Each is a closed form in the grouped Schmidt data.  For pure states
AREE = ACE + CE holds exactly; :func:`measure_report` asserts it.
:func:`classify` sorts states into types A, B and C exactly by the
sector ranks, the predicate that also decides the CHSH verdict.
The numeric route through block relative entropies, which rebuilds these
values and certifies the closest separable state a minimum, lives in
:mod:`fibanyon.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DecompositionViolation
from .model import LOG2_PHI, Charge
from .states import SchmidtState, shannon_entropy

_DECOMP_TOL = 1e-9


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


def _sector_probabilities(state: SchmidtState) -> dict[Charge, float]:
    """p_c = sum_i lambda_{c,i} for each sector of the state, in charge order."""
    return {c: state.sector_probability(c) for c in state.charges}


def _aee(h: float, p_tau: float) -> float:
    return h + p_tau * LOG2_PHI


def _aree(h: float, p_tau: float) -> float:
    return h + 2.0 * p_tau * LOG2_PHI


def _ace(probs: dict[Charge, float]) -> float:
    return shannon_entropy(list(probs.values())) + 2.0 * probs.get(Charge.TAU, 0.0) * LOG2_PHI


def _ce(state: SchmidtState, probs: dict[Charge, float]) -> float:
    total = 0.0
    for c, p in probs.items():
        if p <= 0.0:
            continue
        values, mults = state.grouped(c)
        total += p * shannon_entropy(values / p, mults)
    return total


def aee(state: SchmidtState) -> float:
    """Anyonic entanglement entropy H({lambda_{c,i}}) + p_tau * log2(d_tau)."""
    return _aee(_schmidt_entropy(state), state.p_tau)


def e_aree_pure(state: SchmidtState) -> float:
    """AREE of a pure state: H({lambda}) + 2 * p_tau * log2(d_tau)."""
    return _aree(_schmidt_entropy(state), state.p_tau)


def e_ace_pure(state: SchmidtState) -> float:
    """Charge entanglement of a pure state: H({p_c}) + 2 * p_tau * log2(d_tau)."""
    return _ace(_sector_probabilities(state))


def e_ce_pure(state: SchmidtState) -> float:
    """Conventional entanglement: sum_c p_c * H({lambda_{c,i} / p_c})."""
    return _ce(state, _sector_probabilities(state))


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
    """All four closed-form measures; asserts AREE = ACE + CE before returning.

    H({lambda}) and the sector probabilities are computed once and shared,
    so each measure has the bits of its single-measure function.
    """
    h = _schmidt_entropy(state)
    probs = _sector_probabilities(state)
    p_tau = probs.get(Charge.TAU, 0.0)
    return MeasureReport(
        aee=_aee(h, p_tau),
        aree=_aree(h, p_tau),
        ace=_ace(probs),
        ce=_ce(state, probs),
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
