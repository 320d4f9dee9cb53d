"""Bipartite pure anyonic states in Schmidt form.

A pure bipartite state of total vacuum charge is stored in Schmidt form:
per charge sector ``c`` a list of nonnegative coefficients ``lambda_{c,i}``
with ``sum_{c,i} lambda_{c,i} = 1``.  Coefficients are stored grouped as
``(value, multiplicity)`` pairs so that multi-copy states with heavily
repeated coefficients stay compact.  This module parses and validates
that data (:func:`new_schmidt_state` makes every check of a coefficient)
and keeps it canonical; the measures computed from it live in
:mod:`fibanyon.measures`, and the dense graded operators built from it
in :mod:`fibanyon.oracle`.
"""

from __future__ import annotations

import math
import numbers
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .model import CHARGE_ORDER, Charge

_SUM_TOL = 1e-9
#: No single coefficient of a state can exceed 1 by more than the sum tolerance.
_COEFF_MAX = 1.0 + _SUM_TOL


def _as_charge(key: Charge | str) -> Charge:
    if isinstance(key, Charge):
        return key
    try:
        return Charge(key)
    except ValueError:
        raise ValidationError(f"unknown charge label {key!r}; expected '1' or 'tau'") from None


class SchmidtState:
    """Canonical Schmidt data: zero coefficients stripped, sectors sorted descending."""

    __slots__ = ("_sectors",)

    def __init__(self, sectors: Mapping[Charge, tuple[np.ndarray, np.ndarray]]):
        # Internal constructor; use new_schmidt_state / from_arrays.
        self._sectors = dict(sectors)

    # -- accessors ---------------------------------------------------------

    @property
    def charges(self) -> tuple[Charge, ...]:
        return tuple(c for c in CHARGE_ORDER if c in self._sectors)

    def rank(self, c: Charge) -> int:
        if c not in self._sectors:
            return 0
        return int(self._sectors[c][1].sum())

    @property
    def ranks(self) -> dict[Charge, int]:
        return {c: self.rank(c) for c in self.charges}

    @property
    def max_rank(self) -> int:
        """Largest sector Schmidt rank; >= 2 exactly when CE > 0 and the state is nonlocal."""
        return max(map(self.rank, self.charges), default=0)

    def grouped(self, c: Charge) -> tuple[np.ndarray, np.ndarray]:
        """(values, multiplicities) for sector ``c``, values descending."""
        if c not in self._sectors:
            return np.empty(0), np.empty(0, dtype=np.int64)
        return self._sectors[c]

    def coefficients(self, c: Charge) -> np.ndarray:
        """Flat coefficient list for sector ``c`` (descending)."""
        values, mults = self.grouped(c)
        return np.repeat(values, mults)

    def sector_probability(self, c: Charge) -> float:
        values, mults = self.grouped(c)
        # np.sum, not BLAS np.dot, whose last bit depends on the thread count.
        return float(np.sum(values * mults))

    @property
    def p_tau(self) -> float:
        return self.sector_probability(Charge.TAU)

    def total(self) -> float:
        return sum(self.sector_probability(c) for c in self.charges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchmidtState):
            return NotImplemented
        if self.charges != other.charges:
            return False
        return all(
            np.array_equal(self._sectors[c][0], other._sectors[c][0])
            and np.array_equal(self._sectors[c][1], other._sectors[c][1])
            for c in self.charges
        )

    def __repr__(self) -> str:
        parts = []
        for c in self.charges:
            values, mults = self._sectors[c]
            entries = ", ".join(
                f"{v:.6g}" if m == 1 else f"{v:.6g}x{m}" for v, m in zip(values, mults)
            )
            parts.append(f"{c.value}: [{entries}]")
        return f"SchmidtState({'; '.join(parts)})"


def _canonical(values: np.ndarray, mults: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One sector's groups sorted descending into new arrays, zeros stripped, equal ones merged."""
    order = np.argsort(values)[::-1]
    values, mults = values[order], mults[order]
    if values.size and values[-1] == 0.0:
        nonzero = np.count_nonzero(values)
        values, mults = values[:nonzero], mults[:nonzero]
    return _merge_equal(values, mults)


def _merge_equal(values: np.ndarray, mults: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge runs of equal values in a sorted sector, summing int64 multiplicities exactly."""
    distinct = values[1:] != values[:-1]
    if np.count_nonzero(distinct) < distinct.size:
        starts = np.flatnonzero(np.concatenate(([True], distinct)))
        values, mults = values[starts], np.add.reduceat(mults, starts)
    return values, mults


def from_arrays(sectors: Mapping[Charge, tuple[np.ndarray, np.ndarray]]) -> SchmidtState:
    """Canonical state from valid per-sector float64 values and int64 multiplicities.

    The one canonicalisation of Schmidt data, for :func:`new_schmidt_state`
    and :func:`fibanyon.multicopy.n_copy`: zeros stripped, equal values
    merged, sectors sorted descending, arrays read-only.  The total may
    deviate from 1 by at most 1e-9; values are then divided by it and
    equal ones merged again (division by a positive total keeps the order
    and, with the total within 1e-9 of 1, makes no positive value zero).
    """
    canonical = {}
    for c in CHARGE_ORDER:
        if c in sectors:
            values, mults = _canonical(*sectors[c])
            if values.size:
                canonical[c] = (values, mults)
    if not canonical:
        raise ValidationError("state needs at least one positive Schmidt coefficient")
    total = SchmidtState(canonical).total()
    if abs(total - 1.0) > _SUM_TOL:
        raise ValidationError(
            f"Schmidt coefficients sum to {total!r}, deviating from 1 by more than {_SUM_TOL}"
        )
    for c, (values, mults) in canonical.items():
        values /= total  # the sorted copy made by _canonical; never the caller's array
        values, mults = _merge_equal(values, mults)
        values.setflags(write=False)
        mults.setflags(write=False)
        canonical[c] = (values, mults)
    return SchmidtState(canonical)


def new_schmidt_state(sectors: Mapping[Charge | str, Sequence[float]]) -> SchmidtState:
    """Validate sector-indexed Schmidt coefficients and build the canonical state.

    The one check of Schmidt data from outside the package, for state
    files and callers alike.  Each sector must be a list, tuple or 1-D
    array with a known charge label, and each coefficient a real number
    (not a bool) that is nonnegative, finite and at most 1 + 1e-9.  The
    sectors are checked in input order, each one's container first, then
    its label, then its coefficients, and the first fault names the error.
    At least one coefficient must be positive, and the total may deviate
    from 1 by at most 1e-9 (the state is then renormalized exactly).
    Zeros are stripped; within each sector the values are sorted
    descending, and equal ones share a group.
    """
    arrays = {}
    for key, values in sectors.items():
        if not isinstance(values, (list, tuple, np.ndarray)) or getattr(values, "ndim", 1) != 1:
            label = getattr(key, "value", key)
            raise ValidationError(f"sector {label!r} must be an array of numbers, got {values!r}")
        c = _as_charge(key)
        floats: list[float] = []
        for i, value in enumerate(values):
            try:
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise TypeError
                v = float(value)
            except (TypeError, OverflowError):
                raise ValidationError(
                    f"Schmidt coefficient {value!r} at sector {c.value!r} index {i} "
                    "is not a number"
                ) from None
            if not 0.0 <= v <= _COEFF_MAX:
                if v < 0.0:
                    raise ValidationError(
                        f"negative Schmidt coefficient {value!r} at sector {c.value!r} index {i}"
                    )
                if not math.isfinite(v):
                    raise ValidationError(
                        f"non-finite Schmidt coefficient {v!r} in sector {c.value!r}"
                    )
                raise ValidationError(f"Schmidt coefficient {v!r} in sector {c.value!r} exceeds 1")
            floats.append(v)
        arrays[c] = (np.array(floats, dtype=float), np.ones(len(floats), dtype=np.int64))
    return from_arrays(arrays)


def state_from_dict(payload: Mapping) -> SchmidtState:
    """Parse the on-disk state format ``{"sectors": {"1": [...], "tau": [...]}}``.

    Checks the document alone, an object whose ``"sectors"`` maps charge
    labels to coefficient arrays, and hands those to
    :func:`new_schmidt_state`, which checks every sector and coefficient.
    """
    if not isinstance(payload, Mapping) or "sectors" not in payload:
        raise ValidationError('state file must be an object with a "sectors" key')
    sectors = payload["sectors"]
    if not isinstance(sectors, Mapping):
        raise ValidationError('"sectors" must map charge labels to coefficient arrays')
    return new_schmidt_state(sectors)


def random_schmidt_state(
    rng: np.random.Generator,
    max_rank: int = 3,
    require_rank2: bool = False,
) -> SchmidtState:
    """Draw a random state with Dirichlet-distributed coefficients.

    Sector ranks are uniform on 0..max_rank (at least one sector kept
    nonempty).  With ``require_rank2`` some sector is forced to rank >= 2.
    A ``max_rank`` below 1, or below 2 with ``require_rank2``, admits no
    state and raises :class:`ValidationError` before ``rng`` is read.
    """
    lowest = 2 if require_rank2 else 1
    if max_rank < lowest:
        raise ValidationError(f"max_rank {max_rank!r} is below {lowest}; no state can be drawn")
    while True:
        k_vac = int(rng.integers(0, max_rank + 1))
        k_tau = int(rng.integers(0, max_rank + 1))
        if k_vac + k_tau == 0:
            continue
        if require_rank2 and max(k_vac, k_tau) < 2:
            continue
        break
    coeffs = rng.dirichlet(np.ones(k_vac + k_tau))
    sectors: dict[Charge, list[float]] = {}
    if k_vac:
        sectors[Charge.VACUUM] = list(coeffs[:k_vac])
    if k_tau:
        sectors[Charge.TAU] = list(coeffs[k_vac:])
    return new_schmidt_state(sectors)
