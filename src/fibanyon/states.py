"""Bipartite pure anyonic states and charge-graded density operators.

A pure bipartite state of total vacuum charge is stored in Schmidt form:
per charge sector ``c`` a list of nonnegative coefficients ``lambda_{c,i}``
with ``sum_{c,i} lambda_{c,i} = 1``.  Coefficients are grouped as
``(value, multiplicity)`` pairs so that multi-copy states with heavily
repeated coefficients stay compact.

Density-type operators carry a block per superselection sector together
with a quantum-trace weight.  Three block layouts appear:

* subsystem operators, keyed by a single charge ``X`` with weight ``d_X``;
* bipartite product-basis operators (separable states, Omega images),
  keyed by a charge pair ``(X, Y)`` with weight ``d_X * d_Y`` -- the block
  matrix acts identically on every fusion channel of the pair;
* total-vacuum joint operators (pure-state projectors), a single block
  over the fused vacuum-channel basis with weight 1, where coherences
  between charge sectors are allowed.

The quantum trace of any of these is ``sum_blocks weight * tr(block)``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Literal, Mapping, Sequence

import numpy as np

from .errors import NormalizationError, NotAState, ValidationError
from .model import CHARGE_ORDER, Charge, qdim_float

Side = Literal["A", "B"]

#: Block key of the total-vacuum joint (fusion-channel) representation.
VACUUM_BLOCK = "vacuum-channel"

KIND_SUBSYSTEM = "subsystem"
KIND_PRODUCT = "product"
KIND_JOINT = "joint"

_SUM_TOL = 1e-9
#: No single coefficient of a state can exceed 1 by more than the sum tolerance.
_COEFF_MAX = 1.0 + _SUM_TOL
_STATE_TOL = 1e-10
_PURITY_TOL = 1e-10
_EIG_ZERO = 1e-12


def shannon_entropy(values: Iterable[float], mults: Iterable[int] | None = None) -> float:
    """Shannon entropy in bits; zero-probability entries contribute 0."""
    vals = np.asarray(list(values), dtype=float)
    m = np.ones_like(vals) if mults is None else np.asarray(list(mults), dtype=float)
    mask = vals > 0.0
    if not np.any(mask):
        return 0.0
    v = vals[mask]
    return float(-np.sum(m[mask] * v * np.log2(v)))


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
        # Internal constructor; use new_schmidt_state / from_grouped.
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
        return float(np.dot(values, mults))

    @property
    def p_tau(self) -> float:
        return self.sector_probability(Charge.TAU)

    def items(self) -> Iterator[tuple[Charge, float, int]]:
        for c in self.charges:
            values, mults = self._sectors[c]
            for v, m in zip(values, mults):
                yield c, float(v), int(m)

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


def _canonical_sectors(
    grouped: Mapping[Charge, Sequence[tuple[float, int]]],
) -> dict[Charge, tuple[np.ndarray, np.ndarray]]:
    sectors: dict[Charge, tuple[np.ndarray, np.ndarray]] = {}
    for c in CHARGE_ORDER:
        if c not in grouped:
            continue
        merged: dict[float, int] = {}
        for value, mult in grouped[c]:
            if value == 0.0:
                continue
            merged[value] = merged.get(value, 0) + mult
        if not merged:
            continue
        order = sorted(merged, reverse=True)
        values = np.array(order, dtype=float)
        mults = np.array([merged[v] for v in order], dtype=np.int64)
        values.setflags(write=False)
        mults.setflags(write=False)
        sectors[c] = (values, mults)
    return sectors


def from_grouped(
    grouped: Mapping[Charge, Sequence[tuple[float, int]]],
) -> SchmidtState:
    """Build a state from ``(value, multiplicity)`` groups, renormalizing.

    Same contract as :func:`new_schmidt_state`: negatives, non-finite
    values and values above 1 + 1e-9 rejected, zeros stripped, and the
    total may deviate from 1 by at most 1e-9.
    """
    for c, entries in grouped.items():
        label = _as_charge(c).value
        for value, mult in entries:
            if not 0.0 <= value <= _COEFF_MAX:
                if not math.isfinite(value):
                    raise ValidationError(
                        f"non-finite Schmidt coefficient {value!r} in sector {label!r}"
                    )
                if value < 0.0:
                    raise ValidationError(
                        f"negative Schmidt coefficient {value!r} in sector {label!r}"
                    )
                raise NormalizationError(
                    f"Schmidt coefficient {value!r} in sector {label!r} exceeds 1"
                )
            if mult < 0:
                raise ValidationError(f"negative multiplicity {mult!r} in sector {label!r}")
    sectors = _canonical_sectors({_as_charge(c): list(v) for c, v in grouped.items()})
    if not sectors:
        raise ValidationError("state needs at least one positive Schmidt coefficient")
    total = sum(float(np.dot(v, m)) for v, m in sectors.values())
    if abs(total - 1.0) > _SUM_TOL:
        raise NormalizationError(
            f"Schmidt coefficients sum to {total!r}, deviating from 1 by more than {_SUM_TOL}"
        )
    rescaled = {
        c: [(float(v) / total, int(m)) for v, m in zip(*vm)] for c, vm in sectors.items()
    }
    return SchmidtState(_canonical_sectors(rescaled))


def new_schmidt_state(sectors: Mapping[Charge | str, Sequence[float]]) -> SchmidtState:
    """Validate and canonicalize sector-indexed Schmidt coefficients.

    Coefficients must be finite, nonnegative numbers with at least one
    positive entry and total within 1e-9 of 1 (they are then renormalized
    exactly).  Zeros are stripped; within each sector the list is sorted
    descending.
    """
    grouped: dict[Charge, list[tuple[float, int]]] = {}
    for key, values in sectors.items():
        c = _as_charge(key)
        entries: list[tuple[float, int]] = []
        for i, value in enumerate(values):
            try:
                v = float(value)
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(
                    f"Schmidt coefficient {value!r} at sector {c.value!r} index {i} "
                    "is not a number"
                ) from None
            if v < 0.0:
                raise ValidationError(
                    f"negative Schmidt coefficient {value!r} at sector {c.value!r} index {i}"
                )
            entries.append((v, 1))
        grouped[c] = entries
    return from_grouped(grouped)


def state_from_dict(payload: Mapping) -> SchmidtState:
    """Parse the on-disk state format ``{"sectors": {"1": [...], "tau": [...]}}``.

    Each sector must be an array of JSON numbers; booleans, strings and
    nested containers are rejected with :class:`ValidationError`.
    """
    if not isinstance(payload, Mapping) or "sectors" not in payload:
        raise ValidationError('state file must be an object with a "sectors" key')
    sectors = payload["sectors"]
    if not isinstance(sectors, Mapping):
        raise ValidationError('"sectors" must map charge labels to coefficient arrays')
    for label, values in sectors.items():
        if not isinstance(values, list):
            raise ValidationError(f"sector {label!r} must be an array of numbers, got {values!r}")
        for i, value in enumerate(values):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValidationError(
                    f"Schmidt coefficient {value!r} at sector {label!r} index {i} "
                    "is not a number"
                )
    return new_schmidt_state(sectors)


def state_to_dict(state: SchmidtState) -> dict:
    return {
        "sectors": {c.value: [float(v) for v in state.coefficients(c)] for c in state.charges}
    }


# ---------------------------------------------------------------------------
# Graded density operators
# ---------------------------------------------------------------------------

BlockKey = object  # Charge | tuple[Charge, Charge] | VACUUM_BLOCK


class GradedDensityOperator:
    """Charge-block operator with a quantum-trace weight per block."""

    __slots__ = ("_blocks", "_ranks", "_kind")

    def __init__(
        self,
        blocks: Mapping[BlockKey, np.ndarray],
        ranks: Mapping[Charge, int] | None = None,
    ):
        if not blocks:
            raise ValidationError("operator needs at least one block")
        stored: dict[BlockKey, np.ndarray] = {}
        kinds = set()
        for key, matrix in blocks.items():
            m = np.array(matrix, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValidationError(f"block {key!r} is not a square matrix")
            m.setflags(write=False)
            stored[key] = m
            if key == VACUUM_BLOCK:
                kinds.add(KIND_JOINT)
            elif isinstance(key, Charge):
                kinds.add(KIND_SUBSYSTEM)
            elif (
                isinstance(key, tuple)
                and len(key) == 2
                and all(isinstance(k, Charge) for k in key)
            ):
                kinds.add(KIND_PRODUCT)
            else:
                raise ValidationError(f"unrecognized block key {key!r}")
        if len(kinds) != 1:
            raise ValidationError(f"mixed block-key kinds {sorted(kinds)}")
        self._kind = kinds.pop()
        if self._kind == KIND_SUBSYSTEM and ranks is None:
            ranks = {c: stored[c].shape[0] for c in stored}
        if self._kind != KIND_SUBSYSTEM and ranks is None:
            raise ValidationError("bipartite operators need explicit sector ranks")
        self._ranks = {c: int(k) for c, k in ranks.items() if int(k) > 0}
        self._check_shapes(stored)
        self._blocks = stored

    def _check_shapes(self, blocks: Mapping[BlockKey, np.ndarray]) -> None:
        for key, m in blocks.items():
            if key == VACUUM_BLOCK:
                expected = sum(k * k for k in self._ranks.values())
            elif isinstance(key, Charge):
                expected = self._ranks.get(key, 0)
            else:
                a, b = key
                expected = self._ranks.get(a, 0) * self._ranks.get(b, 0)
            if m.shape[0] != expected:
                raise ValidationError(
                    f"block {key!r} has dimension {m.shape[0]}, expected {expected}"
                )

    # -- structure ---------------------------------------------------------

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def ranks(self) -> dict[Charge, int]:
        return dict(self._ranks)

    def keys(self) -> tuple[BlockKey, ...]:
        return tuple(self._blocks)

    def block(self, key: BlockKey) -> np.ndarray:
        return self._blocks[key]

    def weight(self, key: BlockKey) -> float:
        """Quantum-trace weight of a block: d_X, d_X * d_Y, or 1."""
        if key == VACUUM_BLOCK:
            return 1.0
        if isinstance(key, Charge):
            return qdim_float(key)
        a, b = key
        return qdim_float(a) * qdim_float(b)

    def joint_layout(self) -> tuple[tuple[Charge, int, int], ...]:
        """Sector slices of the vacuum-channel basis: (charge, offset, size)."""
        layout = []
        offset = 0
        for c in CHARGE_ORDER:
            k = self._ranks.get(c, 0)
            if k:
                layout.append((c, offset, k * k))
                offset += k * k
        return tuple(layout)

    # -- numerics ----------------------------------------------------------

    def quantum_trace(self) -> float:
        return float(
            sum(self.weight(key) * np.trace(m).real for key, m in self._blocks.items())
        )

    def assert_state(self) -> None:
        """Raise :class:`NotAState` unless Hermitian, PSD, and unit quantum trace, to 1e-10."""
        if not all(np.allclose(m, m.conj().T, atol=_STATE_TOL) for m in self._blocks.values()):
            raise NotAState("operator is not Hermitian")
        for key, m in self._blocks.items():
            if m.shape[0] and np.linalg.eigvalsh(m).min() < -_STATE_TOL:
                raise NotAState(f"block {key!r} is not positive semidefinite")
        trace = self.quantum_trace()
        if abs(trace - 1.0) > _STATE_TOL:
            raise NotAState(f"quantum trace is {trace!r}, not 1")

    def __repr__(self) -> str:
        keys = ", ".join(repr(getattr(k, "value", k)) for k in self._blocks)
        return f"GradedDensityOperator(kind={self._kind!r}, blocks=[{keys}])"


def reduced_density(state: SchmidtState, side: Side) -> GradedDensityOperator:
    """Subsystem state of one side: block diag(lambda_{c,i}) / d_c, weight d_c.

    Both sides carry the same charge content (every Fibonacci charge is
    self-dual), so the reduced operators of A and B coincide.
    """
    if side not in ("A", "B"):
        raise ValidationError(f"side must be 'A' or 'B', got {side!r}")
    blocks = {
        c: np.diag(state.coefficients(c)).astype(complex) / qdim_float(c)
        for c in state.charges
    }
    return GradedDensityOperator(blocks, ranks=state.ranks)


def anyonic_entropy(op: GradedDensityOperator) -> float:
    """Entropy -Tr~(rho log2 rho) of a graded state; 0*log(0) counts as 0."""
    op.assert_state()
    total = 0.0
    for key in op.keys():
        eigs = np.linalg.eigvalsh(op.block(key))
        eigs = eigs[eigs > _EIG_ZERO]
        if eigs.size:
            total -= op.weight(key) * float(np.sum(eigs * np.log2(eigs)))
    return total


def is_pure(op: GradedDensityOperator) -> bool:
    """True iff the anyonic entropy vanishes (below 1e-10)."""
    return anyonic_entropy(op) <= _PURITY_TOL


def random_schmidt_state(
    rng: np.random.Generator,
    max_rank: int = 3,
    require_rank2: bool = False,
) -> SchmidtState:
    """Draw a random state with Dirichlet-distributed coefficients.

    Sector ranks are uniform on 0..max_rank (at least one sector kept
    nonempty).  With ``require_rank2`` some sector is forced to rank >= 2.
    """
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
