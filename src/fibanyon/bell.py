"""Graded observables, CHSH evaluation and maximization, locality certificates.

Observables are party-local Hermitian involutions (eigenvalues +-1),
block diagonal across charge sectors: superselection forbids coherences
between sectors, so a local measurement decomposes into one block per
sector of the measured subsystem.

Expectations are quantum-trace pairings.  For a pure state in Schmidt
form they reduce to sector-wise amplitude sums with no extra
quantum-dimension weights (those are already absorbed into the Schmidt
normalization)::

    <A B> = sum_c sum_{ik} sqrt(lambda_{c,i} lambda_{c,k}) A^c_{ik} B^c_{ik}

The CHSH value of a joint n-copy state is computed in closed form: the
plane bound of the top coefficient pair of its best rank->=2 sector, or
2 when there is none.  It reads only the grouped Schmidt data; the dense
witness observables that reach it are built only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    CopyLimitExceeded,
    DimensionMismatch,
    DomainError,
    TargetRankError,
    ValidationError,
)
from .measures import (
    SeparableState,
    closest_separable_candidate,
    omega_project,
)
from .model import CHARGE_ORDER, Charge
from .multicopy import n_copy
from .states import (
    KIND_JOINT,
    KIND_PRODUCT,
    VACUUM_BLOCK,
    GradedDensityOperator,
    SchmidtState,
)

TSIRELSON = 2.0 * math.sqrt(2.0)

_INVOLUTION_TOL = 1e-9
_VIOLATION_TOL = 1e-9
_TWO_PI = 2.0 * math.pi

#: Hard cap on the joint rank for which dense witness observables can be
#: materialized at all (blocks are K x K dense matrices).
_MATERIALIZE_LIMIT = 2048


class Observable:
    """Party-local Hermitian involution, one block per charge sector."""

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Mapping[Charge, np.ndarray]):
        stored: dict[Charge, np.ndarray] = {}
        for c, matrix in blocks.items():
            m = np.array(matrix, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValidationError(f"sector {c.value!r} block is not square")
            if not np.allclose(m, m.conj().T, atol=_INVOLUTION_TOL):
                raise ValidationError(f"sector {c.value!r} block is not Hermitian")
            if not np.allclose(m @ m, np.eye(m.shape[0]), atol=_INVOLUTION_TOL):
                raise ValidationError(
                    f"sector {c.value!r} block is not an involution (eigenvalues +-1)"
                )
            m.setflags(write=False)
            stored[c] = m
        self._blocks = stored

    def block(self, c: Charge) -> np.ndarray:
        return self._blocks[c]

    def charges(self) -> tuple[Charge, ...]:
        return tuple(c for c in CHARGE_ORDER if c in self._blocks)


def identity_observable(ranks: Mapping[Charge, int]) -> Observable:
    return Observable(
        {c: np.eye(int(k)) for c, k in ranks.items() if int(k) > 0}
    )


def rotation_observable(
    ranks: Mapping[Charge, int], angle: float, target: Charge
) -> Observable:
    """Planar rotation-reflection on the first two basis vectors of one sector.

    The target block opens with [[cos t, sin t], [sin t, -cos t]]; every
    other diagonal entry is pinned to +1.  Sectors list their coefficients
    in descending order, so the plane is that of the sector's two largest.
    """
    ranks = {c: int(k) for c, k in ranks.items() if int(k) > 0}
    k_target = ranks.get(target, 0)
    if k_target < 2:
        raise TargetRankError(
            f"sector {target.value!r} has rank {k_target}, cannot host a rotation plane"
        )
    blocks = {c: np.eye(k) for c, k in ranks.items()}
    cos_t, sin_t = math.cos(angle), math.sin(angle)
    block = blocks[target]
    block[0, 0] = cos_t
    block[1, 1] = -cos_t
    block[0, 1] = sin_t
    block[1, 0] = sin_t
    return Observable(blocks)


def random_involution_observable(
    rng: np.random.Generator, ranks: Mapping[Charge, int]
) -> Observable:
    """Random Hermitian blocks projected onto +-1 spectrum."""
    blocks = {}
    for c, k in ranks.items():
        k = int(k)
        if k <= 0:
            continue
        g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        herm = 0.5 * (g + g.conj().T)
        vals, vecs = np.linalg.eigh(herm)
        signs = np.where(vals >= 0.0, 1.0, -1.0)
        blocks[c] = (vecs * signs) @ vecs.conj().T
    return Observable(blocks)


# ---------------------------------------------------------------------------
# Expectations
# ---------------------------------------------------------------------------


def _check_blocks(state: SchmidtState, obs: Observable, label: str) -> None:
    for c in state.charges:
        k = state.rank(c)
        if c not in obs.charges() or obs.block(c).shape[0] != k:
            raise DimensionMismatch(
                f"observable {label} lacks a rank-{k} block for sector {c.value!r}"
            )


def expectation(state: SchmidtState, a: Observable, b: Observable) -> float:
    """Quantum-trace expectation <A B> on a pure state."""
    _check_blocks(state, a, "A")
    _check_blocks(state, b, "B")
    total = 0.0
    for c in state.charges:
        phi = np.sqrt(state.coefficients(c))
        total += float(
            np.einsum("i,k,ik,ik->", phi, phi, a.block(c), b.block(c)).real
        )
    return total


def chsh_value(
    state: SchmidtState,
    a1: Observable,
    a2: Observable,
    b1: Observable,
    b2: Observable,
) -> float:
    """<A1 B1> + <A1 B2> + <A2 B1> - <A2 B2>."""
    return (
        expectation(state, a1, b1)
        + expectation(state, a1, b2)
        + expectation(state, a2, b1)
        - expectation(state, a2, b2)
    )


def expectation_operator(
    op: GradedDensityOperator, a: Observable, b: Observable
) -> float:
    """Tr~(op * (A (x) B)) via block arithmetic, for bipartite operators."""
    if op.kind == KIND_PRODUCT:
        total = 0.0
        for key in op.keys():
            ca, cb = key
            if ca not in a.charges() or cb not in b.charges():
                continue
            product = np.kron(a.block(ca), b.block(cb))
            total += op.weight(key) * float(np.trace(op.block(key) @ product).real)
        return total
    if op.kind == KIND_JOINT:
        layout = op.joint_layout()
        dim = sum(size for _, _, size in layout)
        product = np.zeros((dim, dim), dtype=complex)
        for c, offset, size in layout:
            product[offset : offset + size, offset : offset + size] = np.kron(
                a.block(c), b.block(c)
            )
        return float(np.trace(op.block(VACUUM_BLOCK) @ product).real)
    raise DimensionMismatch("expectation requires a bipartite operator")


def chsh_value_operator(
    op: GradedDensityOperator,
    a1: Observable,
    a2: Observable,
    b1: Observable,
    b2: Observable,
) -> float:
    return (
        expectation_operator(op, a1, b1)
        + expectation_operator(op, a1, b2)
        + expectation_operator(op, a2, b1)
        - expectation_operator(op, a2, b2)
    )


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
        raise DomainError(f"plane coefficients must be positive, got {l1!r}, {l2!r}")
    if l1 + l2 > 1.0 + 1e-9:
        raise DomainError(f"plane coefficients sum to {l1 + l2!r}, more than 1")
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
    """Closed-form CHSH value of a joint state, with the recipe of its witness.

    ``value`` is the top-pair plane bound (:func:`type_c_bound` of the two
    largest coefficients of the best rank->=2 sector), or 2 when no sector
    has rank >= 2.  It is exact when it equals 2 sqrt(2), and when it is 2
    because every sector has rank <= 1 (the state is then local);
    otherwise it is a witnessed lower bound on the CHSH optimum.  The
    witness is the rotation family of ``sector`` at ``angles`` (alpha1,
    alpha2, beta1, beta2), or four identities when ``sector`` is None;
    :meth:`witness` builds its dense observables on request.
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

    def witness(self) -> tuple[Observable, Observable, Observable, Observable]:
        """The observables (A1, A2, B1, B2) that reach ``value`` on the joint state.

        Blocks are dense K x K matrices, so joint ranks above 2048 are
        refused with :class:`CopyLimitExceeded`.
        """
        total_rank = sum(self.ranks.values())
        if total_rank > _MATERIALIZE_LIMIT:
            raise CopyLimitExceeded(
                f"joint rank {total_rank} exceeds {_MATERIALIZE_LIMIT}; "
                "witness observables would not fit in dense blocks"
            )
        if self.sector is None:
            identity = identity_observable(self.ranks)
            return identity, identity, identity, identity
        return tuple(rotation_observable(self.ranks, a, target=self.sector) for a in self.angles)


def _verdict(value: float) -> str:
    return "violation" if value > 2.0 + _VIOLATION_TOL else "local-bound-respected"


def optimize_chsh(state: SchmidtState, copies: int = 1) -> CHSHResult:
    """CHSH value of the joint ``copies``-fold state, in closed form.

    Starts from 2, reached by identity observables.  Every sector of rank
    >= 2 offers the rotation family on the plane of its two largest
    coefficients, worth :func:`type_c_bound` of that pair (Horodecki et
    al., Phys. Lett. A 200, 340 (1995)); the largest such bound wins if it
    beats 2, ties going to the first sector.  The angles are (0, pi/2,
    beta, 2 pi - beta).  The value is a witnessed lower bound on the CHSH
    optimum unless it equals 2 sqrt(2) or every sector has rank <= 1.
    Only the grouped Schmidt data is read, so every copy count that
    :func:`n_copy` accepts works; the witness observables are built by
    :meth:`CHSHResult.witness`.
    """
    joint = n_copy(state, copies)
    value = 2.0
    angles: tuple[float, float, float, float] | None = None
    sector: Charge | None = None
    for c in joint.charges:
        if joint.rank(c) < 2:
            continue
        values, mults = joint.grouped(c)
        l1 = float(values[0])
        l2 = l1 if mults[0] >= 2 else float(values[1])
        bound, (a1, a2, b1, b2) = type_c_bound(l1, l2)
        if bound > value:
            value, sector, angles = bound, c, (a1, a2, b1, b2 % _TWO_PI)
    return CHSHResult(
        value=value,
        angles=angles,
        copies=copies,
        verdict=_verdict(value),
        sector=sector,
        ranks=joint.ranks,
    )


# ---------------------------------------------------------------------------
# Locality certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalityCertificate:
    """Explicit separable decomposition of the Omega image of a state."""

    mixture: SeparableState
    reconstruction_residual: float


@dataclass(frozen=True)
class CertificateRefusal:
    """No certificate: the state has positive conventional entanglement."""

    reason: str


def locality_certificate(
    state: SchmidtState,
) -> LocalityCertificate | CertificateRefusal:
    """Certify locality when every sector has Schmidt rank <= 1.

    Rank-<=1 sectors mean zero conventional entanglement, and the Omega
    image then equals the closest-separable mixture exactly; the residual
    reports the largest block deviation of that reconstruction.  States
    with a rank->=2 sector are refused with reason ``CE_POSITIVE``.
    """
    if any(state.rank(c) > 1 for c in state.charges):
        return CertificateRefusal(reason="CE_POSITIVE")
    mixture = closest_separable_candidate(state)
    omega = omega_project(state)
    rebuilt = mixture.to_operator(state.ranks)
    residual = 0.0
    for key in {*omega.keys(), *rebuilt.keys()}:
        left = omega.block(key) if key in omega.keys() else 0.0
        right = rebuilt.block(key) if key in rebuilt.keys() else 0.0
        residual = max(residual, float(np.max(np.abs(left - right))))
    if residual >= 1e-12:
        raise AssertionError(
            f"certificate reconstruction residual {residual!r} out of tolerance"
        )
    return LocalityCertificate(mixture=mixture, reconstruction_residual=residual)
