"""Entanglement measures for pure anyonic states.

Four measures are computed, all in bits:

* AEE  -- anyonic entanglement entropy of a reduced subsystem;
* AREE -- relative entropy of entanglement, the quantum-trace relative
  entropy to the closest separable state;
* ACE  -- anyonic charge entanglement, the relative entropy to the
  Omega image of the state (its projection onto the operator subspace
  with tensor-product structure);
* CE   -- conventional entanglement, the AREE of the Omega image.

For pure states AREE = ACE + CE holds exactly; :func:`measure_report`
asserts it, and :func:`classify` sorts states into types A, B and C by
their ACE and CE.  Closed forms (in terms of the Schmidt data) are paired with
a fully numeric route through block relative entropies, so each side can
oracle the other: :func:`pythagorean_residual` certifies the
decomposition numerically, and :func:`minimality_gradient`, the exact
directional derivative of the relative entropy at the closed-form
closest separable state, certifies that state is a minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import (
    BlockMismatch,
    DecompositionViolation,
    SupportViolation,
    ValidationError,
)
from .model import CHARGE_ORDER, LOG2_PHI, Charge, qdim_float
from .states import (
    KIND_JOINT,
    KIND_PRODUCT,
    KIND_SUBSYSTEM,
    VACUUM_BLOCK,
    GradedDensityOperator,
    SchmidtState,
    shannon_entropy,
)

_EIG_ZERO = 1e-12
_EIG_CLAMP = 1e-300
_SUPPORT_TOL = 1e-10
_DECOMP_TOL = 1e-9
_CLASS_TOL = 1e-10


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


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
    """Classify by the charge and conventional entanglement, each zero below 1e-10."""
    if e_ce_pure(state) > _CLASS_TOL:
        return StateClass.TYPE_C
    if e_ace_pure(state) > _CLASS_TOL:
        return StateClass.TYPE_B
    return StateClass.TYPE_A


# ---------------------------------------------------------------------------
# Operator constructions
# ---------------------------------------------------------------------------


def _diagonal_pair_vector(phi: np.ndarray) -> np.ndarray:
    """Embed a sector vector on the diagonal of the paired product basis."""
    k = phi.shape[0]
    vec = np.zeros(k * k, dtype=complex)
    vec[np.arange(k) * k + np.arange(k)] = phi
    return vec


def embed(state: SchmidtState) -> GradedDensityOperator:
    """Pure-state projector in the total-vacuum joint basis.

    The joint basis concatenates the paired product bases of the diagonal
    charge sectors; its kets are quantum-trace orthonormal (weight 1), so
    the projector has amplitudes sqrt(lambda_{c,i}) on the paired basis
    vectors, unit quantum trace, and zero anyonic entropy.
    """
    ranks = state.ranks
    dim = sum(k * k for k in ranks.values())
    psi = np.zeros(dim, dtype=complex)
    offset = 0
    for c in CHARGE_ORDER:
        k = ranks.get(c, 0)
        if not k:
            continue
        phi = np.sqrt(state.coefficients(c))
        psi[offset : offset + k * k] = _diagonal_pair_vector(phi)
        offset += k * k
    return GradedDensityOperator({VACUUM_BLOCK: np.outer(psi, psi.conj())}, ranks=ranks)


def omega_project(state: SchmidtState) -> GradedDensityOperator:
    """Omega image of a pure state: severs charge lines between the subsystems.

    Sector-c block is (1/d_c**2) * phi_c phi_c^dagger on the paired product
    basis with phi_{c,i} = sqrt(lambda_{c,i}); block weight d_c**2.  The
    result reproduces every product-observable expectation of the state
    and is idempotent under :func:`omega_project_operator`.
    """
    blocks: dict = {}
    for c in state.charges:
        phi = np.sqrt(state.coefficients(c))
        vec = _diagonal_pair_vector(phi)
        d = qdim_float(c)
        blocks[(c, c)] = np.outer(vec, vec.conj()) / (d * d)
    return GradedDensityOperator(blocks, ranks=state.ranks)


def omega_project_operator(op: GradedDensityOperator) -> GradedDensityOperator:
    """Project a bipartite operator onto the tensor-product-structured subspace.

    Product-basis operators are fixed points.  A total-vacuum joint
    operator keeps only its diagonal charge-pair blocks, each rescaled by
    1/(d_X * d_Y) so the image is channel-uniform with the same
    product-observable expectations.
    """
    if op.kind == KIND_PRODUCT:
        return GradedDensityOperator(
            {key: op.block(key) for key in op.keys()}, ranks=op.ranks
        )
    if op.kind != KIND_JOINT:
        raise BlockMismatch("omega projection applies to bipartite operators")
    matrix = op.block(VACUUM_BLOCK)
    blocks: dict = {}
    for c, offset, size in op.joint_layout():
        sub = matrix[offset : offset + size, offset : offset + size]
        d = qdim_float(c)
        blocks[(c, c)] = sub / (d * d)
    return GradedDensityOperator(blocks, ranks=op.ranks)


@dataclass(frozen=True)
class SeparableState:
    """Convex mixture of product states, each factor a subsystem operator."""

    terms: tuple[tuple[float, GradedDensityOperator, GradedDensityOperator], ...]

    def __post_init__(self) -> None:
        # Factor blocks are read-only, so a factor object that recurs (both
        # sides of a term, or several terms) needs its state check only once.
        checked: set[int] = set()
        total = 0.0
        for p, left, right in self.terms:
            if p < 0.0:
                raise ValidationError(f"negative mixture weight {p!r}")
            total += p
            for factor in (left, right):
                if factor.kind != KIND_SUBSYSTEM:
                    raise ValidationError("separable factors must be subsystem operators")
                if id(factor) not in checked:
                    factor.assert_state()
                    checked.add(id(factor))
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"mixture weights sum to {total!r}, not 1")

    def _check_ranks(self, ranks: Mapping[Charge, int]) -> None:
        """Raise :class:`BlockMismatch` unless every factor block has its sector's rank."""
        for _, left, right in self.terms:
            for factor in (left, right):
                for c in factor.keys():
                    if ranks.get(c) != factor.block(c).shape[0]:
                        raise BlockMismatch(
                            f"factor sector {c.value!r} has rank "
                            f"{factor.block(c).shape[0]}, target ranks are {ranks!r}"
                        )

    def to_operator(self, ranks: Mapping[Charge, int]) -> GradedDensityOperator:
        """Bipartite product-basis operator sum_k p_k rho_A^k (x) rho_B^k."""
        ranks = {c: int(k) for c, k in ranks.items() if int(k) > 0}
        self._check_ranks(ranks)
        blocks: dict = {}
        for a in ranks:
            for b in ranks:
                acc = np.zeros((ranks[a] * ranks[b],) * 2, dtype=complex)
                hit = False
                for p, left, right in self.terms:
                    if a in left.keys() and b in right.keys():
                        acc += p * np.kron(left.block(a), right.block(b))
                        hit = True
                if hit:
                    blocks[(a, b)] = acc
        return GradedDensityOperator(blocks, ranks=ranks)


def _basis_factor(c: Charge, index: int, rank: int) -> GradedDensityOperator:
    block = np.zeros((rank, rank), dtype=complex)
    block[index, index] = 1.0 / qdim_float(c)
    return GradedDensityOperator({c: block}, ranks={c: rank})


def closest_separable_candidate(state: SchmidtState) -> SeparableState:
    """Separable mixture that minimizes the relative entropy from the state.

    One product term per Schmidt coefficient: with probability
    lambda_{c,i}, both sides hold (1/d_c) |i; c><i; c|.
    """
    ranks = state.ranks
    terms = []
    for c in state.charges:
        for i, value in enumerate(state.coefficients(c)):
            factor = _basis_factor(c, i, ranks[c])
            terms.append((float(value), factor, factor))
    return SeparableState(tuple(terms))


# ---------------------------------------------------------------------------
# Relative entropy on graded blocks
# ---------------------------------------------------------------------------


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _ordered_keys(*ops: GradedDensityOperator) -> list:
    """Union of block keys in a canonical order (summation determinism)."""
    def sort_key(key):
        if key == VACUUM_BLOCK:
            return (2, "", "")
        if isinstance(key, Charge):
            return (0, key.value, "")
        return (1, key[0].value, key[1].value)

    seen = []
    for op in ops:
        for key in op.keys():
            if key not in seen:
                seen.append(key)
    return sorted(seen, key=sort_key)


def _block_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """tr(rho log2 rho) - tr(rho log2 sigma) for one matched block."""
    rvals = np.linalg.eigvalsh(_hermitize(rho))
    rvals = rvals[rvals > _EIG_ZERO]
    tr_r_log_r = float(np.sum(rvals * np.log2(rvals))) if rvals.size else 0.0

    svals, svecs = np.linalg.eigh(_hermitize(sigma))
    overlap = np.einsum("ki,kl,li->i", svecs.conj(), rho, svecs).real
    null = svals <= _EIG_ZERO
    if float(np.sum(overlap[null])) > _SUPPORT_TOL:
        raise SupportViolation(
            "rho has weight outside sigma's support in a matched block"
        )
    kept = ~null
    logs = np.log2(np.clip(svals[kept], _EIG_CLAMP, None))
    tr_r_log_s = float(np.dot(overlap[kept], logs))
    return tr_r_log_r - tr_r_log_s


def _joint_restriction(
    op: GradedDensityOperator, layout: tuple[tuple[Charge, int, int], ...]
) -> np.ndarray:
    """Vacuum-channel component of a product-basis operator.

    Product operators act identically on every fusion channel of a charge
    pair, so the restriction is the block-diagonal stack of the (c, c)
    blocks in joint-layout order.
    """
    dim = sum(size for _, _, size in layout)
    out = np.zeros((dim, dim), dtype=complex)
    for c, offset, size in layout:
        key = (c, c)
        if key in op.keys():
            out[offset : offset + size, offset : offset + size] = op.block(key)
    return out


def relative_entropy(rho: GradedDensityOperator, sigma: GradedDensityOperator) -> float:
    """Quantum-trace relative entropy Tr~(rho log2 rho) - Tr~(rho log2 sigma).

    Supports matched subsystem operators, matched product-basis operators,
    and a joint (total-vacuum) rho against a product-basis sigma, in which
    case sigma is restricted to the vacuum channel (exact, since product
    operators are block diagonal across fusion channels).
    """
    if rho.ranks != sigma.ranks:
        raise BlockMismatch(
            f"sector ranks differ: {rho.ranks!r} vs {sigma.ranks!r}"
        )
    if rho.kind == sigma.kind and rho.kind in (KIND_SUBSYSTEM, KIND_PRODUCT, KIND_JOINT):
        total = 0.0
        for key in _ordered_keys(rho, sigma):
            r = rho.block(key) if key in rho.keys() else None
            s = sigma.block(key) if key in sigma.keys() else None
            if r is None:
                continue
            if s is None:
                s = np.zeros_like(r)
            total += rho.weight(key) * _block_relative_entropy(r, s)
        return max(total, 0.0)
    if rho.kind == KIND_JOINT and sigma.kind == KIND_PRODUCT:
        layout = rho.joint_layout()
        sigma_joint = _joint_restriction(sigma, layout)
        return max(
            _block_relative_entropy(rho.block(VACUUM_BLOCK), sigma_joint), 0.0
        )
    raise BlockMismatch(
        f"incompatible operator kinds {rho.kind!r} and {sigma.kind!r}"
    )


# ---------------------------------------------------------------------------
# Numeric oracles
# ---------------------------------------------------------------------------


def _log_divided_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L(a, b) = (ln a - ln b) / (a - b), L(a, a) = 1/a, for positive a and b.

    Evaluated as log1p(t) / (t * lo) with t = (hi - lo) / lo >= 0, which stays
    accurate as a -> b.
    """
    hi = np.maximum(a, b)
    lo = np.minimum(a, b)
    t = (hi - lo) / lo
    ratio = np.ones_like(t)
    np.divide(np.log1p(t), t, out=ratio, where=t > 0.0)
    return ratio / lo


def minimality_gradient(state: SchmidtState, direction: SeparableState) -> float:
    """Directional derivative of x -> S(rho || (1-x) rho_0 + x rho') at x = 0.

    rho_0 is the closest-separable candidate.  On the vacuum channel it is
    diagonal, with entries s_{c,i} = lambda_{c,i} / d_c**2 on the paired
    basis vectors that carry all of rho, so the Daleckii-Krein derivative of
    the matrix log gives the exact value, in bits,

        (1 - sum_c sum_{i,j} sqrt(lambda_{c,i} lambda_{c,j}) M_c[i,j] L(s_{c,i}, s_{c,j})) / ln 2

    with M_c = sum_k p_k (A_k^c o B_k^c) the elementwise product of the
    direction's sector-c factor blocks and L the divided difference of ln.
    Nonnegative values certify local minimality of rho_0.
    """
    direction._check_ranks(state.ranks)
    pairing = 0.0
    for c in state.charges:
        lam = state.coefficients(c)
        overlap = np.zeros((lam.size, lam.size), dtype=complex)
        for p, left, right in direction.terms:
            if c in left.keys() and c in right.keys():
                overlap += p * left.block(c) * right.block(c)
        s = lam / qdim_float(c) ** 2
        amp = np.sqrt(lam)
        weights = np.outer(amp, amp) * _log_divided_difference(s[:, None], s[None, :])
        pairing += float(np.sum(weights * overlap).real)
    return (1.0 - pairing) / math.log(2.0)


def pythagorean_residual(state: SchmidtState) -> float:
    """AREE minus the two-step path through the Omega image; vanishes for states.

    Computes e_aree_pure - S(rho || Omega(rho)) - S(Omega(rho) || rho_0)
    entirely through block relative entropies.
    """
    rho = embed(state)
    omega = omega_project(state)
    candidate = closest_separable_candidate(state).to_operator(state.ranks)
    return (
        e_aree_pure(state)
        - relative_entropy(rho, omega)
        - relative_entropy(omega, candidate)
    )


def random_separable_direction(
    rng: np.random.Generator,
    ranks: Mapping[Charge, int],
) -> SeparableState:
    """Random mixture of one to three random product states on the given sector ranks."""
    ranks = {c: int(k) for c, k in ranks.items() if int(k) > 0}
    n_terms = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(n_terms))
    terms = []
    for w in weights:
        terms.append((float(w), _random_factor(rng, ranks), _random_factor(rng, ranks)))
    return SeparableState(tuple(terms))


def _random_factor(
    rng: np.random.Generator, ranks: Mapping[Charge, int]
) -> GradedDensityOperator:
    blocks: dict = {}
    for c, k in ranks.items():
        g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        blocks[c] = g @ g.conj().T
    norm = sum(qdim_float(c) * np.trace(m).real for c, m in blocks.items())
    return GradedDensityOperator(
        {c: m / norm for c, m in blocks.items()}, ranks=ranks
    )
