"""Dense graded operators: the numeric route that cross-checks the closed forms.

The measures, the n-copy data, the CHSH values and the locality
certificates are computed in closed form from grouped Schmidt data
elsewhere in the package.  This module is the one place that knows the
dense block format; ``verify`` and the demos use it to rebuild those
numbers numerically, and every public name here has a caller among
them.  It reads no closed form and takes none: it computes the numeric
values, and ``verify`` compares them with the closed forms.  Checks of
the oracle itself (random observables, operator expectations, the
Tsirelson bound) live with the tests.

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
A separable mixture (:class:`SeparableState`) has one format: arrays of
term weights and, per sector, of its left and right factors' blocks.
:func:`_check_states` is the one test of "is a state", for dense
operators and mixture factors alike.

Every block, mixture array and value may carry leading axes that stack
states sharing their sector ranks (a rank signature): :func:`embed`,
:func:`omega_project`, :func:`reduced_density` and
:func:`closest_separable_candidate` take one state or a sequence of
them, and :func:`relative_entropy`, :func:`anyonic_entropy` and
:func:`max_block_gap` return a float for one state and an array of one
value per state for a stack.  One state is the stack without leading
axes, on the same code; each eigen-solve is one stacked call, and only
the ragged sums over the eigenvalues kept run state by state, so every
value has the bits of the unstacked call.

Observables are party-local Hermitian involutions (eigenvalues +-1),
block diagonal across charge sectors: superselection forbids coherences
between sectors, so a local measurement decomposes into one block per
sector of the measured subsystem.  Expectations are quantum-trace
pairings.  For a pure state in Schmidt form they reduce to sector-wise
amplitude sums with no extra quantum-dimension weights (those are
already absorbed into the Schmidt normalization)::

    <A B> = sum_c sum_{ik} sqrt(lambda_{c,i} lambda_{c,k}) A^c_{ik} B^c_{ik}

The Hermitian, involution and state tests are ``np.allclose`` verdicts,
formed with every floating-point warning silenced: a block with
non-finite or huge entries fails its test with the package error alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bell import CHSHResult
from .errors import CopyLimitExceeded, ValidationError
from .model import CHARGE_ORDER, Charge, qdim_float
from .states import SchmidtState

#: Block key of the total-vacuum joint (fusion-channel) representation.
VACUUM_BLOCK = "vacuum-channel"

KIND_SUBSYSTEM = "subsystem"
KIND_PRODUCT = "product"
KIND_JOINT = "joint"

_STATE_TOL = 1e-10
_EIG_ZERO = 1e-12
_EIG_CLAMP = 1e-300
_SUPPORT_TOL = 1e-10
_INVOLUTION_TOL = 1e-9

#: Hard cap on dense matrix sizes, checked before anything is allocated: the
#: joint rank K of witness observables (K x K blocks) and the vacuum-channel
#: dimension sum_c k_c**2 of operators built from Schmidt data.
_MATERIALIZE_LIMIT = 2048

#: Matrix entries of the weighted Kronecker products that
#: :meth:`SeparableState.to_operator` holds at once (4 MB of complex).
_PRODUCT_CHUNK = 1 << 18


# ---------------------------------------------------------------------------
# Graded density operators
# ---------------------------------------------------------------------------

BlockKey = object  # Charge | tuple[Charge, Charge] | VACUUM_BLOCK

#: Operator kind, by the number of charges its block keys name.
_KINDS = (KIND_JOINT, KIND_SUBSYSTEM, KIND_PRODUCT)


def _key_charges(key: BlockKey) -> tuple[Charge, ...]:
    """The charges a block key names: () for ``VACUUM_BLOCK``, (X,) or (X, Y).

    Their number gives the kind, their quantum dimensions the weight and
    their values the order in which one operator's blocks are summed.
    """
    if key == VACUUM_BLOCK:
        return ()
    if isinstance(key, Charge):
        return (key,)
    if isinstance(key, tuple) and len(key) == 2 and all(isinstance(k, Charge) for k in key):
        return key
    raise ValidationError(f"unrecognized block key {key!r}")


def _weight(key: BlockKey) -> float:
    """Quantum-trace weight of a block: d_X, d_X * d_Y, or 1."""
    return math.prod(map(qdim_float, _key_charges(key)), start=1.0)


def _quantum_trace(blocks: Mapping[BlockKey, np.ndarray]) -> np.ndarray:
    """sum_key weight(key) * tr(blocks[key]) in key order, one value per state of a stack."""
    return np.asarray(
        sum(_weight(key) * np.trace(m, axis1=-2, axis2=-1).real for key, m in blocks.items())
    )


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _value(x: np.ndarray) -> float | np.ndarray:
    """A float for one state, the array of one value per state for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _check_dimension(ranks: Mapping[Charge, int]) -> None:
    """Refuse, with :class:`CopyLimitExceeded`, sector ranks whose vacuum-channel
    dimension sum_c k_c**2 exceeds 2048."""
    dimension = sum(k * k for k in ranks.values())
    if dimension > _MATERIALIZE_LIMIT:
        raise CopyLimitExceeded(
            f"vacuum-channel dimension {dimension} exceeds {_MATERIALIZE_LIMIT}; "
            "dense operators would not fit"
        )


def _coefficient_stack(
    states: SchmidtState | Sequence[SchmidtState],
) -> tuple[dict[Charge, np.ndarray], dict[Charge, int]]:
    """Sector coefficients (..., k) and the sector ranks of one state or of a stack.

    One state gives arrays without leading axes.  A sequence gives one
    leading axis; its states must share their sector ranks, or
    :class:`ValidationError` is raised.  Every dense builder starts here, so
    a vacuum-channel dimension sum_c k_c**2 above 2048 is refused, with
    :class:`CopyLimitExceeded`, before anything is allocated.
    """
    one = isinstance(states, SchmidtState)
    stack = [states] if one else states
    if not stack:
        raise ValidationError("a stack needs at least one state")
    ranks = stack[0].ranks
    for s in stack:
        if s.ranks != ranks:
            raise ValidationError(f"sector ranks differ: {ranks!r} vs {s.ranks!r}")
    _check_dimension(ranks)
    if one:
        return {c: states.coefficients(c) for c in ranks}, ranks
    return {c: np.stack([s.coefficients(c) for s in states]) for c in ranks}, ranks


def _check_states(blocks: Mapping[BlockKey, np.ndarray]) -> None:
    """Raise :class:`ValidationError` unless every state of a stack is one, to 1e-10.

    ``blocks[key]`` (..., k, k) holds block ``key`` of every state.  In
    this order: Hermitian (``np.allclose``), positive semidefinite (one
    stacked ``eigvalsh`` per key) and of unit quantum trace
    (:func:`_quantum_trace`); the first failing check names the error.
    No floating-point warning escapes, whatever the entries.
    """
    with np.errstate(all="ignore"):
        if not all(np.allclose(m, _dagger(m), atol=_STATE_TOL) for m in blocks.values()):
            raise ValidationError("operator is not Hermitian")
        for key, m in blocks.items():
            if np.linalg.eigvalsh(m).min(initial=math.inf) < -_STATE_TOL:
                raise ValidationError(f"block {key!r} is not positive semidefinite")
        trace = _quantum_trace(blocks)
        off = np.abs(trace - 1.0) > _STATE_TOL
    if off.any():
        raise ValidationError(f"quantum trace is {float(trace[off][0])!r}, not 1")


class GradedDensityOperator:
    """Charge-block operator with a quantum-trace weight per block.

    Blocks are (..., k, k); leading axes, the same for every block, stack
    operators of one kind and one set of sector ranks.
    """

    __slots__ = ("_blocks", "_ranks", "_kind", "_stack")

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
            if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
                raise ValidationError(f"block {key!r} is not a square matrix")
            m.setflags(write=False)
            stored[key] = m
            kinds.add(_KINDS[len(_key_charges(key))])
        if len(kinds) != 1:
            raise ValidationError(f"mixed block-key kinds {sorted(kinds)}")
        stacks = {m.shape[:-2] for m in stored.values()}
        if len(stacks) != 1:
            raise ValidationError(f"blocks stack operators in different shapes {sorted(stacks)}")
        self._stack = stacks.pop()
        self._kind = kinds.pop()
        if self._kind == KIND_SUBSYSTEM and ranks is None:
            ranks = {c: stored[c].shape[-1] for c in stored}
        if self._kind != KIND_SUBSYSTEM and ranks is None:
            raise ValidationError("bipartite operators need explicit sector ranks")
        self._ranks = {c: int(k) for c, k in ranks.items() if int(k) > 0}
        self._check_shapes(stored)
        self._blocks = stored

    def _check_shapes(self, blocks: Mapping[BlockKey, np.ndarray]) -> None:
        for key, m in blocks.items():
            charges = _key_charges(key)
            if charges:
                expected = math.prod(self._ranks.get(c, 0) for c in charges)
            else:
                expected = sum(k * k for k in self._ranks.values())
            if m.shape[-1] != expected:
                raise ValidationError(
                    f"block {key!r} has dimension {m.shape[-1]}, expected {expected}"
                )

    # -- structure ---------------------------------------------------------

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def ranks(self) -> dict[Charge, int]:
        return dict(self._ranks)

    @property
    def stack(self) -> tuple[int, ...]:
        """Leading axes of the blocks: () for one operator."""
        return self._stack

    def keys(self) -> tuple[BlockKey, ...]:
        return tuple(self._blocks)

    def block(self, key: BlockKey) -> np.ndarray:
        return self._blocks[key]

    weight = staticmethod(_weight)

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

    def quantum_trace(self) -> float | np.ndarray:
        return _value(_quantum_trace(self._blocks))

    def assert_state(self) -> None:
        """Raise :class:`ValidationError` unless a state, as :func:`_check_states` tests."""
        _check_states(self._blocks)

    def __repr__(self) -> str:
        keys = ", ".join(repr(getattr(k, "value", k)) for k in self._blocks)
        return f"GradedDensityOperator(kind={self._kind!r}, blocks=[{keys}])"


def max_block_gap(x: GradedDensityOperator, y: GradedDensityOperator) -> float | np.ndarray:
    """Largest entrywise deviation between x and y, or between each pair of
    states of two stacks; a block one lacks counts as 0."""
    gap = np.zeros(np.broadcast_shapes(x.stack, y.stack))
    for key in {*x.keys(), *y.keys()}:
        left = x.block(key) if key in x.keys() else 0.0
        right = y.block(key) if key in y.keys() else 0.0
        gap = np.maximum(gap, np.max(np.abs(left - right), axis=(-2, -1)))
    return _value(gap)


def reduced_density(states: SchmidtState | Sequence[SchmidtState]) -> GradedDensityOperator:
    """Subsystem state: block diag(lambda_{c,i}) / d_c, weight d_c.

    Both sides carry the same charge content (every Fibonacci charge is
    self-dual), so this is the reduced operator of A and of B.  The
    complex block is divided by d_c, which fixes the bits.
    """
    coefficients, ranks = _coefficient_stack(states)
    blocks = {}
    for c, lam in coefficients.items():
        k = lam.shape[-1]
        diag = np.zeros((*lam.shape, k), dtype=complex)
        diag[..., np.arange(k), np.arange(k)] = lam
        blocks[c] = diag / qdim_float(c)
    return GradedDensityOperator(blocks, ranks=ranks)


def _plogp(eigs: np.ndarray) -> np.ndarray:
    """sum_i e_i log2 e_i over the eigenvalues e_i > 1e-12 of each matrix of a stack.

    The kept eigenvalues differ in number from state to state, so each
    state's sum runs on its own, with the bits of the unstacked sum.
    """
    kept = eigs > _EIG_ZERO
    terms = eigs * np.log2(np.maximum(eigs, _EIG_ZERO))
    out = np.zeros(eigs.shape[:-1])
    for i in np.ndindex(out.shape):
        out[i] = terms[i][kept[i]].sum()
    return out


def anyonic_entropy(op: GradedDensityOperator) -> float | np.ndarray:
    """Entropy -Tr~(rho log2 rho) of a graded state, or of each state of a
    stack; 0*log(0) counts as 0."""
    op.assert_state()
    total = np.zeros(op.stack)
    for key in op.keys():
        total -= op.weight(key) * _plogp(np.linalg.eigvalsh(op.block(key)))
    return _value(total)


# ---------------------------------------------------------------------------
# Operator constructions
# ---------------------------------------------------------------------------


def _paired_amplitudes(lam: np.ndarray) -> np.ndarray:
    """sqrt(lambda_i) on the diagonal i (x) i of a sector's paired product basis."""
    k = lam.shape[-1]
    vec = np.zeros((*lam.shape[:-1], k * k), dtype=complex)
    vec[..., np.arange(k) * (k + 1)] = np.sqrt(lam)
    return vec


def _projector(vec: np.ndarray) -> np.ndarray:
    """|v><v| for each vector of a stack, as ``np.outer`` forms it."""
    return vec[..., :, None] * vec.conj()[..., None, :]


def embed(states: SchmidtState | Sequence[SchmidtState]) -> GradedDensityOperator:
    """Pure-state projector in the total-vacuum joint basis.

    The joint basis concatenates the paired product bases of the diagonal
    charge sectors; its kets are quantum-trace orthonormal (weight 1), so
    the projector has amplitudes sqrt(lambda_{c,i}) on the paired basis
    vectors, unit quantum trace, and zero anyonic entropy.
    """
    coefficients, ranks = _coefficient_stack(states)
    psi = np.concatenate([_paired_amplitudes(lam) for lam in coefficients.values()], axis=-1)
    return GradedDensityOperator({VACUUM_BLOCK: _projector(psi)}, ranks=ranks)


def omega_project(states: SchmidtState | Sequence[SchmidtState]) -> GradedDensityOperator:
    """Omega image of a pure state: severs charge lines between the subsystems.

    Sector-c block is (1/d_c**2) * phi_c phi_c^dagger on the paired product
    basis with phi_{c,i} = sqrt(lambda_{c,i}); block weight d_c**2.  The
    result reproduces every product-observable expectation of the state
    and is idempotent under :func:`omega_project_operator`.
    """
    coefficients, ranks = _coefficient_stack(states)
    blocks: dict = {}
    for c, lam in coefficients.items():
        d = qdim_float(c)
        blocks[(c, c)] = _projector(_paired_amplitudes(lam)) / (d * d)
    return GradedDensityOperator(blocks, ranks=ranks)


def omega_project_operator(op: GradedDensityOperator) -> GradedDensityOperator:
    """Project a bipartite operator onto the tensor-product-structured subspace.

    Product-basis operators are fixed points.  A total-vacuum joint
    operator keeps only its diagonal charge-pair blocks, each rescaled by
    1/(d_X * d_Y) so the image is channel-uniform with the same
    product-observable expectations.
    """
    if op.kind == KIND_PRODUCT:
        return op
    if op.kind != KIND_JOINT:
        raise ValidationError("omega projection applies to bipartite operators")
    matrix = op.block(VACUUM_BLOCK)
    blocks: dict = {}
    for c, offset, size in op.joint_layout():
        sub = matrix[..., offset : offset + size, offset : offset + size]
        d = qdim_float(c)
        blocks[(c, c)] = sub / (d * d)
    return GradedDensityOperator(blocks, ranks=op.ranks)


@dataclass(frozen=True)
class SeparableState:
    """Convex mixtures of product states, as arrays; leading axes stack mixtures.

    ``weights`` (..., T) holds the term weights and ``blocks[c]``
    (..., T, 2, k, k) the sector-c blocks of each term's left and right
    subsystem factors, for every sector c of the target ranks; a factor
    without support in c holds zeros there.  The weights must be >= 0 and
    sum to 1 within 1e-12 in term order (:class:`ValidationError`), and
    every factor must be a state (:func:`_check_states`); the first
    failing check, in that order, names the error.
    """

    weights: np.ndarray
    blocks: Mapping[Charge, np.ndarray]

    def __post_init__(self) -> None:
        negative = self.weights < 0.0
        if negative.any():
            raise ValidationError(f"negative mixture weight {float(self.weights[negative][0])!r}")
        _check_states(self.blocks)
        total = np.asarray(sum(np.moveaxis(self.weights, -1, 0)))
        off = np.abs(total - 1.0) > 1e-12
        if off.any():
            raise ValidationError(f"mixture weights sum to {float(total[off][0])!r}, not 1")

    def _check_ranks(self, ranks: Mapping[Charge, int]) -> None:
        """Raise :class:`ValidationError` unless the factors have exactly the target ranks."""
        sizes = {c: m.shape[-1] for c, m in self.blocks.items()}
        if sizes != ranks:
            raise ValidationError(f"factor sector ranks {sizes!r}, target ranks {ranks!r}")

    def to_operator(self) -> GradedDensityOperator:
        """Product-basis operator sum_t p_t rho_A^t (x) rho_B^t of each mixture, on
        the factors' own sector ranks (empty sectors dropped); a charge pair
        with no term supported on both sides gets a zero block.

        Each charge pair (a, b) sums only the terms whose left factor has
        support in a and right factor in b in some mixture of the stack, a
        bounded chunk of terms at a time; a skipped term would add exact
        zeros, which leave the sum's bits unchanged.
        """
        ranks = {c: m.shape[-1] for c, m in self.blocks.items() if m.shape[-1] > 0}
        stack = self.weights.shape[:-1]
        support = {
            c: m.any(axis=(-2, -1)).reshape(-1, *m.shape[-4:-2]).any(axis=0)
            for c, m in self.blocks.items()
        }
        blocks: dict = {}
        for a, ka in ranks.items():
            for b, kb in ranks.items():
                dim = ka * kb
                both = support[a][:, 0] & support[b][:, 1]
                # Terms first, so that the sum below runs over them in order.
                weights = np.moveaxis(self.weights[..., both], -1, 0)[..., None, None]
                left = np.moveaxis(self.blocks[a][..., both, 0, :, :], -3, 0)
                right = np.moveaxis(self.blocks[b][..., both, 1, :, :], -3, 0)
                left, right = left[..., :, None, :, None], right[..., None, :, None, :]
                chunk = max(1, _PRODUCT_CHUNK // (dim * dim * math.prod(stack)))
                total = np.zeros((*stack, dim, dim), dtype=complex)
                for start in range(0, weights.shape[0], chunk):
                    part = slice(start, start + chunk)
                    # Kronecker product, weight, then a sum in term order: bits depend on it.
                    kron = (left[part] * right[part]).reshape(-1, *stack, dim, dim)
                    total = sum(weights[part] * kron, total)
                blocks[(a, b)] = total
        return GradedDensityOperator(blocks, ranks=ranks)


def closest_separable_candidate(
    states: SchmidtState | Sequence[SchmidtState],
) -> SeparableState:
    """Separable mixture that minimizes the relative entropy from the state.

    One product term per Schmidt coefficient: with probability
    lambda_{c,i}, both sides hold (1/d_c) |i; c><i; c|.
    """
    coefficients, ranks = _coefficient_stack(states)
    weights = np.concatenate(list(coefficients.values()), axis=-1)
    blocks = {}
    first = 0
    for c, k in ranks.items():
        blocks[c] = np.zeros((*weights.shape, 2, k, k), dtype=complex)
        diagonal = np.arange(k)
        blocks[c][..., first + diagonal, :, diagonal, diagonal] = 1.0 / qdim_float(c)
        first += k
    return SeparableState(weights, blocks)


# ---------------------------------------------------------------------------
# Relative entropy on graded blocks
# ---------------------------------------------------------------------------


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + _dagger(m))


def _block_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """tr(rho log2 rho) - tr(rho log2 sigma) for one matched block of each state.

    The eigen-solves are stacked; the support check and the sum over the
    eigenvalues kept run state by state, the sum as one ``np.dot``.
    """
    tr_r_log_r = _plogp(np.linalg.eigvalsh(_hermitize(rho)))
    svals, svecs = np.linalg.eigh(_hermitize(sigma))
    overlap = np.einsum("...ki,...kl,...li->...i", svecs.conj(), rho, svecs).real
    null = svals <= _EIG_ZERO
    kept = ~null
    logs = np.log2(np.maximum(svals, _EIG_CLAMP))
    tr_r_log_s = np.zeros(overlap.shape[:-1])
    for i in np.ndindex(tr_r_log_s.shape):
        if float(overlap[i][null[i]].sum()) > _SUPPORT_TOL:
            raise ValidationError(
                "rho has weight outside sigma's support in a matched block"
            )
        tr_r_log_s[i] = np.dot(overlap[i][kept[i]], logs[i][kept[i]])
    return tr_r_log_r - tr_r_log_s


def _joint_restriction(op: GradedDensityOperator) -> np.ndarray:
    """Vacuum-channel component of a product-basis operator.

    Product operators act identically on every fusion channel of a charge
    pair, so the restriction is the block-diagonal stack of the (c, c)
    blocks in joint-layout order.
    """
    layout = op.joint_layout()
    dim = sum(size for _, _, size in layout)
    out = np.zeros((*op.stack, dim, dim), dtype=complex)
    for c, offset, size in layout:
        key = (c, c)
        if key in op.keys():
            out[..., offset : offset + size, offset : offset + size] = op.block(key)
    return out


def relative_entropy(
    rho: GradedDensityOperator, sigma: GradedDensityOperator
) -> float | np.ndarray:
    """Quantum-trace relative entropy Tr~(rho log2 rho) - Tr~(rho log2 sigma).

    Supports matched subsystem operators, matched product-basis operators,
    and a joint (total-vacuum) rho against a product-basis sigma, in which
    case sigma is restricted to the vacuum channel (exact, since product
    operators are block diagonal across fusion channels).  Stacks are
    paired state by state and must have the same leading axes.
    """
    if rho.ranks != sigma.ranks:
        raise ValidationError(
            f"sector ranks differ: {rho.ranks!r} vs {sigma.ranks!r}"
        )
    if rho.stack != sigma.stack:
        raise ValidationError(f"stacks differ: {rho.stack!r} vs {sigma.stack!r}")
    if rho.kind == sigma.kind:
        total = np.zeros(rho.stack)
        for key in sorted(rho.keys(), key=lambda key: [c.value for c in _key_charges(key)]):
            r = rho.block(key)
            s = sigma.block(key) if key in sigma.keys() else np.zeros_like(r)
            total += rho.weight(key) * _block_relative_entropy(r, s)
        return _value(np.maximum(total, 0.0))
    if rho.kind == KIND_JOINT and sigma.kind == KIND_PRODUCT:
        sigma_joint = _joint_restriction(sigma)
        return _value(
            np.maximum(_block_relative_entropy(rho.block(VACUUM_BLOCK), sigma_joint), 0.0)
        )
    raise ValidationError(
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


def minimality_gradient(state: SchmidtState, direction: SeparableState) -> float | np.ndarray:
    """Directional derivative of x -> S(rho || (1-x) rho_0 + x rho') at x = 0.

    rho_0 is the closest-separable candidate.  On the vacuum channel it is
    diagonal, with entries s_{c,i} = lambda_{c,i} / d_c**2 on the paired
    basis vectors that carry all of rho, so the Daleckii-Krein derivative of
    the matrix log gives the exact value, in bits,

        (1 - sum_c sum_{i,j} sqrt(lambda_{c,i} lambda_{c,j}) M_c[i,j] L(s_{c,i}, s_{c,j})) / ln 2

    with M_c = sum_t p_t (A_t^c o B_t^c) the elementwise product of the
    direction's sector-c factor blocks, accumulated in term order, and L
    the divided difference of ln.  Nonnegative values certify local
    minimality of rho_0.  A float for one mixture; for a stack, an array
    of one value per mixture.
    """
    direction._check_ranks(state.ranks)
    weights = direction.weights
    pairing = 0.0
    for c in state.charges:
        lam = state.coefficients(c)
        stack = direction.blocks[c]
        overlap = np.zeros((*weights.shape[:-1], lam.size, lam.size), dtype=complex)
        for t in range(weights.shape[-1]):
            left, right = stack[..., t, 0, :, :], stack[..., t, 1, :, :]
            overlap += weights[..., t, None, None] * left * right
        s = lam / qdim_float(c) ** 2
        amp = np.sqrt(lam)
        dk = np.outer(amp, amp) * _log_divided_difference(s[:, None], s[None, :])
        pairing = pairing + np.sum(dk * overlap, axis=(-2, -1)).real
    return _value((1.0 - pairing) / math.log(2.0))


def random_separable_directions(
    rng: np.random.Generator, ranks: Mapping[Charge, int], count: int
) -> SeparableState:
    """A stack of ``count`` random mixtures of one to three random product states.

    Reads ``rng`` one direction at a time, in this order: ``integers(1, 4)``
    for the term count n, ``dirichlet`` for the n weights, then for each
    term, its left factor before its right, and each sector in rank order,
    the real and then the imaginary parts of a Gaussian k x k matrix g.  A
    factor's sector block is g g^dagger, scaled so the factor has unit
    quantum trace.  Each direction has three term slots; a slot past n
    has weight 0 and g = 1, the maximally mixed factor on both sides, so
    it passes the same checks and adds nothing.  Ranks whose vacuum-channel
    dimension exceeds 2048 are refused, with :class:`CopyLimitExceeded`,
    before ``rng`` is read.
    """
    ranks = {c: int(k) for c, k in ranks.items() if int(k) > 0}
    if not ranks:
        raise ValidationError("operator needs at least one block")
    _check_dimension(ranks)
    size = sum(2 * k * k for k in ranks.values())
    weights = np.zeros((count, 3))
    # A slot past n keeps these normals: g = 1 in every sector.
    unit = [np.stack([np.eye(k), np.zeros((k, k))]).ravel() for k in ranks.values()]
    normals = np.tile(np.concatenate(unit), (count, 3, 2, 1))
    for d in range(count):
        n = int(rng.integers(1, 4))
        weights[d, :n] = rng.dirichlet(np.ones(n))
        normals[d, :n] = rng.normal(size=(n, 2, size))
    blocks = {}
    offset = 0
    for c, k in ranks.items():
        parts = normals[..., offset : offset + 2 * k * k].reshape(count, 3, 2, 2, k, k)
        offset += 2 * k * k
        g = parts[..., 0, :, :] + 1j * parts[..., 1, :, :]
        blocks[c] = g @ _dagger(g)
    norm = _quantum_trace(blocks)
    blocks = {c: m / norm[..., None, None] for c, m in blocks.items()}
    return SeparableState(weights, blocks)


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------


def _check_involutions(m: np.ndarray, label: str) -> None:
    """Raise :class:`ValidationError` unless every (k, k) block of ``m`` is a
    Hermitian involution, entrywise to 1e-9.

    Both tests are ``np.allclose`` at ``atol`` 1e-9, against ``m^dagger``
    and, through ``m @ m``, against the identity.  No floating-point
    warning escapes, whatever the entries.
    """
    with np.errstate(all="ignore"):
        if not np.allclose(m, _dagger(m), atol=_INVOLUTION_TOL):
            raise ValidationError(f"{label} is not Hermitian")
        if not np.allclose(m @ m, np.eye(m.shape[-1]), atol=_INVOLUTION_TOL):
            raise ValidationError(f"{label} is not an involution (eigenvalues +-1)")


class Observable:
    """Party-local Hermitian involution, one block per charge sector."""

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Mapping[Charge, np.ndarray]):
        stored: dict[Charge, np.ndarray] = {}
        for c, matrix in blocks.items():
            m = np.array(matrix, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValidationError(f"sector {c.value!r} block is not square")
            _check_involutions(m, f"sector {c.value!r} block")
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
        raise ValidationError(
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


def witness(result: CHSHResult) -> tuple[Observable, Observable, Observable, Observable]:
    """The observables (A1, A2, B1, B2) that reach ``result.value`` on the joint state.

    The rotation family of ``result.sector`` at ``result.angles``, or four
    identities when the sector is None.  Blocks are dense K x K matrices,
    so joint ranks above 2048 are refused with :class:`CopyLimitExceeded`.
    """
    total_rank = sum(result.ranks.values())
    if total_rank > _MATERIALIZE_LIMIT:
        raise CopyLimitExceeded(
            f"joint rank {total_rank} exceeds {_MATERIALIZE_LIMIT}; "
            "witness observables would not fit in dense blocks"
        )
    if result.sector is None:
        identity = identity_observable(result.ranks)
        return identity, identity, identity, identity
    return tuple(
        rotation_observable(result.ranks, a, target=result.sector) for a in result.angles
    )


# ---------------------------------------------------------------------------
# Expectations
# ---------------------------------------------------------------------------


def _check_blocks(state: SchmidtState, obs: Observable, label: str) -> None:
    for c in state.charges:
        k = state.rank(c)
        if c not in obs.charges() or obs.block(c).shape[0] != k:
            raise ValidationError(
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


# ---------------------------------------------------------------------------
# Locality certificates
# ---------------------------------------------------------------------------


def certificate_gap(state: SchmidtState) -> float:
    """Largest block gap between the Omega image and the closest-separable mixture.

    The gap vanishes, up to rounding, when every sector has Schmidt rank
    <= 1: the mixture is then the separable certificate of locality that
    :func:`fibanyon.bell.local_terms` gives in closed form.  A sector of
    rank >= 2 leaves its coherences in the Omega image, out of the mixture.
    """
    mixture = closest_separable_candidate(state).to_operator()
    return max_block_gap(omega_project(state), mixture)
