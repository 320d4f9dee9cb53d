"""The dense oracle one state at a time: the reference for its stacked route.

Each function builds and solves one state's dense blocks the way
``fibanyon.oracle`` did before it took stacks of states, on plain
``{key: matrix}`` dictionaries and without validation.  The stacked
route must give every state these values bit for bit.
"""

from __future__ import annotations

import numpy as np

from fibanyon.measures import measure_report
from fibanyon.model import Charge, qdim_float
from fibanyon.states import SchmidtState

_EIG_ZERO = 1e-12
_EIG_CLAMP = 1e-300
_SUPPORT_TOL = 1e-10


def _pair_vector(state: SchmidtState, c: Charge) -> np.ndarray:
    phi = np.sqrt(state.coefficients(c))
    k = phi.shape[0]
    vec = np.zeros(k * k, dtype=complex)
    vec[np.arange(k) * k + np.arange(k)] = phi
    return vec


def embed(state: SchmidtState) -> np.ndarray:
    """The vacuum-channel projector, one matrix."""
    psi = np.concatenate([_pair_vector(state, c) for c in state.charges])
    return np.outer(psi, psi.conj())


def omega_project(state: SchmidtState) -> dict:
    blocks = {}
    for c in state.charges:
        vec = _pair_vector(state, c)
        d = qdim_float(c)
        blocks[(c, c)] = np.outer(vec, vec.conj()) / (d * d)
    return blocks


def candidate_operator(state: SchmidtState) -> dict:
    """The closest-separable candidate's charge-pair blocks, summed term by term."""
    blocks = {}
    for a in state.charges:
        for b in state.charges:
            dim = state.rank(a) * state.rank(b)
            total = np.zeros((dim, dim), dtype=complex)
            if a is b:
                k, d = state.rank(a), qdim_float(a)
                for i, p in enumerate(state.coefficients(a)):
                    factor = np.zeros((k, k), dtype=complex)
                    factor[i, i] = 1.0 / d
                    total = total + p * np.kron(factor, factor)
            blocks[(a, b)] = total
    return blocks


def reduced_density(state: SchmidtState) -> dict:
    return {c: np.diag(state.coefficients(c)).astype(complex) / qdim_float(c) for c in state.charges}


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _plogp(m: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(_hermitize(m))
    vals = vals[vals > _EIG_ZERO]
    return float(np.sum(vals * np.log2(vals))) if vals.size else 0.0


def block_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    svals, svecs = np.linalg.eigh(_hermitize(sigma))
    overlap = np.einsum("ki,kl,li->i", svecs.conj(), rho, svecs).real
    null = svals <= _EIG_ZERO
    if float(np.sum(overlap[null])) > _SUPPORT_TOL:
        raise AssertionError("rho has weight outside sigma's support")
    kept = ~null
    logs = np.log2(np.clip(svals[kept], _EIG_CLAMP, None))
    return _plogp(rho) - float(np.dot(overlap[kept], logs))


def joint_relative_entropy(state: SchmidtState, sigma: dict) -> float:
    """S(embed(state) || sigma) for a product-basis sigma, on the vacuum channel."""
    rho = embed(state)
    restricted = np.zeros_like(rho)
    offset = 0
    for c in state.charges:
        size = state.rank(c) ** 2
        restricted[offset : offset + size, offset : offset + size] = sigma[(c, c)]
        offset += size
    return max(block_relative_entropy(rho, restricted), 0.0)


def product_relative_entropy(rho: dict, sigma: dict) -> float:
    """S(rho || sigma) for matched product-basis blocks, summed in charge-pair order."""
    total = 0.0
    for key in sorted(rho, key=lambda key: (key[0].value, key[1].value)):
        a, b = key
        total += qdim_float(a) * qdim_float(b) * block_relative_entropy(rho[key], sigma[key])
    return max(total, 0.0)


def pythagorean_residual(state: SchmidtState) -> float:
    omega = omega_project(state)
    return (
        measure_report(state).aree
        - joint_relative_entropy(state, omega)
        - product_relative_entropy(omega, candidate_operator(state))
    )


def omega_gap(state: SchmidtState) -> float:
    """Largest entrywise deviation of Omega applied to the embedded state from the Omega image."""
    rho, omega = embed(state), omega_project(state)
    gap, offset = 0.0, 0
    for c in state.charges:
        size, d = state.rank(c) ** 2, qdim_float(c)
        sub = rho[offset : offset + size, offset : offset + size] / (d * d)
        gap = max(gap, float(np.max(np.abs(sub - omega[(c, c)]))))
        offset += size
    return gap


def separable_gap(state: SchmidtState) -> float:
    return joint_relative_entropy(state, candidate_operator(state)) - measure_report(state).aree


def anyonic_entropy(blocks: dict) -> float:
    total = 0.0
    for c, m in blocks.items():
        vals = np.linalg.eigvalsh(m)
        vals = vals[vals > _EIG_ZERO]
        if vals.size:
            total -= qdim_float(c) * float(np.sum(vals * np.log2(vals)))
    return total


def aee_gap(state: SchmidtState) -> float:
    return anyonic_entropy(reduced_density(state)) - measure_report(state).aee
