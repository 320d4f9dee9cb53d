"""Random involution observables and the checks built on them.

The operator route to an expectation and the stacked Tsirelson check test
the dense oracle itself, not a number the program prints, so they live
here with the tests rather than in ``fibanyon``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from fibanyon import oracle
from fibanyon.bell import TSIRELSON
from fibanyon.errors import ValidationError
from fibanyon.model import Charge
from fibanyon.oracle import (
    KIND_JOINT,
    KIND_PRODUCT,
    VACUUM_BLOCK,
    GradedDensityOperator,
    Observable,
)
from fibanyon.states import SchmidtState, random_schmidt_state
from fibanyon.verify import CheckResult


def random_involutions(normals: np.ndarray) -> np.ndarray:
    """Validated stack (..., k, k) of random Hermitian involutions.

    ``normals`` (..., 2, k, k) holds the real and imaginary parts of
    complex Gaussian matrices g; each block is the sign of the Hermitian
    part (g + g^dagger) / 2, taken on its eigenvectors.  Stacked
    ``eigh`` and ``matmul`` treat each block as a single call would, and
    ``oracle._check_involutions`` validates the stack as
    :class:`~fibanyon.oracle.Observable` validates one block.
    """
    g = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    vals, vecs = np.linalg.eigh(0.5 * (g + oracle._dagger(g)))
    signs = np.where(vals >= 0.0, 1.0, -1.0)
    m = (vecs * signs[..., None, :]) @ oracle._dagger(vecs)
    oracle._check_involutions(m, "random involution block")
    return m


def random_involution_observable(
    rng: np.random.Generator, ranks: Mapping[Charge, int]
) -> Observable:
    """Random Hermitian blocks projected onto +-1 spectrum.

    Each rank-k sector reads 2 k^2 normals from ``rng``: the real parts of
    its Gaussian matrix, then the imaginary parts.
    """
    blocks = {}
    for c, k in ranks.items():
        k = int(k)
        if k > 0:
            blocks[c] = random_involutions(rng.normal(size=(2, k, k)))
    return Observable(blocks)


def expectation_operator(op: GradedDensityOperator, a: Observable, b: Observable) -> float:
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
    raise ValidationError("expectation requires a bipartite operator")


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


def check_tsirelson(
    rng: np.random.Generator, n_states: int, draws_per_state: int
) -> list[CheckResult]:
    """|CHSH| <= 2 sqrt(2) for random involutions on random states.

    Each state is drawn with :func:`random_schmidt_state`, then all its
    draws come from one flat normal vector, read in the order that four
    :func:`random_involution_observable` calls per draw would read it.
    States are batched by their sector ranks: per sector, one stacked
    recipe builds and validates every observable (Hermitian and squaring
    to 1, to 1e-9, as :class:`Observable` does), and one ``einsum`` gives
    every expectation.  The generator ends in the same state, and the
    worst value is that of the per-draw loop.
    """
    pending: dict[tuple[tuple[Charge, int], ...], list] = {}
    worst = 0.0
    for _ in range(n_states):
        s = random_schmidt_state(rng)
        ranks = tuple(s.ranks.items())
        size = sum(2 * k * k for _, k in ranks)
        normals = rng.normal(size=draws_per_state * 4 * size).reshape(draws_per_state, 4, size)
        batch = pending.setdefault(ranks, [])
        batch.append((s, normals))
        if len(batch) * normals.size >= _TSIRELSON_BATCH:
            worst = max(worst, _worst_chsh(ranks, pending.pop(ranks)))
    for ranks, batch in pending.items():
        worst = max(worst, _worst_chsh(ranks, batch))
    draws = n_states * draws_per_state
    detail = f"max |CHSH| = {worst:.10f} over {draws} draws"
    return [CheckResult("tsirelson", worst <= TSIRELSON + 1e-9, detail)]


#: Normals that :func:`check_tsirelson` queues per rank signature before it
#: evaluates them.  Changes no draw or result; it bounds the memory the
#: check holds at once (8 KB of normals per signature, plus one batch's
#: temporaries), so peak memory stays that of the one-at-a-time loop.
_TSIRELSON_BATCH = 1024


def _worst_chsh(
    ranks: tuple[tuple[Charge, int], ...],
    batch: list[tuple[SchmidtState, np.ndarray]],
) -> float:
    """Largest |CHSH| over a batch of states that share their sector ranks.

    Each state comes with (draws, 4, sum_c 2 k_c^2) normals, the blocks of
    A1, A2, B1, B2 for every draw, sectors in charge order.
    """
    normals = np.stack([n for _, n in batch])
    # <A_x B_y>, summed over sectors in charge order as expectation() does.
    pairs = 0.0
    offset = 0
    for c, k in ranks:
        block = normals[..., offset : offset + 2 * k * k]
        offset += 2 * k * k
        obs = random_involutions(block.reshape(*block.shape[:-1], 2, k, k))
        phi = np.sqrt([s.coefficients(c) for s, _ in batch])
        pairs = pairs + np.einsum(
            "si,sk,sdxik,sdyik->sdxy", phi, phi, obs[:, :, :2], obs[:, :, 2:]
        ).real
    chsh = pairs[..., 0, 0] + pairs[..., 0, 1] + pairs[..., 1, 0] - pairs[..., 1, 1]
    return float(np.max(np.abs(chsh), initial=0.0))
