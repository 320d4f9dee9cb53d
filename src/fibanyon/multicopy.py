"""Joint multi-copy states and the per-copy measure series.

The joint n-copy of a bipartite pure state fuses the n pairs into a
single bipartite system.  Its Schmidt data is built directly: for every
per-copy coefficient assignment (charge vector ``a``, index vector ``i``)
and every fusion path of ``a`` to total charge ``c``, the joint state has
a sector-c coefficient ``lambda_{a,i} * d_c / d_a``.  Path counts are the
fusion-space dimensions, so coefficients repeat heavily; they are
accumulated as (value, multiplicity) groups and the total equals 1 by the
identity ``sum_c dim(m, c) * d_c = d_tau**m``.

:func:`n_copy` enumerates the compositions of n over the state's groups
with numpy arrays, and :func:`fibanyon.states.from_arrays` merges equal
coefficients.  Timed by ``perfbench/sweep.py`` on a 2-core machine, it
takes about 20 ms for the 24 310 compositions of 10 groups at n = 8 and
about 0.15 s for the 177 100 of 20 groups at n = 6; with one OpenBLAS
thread (``OPENBLAS_NUM_THREADS=1``) about 7 ms and 0.08 s.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import CopyLimitExceeded, DecompositionViolation
from .measures import _schmidt_entropy, measure_report
from .model import CHARGE_ORDER, LOG2_PHI, PHI, Charge, fusion_space_dim, qdim_float
from .states import SchmidtState, from_arrays

#: Cap on copy counts; grouped sector data stays in the
#: hundred-thousand-entry range up to here.
N_MAX = 24

#: Cap on the compositions C(n + L - 1, L - 1) that :func:`n_copy` enumerates
#: for L (value, multiplicity) groups; the joint state then holds up to a few
#: hundred thousand groups, built in about a tenth of a second.
_COMPOSITION_BUDGET = 200_000

#: Joint Schmidt ranks must fit the int64 multiplicities of a state.
_RANK_MAX = 2**63 - 1

_CONSISTENCY_TOL = 1e-9


def _check_copies(state: SchmidtState, n: int) -> None:
    """Refuse, before any work, a copy count out of range or too costly for ``state``.

    Raises :class:`CopyLimitExceeded` when n exceeds ``N_MAX``, when the
    n-copy needs more than 200 000 compositions, or when its exact joint
    rank does not fit in int64.  Both sizes grow with n, so checking the
    largest copy count of a series covers every row.
    """
    if n < 1:
        raise ValueError(f"copy count must be positive, got {n}")
    if n > N_MAX:
        raise CopyLimitExceeded(f"n={n} exceeds the copy limit {N_MAX}")
    letters = sum(len(state.grouped(c)[0]) for c in state.charges)
    compositions = math.comb(n + letters - 1, letters - 1)
    if compositions > _COMPOSITION_BUDGET:
        raise CopyLimitExceeded(
            f"n={n} copies of {letters} distinct coefficients need {compositions} "
            f"compositions, over the budget of {_COMPOSITION_BUDGET}"
        )
    rank = _joint_rank(state, n)
    if rank > _RANK_MAX:
        raise CopyLimitExceeded(f"n={n} copies have joint rank {rank}, more than 2**63 - 1")


def _joint_rank(state: SchmidtState, n: int) -> int:
    """Exact Schmidt rank of the joint n-copy, as a Python int, in O(n) steps.

    The compositions with m tau letters carry C(n, m) r_tau^m r_1^(n-m)
    index vectors (r_c the sector ranks), each with the fusion paths of m
    tau charges to either total charge: dim(m + 1, tau), the Fibonacci
    number F_(m+1), stepped here alongside m.
    """
    r_vac, r_tau = state.rank(Charge.VACUUM), state.rank(Charge.TAU)
    rank, paths, previous = 0, 1, 0
    for m in range(n + 1):
        rank += math.comb(n, m) * r_tau**m * r_vac ** (n - m) * paths
        paths, previous = paths + previous, paths
    return rank


def _paths(m_tau: int, c: Charge) -> int:
    """Fusion paths of m_tau tau charges (vacua ignored) to total charge c."""
    if m_tau == 0:
        return 1 if c is Charge.VACUUM else 0
    return fusion_space_dim(m_tau, c)


#: Exact tables over copy counts 0..N_MAX: binomials C(r, k), fusion paths
#: of m tau charges to each total charge, and PHI**m from Python's float
#: pow, so that no coefficient depends on numpy's vectorised pow.
_BINOMIAL = np.array(
    [[math.comb(r, k) for k in range(N_MAX + 1)] for r in range(N_MAX + 1)], dtype=np.int64
)
_PATHS = {
    c: np.array([_paths(m, c) for m in range(N_MAX + 1)], dtype=np.int64) for c in CHARGE_ORDER
}
_PHI_POWERS = np.array([PHI**m for m in range(N_MAX + 1)])


def n_copy(state: SchmidtState, n: int) -> SchmidtState:
    """Joint n-copy of a pure state, as a pure state in Schmidt form; 1 <= n <= ``N_MAX``.

    Copy counts that would need more than 200 000 compositions, or whose
    joint rank does not fit in int64, are refused up front with
    :class:`CopyLimitExceeded`.

    The compositions of n over the L groups (letters) are expanded one
    letter at a time as flat arrays, one row per partial composition:
    copies left, exact int64 multiplicity, coefficient product and tau
    count.  Powers of each letter come from tables built with Python's
    pow and multiplied in letter order.  Every partial multiplicity
    divides a final one, which the rank guard keeps within int64.
    """
    _check_copies(state, n)
    if n == 1:
        return state

    left = np.array([n])
    ways = np.ones(1, dtype=np.int64)
    base = np.ones(1)
    m_tau = np.zeros(1, dtype=np.int64)
    letters = []
    for c in state.charges:
        values, mults = state.grouped(c)
        letters += [(c, value, mult) for value, mult in zip(values.tolist(), mults.tolist())]
    for i, (c, value, mult) in enumerate(letters):
        if i < len(letters) - 1:
            # Row r splits into left[r] + 1 rows giving k = 0..left[r] copies to this letter.
            counts = left + 1
            row = np.repeat(np.arange(left.size), counts)
            k = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
            left, ways, base, m_tau = left[row], ways[row], base[row], m_tau[row]
            ways = ways * _BINOMIAL[left, k]
            left = left - k
        else:
            k = left  # the last letter takes every copy left, in C(left, left) = 1 ways
        if mult > 1:
            ways = ways * np.array([mult**j for j in range(n + 1)], dtype=np.int64)[k]
        base = base * np.array([value**j for j in range(n + 1)])[k]
        if c is Charge.TAU:
            m_tau = m_tau + k

    sectors = {}
    for c in CHARGE_ORDER:
        paths = _PATHS[c][m_tau]
        hit = paths > 0
        coeff = base[hit] * qdim_float(c) / _PHI_POWERS[m_tau[hit]]
        sectors[c] = (coeff, ways[hit] * paths[hit])
    return from_arrays(sectors)


def _ncopy_sector_probability(state: SchmidtState, n: int, c: Charge) -> float:
    """Probability of total charge c after n copies, via the binomial split.

    Only the per-copy tau weight matters: summing the inner indices of a
    charge vector with m tau entries gives C(n, m) p_tau^m (1-p_tau)^(n-m),
    and each such vector contributes dim(m, c) * d_c / d_tau**m.
    """
    p_tau = state.p_tau
    p_vac = 1.0 - p_tau
    total = 0.0
    for m in range(n + 1):
        paths = _paths(m, c)
        if not paths:
            continue
        total += (
            math.comb(n, m)
            * p_tau**m
            * p_vac ** (n - m)
            * paths
            * qdim_float(c)
            / PHI**m
        )
    return total


def e_aree_ncopy(state: SchmidtState, n: int) -> float:
    """Closed-form AREE of the joint n-copy state.

    Equals ``n H({lambda}) + n p_tau log2(d_tau) + p_tau^(n) log2(d_tau)``
    where p_tau^(n) is the n-copy tau-sector probability; matches
    ``e_aree_pure(n_copy(state, n))`` whenever the construction is feasible.
    """
    if n < 1:
        raise ValueError(f"copy count must be positive, got {n}")
    h_single = _schmidt_entropy(state)
    p_tau_n = _ncopy_sector_probability(state, n, Charge.TAU)
    return n * h_single + n * state.p_tau * LOG2_PHI + p_tau_n * LOG2_PHI


@dataclass(frozen=True)
class CopySeries:
    """Per-copy averages of the four measures, one row per copy count from 1."""

    rows: tuple[tuple[int, float, float, float, float], ...]

    def to_csv(self) -> str:
        """CSV with header ``n,aee,aree,ace,ce``, 12 significant digits, LF endings."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "aee", "aree", "ace", "ce"])
        for n, *values in self.rows:
            writer.writerow([n] + [f"{v:.12g}" for v in values])
        return buf.getvalue()


def copy_series(state: SchmidtState, n_max: int = 12) -> CopySeries:
    """Per-copy measure averages on constructed joint copies, n = 1..n_max.

    Row n is ``measure_report(n_copy(state, n))`` divided by n.  The copy
    guard runs once, for n_max, so a series whose last row is too costly
    is refused with :class:`CopyLimitExceeded` before any row is built.
    Each row's AREE is checked against :func:`e_aree_ncopy`: a mismatch
    beyond 1e-9 raises :class:`DecompositionViolation`.  Building the
    joint state takes most of a row; the measures are one array pass
    over its groups.
    """
    _check_copies(state, n_max)
    rows = []
    for n in range(1, n_max + 1):
        joint = n_copy(state, n)
        report = measure_report(joint)
        closed = e_aree_ncopy(state, n)
        if abs(report.aree - closed) > _CONSISTENCY_TOL:
            raise DecompositionViolation(
                f"n={n}: constructed AREE {report.aree!r} != closed form {closed!r}"
            )
        rows.append(
            (n, report.aee / n, report.aree / n, report.ace / n, report.ce / n)
        )
    return CopySeries(tuple(rows))
