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
with numpy arrays, one letter (group) at a time, updating them in place,
and :func:`fibanyon.states.from_arrays` merges equal coefficients.
Timed by ``perfbench/sweep.py`` on a 2-core machine with one OpenBLAS
thread, a first call takes about 5 ms for the 24 310 compositions of 10
groups at n = 8 and about 0.07 s for the 177 100 of 20 groups at n = 6.
Its traced peak memory is about 2.4 times the joint state it returns:
12.5 MB for the 5.3 MB of 329 175 groups at 20 groups and n = 6.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import CopyLimitExceeded, DecompositionViolation, ValidationError
from .measures import _schmidt_entropy, measure_report
from .model import CHARGE_ORDER, LOG2_PHI, PHI, Charge, fusion_space_dim, qdim_float
from .states import SchmidtState, from_arrays

#: Cap on the compositions C(n + L - 1, L - 1) that :func:`n_copy` enumerates
#: for L (value, multiplicity) groups; the joint state then holds up to a few
#: hundred thousand groups, built in about a tenth of a second.
_COMPOSITION_BUDGET = 200_000

#: Joint Schmidt ranks must fit the int64 multiplicities of a state.
_RANK_MAX = 2**63 - 1

#: Largest copy count, the last whose binomials fit the kernel's int64 table:
#: C(66, 33) <= 2**63 - 1 < C(67, 33).
_COPY_MAX = 66

_CONSISTENCY_TOL = 1e-9


def _check_copies(state: SchmidtState, n: int) -> None:
    """Refuse, before any work, a copy count out of range or too costly for ``state``.

    Raises :class:`CopyLimitExceeded` when n exceeds 66, the last count
    whose binomials fit in int64, when the n-copy needs more than 200 000
    compositions, or when its exact joint rank does not fit in int64.
    Both sizes grow with n, so checking the largest copy count of a
    series covers every row.
    """
    _check_count(n)
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


def _check_count(n: int) -> None:
    """Refuse a copy count below 1 (:class:`ValidationError`) or above 66."""
    if n < 1:
        raise ValidationError(f"copy count must be positive, got {n}")
    if n > _COPY_MAX:
        raise CopyLimitExceeded(
            f"n={n} exceeds the copy limit {_COPY_MAX}, past which C(n, k) overflows int64"
        )


def _joint_rank(state: SchmidtState, n: int) -> int:
    """Exact Schmidt rank of the joint n-copy, as a Python int.

    The compositions with m tau letters carry C(n, m) r_tau^m r_1^(n-m)
    index vectors (r_c the sector ranks), each with the fusion paths of m
    tau charges to either total charge.  Python ints throughout: the rank
    can pass int64, which the caller's guard tests.
    """
    r_vac, r_tau = state.rank(Charge.VACUUM), state.rank(Charge.TAU)
    vac, tau = _PATH_COUNTS[Charge.VACUUM], _PATH_COUNTS[Charge.TAU]
    rank = 0
    binomial = 1  # C(n, m), stepped exactly
    for m in range(n + 1):
        rank += binomial * r_tau**m * r_vac ** (n - m) * (vac[m] + tau[m])
        binomial = binomial * (n - m) // (m + 1)
    return rank


#: Exact tables over copy counts 0..66: the fusion paths of m tau charges
#: (vacua ignored) to each total charge, as Python ints and in int64, the one
#: source of path counts; binomials C(r, k), flat at index r * 67 + k; and
#: PHI**m from Python's float pow, not numpy's vectorised pow.
_PATH_COUNTS = {
    c: [int(c is Charge.VACUUM)] + [fusion_space_dim(m, c) for m in range(1, _COPY_MAX + 1)]
    for c in CHARGE_ORDER
}
_BINOMIAL = np.array(
    [math.comb(r, k) for r in range(_COPY_MAX + 1) for k in range(_COPY_MAX + 1)],
    dtype=np.int64,
)
_PATHS = {c: np.array(counts, dtype=np.int64) for c, counts in _PATH_COUNTS.items()}
_PHI_POWERS = np.array([PHI**m for m in range(_COPY_MAX + 1)])


def n_copy(state: SchmidtState, n: int) -> SchmidtState:
    """Joint n-copy of a pure state, as a pure state in Schmidt form; 1 <= n <= 66.

    Copy counts past 66, whose binomials do not fit in int64, counts that
    would need more than 200 000 compositions, and counts whose joint rank
    does not fit in int64 are refused up front with
    :class:`CopyLimitExceeded`.

    The compositions of n over the L groups (letters) are expanded one
    letter at a time as flat arrays, one row per partial composition:
    copies left, exact int64 multiplicity, coefficient product and tau
    count (carried from the first tau letter on).  A letter splits row r
    into ``left[r] + 1`` rows, one per count k it takes: one row index
    gathers the arrays and gives k, the binomial C(left, k) is read from
    a flat table, and the updates are made in place.  Powers of each
    letter come from tables built with Python's pow and multiplied in
    letter order.  Every partial multiplicity divides a final one, which
    the rank guard keeps within int64.  The expansion arrays are freed
    before the per-sector arrays are built.
    """
    _check_copies(state, n)
    if n == 1:
        return state

    left = np.array([n])
    ways = np.ones(1, dtype=np.int64)
    base = np.ones(1)
    m_tau = None  # no tau count is carried before the first tau letter
    letters = []
    for c in state.charges:
        values, mults = state.grouped(c)
        letters += [(c, value, mult) for value, mult in zip(values.tolist(), mults.tolist())]
    for i, (c, value, mult) in enumerate(letters):
        if i < len(letters) - 1:
            # Row r splits into left[r] + 1 rows giving k = 0..left[r] copies to this letter.
            counts = left + 1
            row = np.repeat(np.arange(left.size), counts)
            starts = np.cumsum(counts)
            starts -= counts
            del counts
            k = np.arange(row.size)
            k -= starts.take(row)
            del starts
            # One gather at a time, so that each parent array is freed before the next.
            left = left.take(row)
            ways = ways.take(row)
            base = base.take(row)
            if m_tau is not None:
                m_tau = m_tau.take(row)
            # Flat index left * (_COPY_MAX + 1) + k into the binomial table, in row's buffer.
            np.multiply(left, _COPY_MAX + 1, out=row)
            row += k
            ways *= _BINOMIAL.take(row)
            del row
            left -= k
        else:
            k = left  # the last letter takes every copy left, in C(left, left) = 1 ways
        if mult > 1:
            ways *= np.array([mult**j for j in range(n + 1)], dtype=np.int64).take(k)
        base *= np.array([value**j for j in range(n + 1)]).take(k)
        if c is Charge.TAU:
            if m_tau is None:
                m_tau = k
            else:
                m_tau += k
    del left, k
    if m_tau is None:
        m_tau = np.zeros_like(ways)

    sectors = {}
    for c in CHARGE_ORDER:
        paths = _PATHS[c].take(m_tau)
        hit = paths > 0
        coeff = base[hit]
        coeff *= qdim_float(c)
        coeff /= _PHI_POWERS.take(m_tau[hit])
        mults = ways[hit]
        mults *= paths[hit]
        sectors[c] = (coeff, mults)
        del paths, hit
    del ways, base, m_tau
    return from_arrays(sectors)


def _ncopy_sector_probability(state: SchmidtState, n: int, c: Charge) -> float:
    """Probability of total charge c after n copies, via the binomial split.

    Only the per-copy tau weight matters: summing the inner indices of a
    charge vector with m tau entries gives C(n, m) p_tau^m (1-p_tau)^(n-m),
    and each such vector contributes dim(m, c) * d_c / d_tau**m.
    """
    p_tau = state.p_tau
    p_vac = 1.0 - p_tau
    paths, d_c = _PATH_COUNTS[c], qdim_float(c)
    total = 0.0
    binomial = 1  # C(n, m), stepped exactly
    for m in range(n + 1):
        # A term with no path adds an exact zero, which keeps the sum's bits.
        total += binomial * p_tau**m * p_vac ** (n - m) * paths[m] * d_c / PHI**m
        binomial = binomial * (n - m) // (m + 1)
    return total


def e_aree_ncopy(state: SchmidtState, n: int) -> float:
    """Closed-form AREE of the joint n-copy state.

    Equals ``n H({lambda}) + n p_tau log2(d_tau) + p_tau^(n) log2(d_tau)``
    where p_tau^(n) is the n-copy tau-sector probability; matches
    ``measure_report(n_copy(state, n)).aree`` whenever the construction is
    feasible; 1 <= n <= 66, the range of the path table, as for :func:`n_copy`.
    """
    _check_count(n)
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
        del joint  # before the next, larger joint state is built
        rows.append(
            (n, report.aee / n, report.aree / n, report.ace / n, report.ce / n)
        )
    return CopySeries(tuple(rows))
