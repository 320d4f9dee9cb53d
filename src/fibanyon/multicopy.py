"""Joint multi-copy states and the per-copy measure series.

The joint n-copy of a bipartite pure state fuses the n pairs into a
single bipartite system.  Its Schmidt data is built directly: for every
per-copy coefficient assignment (charge vector ``a``, index vector ``i``)
and every fusion path of ``a`` to total charge ``c``, the joint state has
a sector-c coefficient ``lambda_{a,i} * d_c / d_a``.  Path counts are the
fusion-space dimensions, so coefficients repeat heavily; they are
accumulated as (value, multiplicity) groups and the total equals 1 by the
identity ``sum_c dim(m, c) * d_c = d_tau**m``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .errors import CopyLimitExceeded
from .measures import _schmidt_entropy, measure_report
from .model import CHARGE_ORDER, LOG2_PHI, PHI, Charge, fusion_space_dim, qdim_float
from .states import SchmidtState, from_grouped

#: Cap on copy counts; grouped sector data stays in the
#: hundred-thousand-entry range up to here.
N_MAX = 24

#: Cap on the compositions C(n + L - 1, L - 1) that :func:`n_copy` enumerates
#: for L (value, multiplicity) groups, a few seconds of work.
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


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _multinomial(n: int, counts: tuple[int, ...]) -> int:
    out = 1
    remaining = n
    for k in counts:
        out *= math.comb(remaining, k)
        remaining -= k
    return out


def n_copy(state: SchmidtState, n: int) -> SchmidtState:
    """Joint n-copy of a pure state, as a pure state in Schmidt form; 1 <= n <= ``N_MAX``.

    Copy counts that would need more than 200 000 compositions, or whose
    joint rank does not fit in int64, are refused up front with
    :class:`CopyLimitExceeded`.
    """
    _check_copies(state, n)
    if n == 1:
        return state

    letters = [(c, value, mult) for c, value, mult in state.items()]
    acc: dict[Charge, dict[float, int]] = {c: {} for c in CHARGE_ORDER}
    for counts in _compositions(n, len(letters)):
        ways = _multinomial(n, counts)
        base = 1.0
        m_tau = 0
        for (c, value, mult), k in zip(letters, counts):
            if k == 0:
                continue
            ways *= mult**k
            base *= value**k
            if c is Charge.TAU:
                m_tau += k
        for c_total in CHARGE_ORDER:
            paths = _paths(m_tau, c_total)
            if not paths:
                continue
            coeff = base * qdim_float(c_total) / PHI**m_tau
            bucket = acc[c_total]
            bucket[coeff] = bucket.get(coeff, 0) + ways * paths
    grouped = {
        c: [(v, m) for v, m in bucket.items()] for c, bucket in acc.items() if bucket
    }
    return from_grouped(grouped)


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

    The AREE closed form is asserted against the constructed state for
    every row, so the series doubles as a consistency check.
    """
    _check_copies(state, n_max)
    rows = []
    for n in range(1, n_max + 1):
        joint = n_copy(state, n)
        report = measure_report(joint)
        closed = e_aree_ncopy(state, n)
        if abs(report.aree - closed) > _CONSISTENCY_TOL:
            raise AssertionError(
                f"n={n}: constructed AREE {report.aree!r} != closed form {closed!r}"
            )
        rows.append(
            (n, report.aee / n, report.aree / n, report.ace / n, report.ce / n)
        )
    return CopySeries(tuple(rows))
