"""Workload inputs and output checks for the fibanyon benchmark.

Every workload is a fixed list of CLI commands (ops) generated from a seed.
The program only ever sees the generated state files and arguments.  Each
op carries a check written against closed forms recomputed here, without
calling fibanyon, so a check stays valid when the program's internals
change.  Checks return an error message, or None when the output is right.

Workloads (see ``WORKLOADS``):

* ``flagship-chsh``: the tau-pair, a type-B state (one coefficient per
  sector) and a rank-3 type-C state (two tau coefficients).  Each runs
  ``measures``, ``certify --copies 1/2`` and ``chsh --copies n`` for n = 1
  up to the largest n whose joint rank is at most 2048.  Loads ``bell``.
* ``series-wide``: states with L = 6..10 distinct coefficients over both
  sectors, each running ``measures`` and ``series --max-n N`` with N the
  largest copy count whose compositions C(n+L-1, L-1), summed over
  n = 1..N, stay within a fixed budget.  Loads ``multicopy`` and
  ``states``; never calls ``bell``.
* ``verify-suite``: ``verify --seed s`` at the default case count, with s
  drawn from the workload seed, so runs with different seeds cover
  different verify seeds.  One op of about ten seconds: tens of thousands
  of calls on 1x1 to 9x9 blocks.  A pass holds a single op so that a run
  of a few tens of seconds still takes a median over several passes.

Only coefficient values depend on the seed; the structure of each state
(sector ranks, copy counts) is fixed, so every seed costs about the same.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

PHI = (1.0 + math.sqrt(5.0)) / 2.0
LOG2_PHI = math.log2(PHI)
TSIRELSON = 2.0 * math.sqrt(2.0)
#: The paper's three-copy CHSH value of the tau-pair, (4 sqrt2 phi + 2) / phi^3.
TAU_PAIR_N3 = (4.0 * math.sqrt(2.0) * PHI + 2.0) / PHI**3

#: Joint rank up to which ``chsh --copies n`` is included (the dense cap of
#: the seed program).  Copy counts are fixed from this at generation time.
JOINT_RANK_CAP = 2048
#: The program's largest copy count.
N_MAX = 24

_VALUE_TOL = 1e-9  # outputs carry 12 decimals
_SERIES_TOL = 1e-8  # CSV carries 12 significant digits, n * AREE up to ~100
_VIOLATION_TOL = 1e-9

VACUUM, TAU = "1", "tau"

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    warmup: Op
    ops: tuple[Op, ...]


# ---------------------------------------------------------------------------
# Closed forms, recomputed independently of the program
# ---------------------------------------------------------------------------


def paths(m_tau: int, charge: str) -> int:
    """Fusion paths of m_tau tau charges to total ``charge`` (Fibonacci counts)."""
    if m_tau == 0:
        return 1 if charge == VACUUM else 0
    dim_vac, dim_tau = 0, 1
    for _ in range(m_tau - 1):
        dim_vac, dim_tau = dim_tau, dim_vac + dim_tau
    return dim_tau if charge == TAU else dim_vac


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def joint_groups(sectors: dict[str, list[float]], n: int) -> dict[str, dict[float, int]]:
    """Schmidt data of the joint n-copy state: per sector, coefficient -> multiplicity."""
    letters = [(c, v) for c, values in sectors.items() for v in values]
    out: dict[str, dict[float, int]] = {VACUUM: {}, TAU: {}}
    for counts in _compositions(n, len(letters)):
        ways, remaining, base, m_tau = 1, n, 1.0, 0
        for (c, v), k in zip(letters, counts):
            ways *= math.comb(remaining, k)
            remaining -= k
            base *= v**k
            m_tau += k if c == TAU else 0
        for total in (VACUUM, TAU):
            count = paths(m_tau, total)
            if count:
                coeff = base * (PHI if total == TAU else 1.0) / PHI**m_tau
                bucket = out[total]
                bucket[coeff] = bucket.get(coeff, 0) + ways * count
    return out


def joint_rank(sectors: dict[str, list[float]], n: int) -> int:
    return sum(sum(bucket.values()) for bucket in joint_groups(sectors, n).values())


def plane_bound(l1: float, l2: float) -> float:
    """CHSH value of the best rotation family on the plane of two same-sector coefficients."""
    p, q = l1 + l2, 2.0 * math.sqrt(l1 * l2)
    return 2.0 * math.sqrt(p * p + q * q) + 2.0 * (1.0 - p)


def chsh_floor(groups: dict[str, dict[float, int]]) -> float:
    """Largest plane bound over the top coefficient pair of each sector (2 if none)."""
    best = 2.0
    for bucket in groups.values():
        top = sorted(bucket.items(), reverse=True)[:2]
        if not top:
            continue
        (l1, m1), rest = top[0], top[1:]
        if m1 >= 2:
            best = max(best, plane_bound(l1, l1))
        elif rest:
            best = max(best, plane_bound(l1, rest[0][0]))
    return best


def rank_one_sectors(groups: dict[str, dict[float, int]]) -> bool:
    """Every sector has Schmidt rank <= 1: zero conventional entanglement, so local."""
    return all(sum(bucket.values()) <= 1 for bucket in groups.values())


def _entropy(values) -> float:
    return -sum(v * math.log2(v) for v in values if v > 0.0)


def closed_measures(sectors: dict[str, list[float]]) -> dict[str, float]:
    """AEE, AREE, ACE and CE of a single copy from the paper's closed forms."""
    flat = [v for values in sectors.values() for v in values]
    p_tau = sum(sectors.get(TAU, []))
    h = _entropy(flat)
    aree = h + 2.0 * p_tau * LOG2_PHI
    ace = _entropy([sum(values) for values in sectors.values()]) + 2.0 * p_tau * LOG2_PHI
    return {"aee": h + p_tau * LOG2_PHI, "aree": aree, "ace": ace, "ce": aree - ace}


def aree_ncopy(sectors: dict[str, list[float]], n: int) -> float:
    """AREE of the joint n-copy state: n H + n p_tau log2(phi) + p_tau^(n) log2(phi)."""
    flat = [v for values in sectors.values() for v in values]
    p = sum(sectors.get(TAU, []))
    p_tau_n = sum(
        math.comb(n, m) * p**m * (1.0 - p) ** (n - m) * paths(m, TAU) * PHI / PHI**m
        for m in range(1, n + 1)
    )
    return n * _entropy(flat) + n * p * LOG2_PHI + p_tau_n * LOG2_PHI


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_measures(sectors: dict[str, list[float]]) -> Check:
    expected = closed_measures(sectors)

    def check(stdout: str) -> str | None:
        got = _json(stdout)
        for key, want in expected.items():
            if abs(got[key] - want) > _VALUE_TOL:
                return f"{key} = {got[key]!r}, expected {want!r}"
        return None

    return check


def check_certify(sectors: dict[str, list[float]], n: int) -> Check:
    groups = joint_groups(sectors, n)
    local = rank_one_sectors(groups)
    coefficients = sorted(v for bucket in groups.values() for v in bucket)

    def check(stdout: str) -> str | None:
        got = _json(stdout)
        if got["local"] is not local:
            return f"local = {got['local']!r}, expected {local!r}"
        if not local:
            return None
        weights = sorted(term["p"] for term in got["terms"])
        if len(weights) != len(coefficients) or any(
            abs(a - b) > _VALUE_TOL for a, b in zip(weights, coefficients)
        ):
            return f"certificate weights {weights!r}, expected {coefficients!r}"
        if got["reconstruction_residual"] > 1e-12:
            return f"reconstruction residual {got['reconstruction_residual']!r}"
        return None

    return check


def check_chsh(sectors: dict[str, list[float]], n: int) -> Check:
    """Bounds that hold for any correct optimizer, present or future.

    The value lies between the plane bound of the joint state's top
    same-sector pair and Tsirelson's bound, a state whose sectors all have
    rank <= 1 stays local, the verdict matches the value, and the tau-pair
    at three copies gives the paper's value.  Values at n >= 4 are not
    pinned: a better optimizer may raise them.
    """
    groups = joint_groups(sectors, n)
    floor = chsh_floor(groups)
    local = rank_one_sectors(groups)
    pinned = TAU_PAIR_N3 if sectors == {TAU: [1.0]} and n == 3 else None

    def check(stdout: str) -> str | None:
        got = _json(stdout)
        value = got["value"]
        if not math.isfinite(value) or value > TSIRELSON + _VALUE_TOL:
            return f"value {value!r} exceeds Tsirelson's bound"
        if value < floor - _VALUE_TOL:
            return f"value {value!r} below the plane bound {floor!r}"
        if local and value > 2.0 + _VALUE_TOL:
            return f"value {value!r} violates CHSH on a state with rank-1 sectors"
        if pinned is not None and abs(value - pinned) > 1e-6:
            return f"three-copy value {value!r}, expected {pinned!r}"
        if got["copies"] != n:
            return f"copies = {got['copies']!r}, expected {n}"
        verdict = "violation" if value > 2.0 + _VIOLATION_TOL else "local-bound-respected"
        if abs(value - 2.0 - _VIOLATION_TOL) > 1e-11 and got["verdict"] != verdict:
            return f"verdict {got['verdict']!r} for value {value!r}"
        return None

    return check


def check_series(sectors: dict[str, list[float]], max_n: int) -> Check:
    aee = closed_measures(sectors)["aee"]
    aree = [aree_ncopy(sectors, n) for n in range(1, max_n + 1)]

    def check(stdout: str) -> str | None:
        lines = stdout.strip().splitlines()
        if lines[0] != "n,aee,aree,ace,ce" or len(lines) != max_n + 1:
            return f"series has header {lines[0]!r} and {len(lines) - 1} rows, expected {max_n}"
        for n, line in enumerate(lines[1:], start=1):
            row_n, *values = line.split(",")
            a, r, c, e = (float(x) for x in values)
            if int(row_n) != n:
                return f"row {n} is labelled {row_n!r}"
            if abs(n * r - aree[n - 1]) > _SERIES_TOL:
                return f"n={n}: n * AREE = {n * r!r}, closed form {aree[n - 1]!r}"
            if abs(a - aee) > _SERIES_TOL:
                return f"n={n}: AEE {a!r} differs from the single-copy {aee!r}"
            if abs(r - c - e) > _SERIES_TOL:
                return f"n={n}: AREE {r!r} != ACE {c!r} + CE {e!r}"
        return None

    return check


def check_verify(stdout: str) -> str | None:
    lines = stdout.strip().splitlines()
    failed = [line for line in lines[:-1] if not line.startswith("PASS")]
    if failed:
        return f"verify reported {failed[0]!r}"
    passed, _, total = lines[-1].partition(" ")[0].partition("/")
    if passed != total or len(lines) - 1 != int(total):
        return f"verify summary {lines[-1]!r}"
    return None


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

#: Sector ranks (vacuum, tau) of the flagship's type-B and type-C states.
FLAGSHIP_RANKS = ((1, 1), (1, 2))

#: Per size: a cap on flagship copy counts below the joint-rank cap, the
#: series-wide distinct coefficient counts L with the composition budget
#: that fixes N, and the cases per verify run (None for the default).
SIZES = {
    "full": {"copies": N_MAX, "series": ((6, 7, 8, 9, 10), 100_000), "verify": None},
    "tiny": {"copies": 3, "series": ((3, 4), 300), "verify": 1},
}


def _write_state(state_dir: str, label: str, sectors: dict[str, list[float]]) -> str:
    path = os.path.join(state_dir, f"{label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"sectors": sectors}, handle)
    return path


def _split(values: np.ndarray, k_vac: int) -> dict[str, list[float]]:
    sectors = {VACUUM: [float(v) for v in values[:k_vac]], TAU: [float(v) for v in values[k_vac:]]}
    return {c: v for c, v in sectors.items() if v}


def largest_copies(sectors: dict[str, list[float]]) -> int:
    n = 1
    while n < N_MAX and joint_rank(sectors, n + 1) <= JOINT_RANK_CAP:
        n += 1
    return n


def series_length(distinct: int, budget: int) -> int:
    """Largest N <= 24 whose compositions, summed over n = 1..N, stay within ``budget``."""
    n, spent = 0, 0
    while n < N_MAX:
        cost = math.comb(n + distinct, distinct - 1)
        if spent + cost > budget:
            break
        spent += cost
        n += 1
    return max(n, 1)


def _flagship(rng: np.random.Generator, size: dict, state_dir: str) -> Workload:
    states = {"tau-pair": {TAU: [1.0]}}
    for k_vac, k_tau in FLAGSHIP_RANKS:
        label = "type-b" if k_vac == k_tau == 1 else f"type-c-{k_vac}{k_tau}"
        states[label] = _split(rng.dirichlet(np.full(k_vac + k_tau, 2.0)), k_vac)
    ops = []
    for label, sectors in states.items():
        path = _write_state(state_dir, label, sectors)
        ops.append(Op(f"{label}/measures", ("measures", "--state", path), check_measures(sectors)))
        for n in (1, 2):
            ops.append(
                Op(
                    f"{label}/certify-{n}",
                    ("certify", "--state", path, "--copies", str(n)),
                    check_certify(sectors, n),
                )
            )
        for n in range(1, min(largest_copies(sectors), size["copies"]) + 1):
            ops.append(
                Op(
                    f"{label}/chsh-{n}",
                    ("chsh", "--state", path, "--copies", str(n)),
                    check_chsh(sectors, n),
                )
            )
    # A cold first chsh at rank ~55 pays lazy LAPACK set-up of about a second.
    copies = min(9, size["copies"])
    warmup = Op(
        f"warmup/chsh-{copies}",
        ("chsh", "--state", ops[0].argv[2], "--copies", str(copies)),
        check_chsh(states["tau-pair"], copies),
    )
    return Workload(warmup, tuple(ops))


def _series(rng: np.random.Generator, size: dict, state_dir: str) -> Workload:
    distincts, budget = size["series"]
    states = {d: _split(rng.dirichlet(np.full(d, 2.0)), d // 2) for d in distincts}
    ops = []
    for distinct, sectors in states.items():
        label, max_n = f"L{distinct}", series_length(distinct, budget)
        path = _write_state(state_dir, label, sectors)
        ops.append(Op(f"{label}/measures", ("measures", "--state", path), check_measures(sectors)))
        ops.append(
            Op(
                f"{label}/series-{max_n}",
                ("series", "--state", path, "--max-n", str(max_n)),
                check_series(sectors, max_n),
            )
        )
    warmup = Op(
        "warmup/series-4",
        ("series", "--state", ops[0].argv[2], "--max-n", "4"),
        check_series(states[distincts[0]], 4),
    )
    return Workload(warmup, tuple(ops))


def _verify(rng: np.random.Generator, size: dict, state_dir: str) -> Workload:
    cases = size["verify"]
    seed = str(int(rng.integers(0, 2**31 - 1)))
    extra = () if cases is None else ("--cases", str(cases))
    op = Op(f"verify-{seed}", ("verify", "--seed", seed) + extra, check_verify)
    warmup = Op("warmup/verify-1", ("verify", "--seed", seed, "--cases", "1"), check_verify)
    return Workload(warmup, (op,))


WORKLOADS = {"flagship-chsh": _flagship, "series-wide": _series, "verify-suite": _verify}


def build(name: str, seed: int, size: str, state_dir: str) -> Workload:
    """Generate workload ``name`` from ``seed``, writing its state files to ``state_dir``."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, SIZES[size], state_dir)
