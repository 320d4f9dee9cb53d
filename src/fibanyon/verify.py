"""Self-contained invariant suite behind the ``verify`` CLI command.

Every check is deterministic for a fixed seed.  The suite covers the
exact model identities, the measure decomposition (closed form and fully
numeric), the closest-separable oracle, multi-copy consistency, the
Omega projection, and the CHSH bounds.  The checks that the acceptance
tests also run are module-level ``check_*`` functions, each returning
:class:`CheckResult` values; callers choose the seed and sample sizes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bell import (
    TSIRELSON,
    chsh_value,
    chsh_value_operator,
    expectation,
    expectation_operator,
    optimize_chsh,
    random_involution_observable,
)
from .measures import (
    aee,
    closest_separable_candidate,
    e_ace_pure,
    e_aree_pure,
    e_ce_pure,
    embed,
    minimality_gradient,
    omega_project,
    omega_project_operator,
    pythagorean_residual,
    random_separable_direction,
    relative_entropy,
)
from .model import (
    CHARGE_ORDER,
    LOG2_PHI,
    PHI,
    PHI_EXACT,
    Charge,
    QSqrt5,
    fusion_space_dim,
    qdim,
)
from .multicopy import CopySeries, copy_series, e_aree_ncopy, n_copy
from .states import GradedDensityOperator, SchmidtState, new_schmidt_state, random_schmidt_state


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _brute_force_paths(n: int, target: Charge) -> int:
    """Count fusion paths of n tau anyons by explicit enumeration."""
    count = 0
    for inner in itertools.product(CHARGE_ORDER, repeat=max(n - 1, 0)):
        charges = (Charge.TAU,) + inner
        ok = all(
            charges[i + 1] in _fusion_with_tau(charges[i]) for i in range(n - 1)
        )
        if ok and charges[-1] is target:
            count += 1
    return count


def _fusion_with_tau(c: Charge) -> tuple[Charge, ...]:
    return (Charge.TAU,) if c is Charge.VACUUM else CHARGE_ORDER


def _total_dimension(n: int) -> QSqrt5:
    """sum_c dim(n, c) d_c, exactly; equals d_tau**n."""
    return sum(fusion_space_dim(n, c) * qdim(c) for c in CHARGE_ORDER)


def _max_block_gap(x: GradedDensityOperator, y: GradedDensityOperator) -> float:
    """Largest entrywise deviation of y from x over the blocks of x."""
    return max(float(np.max(np.abs(x.block(k) - y.block(k)))) for k in x.keys())


def check_model_identities() -> list[CheckResult]:
    """Golden identity, total-dimension identity and brute-force path counts."""
    golden = qdim(Charge.TAU) ** 2 == qdim(Charge.TAU) + 1
    dims_ok = all(_total_dimension(n) == PHI_EXACT**n for n in range(1, 21))
    paths_ok = all(
        fusion_space_dim(n, c) == _brute_force_paths(n, c)
        for n in range(1, 13)
        for c in CHARGE_ORDER
    )
    return [
        CheckResult("golden-identity", golden, "d_tau**2 == d_tau + 1 in Q[sqrt(5)]"),
        CheckResult("total-dimension", dims_ok, "sum_c dim(n,c) d_c == d_tau**n for n <= 20"),
        CheckResult("fusion-paths", paths_ok, "dim matches brute-force enumeration for n <= 12"),
    ]


def check_decomposition(states: Sequence[SchmidtState]) -> list[CheckResult]:
    """AREE = ACE + CE in closed form, and numerically on the first 100 states.

    The closed-form residual is taken from the three measure functions
    directly: :class:`MeasureReport` raises on a violation, which would
    end the suite instead of reporting a failed check.
    """
    closed = max(abs(e_aree_pure(s) - e_ace_pure(s) - e_ce_pure(s)) for s in states)
    numeric_states = states[:100]
    numeric = max(abs(pythagorean_residual(s)) for s in numeric_states)
    closed_detail = f"max |AREE - ACE - CE| = {closed:.3e} over {len(states)} states"
    numeric_detail = f"max numeric residual = {numeric:.3e} over {len(numeric_states)} states"
    return [
        CheckResult("decomposition-closed-form", closed < 1e-9, closed_detail),
        CheckResult("decomposition-numeric", numeric < 1e-8, numeric_detail),
    ]


def check_separable_oracle(
    rng: np.random.Generator,
    value_states: Sequence[SchmidtState],
    gradient_states: Sequence[SchmidtState],
    directions: int,
) -> list[CheckResult]:
    """Closest-separable value equals the AREE; its gradient is >= 0 along random directions."""
    worst = 0.0
    for s in value_states:
        candidate = closest_separable_candidate(s).to_operator(s.ranks)
        worst = max(worst, abs(relative_entropy(embed(s), candidate) - e_aree_pure(s)))
    lowest = math.inf
    for s in gradient_states:
        for _ in range(directions):
            direction = random_separable_direction(rng, s.ranks)
            lowest = min(lowest, minimality_gradient(s, direction))
    value_detail = f"max |numeric - closed| = {worst:.3e} over {len(value_states)} states"
    gradient_detail = (
        f"min gradient = {lowest:.3e} over {len(gradient_states)} states x {directions} directions"
    )
    return [
        CheckResult("separable-oracle-value", worst < 1e-8, value_detail),
        CheckResult("separable-oracle-gradient", lowest >= -1e-6, gradient_detail),
    ]


def check_tsirelson(
    rng: np.random.Generator, n_states: int, draws_per_state: int
) -> list[CheckResult]:
    """|CHSH| <= 2 sqrt(2) for random involutions on random states."""
    worst = 0.0
    for _ in range(n_states):
        s = random_schmidt_state(rng)
        for _ in range(draws_per_state):
            obs = [random_involution_observable(rng, s.ranks) for _ in range(4)]
            worst = max(worst, abs(chsh_value(s, *obs)))
    draws = n_states * draws_per_state
    detail = f"max |CHSH| = {worst:.10f} over {draws} draws"
    return [CheckResult("tsirelson", worst <= TSIRELSON + 1e-9, detail)]


def check_copy_series_trends(series: CopySeries) -> list[CheckResult]:
    """Tau-pair series: AEE constant, CE zero then positive, ACE falling, AREE -> log2(phi)."""
    rows = series.rows
    aee_const = max(abs(row[1] - LOG2_PHI) for row in rows)
    ce_zero = all(rows[n - 1][4] == 0.0 for n in (1, 2))
    ce_positive = all(row[4] > 0.0 for row in rows[2:])
    ace_decreasing = all(rows[i][3] > rows[i + 1][3] for i in range(len(rows) - 1))
    aree_bound = all(abs(row[2] - LOG2_PHI) <= LOG2_PHI / row[0] + 1e-12 for row in rows)
    passed = aee_const < 1e-9 and ce_zero and ce_positive and ace_decreasing and aree_bound
    detail = f"aee drift {aee_const:.3e}; CE zeros at n=1,2; ACE strictly decreasing"
    return [CheckResult("copy-series-trends", passed, detail)]


def run_suite(seed: int = 42, cases: int = 100) -> list[CheckResult]:
    """Run every invariant check; returns one result per check."""
    rng = np.random.default_rng(seed)
    results = check_model_identities()

    def record(name: str, passed: bool, detail: str) -> None:
        results.append(CheckResult(name, bool(passed), detail))

    states = [random_schmidt_state(rng) for _ in range(cases)]
    results += check_decomposition(states)
    n_grad_states = max(2, min(10, cases // 10))
    results += check_separable_oracle(rng, states[:100], states[:n_grad_states], 40)

    worst = max(abs(aee(n_copy(s, n)) - n * aee(s)) for s in states[:10] for n in (2, 3))
    record("aee-additivity", worst < 1e-9, f"max |aee(n-copy) - n aee| = {worst:.3e}")

    worst = max(
        abs(e_aree_ncopy(s, n) - e_aree_pure(n_copy(s, n)))
        for s in states[:10]
        for n in range(2, 7)
    )
    record(
        "multicopy-closed-form",
        worst < 1e-9,
        f"max |closed - constructed| = {worst:.3e} for n <= 6",
    )

    worst_idem = 0.0
    worst_expect = 0.0
    worst_embed = 0.0
    for s in states[:20]:
        omega = omega_project(s)
        worst_idem = max(worst_idem, _max_block_gap(omega, omega_project_operator(omega)))
        worst_embed = max(worst_embed, _max_block_gap(omega, omega_project_operator(embed(s))))
        for _ in range(5):
            a = random_involution_observable(rng, s.ranks)
            b = random_involution_observable(rng, s.ranks)
            worst_expect = max(
                worst_expect,
                abs(expectation(s, a, b) - expectation_operator(omega, a, b)),
            )
    record("omega-idempotence", worst_idem < 1e-12, f"max deviation = {worst_idem:.3e}")
    record(
        "omega-from-joint",
        worst_embed < 1e-12,
        f"max |Omega(embed) - Omega| = {worst_embed:.3e}",
    )
    record(
        "omega-expectations",
        worst_expect < 1e-10,
        f"max product-observable deviation = {worst_expect:.3e}",
    )

    results += check_tsirelson(rng, max(100, 10 * cases), 10)

    worst = 0.0
    for s in states[:10]:
        omega = omega_project(s)
        obs = [random_involution_observable(rng, s.ranks) for _ in range(4)]
        worst = max(
            worst, abs(chsh_value(s, *obs) - chsh_value_operator(omega, *obs))
        )
    record("chsh-omega-invariance", worst < 1e-10, f"max deviation = {worst:.3e}")

    tau_state = new_schmidt_state({Charge.TAU: [1.0]})
    results += check_copy_series_trends(copy_series(tau_state, 12))

    target = (4.0 * math.sqrt(2.0) * PHI + 2.0) / PHI**3
    three = optimize_chsh(tau_state, copies=3)
    low = [optimize_chsh(tau_state, copies=n) for n in (1, 2)]
    record(
        "chsh-three-copies",
        abs(three.value - target) < 1e-4
        and all(r.value <= 2.0 + 1e-6 for r in low),
        f"n=3 optimum {three.value:.6f} (target {target:.6f}); n<=2 stays local",
    )

    return results
