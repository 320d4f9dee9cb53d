"""Self-contained invariant suite behind the ``verify`` CLI command.

Every check is deterministic for a fixed seed, and each guards a number
the program prints: the exact model identities behind the fusion-space
dimensions, the measure decomposition (closed form and fully numeric),
the AEE against the dense reduced state, the closest-separable oracle,
multi-copy consistency, the closed-form Omega image that the numeric
checks read, the three-copy CHSH optimum, and the locality certificates
against the CHSH verdict and the state classes.  Each group of checks is
a module-level function returning :class:`CheckResult` values; the
public ``check_*`` ones, which the acceptance tests also run, let
callers choose the seed and sample sizes.  Seven checks report the
largest |value| against a bound; ``_WORST_LINES`` holds each one's bound
and detail, once, and :func:`_worst_line` builds all seven lines.  Every
reduction lets a NaN through, so a NaN value fails its check.

The numeric side of each comparison comes from :mod:`fibanyon.oracle`,
and each closed-form report and joint state is derived once, for every
check that reads it.  Five checks read one dense pass over the first
100 states, made once per rank signature (the states' sector ranks):
the embedded states, their Omega images and their closest-separable
candidates are built once per signature, as stacks that the oracle
validates and eigen-solves at once, and the numeric decomposition
(AREE - S(rho||Omega) - S(Omega||sigma)), the separable-oracle value,
the dense AEE, the Omega image of the embedded state and the drawn
states' locality certificates are all read from them.  Each state keeps
the value it has on its own, and each check keeps its own error, so a
check fails exactly when its own values or operators raise.  The
separable-oracle gradient check, the only one that draws after the
states, makes one pass per state: one draw of all the state's random
separable directions as a stack of mixtures, which
:class:`~fibanyon.oracle.SeparableState` validates, and one evaluation
of every gradient.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bell import local_terms, optimize_chsh
from .errors import FibanyonError
from .measures import MeasureReport, StateClass, classify, measure_report
from .model import (
    CHARGE_ORDER,
    LOG2_PHI,
    PHI,
    PHI_EXACT,
    Charge,
    QSqrt5,
    fuse,
    fusion_space_dim,
    qdim,
)
from .multicopy import CopySeries, copy_series, e_aree_ncopy, n_copy
from .oracle import (
    anyonic_entropy,
    certificate_gap,
    closest_separable_candidate,
    embed,
    max_block_gap,
    minimality_gradient,
    omega_project,
    omega_project_operator,
    random_separable_directions,
    reduced_density,
    relative_entropy,
)
from .states import SchmidtState, new_schmidt_state, random_schmidt_state


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _brute_force_paths(n: int) -> dict[Charge, int]:
    """Count fusion paths of n tau anyons to each total charge by explicit enumeration.

    Each admissible charge sequence is extended level by level through
    :func:`~fibanyon.model.fuse`, so every sequence enumerated is a path.
    """
    paths = [(Charge.TAU,)]
    for _ in range(n - 1):
        paths = [path + (c,) for path in paths for c in fuse(path[-1], Charge.TAU)]
    counts = dict.fromkeys(CHARGE_ORDER, 0)
    for path in paths:
        counts[path[-1]] += 1
    return counts


def _total_dimension(n: int) -> QSqrt5:
    """sum_c dim(n, c) d_c, exactly; equals d_tau**n."""
    return sum(fusion_space_dim(n, c) * qdim(c) for c in CHARGE_ORDER)


def check_model_identities() -> list[CheckResult]:
    """Golden identity, total-dimension identity and brute-force path counts."""
    golden = qdim(Charge.TAU) ** 2 == qdim(Charge.TAU) + 1
    powers = itertools.accumulate(itertools.repeat(PHI_EXACT, 20), operator.mul)
    dims_ok = all(_total_dimension(n) == power for n, power in enumerate(powers, start=1))
    paths_ok = all(
        fusion_space_dim(n, c) == count
        for n in range(1, 13)
        for c, count in _brute_force_paths(n).items()
    )
    return [
        CheckResult("golden-identity", golden, "d_tau**2 == d_tau + 1 in Q[sqrt(5)]"),
        CheckResult("total-dimension", dims_ok, "sum_c dim(n,c) d_c == d_tau**n for n <= 20"),
        CheckResult("fusion-paths", paths_ok, "dim matches brute-force enumeration for n <= 12"),
    ]


#: The checks that report the largest |value| against a bound: for each,
#: the bound and the detail template, formatted with ``worst`` and ``count``.
_WORST_LINES: dict[str, tuple[float, str]] = {
    "decomposition-closed-form": (1e-9, "max |AREE - ACE - CE| = {worst:.3e} over {count} states"),
    "decomposition-numeric": (1e-8, "max numeric residual = {worst:.3e} over {count} states"),
    "separable-oracle-value": (1e-8, "max |numeric - closed| = {worst:.3e} over {count} states"),
    "aee-dense": (1e-12, "max |numeric - closed| = {worst:.3e} over {count} states"),
    "aee-additivity": (1e-9, "max |aee(n-copy) - n aee| = {worst:.3e}"),
    "multicopy-closed-form": (1e-9, "max |closed - constructed| = {worst:.3e} for n <= 6"),
    "omega-from-joint": (1e-12, "max |Omega(embed) - Omega| = {worst:.3e}"),
}


def _worst_line(name: str, values: Sequence[float]) -> CheckResult:
    """The line of a ``_WORST_LINES`` check: passed when the largest |value|
    is below its bound.  A NaN among the values is the largest and fails;
    no values give 0."""
    bound, template = _WORST_LINES[name]
    worst = float(np.max(np.abs(values), initial=0.0))
    return CheckResult(name, worst < bound, template.format(worst=worst, count=len(values)))


def check_decomposition_closed(reports: Sequence[MeasureReport]) -> list[CheckResult]:
    """AREE = ACE + CE in closed form, over every state's report."""
    return [_worst_line("decomposition-closed-form", [r.aree - r.ace - r.ce for r in reports])]


class _Operators:
    """The dense operators of one stack of states sharing their sector ranks,
    each built on first use and kept while the stack's values are taken."""

    def __init__(self, stack: list[SchmidtState]):
        self.stack = stack

    @functools.cached_property
    def rho(self):
        return embed(self.stack)

    @functools.cached_property
    def omega(self):
        return omega_project(self.stack)

    @functools.cached_property
    def sigma(self):
        return closest_separable_candidate(self.stack).to_operator()


#: The checks that read the dense pass: for each, the number of leading
#: states it reads (inf: all), the report field it compares against (or
#: None), and its value for every state of a stack, from the stack's
#: operators and closed values.
_DENSE_CHECKS: dict[str, tuple[float, str | None, Callable[[_Operators, list], np.ndarray]]] = {
    "decomposition-numeric": (
        math.inf,
        "aree",
        lambda ops, aree: (
            aree - relative_entropy(ops.rho, ops.omega) - relative_entropy(ops.omega, ops.sigma)
        ),
    ),
    "separable-oracle-value": (
        math.inf, "aree", lambda ops, aree: relative_entropy(ops.rho, ops.sigma) - aree
    ),
    "aee-dense": (
        math.inf, "aee", lambda ops, aee: anyonic_entropy(reduced_density(ops.stack)) - aee
    ),
    "omega-from-joint": (
        20, None, lambda ops, _: max_block_gap(ops.omega, omega_project_operator(ops.rho))
    ),
    "locality-certificate": (10, None, lambda ops, _: max_block_gap(ops.omega, ops.sigma)),
}

_DenseValues = dict[str, list[float] | FibanyonError]


def _dense_pass(
    states: Sequence[SchmidtState], report: Callable[[int], MeasureReport]
) -> _DenseValues:
    """Every dense check's value for each state it reads, in the order of ``states``.

    One pass per rank signature (the states' sector ranks), in order of
    first appearance: the stack of the states that share it is embedded,
    projected and given its candidate once, for every check.  Only values
    outlive the stack.  A check whose value or operator raises a package
    error keeps the first such error in place of its values.
    """
    signatures: dict[tuple, list[int]] = {}
    for i, s in enumerate(states):
        signatures.setdefault(tuple(s.ranks.items()), []).append(i)
    values: _DenseValues = {
        name: [0.0] * min(count, len(states)) for name, (count, _, _) in _DENSE_CHECKS.items()
    }
    for rows in signatures.values():
        ops = _Operators([states[i] for i in rows])
        for name, (count, field, value_of) in _DENSE_CHECKS.items():
            if rows[0] >= count or isinstance(values[name], FibanyonError):
                continue
            try:
                closed = [getattr(report(i), field) for i in rows] if field else None
                for i, value in zip(rows, value_of(ops, closed)):
                    if i < count:
                        values[name][i] = float(value)
            except FibanyonError as exc:
                values[name] = exc
    return values


def _read(values: _DenseValues, name: str) -> list[float]:
    """One check's values from the dense pass; raises the error that stood in for them."""
    if isinstance(values[name], FibanyonError):
        raise values[name]
    return values[name]


def _dense_line(values: _DenseValues, name: str) -> list[CheckResult]:
    """The ``_WORST_LINES`` line of one dense check."""
    return [_worst_line(name, _read(values, name))]


def check_separable_gradient(
    rng: np.random.Generator, states: Sequence[SchmidtState], directions: int
) -> list[CheckResult]:
    """The candidate's gradient is >= 0 along random separable directions.

    One pass per state: :func:`~fibanyon.oracle.random_separable_directions`
    draws the state's directions as one validated stack, and
    :func:`~fibanyon.oracle.minimality_gradient` evaluates all of them.  A
    NaN gradient is the lowest and fails.
    """
    gradients = [
        minimality_gradient(s, random_separable_directions(rng, s.ranks, directions))
        for s in states
    ]
    lowest = float(np.min(gradients, initial=math.inf))
    detail = f"min gradient = {lowest:.3e} over {len(states)} states x {directions} directions"
    return [CheckResult("separable-oracle-gradient", lowest >= -1e-6, detail)]


def check_copy_series_trends(series: CopySeries) -> list[CheckResult]:
    """Tau-pair series: AEE constant, CE zero then positive, ACE falling, AREE -> log2(phi)."""
    rows = series.rows
    aee_const = float(np.max(np.abs([row[1] - LOG2_PHI for row in rows]), initial=0.0))
    ce_zero = all(rows[n - 1][4] == 0.0 for n in (1, 2))
    ce_positive = all(row[4] > 0.0 for row in rows[2:])
    ace_decreasing = all(rows[i][3] > rows[i + 1][3] for i in range(len(rows) - 1))
    aree_bound = all(abs(row[2] - LOG2_PHI) <= LOG2_PHI / row[0] + 1e-12 for row in rows)
    passed = aee_const < 1e-9 and ce_zero and ce_positive and ace_decreasing and aree_bound
    detail = f"aee drift {aee_const:.3e}; CE zeros at n=1,2; ACE strictly decreasing"
    return [CheckResult("copy-series-trends", passed, detail)]


def _check_multicopy(
    states: Sequence[SchmidtState], reports: Sequence[MeasureReport]
) -> list[CheckResult]:
    """AEE additivity (n = 2, 3) and closed-form n-copy AREE (n <= 6), one joint per (s, n)."""
    additivity, closed_form = [], []
    for s, report in zip(states, reports):
        for n in range(2, 7):
            joint = measure_report(n_copy(s, n))
            if n <= 3:
                additivity.append(joint.aee - n * report.aee)
            closed_form.append(e_aree_ncopy(s, n) - joint.aree)
    return [
        _worst_line("aee-additivity", additivity),
        _worst_line("multicopy-closed-form", closed_form),
    ]


def _check_three_copies(tau_joint: Callable[[int], SchmidtState]) -> list[CheckResult]:
    """The paper's 2.63286 at three copies of the tau-pair; local verdicts at one and two."""
    target = (4.0 * math.sqrt(2.0) * PHI + 2.0) / PHI**3
    three = optimize_chsh(tau_joint(3))
    low = [optimize_chsh(tau_joint(n)) for n in (1, 2)]
    passed = (
        abs(three.value - target) < 1e-4
        and three.verdict == "violation"
        and all(r.verdict == "local-bound-respected" for r in low)
    )
    detail = f"n=3 optimum {three.value:.6f} (target {target:.6f}); n<=2 stays local"
    return [CheckResult("chsh-three-copies", passed, detail)]


def _check_locality(joints: Sequence[SchmidtState], gaps: Sequence[float]) -> list[CheckResult]:
    """The closed-form terms exist iff the dense gap is below 1e-12 iff the
    CHSH verdict is local iff the joint state is of type A or B; ``gaps``
    holds each joint's certificate gap, in the order of ``joints``."""
    rows = [
        (
            local_terms(joint) is not None,
            gap,
            optimize_chsh(joint).verdict == "local-bound-respected",
            classify(joint) is not StateClass.TYPE_C,
        )
        for joint, gap in zip(joints, gaps)
    ]
    passed = all(
        local == (gap < 1e-12) == verdict == kind for local, gap, verdict, kind in rows
    )
    worst = max((gap for local, gap, _, _ in rows if local), default=0.0)
    detail = (
        f"closed-form terms iff dense gap < 1e-12 iff local verdict iff type A/B "
        f"on {len(rows)} states; max local gap = {worst:.3e}"
    )
    return [CheckResult("locality-certificate", passed, detail)]


def run_suite(seed: int = 42, cases: int = 100) -> list[CheckResult]:
    """Run every invariant check; returns one result per check.

    The checks run in groups, in a fixed order that fixes the draws each
    reads from the seeded generator.  A group whose oracle raises a
    package error reports each of its checks as failed, with the error as
    the detail, and the suite goes on.  The closed-form decomposition
    check runs apart from its numeric oracle, and the separable-oracle
    gradient apart from the value, so a raising value oracle neither
    fails the gradient check nor skips its draws.  Each drawn state's
    report and tau-pair joint is made on first use, kept unless it raises;
    the multi-copy checks share one group, as they read the same joints.
    The dense pass is made once, by the first group that reads it, and
    each of its five checks raises only its own stored error.
    """
    rng = np.random.default_rng(seed)
    states = [random_schmidt_state(rng) for _ in range(cases)]
    n_grad_states = max(2, min(10, cases // 10))
    tau_state = new_schmidt_state({Charge.TAU: [1.0]})
    report = functools.cache(lambda i: measure_report(states[i]))
    tau_joint = functools.cache(lambda n: n_copy(tau_state, n))
    dense = functools.cache(lambda: _dense_pass(states[:100], report))

    def reports(count: int) -> list[MeasureReport]:
        return [report(i) for i in range(min(count, cases))]

    groups: list[tuple[tuple[str, ...], Callable[[], list[CheckResult]]]] = [
        (("golden-identity", "total-dimension", "fusion-paths"), check_model_identities),
        (("decomposition-closed-form",), lambda: check_decomposition_closed(reports(cases))),
        (("decomposition-numeric",), lambda: _dense_line(dense(), "decomposition-numeric")),
        (("separable-oracle-value",), lambda: _dense_line(dense(), "separable-oracle-value")),
        (
            ("separable-oracle-gradient",),
            lambda: check_separable_gradient(rng, states[:n_grad_states], 40),
        ),
        (("aee-dense",), lambda: _dense_line(dense(), "aee-dense")),
        (
            ("aee-additivity", "multicopy-closed-form"),
            lambda: _check_multicopy(states[:10], reports(10)),
        ),
        (("omega-from-joint",), lambda: _dense_line(dense(), "omega-from-joint")),
        (("copy-series-trends",), lambda: check_copy_series_trends(copy_series(tau_state, 12))),
        (("chsh-three-copies",), lambda: _check_three_copies(tau_joint)),
        (
            ("locality-certificate",),
            lambda: _check_locality(
                states[:10] + [tau_joint(n) for n in (1, 2, 3)],
                _read(dense(), "locality-certificate")
                + [certificate_gap(tau_joint(n)) for n in (1, 2, 3)],
            ),
        ),
    ]
    results: list[CheckResult] = []
    for names, run in groups:
        try:
            results += run()
        except FibanyonError as exc:
            results += [CheckResult(name, False, f"{type(exc).__name__}: {exc}") for name in names]
    return results
