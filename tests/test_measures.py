"""Measure closed forms, the Omega projection, and the relative-entropy oracles."""

import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibanyon
import fibanyon.measures
import fibanyon.states
from fibanyon.cli import main
from fibanyon.errors import DecompositionViolation, ValidationError
from fibanyon.measures import MeasureReport, _schmidt_entropy, _shannon_entropy, measure_report
from fibanyon.model import CHARGE_ORDER, LOG2_PHI, PHI, Charge
from fibanyon.multicopy import n_copy
from fibanyon.oracle import (
    GradedDensityOperator,
    SeparableState,
    anyonic_entropy,
    closest_separable_candidate,
    embed,
    minimality_gradient,
    omega_project,
    omega_project_operator,
    random_separable_directions,
    relative_entropy,
)
from fibanyon.states import new_schmidt_state, random_schmidt_state

TAU = Charge.TAU
VAC = Charge.VACUUM

TWO_LOG2_PHI = 1.3884838272612348  # 2 * log2((1 + sqrt 5) / 2)


def random_states(seed, count, **kwargs):
    rng = np.random.default_rng(seed)
    return [random_schmidt_state(rng, **kwargs) for _ in range(count)]


class TestClosedForms:
    def test_aree_single_tau(self):
        assert measure_report(new_schmidt_state({TAU: [1.0]})).aree == pytest.approx(
            TWO_LOG2_PHI, abs=1e-9
        )

    def test_aree_product(self):
        assert measure_report(new_schmidt_state({VAC: [1.0]})).aree == 0.0

    def test_aree_even_split(self):
        state = new_schmidt_state({VAC: [0.5], TAU: [0.5]})
        assert measure_report(state).aree == pytest.approx(1.6942419136, abs=1e-9)

    def test_ace_single_tau(self):
        assert measure_report(new_schmidt_state({TAU: [1.0]})).ace == pytest.approx(
            TWO_LOG2_PHI, abs=1e-9
        )

    def test_ace_single_sector_vanishes(self):
        assert measure_report(new_schmidt_state({VAC: [0.5, 0.5]})).ace == 0.0

    def test_ace_even_split(self):
        state = new_schmidt_state({VAC: [0.5], TAU: [0.5]})
        assert measure_report(state).ace == pytest.approx(1.6942419136, abs=1e-9)

    def test_ce_single_tau(self):
        assert measure_report(new_schmidt_state({TAU: [1.0]})).ce == 0.0

    def test_ce_vacuum_pair(self):
        assert measure_report(new_schmidt_state({VAC: [0.5, 0.5]})).ce == pytest.approx(
            1.0, abs=1e-12
        )

    def test_ce_three_copy_sectors(self):
        # p_tau * H(1/2, 1/2) with p_tau = 2 / phi**2.
        state = new_schmidt_state({VAC: [0.2360680], TAU: [0.3819660, 0.3819660]})
        assert measure_report(state).ce == pytest.approx(0.7639320, abs=1e-6)

    def test_report_single_tau(self):
        report = measure_report(new_schmidt_state({TAU: [1.0]}))
        assert report.aee == pytest.approx(0.6942419, abs=1e-6)
        assert report.aree == pytest.approx(1.3884838, abs=1e-6)
        assert report.ace == pytest.approx(1.3884838, abs=1e-6)
        assert report.ce == 0.0

    def test_report_all_zero_for_product(self):
        report = measure_report(new_schmidt_state({VAC: [1.0]}))
        assert (report.aee, report.aree, report.ace, report.ce) == (0.0, 0.0, 0.0, 0.0)

    def test_report_identity_mixed(self):
        report = measure_report(new_schmidt_state({VAC: [0.25, 0.25], TAU: [0.5]}))
        assert report.ce == pytest.approx(0.5, abs=1e-12)
        assert report.aree == pytest.approx(report.ace + report.ce, abs=1e-12)

    @pytest.mark.parametrize("state", random_states(21, 50))
    def test_decomposition_identity(self, state):
        report = measure_report(state)
        assert abs(report.aree - report.ace - report.ce) < 1e-12
        assert report.aee <= report.aree + 1e-12

    def test_inconsistent_report_rejected(self):
        with pytest.raises(DecompositionViolation):
            MeasureReport(aee=1.0, aree=3.0, ace=1.0, ce=1.0)
        with pytest.raises(DecompositionViolation):
            MeasureReport(aee=2.5, aree=2.0, ace=1.0, ce=1.0)


# Reference: the per-group scalar loop that the array kernel replaced, and
# the four measures as they were computed from it one by one.


def reference_schmidt_entropy(state):
    h = 0.0
    for c in state.charges:
        values, mults = state.grouped(c)
        for value, mult in zip(values.tolist(), mults.tolist()):
            h -= mult * value * math.log2(value)
    return h


def reference_report(state):
    """(AEE, AREE, ACE, CE) from the reference entropy and per-sector sums.

    With one sector the charge distribution is {1}, whose entropy is exactly
    0, whatever rounding leaves in that sector's probability.
    """
    h = reference_schmidt_entropy(state)
    p_tau = state.p_tau
    probs = [state.sector_probability(c) for c in state.charges]
    ce = 0.0
    for c in state.charges:
        values, mults = state.grouped(c)
        p = float(np.dot(values, mults))
        ce += p * _shannon_entropy(values / p, mults)
    return (
        h + p_tau * LOG2_PHI,
        h + 2.0 * p_tau * LOG2_PHI,
        (_shannon_entropy(probs) if len(probs) > 1 else 0.0) + 2.0 * p_tau * LOG2_PHI,
        ce,
    )


def within_ulps(value, reference, ulps=2):
    return abs(value - reference) <= ulps * math.ulp(reference)


#: Weights that tie within and across sectors.
_TIED_WEIGHTS = (0.05, 0.1, 0.2)
_WEIGHTS = st.lists(st.sampled_from(_TIED_WEIGHTS) | st.floats(0.01, 1.0), max_size=4)


@st.composite
def small_states(draw):
    """Up to four coefficients per sector, normalised, with ties."""
    weights = {c: draw(_WEIGHTS) for c in CHARGE_ORDER}
    if not any(weights.values()):
        weights[TAU] = [1.0]
    total = sum(sum(w) for w in weights.values())
    return new_schmidt_state({c: [v / total for v in w] for c, w in weights.items()})


#: Every state with one (value, multiplicity) group: m equal coefficients in one sector.
SINGLE_GROUP = [
    pytest.param({c: [1.0 / m] * m}, id=f"{c.value}-x{m}")
    for c in CHARGE_ORDER
    for m in (1, 2, 3, 5, 8, 1000)
]


#: One sector whose probability sums to 1 - 1 ulp in canonical order: H({p_c}) of
#: that p_c rounds to +-1.6e-16, where the charge entropy of one sector is 0.
ONE_SECTOR_OFF_BY_AN_ULP = pytest.param(
    {VAC: [0.539091232339121, 0.25092733105615445, 0.1358320210550232, 0.07414941554970149]},
    id="1-off-by-an-ulp",
)


def _printed_values(out, fmt):
    """Every number ``measures`` or ``series`` printed, in either format."""
    if fmt == "csv":
        return [float(v) for line in out.splitlines()[1:] for v in line.split(",")]
    payload = json.loads(out)
    return [float(v) for row in payload.get("rows", [payload]) for v in row.values()]


class TestSchmidtEntropyKernel:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(state=small_states(), n=st.integers(1, 6))
    def test_matches_reference_loop(self, state, n):
        joint = n_copy(state, n)
        assert within_ulps(_schmidt_entropy(joint), reference_schmidt_entropy(joint))
        report = measure_report(joint)
        values = (report.aee, report.aree, report.ace, report.ce)
        for value, expected in zip(values, reference_report(joint)):
            assert within_ulps(value, expected)

    @pytest.mark.parametrize("sectors", [{TAU: [1.0]}, {VAC: [1.0]}, *SINGLE_GROUP])
    def test_zero_measures_are_positive_zero(self, sectors):
        state = new_schmidt_state(sectors)
        m = len(next(iter(sectors.values())))
        assert _schmidt_entropy(state) == pytest.approx(math.log2(m), abs=1e-12)
        report = measure_report(state)
        for value in (_schmidt_entropy(state), *report.as_dict().values()):
            assert math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize(
        "sectors", [{TAU: [1.0]}, {VAC: [1.0]}, *SINGLE_GROUP, ONE_SECTOR_OFF_BY_AN_ULP]
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_cli_prints_no_negative_zero(self, tmp_path, capsys, sectors, fmt):
        """No printed measure is negative, -0.0 included, in ``measures`` or in
        every ``series`` row."""
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps({"sectors": {c.value: v for c, v in sectors.items()}}), encoding="utf-8"
        )
        for command in (["measures"], ["series", "--max-n", "3"]):
            assert main([*command, "--state", str(path), "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert "-0" not in out
            for value in _printed_values(out, fmt):
                assert math.copysign(1.0, value) == 1.0, (command, out)


class TestOmega:
    def test_single_tau_block(self):
        omega = omega_project(new_schmidt_state({TAU: [1.0]}))
        assert omega.keys() == ((TAU, TAU),)
        block = omega.block((TAU, TAU))
        assert block[0, 0].real == pytest.approx(1.0 / PHI**2, abs=1e-12)
        assert omega.weight((TAU, TAU)) == pytest.approx(PHI**2)
        assert omega.quantum_trace() == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_identity(self):
        omega = omega_project(new_schmidt_state({VAC: [1.0]}))
        assert omega.block((VAC, VAC))[0, 0] == 1.0

    @pytest.mark.parametrize("state", random_states(22, 30))
    def test_trace_and_idempotence(self, state):
        omega = omega_project(state)
        assert omega.quantum_trace() == pytest.approx(1.0, abs=1e-10)
        again = omega_project_operator(omega)
        for key in omega.keys():
            np.testing.assert_allclose(omega.block(key), again.block(key), atol=1e-14)

    @pytest.mark.parametrize("state", random_states(23, 10))
    def test_omega_of_embedding_matches(self, state):
        omega = omega_project(state)
        from_joint = omega_project_operator(embed(state))
        for key in omega.keys():
            np.testing.assert_allclose(
                omega.block(key), from_joint.block(key), atol=1e-14
            )


class TestEmbedding:
    def test_single_tau(self):
        op = embed(new_schmidt_state({TAU: [1.0]}))
        assert op.quantum_trace() == pytest.approx(1.0, abs=1e-12)
        assert anyonic_entropy(op) == 0.0

    def test_vacuum(self):
        op = embed(new_schmidt_state({VAC: [1.0]}))
        assert op.quantum_trace() == 1.0

    @pytest.mark.parametrize("state", random_states(24, 30))
    def test_embedding_is_pure(self, state):
        op = embed(state)
        assert op.quantum_trace() == pytest.approx(1.0, abs=1e-10)
        assert anyonic_entropy(op) <= 1e-10


class TestSeparableCandidate:
    def test_single_tau_term(self):
        sep = closest_separable_candidate(new_schmidt_state({TAU: [1.0]}))
        assert sep.weights.shape == (1,)
        p, (left, right) = sep.weights[0], sep.blocks[TAU][0]
        assert p == 1.0
        assert left[0, 0].real == pytest.approx(1.0 / PHI, abs=1e-12)
        assert right[0, 0].real == pytest.approx(1.0 / PHI, abs=1e-12)

    def test_vacuum_pair_terms(self):
        sep = closest_separable_candidate(new_schmidt_state({VAC: [0.5, 0.5]}))
        assert sep.weights.shape == (2,)
        assert all(p == 0.5 for p in sep.weights)

    @pytest.mark.parametrize("state", random_states(25, 20))
    def test_operator_trace(self, state):
        op = closest_separable_candidate(state).to_operator()
        assert op.quantum_trace() == pytest.approx(1.0, abs=1e-10)


def dense_operator_block(sep, a, b):
    """Charge-pair block (a, b) with every term multiplied in, summed from zero in term order."""
    dim = sep.blocks[a].shape[-1] * sep.blocks[b].shape[-1]
    kron = sep.blocks[a][:, 0, :, None, :, None] * sep.blocks[b][:, 1, None, :, None, :]
    weighted = sep.weights[:, None, None] * kron.reshape(-1, dim, dim)
    return sum(weighted, np.zeros((dim, dim), dtype=complex))


class TestSeparableOperator:
    @pytest.mark.parametrize("state", random_states(29, 12, max_rank=2))
    def test_bits_match_the_dense_sum(self, state):
        # Candidates hold each term in one sector; the random directions in every sector.
        rng = np.random.default_rng(30)
        base = closest_separable_candidate(state)
        stack = random_separable_directions(rng, state.ranks, 4)
        weights = np.concatenate([0.2 * base.weights, 0.2 * stack.weights.ravel()])
        blocks = {c: np.concatenate([base.blocks[c], *stack.blocks[c]]) for c in base.blocks}
        joint = n_copy(state, 2)
        cases = [
            (base, state.ranks),
            (SeparableState(weights, blocks), state.ranks),
            (closest_separable_candidate(joint), joint.ranks),
        ]
        for sep, ranks in cases:
            op = sep.to_operator()
            for a in ranks:
                for b in ranks:
                    assert np.array_equal(op.block((a, b)), dense_operator_block(sep, a, b))


def _factor(scale):
    """Rank-1 tau factor block; a scale other than 1 breaks the unit quantum trace."""
    return np.array([[scale / PHI]])


def _separable(terms):
    """Mixture of rank-1 tau (p, left block, right block) terms."""
    weights = np.array([p for p, _, _ in terms])
    return SeparableState(weights, {TAU: np.array([[left, right] for _, left, right in terms])})


class TestSeparableValidation:
    @pytest.mark.parametrize(
        "layout",
        [
            pytest.param(lambda good, bad: ((1.0, bad, bad),), id="shared-left-and-right"),
            pytest.param(lambda good, bad: ((1.0, good, bad),), id="right-only"),
            pytest.param(
                lambda good, bad: ((0.5, good, good), (0.5, bad, good)), id="later-term-only"
            ),
            pytest.param(
                lambda good, bad: ((0.5, good, good), (0.5, good, bad)), id="later-term-right"
            ),
        ],
    )
    def test_invalid_factor_is_rejected(self, layout):
        with pytest.raises(ValidationError, match="quantum trace is"):
            _separable(layout(_factor(1.0), _factor(1.5)))

    def test_first_check_kind_names_the_error(self):
        # Every factor is checked before the weights are summed, and every factor's
        # Hermitian test before any trace: the later term's fault names the error.
        non_hermitian = _factor(1.0) + 1e-3j
        with pytest.raises(ValidationError, match="operator is not Hermitian"):
            _separable(((0.5, _factor(1.5), _factor(1.0)), (0.6, _factor(1.0), non_hermitian)))

    def test_shared_valid_factor_is_accepted(self):
        good = _factor(1.0)
        _separable(((0.25, good, good), (0.75, good, good)))


class TestRelativeEntropy:
    def test_self_distance_zero(self):
        state = new_schmidt_state({VAC: [0.3], TAU: [0.5, 0.2]})
        omega = omega_project(state)
        assert relative_entropy(omega, omega) == pytest.approx(0.0, abs=1e-12)

    def test_lemma_value_single_tau(self):
        state = new_schmidt_state({TAU: [1.0]})
        candidate = closest_separable_candidate(state).to_operator()
        value = relative_entropy(embed(state), candidate)
        assert value == pytest.approx(TWO_LOG2_PHI, abs=1e-9)

    @pytest.mark.parametrize("state", random_states(26, 40))
    def test_matches_aree_closed_form(self, state):
        candidate = closest_separable_candidate(state).to_operator()
        numeric = relative_entropy(embed(state), candidate)
        assert numeric == pytest.approx(measure_report(state).aree, abs=1e-8)

    @pytest.mark.parametrize("state", random_states(27, 40))
    def test_matches_ace_closed_form(self, state):
        numeric = relative_entropy(embed(state), omega_project(state))
        assert numeric == pytest.approx(measure_report(state).ace, abs=1e-8)

    @pytest.mark.parametrize("state", random_states(28, 20))
    def test_separable_states_never_beat_the_candidate(self, state):
        rng = np.random.default_rng(99)
        rho = embed(state)
        floor = measure_report(state).aree
        directions = random_separable_directions(rng, state.ranks, 5)
        for d in range(5):
            sigma = _mixture(directions, d).to_operator()
            assert relative_entropy(rho, sigma) >= floor - 1e-6

    def test_support_violation(self):
        state = new_schmidt_state({VAC: [0.5, 0.5]})
        factor = np.array([[1.0, 0.0], [0.0, 0.0]])
        mixture = SeparableState(np.array([1.0]), {VAC: np.array([[factor, factor]])})
        narrow = mixture.to_operator()
        with pytest.raises(ValidationError, match="outside sigma's support"):
            relative_entropy(embed(state), narrow)

    def test_block_mismatch(self):
        state = new_schmidt_state({TAU: [1.0]})
        subsystem = GradedDensityOperator({TAU: np.array([[1.0 / PHI]])})
        with pytest.raises(ValidationError, match="incompatible operator kinds"):
            relative_entropy(embed(state), subsystem)

    def test_rank_mismatch(self):
        one = new_schmidt_state({TAU: [1.0]})
        two = new_schmidt_state({TAU: [0.6, 0.4]})
        with pytest.raises(ValidationError, match="sector ranks differ"):
            relative_entropy(embed(one), omega_project(two))


def _mixture(stack, d):
    """Mixture ``d`` of a stack, as a separable state of its own."""
    return SeparableState(stack.weights[d], {c: b[d] for c, b in stack.blocks.items()})


def forward_difference(state, direction, h):
    """One-sided difference of x -> S(rho || (1-x) rho_0 + x rho') at x = 0."""
    base = closest_separable_candidate(state)
    weights = np.concatenate([(1.0 - h) * base.weights, h * direction.weights])
    blocks = {c: np.concatenate([base.blocks[c], direction.blocks[c]]) for c in base.blocks}
    mixed = SeparableState(weights, blocks).to_operator()
    rho = embed(state)
    f0 = relative_entropy(rho, base.to_operator())
    return (relative_entropy(rho, mixed) - f0) / h


class TestMinimalityGradient:
    @pytest.mark.parametrize(
        "sectors",
        [
            # A coefficient near 0.003 puts the curvature where step-size
            # error of a finite difference exceeds 1e-4.
            {TAU: [0.6, 0.3967, 0.0033]},
            {VAC: [0.5], TAU: [0.497, 0.003]},
            # Equal and nearly equal coefficients exercise L(a, a) and the
            # log1p branch of the divided difference.
            {TAU: [0.3, 0.3, 0.2 + 1e-12, 0.2 - 1e-12]},
        ],
    )
    def test_matches_forward_difference(self, sectors):
        state = new_schmidt_state(sectors)
        directions = random_separable_directions(np.random.default_rng(2718), state.ranks, 5)
        for d in range(5):
            direction = _mixture(directions, d)
            exact = minimality_gradient(state, direction)
            assert math.isfinite(exact)
            assert exact == pytest.approx(
                forward_difference(state, direction, 1e-8), abs=2e-5
            )

    def test_stationary_in_own_direction(self):
        state = new_schmidt_state({TAU: [0.6, 0.4]})
        gradient = minimality_gradient(state, closest_separable_candidate(state))
        assert abs(gradient) < 1e-6

    def test_tau_sector_directions(self):
        rng = np.random.default_rng(5150)
        state = new_schmidt_state({TAU: [0.6, 0.4]})
        directions = random_separable_directions(rng, state.ranks, 25)
        assert np.all(minimality_gradient(state, directions) >= -1e-6)

    def test_vacuum_pair_directions(self):
        rng = np.random.default_rng(5151)
        state = new_schmidt_state({VAC: [0.5, 0.5]})
        directions = random_separable_directions(rng, state.ranks, 25)
        assert np.all(minimality_gradient(state, directions) >= -1e-6)


def residual(state):
    """AREE - S(rho||Omega) - S(Omega||sigma): the two legs through the Omega image."""
    rho, omega = embed(state), omega_project(state)
    candidate = closest_separable_candidate(state).to_operator()
    return (
        measure_report(state).aree
        - relative_entropy(rho, omega)
        - relative_entropy(omega, candidate)
    )


class TestPythagoreanResidual:
    def test_single_tau(self):
        assert abs(residual(new_schmidt_state({TAU: [1.0]}))) < 1e-8

    def test_product_state(self):
        assert residual(new_schmidt_state({VAC: [1.0]})) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("state", random_states(29, 30))
    def test_random_states(self, state):
        assert abs(residual(state)) < 1e-8


class TestContinuity:
    @pytest.mark.parametrize("state", random_states(30, 10))
    def test_small_perturbations_move_measures_little(self, state):
        rng = np.random.default_rng(31)
        base = measure_report(state)
        coeffs = {c: np.array(state.coefficients(c)) for c in state.charges}
        for c in coeffs:
            jitter = rng.uniform(-1e-6, 1e-6, size=coeffs[c].shape)
            coeffs[c] = np.clip(coeffs[c] + jitter, 1e-9, None)
        total = sum(float(v.sum()) for v in coeffs.values())
        perturbed = new_schmidt_state(
            {c: list(v / total) for c, v in coeffs.items()}
        )
        report = measure_report(perturbed)
        for attr in ("aee", "aree", "ace", "ce"):
            assert abs(getattr(report, attr) - getattr(base, attr)) <= 1e-4


class TestDomainChecks:
    def test_direction_rank_mismatch(self):
        state = new_schmidt_state({TAU: [0.6, 0.4]})
        other = new_schmidt_state({TAU: [1.0]})
        rng = np.random.default_rng(0)
        direction = random_separable_directions(rng, other.ranks, 1)
        with pytest.raises(ValidationError, match="factor sector ranks"):
            minimality_gradient(state, direction)


class TestPackageSurface:
    """``measure_report`` is the only route to the four measures."""

    @pytest.mark.parametrize("name", ["aee", "e_aree_pure", "e_ace_pure", "e_ce_pure"])
    def test_single_measure_functions_are_gone(self, name):
        assert not hasattr(fibanyon, name)
        assert not hasattr(fibanyon.measures, name)

    def test_shannon_entropy_lives_in_measures(self):
        assert callable(fibanyon.measures._shannon_entropy)
        assert not hasattr(fibanyon, "shannon_entropy")
        assert not hasattr(fibanyon.states, "_shannon_entropy")

    def test_all_lists_exactly_the_public_names(self):
        assert all(hasattr(fibanyon, name) for name in fibanyon.__all__)
        public = {
            name
            for name, value in vars(fibanyon).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert public == set(fibanyon.__all__)
