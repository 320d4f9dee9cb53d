"""Observables, expectations, CHSH optimization, locality certificates."""

import math

import numpy as np
import pytest

from fibanyon.bell import (
    TSIRELSON,
    CertificateRefusal,
    LocalityCertificate,
    Observable,
    chsh_value,
    chsh_value_operator,
    expectation,
    identity_observable,
    locality_certificate,
    optimize_chsh,
    random_involution_observable,
    rotation_observable,
    type_c_bound,
)
from fibanyon.errors import (
    CopyLimitExceeded,
    DimensionMismatch,
    DomainError,
    TargetRankError,
    ValidationError,
)
from fibanyon.measures import omega_project
from fibanyon.model import PHI, Charge
from fibanyon.multicopy import n_copy
from fibanyon.states import new_schmidt_state, random_schmidt_state
from fibanyon.verify import check_tsirelson

TAU = Charge.TAU
VAC = Charge.VACUUM

#: (4 sqrt(2) phi + 2) / phi**3, the three-copy CHSH optimum.
THREE_COPY_OPTIMUM = (4.0 * math.sqrt(2.0) * PHI + 2.0) / PHI**3


def tau_line():
    return new_schmidt_state({TAU: [1.0]})


def three_copy():
    return n_copy(tau_line(), 3)


def rotation_family(state, *angles):
    ranks = state.ranks
    return tuple(rotation_observable(ranks, a, target=TAU) for a in angles)


class TestObservables:
    def test_rotation_at_zero(self):
        obs = rotation_observable({VAC: 1, TAU: 2}, 0.0, target=TAU)
        np.testing.assert_allclose(obs.block(VAC), [[1.0]])
        np.testing.assert_allclose(obs.block(TAU), [[1.0, 0.0], [0.0, -1.0]])

    def test_rotation_at_half_pi(self):
        obs = rotation_observable({VAC: 1, TAU: 2}, math.pi / 2, target=TAU)
        np.testing.assert_allclose(obs.block(TAU), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    @pytest.mark.parametrize("angle", np.linspace(0.0, 2 * math.pi, 9))
    def test_rotation_is_involution(self, angle):
        obs = rotation_observable({TAU: 3}, angle, target=TAU)
        block = obs.block(TAU)
        np.testing.assert_allclose(block @ block, np.eye(3), atol=1e-12)

    def test_target_rank_error(self):
        with pytest.raises(TargetRankError):
            rotation_observable({VAC: 1, TAU: 1}, 0.3, target=TAU)

    def test_non_involution_rejected(self):
        with pytest.raises(ValidationError):
            Observable({TAU: np.array([[0.5]])})

    def test_random_involutions_are_involutions(self):
        rng = np.random.default_rng(3)
        obs = random_involution_observable(rng, {VAC: 2, TAU: 3})
        for c in obs.charges():
            block = obs.block(c)
            np.testing.assert_allclose(block @ block, np.eye(block.shape[0]), atol=1e-12)
            np.testing.assert_allclose(block, block.conj().T, atol=1e-12)


class TestExpectation:
    def test_identity_normalization(self):
        state = new_schmidt_state({VAC: [0.3], TAU: [0.4, 0.3]})
        identity = identity_observable(state.ranks)
        assert expectation(state, identity, identity) == pytest.approx(1.0, abs=1e-12)

    def test_three_copy_aligned_angles(self):
        state = three_copy()
        a, b = rotation_family(state, 0.0, 0.0)
        assert expectation(state, a, b) == pytest.approx(1.0, abs=1e-12)

    def test_three_copy_opposed_angles(self):
        state = three_copy()
        a, b = rotation_family(state, 0.0, math.pi)
        # 1/phi**3 - 2/phi**2
        assert expectation(state, a, b) == pytest.approx(-0.5278640450, abs=1e-9)

    def test_dimension_mismatch(self):
        state = new_schmidt_state({TAU: [0.6, 0.4]})
        wrong = identity_observable({TAU: 3})
        with pytest.raises(DimensionMismatch):
            expectation(state, wrong, wrong)


class TestChshValue:
    def test_three_copy_optimal_angles(self):
        state = three_copy()
        a1, a2, b1, b2 = rotation_family(
            state, 0.0, math.pi / 2, math.pi / 4, -math.pi / 4
        )
        assert chsh_value(state, a1, a2, b1, b2) == pytest.approx(
            THREE_COPY_OPTIMUM, abs=1e-12
        )

    def test_product_state_stays_local(self):
        state = new_schmidt_state({VAC: [1.0]})
        for s1 in (1, -1):
            for s2 in (1, -1):
                a1 = Observable({VAC: [[s1]]})
                a2 = Observable({VAC: [[s2]]})
                value = chsh_value(state, a1, a2, a1, a2)
                assert -2.0 <= value <= 2.0

    def test_bell_pair_tsirelson_angles(self):
        state = new_schmidt_state({VAC: [0.5, 0.5]})
        ranks = state.ranks
        obs = [
            rotation_observable(ranks, a, target=VAC)
            for a in (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
        ]
        assert chsh_value(state, *obs) == pytest.approx(TSIRELSON, abs=1e-12)

    def test_omega_invariance(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            state = random_schmidt_state(rng)
            omega = omega_project(state)
            obs = [random_involution_observable(rng, state.ranks) for _ in range(4)]
            direct = chsh_value(state, *obs)
            projected = chsh_value_operator(omega, *obs)
            assert direct == pytest.approx(projected, abs=1e-10)

    def test_tsirelson_sweep(self):
        [result] = check_tsirelson(np.random.default_rng(78), 200, 1)
        assert result.passed, result.detail


class TestTypeCBound:
    def test_bell_pair(self):
        value, angles = type_c_bound(0.5, 0.5)
        assert value == pytest.approx(2.8284271247, abs=1e-9)
        assert angles[2] == pytest.approx(math.pi / 4, abs=1e-12)

    def test_partial_plane(self):
        value, _ = type_c_bound(0.3, 0.3)
        assert value == pytest.approx(1.2 * math.sqrt(2.0) + 0.8, abs=1e-12)
        assert value == pytest.approx(2.4970562748, abs=1e-9)

    def test_boundary_approaches_two(self):
        value, _ = type_c_bound(1e-12, 1e-12)
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_angles_achieve_the_bound(self):
        # The returned angles must reproduce the analytic value through the
        # actual expectation machinery, including asymmetric planes.
        for l1, l2 in ((0.5, 0.3), (0.45, 0.15), (0.2, 0.1)):
            rest = 1.0 - l1 - l2
            state = new_schmidt_state({VAC: [l1, l2], TAU: [rest]})
            value, angles = type_c_bound(l1, l2)
            obs = [
                rotation_observable(state.ranks, a, target=VAC) for a in angles
            ]
            assert chsh_value(state, *obs) == pytest.approx(value, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            type_c_bound(0.0, 0.5)
        with pytest.raises(DomainError):
            type_c_bound(0.5, -0.1)
        with pytest.raises(DomainError):
            type_c_bound(0.6, 0.5)


class TestOptimizeChsh:
    def test_three_copy_value_and_angles(self):
        result = optimize_chsh(tau_line(), copies=3)
        assert result.value == pytest.approx(THREE_COPY_OPTIMUM, abs=1e-4)
        assert result.verdict == "violation"
        canonical = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
        shift = result.angles[0] - canonical[0]
        for found, target in zip(result.angles, canonical):
            delta = (found - target - shift) % (2 * math.pi)
            assert min(delta, 2 * math.pi - delta) < 1e-4

    @pytest.mark.parametrize("copies", [1, 2])
    def test_few_copies_stay_local(self, copies):
        result = optimize_chsh(tau_line(), copies=copies)
        assert result.value <= 2.0 + 1e-6
        assert result.verdict == "local-bound-respected"

    def test_bell_pair_reaches_tsirelson(self):
        result = optimize_chsh(new_schmidt_state({VAC: [0.5, 0.5]}))
        assert result.value == pytest.approx(TSIRELSON, abs=1e-6)

    def test_beats_plane_bound_on_random_states(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            state = random_schmidt_state(rng, require_rank2=True)
            best_bound = 0.0
            for c in state.charges:
                if state.rank(c) >= 2:
                    coeffs = state.coefficients(c)
                    l1, l2 = float(coeffs[0]), float(coeffs[1])
                    bound, _ = type_c_bound(l1, l2)
                    best_bound = max(best_bound, bound)
            result = optimize_chsh(state)
            assert chsh_value(state, *result.witness()) >= best_bound - 1e-6

    def test_rank_one_states_never_violate(self):
        rng = np.random.default_rng(80)
        for _ in range(10):
            state = random_schmidt_state(rng, max_rank=1)
            result = optimize_chsh(state)
            assert result.value <= 2.0 + 1e-6

    def test_copy_limit(self):
        with pytest.raises(CopyLimitExceeded):
            optimize_chsh(tau_line(), copies=40)

    def test_dense_witness_limit(self):
        # 20 joint copies keep grouped Schmidt data tiny, so the value needs
        # no dense matrices; the flat rank (a Fibonacci number) is too large
        # for dense witness blocks.
        result = optimize_chsh(tau_line(), copies=20)
        assert round(result.value, 12) == 2.000177222615
        assert result.verdict == "violation"
        assert sum(result.ranks.values()) > 2048
        with pytest.raises(CopyLimitExceeded):
            result.witness()


class TestWitness:
    """The closed-form value, reproduced by its witness through ``chsh_value``."""

    @pytest.mark.parametrize("copies", range(1, 13))
    def test_tau_pair(self, copies):
        result = optimize_chsh(tau_line(), copies=copies)
        joint = n_copy(tau_line(), copies)
        assert chsh_value(joint, *result.witness()) == pytest.approx(result.value, abs=1e-12)

    def test_random_states(self):
        rng = np.random.default_rng(81)
        for _ in range(50):
            state = random_schmidt_state(rng)
            copies = int(rng.integers(1, 4))
            result = optimize_chsh(state, copies=copies)
            joint = n_copy(state, copies)
            witnessed = chsh_value(joint, *result.witness())
            assert witnessed == pytest.approx(result.value, abs=1e-12)

    def test_local_witness_is_identity(self):
        result = optimize_chsh(tau_line(), copies=2)
        assert result.sector is None and result.angles is None
        for obs in result.witness():
            for c in obs.charges():
                np.testing.assert_array_equal(obs.block(c), np.eye(obs.block(c).shape[0]))


class TestLocalityCertificate:
    def test_single_copy(self):
        outcome = locality_certificate(tau_line())
        assert isinstance(outcome, LocalityCertificate)
        assert len(outcome.mixture.terms) == 1
        assert outcome.reconstruction_residual < 1e-12

    def test_two_copies(self):
        outcome = locality_certificate(n_copy(tau_line(), 2))
        assert isinstance(outcome, LocalityCertificate)
        assert len(outcome.mixture.terms) == 2
        assert outcome.reconstruction_residual < 1e-12

    def test_three_copies_refused(self):
        outcome = locality_certificate(three_copy())
        assert isinstance(outcome, CertificateRefusal)
        assert outcome.reason == "CE_POSITIVE"
