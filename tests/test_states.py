"""Schmidt states, graded density operators, entropy, classification."""

import numpy as np
import pytest

from fibanyon.errors import NormalizationError, NotAState, ValidationError
from fibanyon.measures import StateClass, aee, classify, embed
from fibanyon.model import LOG2_PHI, PHI, Charge
from fibanyon.states import (
    GradedDensityOperator,
    anyonic_entropy,
    is_pure,
    new_schmidt_state,
    random_schmidt_state,
    reduced_density,
    state_from_dict,
    state_to_dict,
)

TAU = Charge.TAU
VAC = Charge.VACUUM


def random_states(seed, count, **kwargs):
    rng = np.random.default_rng(seed)
    return [random_schmidt_state(rng, **kwargs) for _ in range(count)]


class TestConstruction:
    def test_single_tau_line(self):
        state = new_schmidt_state({TAU: [1.0]})
        assert state.charges == (TAU,)
        assert state.rank(TAU) == 1
        assert state.p_tau == 1.0

    def test_two_term_vacuum_state(self):
        state = new_schmidt_state({VAC: [0.5, 0.5]})
        assert state.rank(VAC) == 2
        assert list(state.coefficients(VAC)) == [0.5, 0.5]

    def test_string_keys(self):
        state = new_schmidt_state({"1": [0.25], "tau": [0.75]})
        assert state.sector_probability(VAC) == 0.25

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            new_schmidt_state({TAU: [-0.1, 1.1]})

    def test_bad_sum_rejected(self):
        with pytest.raises(NormalizationError):
            new_schmidt_state({TAU: [0.9]})

    def test_mild_deviation_renormalized(self):
        state = new_schmidt_state({TAU: [0.5 + 4e-10, 0.5 + 4e-10]})
        assert state.total() == pytest.approx(1.0, abs=1e-12)

    def test_zeros_stripped(self):
        state = new_schmidt_state({VAC: [0.0, 1.0], TAU: [0.0]})
        assert state.charges == (VAC,)
        assert state.rank(VAC) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            new_schmidt_state({TAU: [0.0]})

    def test_sorted_descending(self):
        state = new_schmidt_state({VAC: [0.1, 0.6, 0.3]})
        coeffs = state.coefficients(VAC)
        assert list(coeffs) == sorted(coeffs, reverse=True)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            new_schmidt_state({"sigma": [1.0]})

    def test_file_round_trip(self):
        payload = {"sectors": {"1": [0.25, 0.15], "tau": [0.6]}}
        state = state_from_dict(payload)
        again = state_from_dict(state_to_dict(state))
        assert state == again


class TestAee:
    def test_single_tau(self):
        assert aee(new_schmidt_state({TAU: [1.0]})) == pytest.approx(
            0.6942419136, abs=1e-9
        )

    def test_product_state(self):
        assert aee(new_schmidt_state({VAC: [1.0]})) == 0.0

    def test_even_sector_split(self):
        # H(0.5, 0.5) + 0.5 * log2(phi) = 1 + 0.5 * 0.69424191...
        state = new_schmidt_state({VAC: [0.5], TAU: [0.5]})
        assert aee(state) == pytest.approx(1.3471209568, abs=1e-9)


class TestReducedDensity:
    def test_tau_block(self):
        op = reduced_density(new_schmidt_state({TAU: [1.0]}), "A")
        block = op.block(TAU)
        assert block.shape == (1, 1)
        assert block[0, 0].real == pytest.approx(1.0 / PHI, abs=1e-12)
        assert op.weight(TAU) == pytest.approx(PHI)

    def test_vacuum_block(self):
        op = reduced_density(new_schmidt_state({VAC: [1.0]}), "A")
        assert op.block(VAC)[0, 0] == 1.0
        assert op.weight(VAC) == 1.0

    @pytest.mark.parametrize("state", random_states(11, 20))
    def test_unit_quantum_trace(self, state):
        assert reduced_density(state, "A").quantum_trace() == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("state", random_states(12, 10))
    def test_entropy_symmetry(self, state):
        left = anyonic_entropy(reduced_density(state, "A"))
        right = anyonic_entropy(reduced_density(state, "B"))
        assert left == right

    def test_bad_side(self):
        with pytest.raises(ValidationError):
            reduced_density(new_schmidt_state({TAU: [1.0]}), "C")


class TestAnyonicEntropy:
    def test_reduced_single_tau(self):
        op = reduced_density(new_schmidt_state({TAU: [1.0]}), "A")
        assert anyonic_entropy(op) == pytest.approx(0.6942419136, abs=1e-9)

    def test_pure_vacuum_block(self):
        op = GradedDensityOperator({VAC: np.array([[1.0]])})
        assert anyonic_entropy(op) == 0.0

    def test_mixed_sector_reduction(self):
        op = reduced_density(new_schmidt_state({VAC: [0.5], TAU: [0.5]}), "A")
        assert anyonic_entropy(op) == pytest.approx(1.3471209568, abs=1e-9)

    @pytest.mark.parametrize("state", random_states(13, 25))
    def test_matches_aee(self, state):
        entropy = anyonic_entropy(reduced_density(state, "A"))
        assert entropy == pytest.approx(aee(state), abs=1e-10)

    def test_not_a_state(self):
        op = GradedDensityOperator({TAU: np.array([[1.0]])})  # trace phi, not 1
        with pytest.raises(NotAState):
            anyonic_entropy(op)


class TestPurity:
    def test_vacuum_channel_projector_is_pure(self):
        assert is_pure(embed(new_schmidt_state({TAU: [1.0]})))

    def test_tau_loop_state_is_not_pure(self):
        # Weighted single-block state 1/phi with weight phi: entropy log2(phi).
        op = GradedDensityOperator({TAU: np.array([[1.0 / PHI]])})
        assert not is_pure(op)
        assert anyonic_entropy(op) == pytest.approx(LOG2_PHI, abs=1e-12)

    def test_vacuum_block_is_pure(self):
        assert is_pure(GradedDensityOperator({VAC: np.array([[1.0]])}))


class TestClassification:
    def test_product_state_is_type_a(self):
        assert classify(new_schmidt_state({VAC: [1.0]})) is StateClass.TYPE_A

    def test_single_tau_is_type_b(self):
        assert classify(new_schmidt_state({TAU: [1.0]})) is StateClass.TYPE_B

    def test_vacuum_pair_is_type_c(self):
        assert classify(new_schmidt_state({VAC: [0.5, 0.5]})) is StateClass.TYPE_C

    def test_permutation_invariance(self):
        forward = classify(new_schmidt_state({VAC: [0.3, 0.2], TAU: [0.5]}))
        backward = classify(new_schmidt_state({VAC: [0.2, 0.3], TAU: [0.5]}))
        assert forward is backward
