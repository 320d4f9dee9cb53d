"""Stacks of states through the dense oracle, against the route one state at a time."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as reference
from fibanyon import oracle, verify
from fibanyon.errors import CopyLimitExceeded, ValidationError
from fibanyon.measures import measure_report
from fibanyon.model import Charge
from fibanyon.oracle import (
    GradedDensityOperator,
    anyonic_entropy,
    certificate_gap,
    closest_separable_candidate,
    embed,
    max_block_gap,
    omega_project,
    reduced_density,
    relative_entropy,
)
from fibanyon.states import new_schmidt_state, random_schmidt_state

TAU = Charge.TAU
VAC = Charge.VACUUM

#: The per-state values of ``verify``'s dense pass, by check, each with its
#: reference: the same value one state at a time.
CHECKS = [
    pytest.param("decomposition-numeric", reference.pythagorean_residual, id="residual"),
    pytest.param("separable-oracle-value", reference.separable_gap, id="separable-gap"),
    pytest.param("aee-dense", reference.aee_gap, id="aee-gap"),
    pytest.param("omega-from-joint", reference.omega_gap, id="omega-gap"),
    pytest.param("locality-certificate", certificate_gap, id="certificate-gap"),
]


def closed(states, field):
    return [getattr(measure_report(s), field) for s in states]


def verify_states(seed, cases=100):
    rng = np.random.default_rng(seed)
    return [random_schmidt_state(rng) for _ in range(cases)]


def dense_pass(states):
    return verify._dense_pass(states, lambda i: measure_report(states[i]))


@functools.cache
def verify_pass(seed):
    states = verify_states(seed)
    return states, dense_pass(states)


@pytest.mark.parametrize("name, one", CHECKS)
@pytest.mark.parametrize("seed", [42, 7, 101, 1234567])
def test_stacks_by_signature_match_the_reference(seed, name, one):
    """The pass over ``verify``'s first 100 states: every state a check reads
    (all 100, the first 20 for the Omega gap, the first 10 for the certificate
    gap) has the value it has on its own, bit for bit."""
    states, values = verify_pass(seed)
    count = {"omega-from-joint": 20, "locality-certificate": 10}.get(name, 100)
    assert values[name] == [one(s) for s in states[:count]]


@st.composite
def signature_stacks(draw):
    """One to five states sharing their sector ranks; coefficients are drawn from
    a few levels, so equal coefficients are common, and one-sector states too."""
    charges = draw(st.sampled_from([(VAC,), (TAU,), (VAC, TAU)]))
    ranks = [draw(st.integers(1, 3)) for _ in charges]
    stack = []
    for _ in range(draw(st.integers(1, 5))):
        levels = [draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)) for k in ranks]
        total = sum(map(sum, levels))
        stack.append(
            new_schmidt_state({c: [v / total for v in vs] for c, vs in zip(charges, levels)})
        )
    return stack


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(stack=signature_stacks())
def test_drawn_stacks_match_the_reference(stack):
    values = dense_pass(stack)
    for name, one in (p.values for p in CHECKS):
        assert values[name] == [one(s) for s in stack]


@pytest.mark.parametrize("state", verify_states(5, 12))
def test_stack_of_one_is_the_unstacked_call(state):
    rho, omega = embed(state), omega_project(state)
    candidate = closest_separable_candidate(state).to_operator()
    one = [
        relative_entropy(rho, omega),
        relative_entropy(rho, candidate),
        relative_entropy(omega, candidate),
        anyonic_entropy(reduced_density(state)),
        max_block_gap(omega, candidate),
    ]
    rho, omega = embed([state]), omega_project([state])
    candidate = closest_separable_candidate([state]).to_operator()
    stacked = [
        relative_entropy(rho, omega),
        relative_entropy(rho, candidate),
        relative_entropy(omega, candidate),
        anyonic_entropy(reduced_density([state])),
        max_block_gap(omega, candidate),
    ]
    assert all(isinstance(value, float) for value in one)
    assert all(value.shape == (1,) for value in stacked)
    assert [value[0] for value in stacked] == one
    for build in (embed, omega_project, reduced_density):
        single, stack = build(state), build([state])
        assert (single.stack, stack.stack) == ((), (1,))
        assert all(np.array_equal(stack.block(key)[0], single.block(key)) for key in single.keys())


def residual_of(stack):
    """The numeric decomposition of a stack, AREE - S(rho||Omega) - S(Omega||sigma),
    through the operators built from it."""
    rho, omega = embed(stack), omega_project(stack)
    candidate = closest_separable_candidate(stack).to_operator()
    aree = closed(stack, "aree")
    return aree - relative_entropy(rho, omega) - relative_entropy(omega, candidate)


class TestRefusals:
    @pytest.mark.parametrize(
        "build", [embed, omega_project, reduced_density, closest_separable_candidate,
                  pytest.param(residual_of, id="pythagorean_residual")]
    )
    def test_states_of_different_ranks(self, build):
        one = new_schmidt_state({TAU: [0.6, 0.4]})
        other = new_schmidt_state({TAU: [0.5, 0.3, 0.2]})
        with pytest.raises(ValidationError, match="sector ranks differ"):
            build([one, one, other])

    @pytest.mark.parametrize(
        "build", [embed, omega_project, reduced_density, closest_separable_candidate,
                  certificate_gap]
    )
    def test_dense_dimension_past_the_limit(self, build):
        # Ranks 32 and 33: a vacuum channel of 32**2 + 33**2 = 2113 rows.
        wide = new_schmidt_state({VAC: [1 / 65] * 32, TAU: [1 / 65] * 33})
        with pytest.raises(CopyLimitExceeded, match="dimension 2113 exceeds 2048"):
            build(wide)
        if build is not certificate_gap:
            with pytest.raises(CopyLimitExceeded, match="dimension 2113 exceeds 2048"):
                build([wide, wide])

    def test_dense_dimension_at_the_limit(self):
        # Ranks 32 and 32: 2048 rows, the largest vacuum channel accepted.
        edge = new_schmidt_state({VAC: [1 / 64] * 32, TAU: [1 / 64] * 32})
        assert closest_separable_candidate(edge).weights.shape == (64,)

    def test_separable_directions_past_the_limit(self):
        # Refused before the generator is read; 2048 rows still draw.
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(CopyLimitExceeded, match="dimension 2113 exceeds 2048"):
            oracle.random_separable_directions(rng, {VAC: 32, TAU: 33}, 40)
        assert rng.bit_generator.state == before
        edge = oracle.random_separable_directions(rng, {VAC: 32, TAU: 32}, 1)
        assert edge.weights.shape == (1, 3)

    def test_stacks_of_different_shapes(self):
        states = [new_schmidt_state({TAU: [0.6, 0.4]})] * 2
        with pytest.raises(ValidationError, match="stacks differ"):
            relative_entropy(embed(states), omega_project(states[0]))

    def test_support_violation_in_a_later_state(self):
        states = [new_schmidt_state({VAC: [0.5, 0.5]})] * 3
        omega = omega_project(states)
        narrow = omega.block((VAC, VAC)).copy()
        # The third state's image keeps only the first paired basis vector.
        narrow[2] = 0.0
        narrow[2, 0, 0] = 1.0
        sigma = GradedDensityOperator({(VAC, VAC): narrow}, ranks=omega.ranks)
        with pytest.raises(ValidationError, match="outside sigma's support"):
            relative_entropy(embed(states), sigma)

    @pytest.mark.parametrize(
        "fault, text",
        [
            pytest.param(lambda m: m * 1.5, "quantum trace is", id="scaled"),
            pytest.param(lambda m: m + 1e-3j * np.triu(np.ones_like(m), 1),
                         "operator is not Hermitian", id="non-hermitian"),
            pytest.param(lambda m: m - 0.5 * np.eye(m.shape[-1]),
                         "is not positive semidefinite", id="negative-eigenvalue"),
        ],
    )
    def test_non_state_in_a_later_state(self, fault, text):
        states = [new_schmidt_state({VAC: [0.3], TAU: [0.4, 0.3]})] * 3
        density = reduced_density(states)
        blocks = {c: density.block(c).copy() for c in density.keys()}
        blocks[TAU][1] = fault(blocks[TAU][1])
        with pytest.raises(ValidationError, match=text) as stacked:
            anyonic_entropy(GradedDensityOperator(blocks))
        with pytest.raises(ValidationError, match=text) as alone:
            anyonic_entropy(GradedDensityOperator({c: m[1] for c, m in blocks.items()}))
        assert str(stacked.value) == str(alone.value)

    def test_candidate_of_a_later_state_is_validated(self, monkeypatch):
        states = [new_schmidt_state({TAU: [0.6, 0.4]})] * 3
        real = oracle.SeparableState
        seen = []

        def scaled(weights, blocks):
            blocks = {c: m.copy() for c, m in blocks.items()}
            blocks[TAU][2, 1, 0] *= 1.5
            seen.append(weights.shape)
            return real(weights, blocks)

        monkeypatch.setattr(oracle, "SeparableState", scaled)
        with pytest.raises(ValidationError, match="quantum trace is"):
            closest_separable_candidate(states)
        assert seen == [(3, 2)]

    def test_mixed_stack_shapes_in_one_operator(self):
        with pytest.raises(ValidationError, match="different shapes"):
            GradedDensityOperator({TAU: np.zeros((2, 1, 1)), VAC: np.zeros((3, 1, 1))})
