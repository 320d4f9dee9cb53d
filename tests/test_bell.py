"""Observables, expectations, CHSH optimization, locality certificates."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fibanyon import oracle, verify
from fibanyon.bell import TSIRELSON, local_terms, optimize_chsh, type_c_bound
from fibanyon.cli import main
from fibanyon.errors import CopyLimitExceeded, ValidationError
from fibanyon.measures import StateClass, classify, measure_report
from fibanyon.model import PHI, Charge, qdim_float
from fibanyon.multicopy import n_copy
from fibanyon.oracle import (
    GradedDensityOperator,
    Observable,
    SeparableState,
    certificate_gap,
    chsh_value,
    expectation,
    identity_observable,
    omega_project,
    rotation_observable,
    witness,
)
from fibanyon.states import new_schmidt_state, random_schmidt_state

import random_observables
from random_observables import (
    check_tsirelson,
    chsh_value_operator,
    expectation_operator,
    random_involution_observable,
)

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
        with pytest.raises(ValidationError, match="rank 1, cannot host a rotation plane"):
            rotation_observable({VAC: 1, TAU: 1}, 0.3, target=TAU)

    def test_non_involution_rejected(self):
        with pytest.raises(ValidationError):
            Observable({TAU: np.array([[0.5]])})

    @pytest.mark.parametrize(
        "block",
        [[[1e200, 0.0], [0.0, 1e200]], [[math.inf, 0.0], [0.0, 1.0]]],
        ids=["overflow", "infinite"],
    )
    def test_square_out_of_range_is_rejected_without_warning(self, block):
        """``m @ m`` overflows or meets inf * 0; the involution test says so, silently."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValidationError, match="not an involution"):
                Observable({TAU: block})
        assert caught == []

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
        with pytest.raises(ValidationError, match="lacks a rank-2 block for sector 'tau'"):
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
            for a, b in itertools.product(obs[:2], obs[2:]):
                assert expectation(state, a, b) == pytest.approx(
                    expectation_operator(omega, a, b), abs=1e-10
                )

    def test_tsirelson_sweep(self):
        [result] = check_tsirelson(np.random.default_rng(78), 200, 1)
        assert result.passed, result.detail


def _reference_involution(rng, ranks):
    """The per-block recipe: a (k, k) real draw, then a (k, k) imaginary draw, one eigh."""
    blocks = {}
    for c, k in ranks.items():
        g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        vals, vecs = np.linalg.eigh(0.5 * (g + g.conj().T))
        blocks[c] = (vecs * np.where(vals >= 0.0, 1.0, -1.0)) @ vecs.conj().T
    return Observable(blocks)


class TestBatchedTsirelson:
    """``check_tsirelson`` against the per-draw loop it batches."""

    def test_random_involution_keeps_its_draws(self):
        ranks = {VAC: 2, TAU: 3}
        rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
        obs = random_involution_observable(rng, ranks)
        reference = _reference_involution(reference_rng, ranks)
        for c in ranks:
            np.testing.assert_array_equal(obs.block(c), reference.block(c))
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    # Batch size 1 evaluates every state on its own, as soon as it is drawn.
    @pytest.mark.parametrize(
        "seed, batch", [(11, random_observables._TSIRELSON_BATCH), (12, 1)]
    )
    def test_matches_per_draw_loop(self, seed, batch, monkeypatch):
        monkeypatch.setattr(random_observables, "_TSIRELSON_BATCH", batch)
        n_states, draws = 30, 5
        reference_rng = np.random.default_rng(seed)
        worst, blocks = 0.0, 0
        for _ in range(n_states):
            state = random_schmidt_state(reference_rng)
            blocks += 4 * draws * len(state.charges)
            for _ in range(draws):
                obs = [_reference_involution(reference_rng, state.ranks) for _ in range(4)]
                worst = max(worst, abs(chsh_value(state, *obs)))

        validated, batch_worst = [], []
        real_check, real_worst = oracle._check_involutions, random_observables._worst_chsh

        def counting_check(m, label):
            validated.append(m[..., 0, 0].size)
            real_check(m, label)

        def recording_worst(ranks, batch):
            batch_worst.append(real_worst(ranks, batch))
            return batch_worst[-1]

        monkeypatch.setattr(oracle, "_check_involutions", counting_check)
        monkeypatch.setattr(random_observables, "_worst_chsh", recording_worst)
        rng = np.random.default_rng(seed)
        [result] = check_tsirelson(rng, n_states, draws)
        assert max(batch_worst) == pytest.approx(worst, abs=1e-12)
        assert result.detail == f"max |CHSH| = {worst:.10f} over {n_states * draws} draws"
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert sum(validated) == blocks

    def test_scaled_block_is_rejected(self):
        normals = np.random.default_rng(6).normal(size=(4, 5, 2, 3, 3))
        stack = random_observables.random_involutions(normals)
        oracle._check_involutions(stack, "stack")
        stack[2, 1] *= 1.01
        with pytest.raises(ValidationError, match="stack is not an involution"):
            oracle._check_involutions(stack, "stack")

    def test_batched_check_validates_its_stacks(self, monkeypatch):
        real_check = oracle._check_involutions

        def scaling_check(m, label):
            scaled = m.copy()
            scaled[(0,) * (m.ndim - 2)] *= 1.01
            real_check(scaled, label)

        monkeypatch.setattr(oracle, "_check_involutions", scaling_check)
        with pytest.raises(ValidationError, match="random involution block is not an involution"):
            check_tsirelson(np.random.default_rng(7), 10, 2)


def _reference_direction(rng, ranks):
    """The per-factor recipe, as plain (p, left blocks, right blocks) terms: per sector
    a (k, k) real and a (k, k) imaginary draw, g g^dagger, then one scale to unit
    quantum trace over the factor."""
    n_terms = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(n_terms))
    terms = []
    for w in weights:
        pair = []
        for _ in range(2):
            blocks = {}
            for c, k in ranks.items():
                g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
                blocks[c] = g @ g.conj().T
            norm = sum(qdim_float(c) * np.trace(m).real for c, m in blocks.items())
            pair.append({c: m / norm for c, m in blocks.items()})
        terms.append((float(w), *pair))
    return tuple(terms)


def _reference_gradient(state, terms):
    """The Daleckii-Krein sum, one term at a time; a factor without a sector block adds nothing."""
    pairing = 0.0
    for c in state.charges:
        lam = state.coefficients(c)
        overlap = np.zeros((lam.size, lam.size), dtype=complex)
        for p, left, right in terms:
            if c in left and c in right:
                overlap += p * left[c] * right[c]
        s = lam / qdim_float(c) ** 2
        amp = np.sqrt(lam)
        hi, lo = np.maximum(s[:, None], s[None, :]), np.minimum(s[:, None], s[None, :])
        t = (hi - lo) / lo
        ratio = np.ones_like(t)
        np.divide(np.log1p(t), t, out=ratio, where=t > 0.0)
        pairing += float(np.sum(np.outer(amp, amp) * ratio / lo * overlap).real)
    return (1.0 - pairing) / math.log(2.0)


def _mixture(stack, d):
    """Mixture ``d`` of a stack, as a separable state of its own."""
    return SeparableState(stack.weights[d], {c: b[d] for c, b in stack.blocks.items()})


def _terms(mixture):
    """The plain (p, left blocks, right blocks) terms of one mixture."""
    return tuple(
        (float(p), *({c: b[t, side] for c, b in mixture.blocks.items()} for side in (0, 1)))
        for t, p in enumerate(mixture.weights)
    )


#: One-sector and two-sector states, sector ranks 1 to 4, with equal coefficients.
SEPARABLE_STATES = [
    {TAU: [1.0]},
    {VAC: [0.5, 0.5]},
    {TAU: [0.4, 0.3, 0.2, 0.1]},
    {VAC: [0.3], TAU: [0.7]},
    {VAC: [0.2, 0.1], TAU: [0.3, 0.3, 0.1]},
    {VAC: [0.1, 0.1, 0.1, 0.1], TAU: [0.3, 0.2, 0.1]},
]


class TestStackedSeparableGradient:
    """Stacked random directions and their gradients against the per-direction loop."""

    def test_random_direction_keeps_its_draws(self):
        ranks = {VAC: 2, TAU: 3}
        mixed = sum(qdim_float(c) * k for c, k in ranks.items())
        rng, reference_rng = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(10):
            terms = _terms(_mixture(oracle.random_separable_directions(rng, ranks, 1), 0))
            reference = _reference_direction(reference_rng, ranks)
            assert len(terms) == 3
            for (p, *pair), (q, *reference_pair) in zip(terms, reference):
                assert p == q
                for factor, reference_factor in zip(pair, reference_pair):
                    for c in ranks:
                        np.testing.assert_array_equal(factor[c], reference_factor[c])
            # A slot past the drawn terms: weight 0, the maximally mixed factor on both sides.
            for p, *pair in terms[len(reference):]:
                assert p == 0.0
                for factor in pair:
                    for c, k in ranks.items():
                        np.testing.assert_array_equal(factor[c], np.eye(k) / mixed)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("count", [1, 40])
    @pytest.mark.parametrize("sectors", SEPARABLE_STATES)
    def test_matches_per_direction_loop(self, sectors, count):
        state = new_schmidt_state(sectors)
        rng, reference_rng = np.random.default_rng(9), np.random.default_rng(9)
        stacked = [
            oracle.minimality_gradient(
                state, oracle.random_separable_directions(rng, state.ranks, count)
            )
            for _ in range(3)
        ]
        loop = [
            [
                _reference_gradient(state, _reference_direction(reference_rng, state.ranks))
                for _ in range(count)
            ]
            for _ in range(3)
        ]
        np.testing.assert_allclose(np.concatenate(stacked), np.ravel(loop), rtol=0, atol=1e-12)
        assert min(map(np.min, stacked)) == pytest.approx(np.min(loop), abs=1e-12)
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("sectors", SEPARABLE_STATES)
    def test_count_one_views_match_the_loop(self, sectors):
        # A stack of one gives an array of one; the same mixture on its own, a float.
        state = new_schmidt_state(sectors)
        rng, reference_rng = np.random.default_rng(10), np.random.default_rng(10)
        for _ in range(20):
            stack = oracle.random_separable_directions(rng, state.ranks, 1)
            gradient = oracle.minimality_gradient(state, _mixture(stack, 0))
            reference = _reference_gradient(
                state, _reference_direction(reference_rng, state.ranks)
            )
            assert isinstance(gradient, float)
            assert gradient == pytest.approx(reference, abs=1e-12)
            assert oracle.minimality_gradient(state, stack).tolist() == [gradient]
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("sectors", SEPARABLE_STATES)
    def test_candidate_gradient_is_unchanged(self, sectors):
        # Each candidate factor holds one sector's block and zeros in the other's.
        state = new_schmidt_state(sectors)
        candidate = oracle.closest_separable_candidate(state)
        assert oracle.minimality_gradient(state, candidate) == pytest.approx(
            _reference_gradient(state, _terms(candidate)), abs=1e-12
        )

    def test_check_draws_as_the_loop(self):
        states = [new_schmidt_state(sectors) for sectors in SEPARABLE_STATES]
        rng, reference_rng = np.random.default_rng(12), np.random.default_rng(12)
        [result] = verify.check_separable_gradient(rng, states, 40)
        lowest = min(
            _reference_gradient(s, _reference_direction(reference_rng, s.ranks))
            for s in states
            for _ in range(40)
        )
        assert result.detail == (
            f"min gradient = {lowest:.3e} over {len(states)} states x 40 directions"
        )
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("ranks", [{}, {TAU: 0}])
    def test_direction_needs_a_sector(self, ranks):
        with pytest.raises(ValidationError, match="operator needs at least one block"):
            oracle.random_separable_directions(np.random.default_rng(0), ranks, 1)

    def test_no_directions(self):
        state = new_schmidt_state({TAU: [0.6, 0.4]})
        directions = oracle.random_separable_directions(np.random.default_rng(0), state.ranks, 0)
        assert oracle.minimality_gradient(state, directions).shape == (0,)
        [result] = verify.check_separable_gradient(np.random.default_rng(0), [state], 0)
        assert result.passed and result.detail.startswith("min gradient = inf")


def _scaled(blocks):
    return {c: 1.01 * m for c, m in blocks.items()}


def _non_hermitian(blocks):
    blocks = dict(blocks)
    c = next(iter(blocks))
    blocks[c] = blocks[c].copy()
    blocks[c][0, 1] += 1e-3
    return blocks


def _negative_eigenvalue(blocks):
    blocks = dict(blocks)
    c = list(blocks)[-1]
    m = blocks[c]
    blocks[c] = m - (np.linalg.eigvalsh(m).min() + 1e-3) * np.eye(m.shape[0])
    return blocks


#: One faulty factor of a stack, and the message its state check gives today.
FAULTS = [
    pytest.param(_scaled, "quantum trace is", id="scaled"),
    pytest.param(_non_hermitian, "operator is not Hermitian", id="non-hermitian"),
    pytest.param(_negative_eigenvalue, "is not positive semidefinite", id="negative-eigenvalue"),
]
#: Any of the three state-check messages above.
STATE_CHECK_MESSAGES = "quantum trace is|operator is not Hermitian|is not positive semidefinite"


def perturb_one_factor(monkeypatch, fault):
    """Make ``oracle._check_states`` see one faulty factor in each stack of random
    directions (the right factor of the first term of the last direction); returns the
    messages that ``assert_state`` gives on each faulty factor."""
    real = oracle._check_states
    real_draw = oracle.random_separable_directions
    messages = []
    drawing = []

    def draw(*args):
        drawing.append(True)
        try:
            return real_draw(*args)
        finally:
            drawing.pop()

    def perturbing(blocks):
        # Only the factor stacks of a draw see the fault: stacks of candidates have
        # five axes too, and the one-operator check below runs inside the draw.
        if not drawing or next(iter(blocks.values())).ndim != 5:
            return real(blocks)
        factor = {c: stack[-1, 0, 1] for c, stack in blocks.items()}
        faulty = fault(factor)
        blocks = {c: stack.copy() for c, stack in blocks.items()}
        for c in blocks:
            blocks[c][-1, 0, 1] = faulty[c]
        with pytest.raises(ValidationError, match=STATE_CHECK_MESSAGES) as today:
            GradedDensityOperator(faulty).assert_state()
        messages.append(str(today.value))
        real(blocks)

    monkeypatch.setattr(oracle, "_check_states", perturbing)
    monkeypatch.setattr(oracle, "random_separable_directions", draw)
    monkeypatch.setattr(verify, "random_separable_directions", draw)
    return messages


class TestStackedSeparableValidation:
    @pytest.mark.parametrize("fault, text", FAULTS)
    @pytest.mark.parametrize("count", [1, 40])
    def test_faulty_factor_is_rejected(self, monkeypatch, fault, text, count):
        messages = perturb_one_factor(monkeypatch, fault)
        state = new_schmidt_state({VAC: [0.2, 0.1], TAU: [0.3, 0.3, 0.1]})
        with pytest.raises(ValidationError, match=text) as raised:
            oracle.random_separable_directions(np.random.default_rng(13), state.ranks, count)
        assert text in str(raised.value)
        assert str(raised.value) == messages[0]

    @pytest.mark.parametrize("fault, text", FAULTS)
    def test_verify_reports_a_failed_check(self, monkeypatch, capsys, fault, text):
        messages = perturb_one_factor(monkeypatch, fault)
        code = main(["verify", "--seed", "42", "--cases", "3"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert text in messages[0]
        assert lines[6] == f"FAIL  separable-oracle-gradient: ValidationError: {messages[0]}"
        assert lines[-1] == "13/14 checks passed"

    @pytest.mark.parametrize(
        "scale, text",
        [(-1.0, "negative mixture weight"), (1.0 + 1e-9, "mixture weights sum to")],
        ids=["negative-weight", "weight-sum"],
    )
    def test_weight_faults_match_separable_state(self, scale, text):
        ranks = {VAC: 2, TAU: 1}
        mixed = sum(qdim_float(c) * k for c, k in ranks.items())
        rng, reference_rng = np.random.default_rng(14), np.random.default_rng(14)
        stack = oracle.random_separable_directions(rng, ranks, 6)
        weights, blocks = stack.weights.copy(), stack.blocks
        assert weights.shape == (6, 3) and blocks[VAC].shape == (6, 3, 2, 2, 2)
        for d in range(6):
            n = len(_reference_direction(reference_rng, ranks))
            assert np.all(weights[d, n:] == 0.0) and np.all(blocks[TAU][d, n:] == 1.0 / mixed)
        weights[3, 0] *= scale
        with pytest.raises(ValidationError) as alone:
            SeparableState(weights[3], {c: b[3] for c, b in blocks.items()})
        with pytest.raises(ValidationError) as stacked:
            SeparableState(weights, blocks)
        assert text in str(stacked.value)
        assert str(stacked.value) == str(alone.value)


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
        with pytest.raises(ValidationError, match="plane coefficients must be positive"):
            type_c_bound(0.0, 0.5)
        with pytest.raises(ValidationError, match="plane coefficients must be positive"):
            type_c_bound(0.5, -0.1)
        with pytest.raises(ValidationError, match="plane coefficients sum to"):
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
            assert chsh_value(state, *witness(result)) >= best_bound - 1e-6

    def test_rank_one_states_never_violate(self):
        rng = np.random.default_rng(80)
        for _ in range(10):
            state = random_schmidt_state(rng, max_rank=1)
            result = optimize_chsh(state)
            assert result.value <= 2.0 + 1e-6

    def test_tau_pair_law(self):
        """value <= 2 sqrt 2 - (2 sqrt 2 - 2) phi**(-3 floor(n / 3)) for every
        copy count, with equality at n <= 3 (2, 2, 2.632862); local at n = 1, 2
        and a violation from n = 3 on."""
        for n in range(1, 67):
            result = optimize_chsh(tau_line(), n)
            law = TSIRELSON - (TSIRELSON - 2.0) * PHI ** (-3 * (n // 3))
            assert result.value <= law + 1e-12
            if n <= 3:
                assert abs(result.value - law) <= 1e-12
            assert result.verdict == ("local-bound-respected" if n <= 2 else "violation")
        assert round(optimize_chsh(tau_line(), 3).value, 6) == 2.632862

    def test_copy_limit(self):
        with pytest.raises(CopyLimitExceeded, match="copy limit 66"):
            optimize_chsh(tau_line(), copies=67)

    def test_dense_witness_limit(self):
        # 20 joint copies keep grouped Schmidt data tiny, so the value needs
        # no dense matrices; the flat rank (a Fibonacci number) is too large
        # for dense witness blocks.
        result = optimize_chsh(tau_line(), copies=20)
        assert round(result.value, 12) == 2.000177222615
        assert result.verdict == "violation"
        assert sum(result.ranks.values()) > 2048
        with pytest.raises(CopyLimitExceeded):
            witness(result)


class TestLocalityPredicate:
    """The CHSH verdict, ``local_terms``, ``classify`` and CE read one rank predicate."""

    def test_all_agree_on_random_joint_states(self):
        rng = np.random.default_rng(131)
        verdicts = []
        for i in range(40):
            # Odd draws have rank <= 1 in every sector: local at one copy,
            # often at two, and nonlocal once a joint sector reaches rank 2.
            state = random_schmidt_state(rng, max_rank=1 if i % 2 else 3)
            for n in range(1, 7):
                result = optimize_chsh(state, n)
                joint = n_copy(state, n)
                violation = result.verdict == "violation"
                assert violation == (local_terms(state, n) is None)
                assert violation == (classify(joint) is StateClass.TYPE_C)
                assert violation == (measure_report(joint).ce > 0.0)
                assert violation == (joint.max_rank >= 2)
                assert violation == (result.angles is not None) == (result.sector is not None)
                assert result.value >= 2.0
                verdicts.append(violation)
        assert 50 < sum(verdicts) < len(verdicts) - 50

    @pytest.mark.parametrize(
        "sectors, copies",
        [({TAU: [0.9999999999999, 1e-13]}, 1), ({VAC: [1.0], TAU: [1e-12]}, 2)],
    )
    def test_violation_below_the_old_tolerance(self, sectors, copies):
        """A rank-2 joint sector is a violation however small its top-pair gain."""
        result = optimize_chsh(new_schmidt_state(sectors), copies)
        assert result.value - 2.0 < 1e-9
        assert result.verdict == "violation"
        assert result.sector is TAU and result.angles is not None


class TestWitness:
    """The closed-form value, reproduced by its witness through ``chsh_value``."""

    @pytest.mark.parametrize("copies", range(1, 13))
    def test_tau_pair(self, copies):
        result = optimize_chsh(tau_line(), copies=copies)
        joint = n_copy(tau_line(), copies)
        assert chsh_value(joint, *witness(result)) == pytest.approx(result.value, abs=1e-12)

    def test_random_states(self):
        rng = np.random.default_rng(81)
        for _ in range(50):
            state = random_schmidt_state(rng)
            copies = int(rng.integers(1, 4))
            result = optimize_chsh(state, copies=copies)
            joint = n_copy(state, copies)
            witnessed = chsh_value(joint, *witness(result))
            assert witnessed == pytest.approx(result.value, abs=1e-12)

    def test_local_witness_is_identity(self):
        result = optimize_chsh(tau_line(), copies=2)
        assert result.sector is None and result.angles is None
        for obs in witness(result):
            for c in obs.charges():
                np.testing.assert_array_equal(obs.block(c), np.eye(obs.block(c).shape[0]))


class TestLocalityCertificate:
    def test_single_copy(self):
        assert local_terms(tau_line()) == ((1.0, TAU),)
        assert certificate_gap(tau_line()) < 1e-12

    def test_two_copies(self):
        terms = local_terms(tau_line(), copies=2)
        assert [c for _, c in terms] == [VAC, TAU]
        assert [p for p, _ in terms] == pytest.approx([1.0 / PHI**2, 1.0 / PHI], abs=1e-15)
        assert certificate_gap(n_copy(tau_line(), 2)) < 1e-12

    def test_three_copies_refused(self):
        assert local_terms(tau_line(), copies=3) is None
        assert certificate_gap(three_copy()) >= 1e-12

    def test_eight_copy_gap_memory(self):
        # Only terms supported on both sides enter a charge pair's product.
        joint = n_copy(tau_line(), 8)
        tracemalloc.start()
        try:
            gap = certificate_gap(joint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap >= 1e-12
        assert peak < 50e6

    def test_ten_copy_gap_refused_before_allocating(self):
        # Ranks 34 and 55: a vacuum channel of 4181 rows, past 2048.
        joint = n_copy(tau_line(), 10)
        tracemalloc.start()
        try:
            with pytest.raises(CopyLimitExceeded, match="dimension 4181 exceeds 2048"):
                certificate_gap(joint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    # Dense Omega blocks grow as the fourth power of a sector's joint rank,
    # so the draws shrink as the copy count grows.
    @pytest.mark.parametrize("copies, max_rank", [(1, 3), (2, 2), (3, 1)])
    def test_closed_form_matches_dense_gap(self, copies, max_rank):
        rng = np.random.default_rng(copies)
        local = 0
        for _ in range(30):
            state = random_schmidt_state(rng, max_rank=max_rank)
            terms = local_terms(state, copies)
            joint = n_copy(state, copies)
            assert (terms is not None) == (certificate_gap(joint) < 1e-12)
            if terms is None:
                continue
            local += 1
            assert sum(p for p, _ in terms) == pytest.approx(1.0, abs=1e-12)
            assert measure_report(joint).ce == 0.0
            result = optimize_chsh(state, copies)
            assert result.value == 2.0
            assert result.verdict == "local-bound-respected"
        assert 0 < local < 30
