"""Schmidt states, graded density operators, entropy, classification."""

import math
import os
import reprlib
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fibanyon.errors import ValidationError
from fibanyon.measures import StateClass, _shannon_entropy, classify, measure_report
from fibanyon.model import LOG2_PHI, PHI, Charge
from fibanyon.oracle import (
    GradedDensityOperator,
    Observable,
    SeparableState,
    anyonic_entropy,
    embed,
    reduced_density,
)
from fibanyon.states import (
    _canonical,
    from_arrays,
    new_schmidt_state,
    random_schmidt_state,
    state_from_dict,
)

TAU = Charge.TAU
VAC = Charge.VACUUM


def random_states(seed, count, **kwargs):
    rng = np.random.default_rng(seed)
    return [random_schmidt_state(rng, **kwargs) for _ in range(count)]


#: A coefficient and the verdict that both ways in (in-process and from a
#: state file) give it: the error message, or None for the state of
#: ``{"tau": [1.0]}``.
COEFFICIENT_VERDICTS = [
    (True, "Schmidt coefficient True at sector 'tau' index 0 is not a number"),
    (np.True_, "Schmidt coefficient np.True_ at sector 'tau' index 0 is not a number"),
    ("1", "Schmidt coefficient '1' at sector 'tau' index 0 is not a number"),
    (b"1", "Schmidt coefficient b'1' at sector 'tau' index 0 is not a number"),
    (None, "Schmidt coefficient None at sector 'tau' index 0 is not a number"),
    ([0.5], "Schmidt coefficient [0.5] at sector 'tau' index 0 is not a number"),
    (Fraction(1, 2), "Schmidt coefficients sum to 0.5, deviating from 1 by more than 1e-09"),
    (
        Decimal("0.5"),
        "Schmidt coefficient Decimal('0.5') at sector 'tau' index 0 is not a number",
    ),
    (np.float32(1.0), None),
    (np.int64(1), None),
    (math.nan, "non-finite Schmidt coefficient nan in sector 'tau'"),
    (math.inf, "non-finite Schmidt coefficient inf in sector 'tau'"),
    (-0.1, "negative Schmidt coefficient -0.1 at sector 'tau' index 0"),
    (1.1, "Schmidt coefficient 1.1 in sector 'tau' exceeds 1"),
    (10**400, f"Schmidt coefficient {10**400} at sector 'tau' index 0 is not a number"),
]


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

    @pytest.mark.parametrize(
        "value, outcome",
        COEFFICIENT_VERDICTS,
        ids=[reprlib.repr(v) for v, _ in COEFFICIENT_VERDICTS],
    )
    def test_one_verdict_per_coefficient_whatever_the_route(self, value, outcome):
        """A coefficient gets the same verdict, in-process and from a state file:
        the same state (``None``: the state of ``{"tau": [1.0]}``) or the same error."""

        def verdict(build):
            try:
                return build()
            except ValidationError as exc:
                assert type(exc) is ValidationError
                return str(exc)

        direct = verdict(lambda: new_schmidt_state({"tau": [value]}))
        from_file = verdict(lambda: state_from_dict({"sectors": {"tau": [value]}}))
        expected = new_schmidt_state({TAU: [1.0]}) if outcome is None else outcome
        assert direct == from_file == expected

    @pytest.mark.parametrize(
        "sector", [5, "1", {"1": 1.0}, None, np.float64(1.0), np.array([[1.0]])], ids=repr
    )
    def test_sector_that_is_no_array_rejected(self, sector):
        for key in ("tau", TAU):
            with pytest.raises(ValidationError) as raised:
                new_schmidt_state({key: sector})
            assert str(raised.value) == f"sector 'tau' must be an array of numbers, got {sector!r}"

    @pytest.mark.parametrize("sector", [[0.5, 0.5], (0.5, 0.5), np.array([0.5, 0.5])], ids=repr)
    def test_list_tuple_and_1d_array_accepted(self, sector):
        assert new_schmidt_state({TAU: sector}) == new_schmidt_state({TAU: [0.5, 0.5]})

    def test_bad_sum_rejected(self):
        with pytest.raises(ValidationError, match="Schmidt coefficients sum to 0.9"):
            new_schmidt_state({TAU: [0.9]})

    def test_mild_deviation_renormalized(self):
        state = new_schmidt_state({TAU: [0.5 + 4e-10, 0.5 + 4e-10]})
        assert state.total() == pytest.approx(1.0, abs=1e-12)

    def test_values_equal_after_renormalizing_are_merged(self):
        # The total 1 - 1e-11 maps 0.25 and the float just below it to one value.
        below = math.nextafter(0.25, 0.0)
        state = new_schmidt_state({TAU: [0.49999999999, 0.25, below]})
        values, mults = state.grouped(TAU)
        assert len(values) == 2 and mults.tolist() == [1, 2]
        assert values[1] == 0.25 / 0.99999999999 == below / 0.99999999999

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

    @pytest.mark.parametrize(
        "values",
        [[0.5 + 1e-10], [0.5 + 1e-10, 0.0], [0.3, 0.0, 0.2 + 1e-10], [0.25 + 5e-11, 0.25]],
    )
    def test_from_arrays_leaves_the_callers_arrays(self, values):
        # With the vacuum sector the values total 1 + 1e-10, so from_arrays divides them.
        values = np.array(values)
        mults = np.ones(values.size, dtype=np.int64)
        vac = np.array([1.0 + 1e-10 - np.sum(values)])
        given_values, given_vac = values.copy(), vac.copy()
        state = from_arrays({TAU: (values, mults), VAC: (vac, np.ones(1, dtype=np.int64))})
        assert state.total() == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(values, given_values)
        assert np.array_equal(vac, given_vac)

    def test_from_arrays_keeps_a_one_group_multiplicity_writeable(self):
        """The caller's values and multiplicities, in sectors of one group and of
        two, stay unchanged, writeable and apart from the state's read-only arrays."""
        for sectors in (
            {TAU: (np.array([1.0]), np.array([1]))},
            {VAC: (np.array([0.2, 0.3]), np.array([1, 1])), TAU: (np.array([0.5]), np.array([1]))},
            {TAU: (np.array([0.25, 0.25]), np.array([1, 3]))},  # two groups merge into one
        ):
            given = {c: (values.copy(), mults.copy()) for c, (values, mults) in sectors.items()}
            state = from_arrays(sectors)
            for c, arrays in sectors.items():
                for mine, kept, stored in zip(arrays, given[c], state.grouped(c)):
                    assert np.array_equal(mine, kept)
                    assert mine.flags.writeable
                    assert not stored.flags.writeable
                    assert not np.shares_memory(mine, stored)

    @pytest.mark.parametrize("values", [[0.5], [0.3, 0.2], [0.5, 0.0]])
    def test_canonical_copies_every_sector(self, values):
        values = np.array(values)
        mults = np.ones(values.size, dtype=np.int64)
        out_values, out_mults = _canonical(values, mults)
        assert not np.shares_memory(out_values, values)
        assert not np.shares_memory(out_mults, mults)

    def test_file_round_trip(self):
        payload = {"sectors": {"1": [0.25, 0.15], "tau": [0.6]}}
        state = state_from_dict(payload)
        sectors = {c.value: [float(v) for v in state.coefficients(c)] for c in state.charges}
        again = state_from_dict({"sectors": sectors})
        assert state == again


class TestRandomSchmidtState:
    @pytest.mark.parametrize(
        "max_rank, require_rank2",
        [(0, False), (1, True), (0, True), (-1, False), (-3, True)],
    )
    def test_empty_domain_is_refused_before_drawing(self, max_rank, require_rank2):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(ValidationError, match=f"max_rank {max_rank} is below"):
            random_schmidt_state(rng, max_rank=max_rank, require_rank2=require_rank2)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize(
        "max_rank, require_rank2", [(1, False), (2, True), (3, False), (3, True)]
    )
    def test_valid_arguments_keep_their_draws(self, max_rank, require_rank2):
        """The draws of the rejection loop, written out: ranks, then Dirichlet coefficients."""
        rng, reference = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(20):
            state = random_schmidt_state(rng, max_rank=max_rank, require_rank2=require_rank2)
            while True:
                k_vac = int(reference.integers(0, max_rank + 1))
                k_tau = int(reference.integers(0, max_rank + 1))
                if k_vac + k_tau and (max(k_vac, k_tau) >= 2 or not require_rank2):
                    break
            coeffs = reference.dirichlet(np.ones(k_vac + k_tau))
            assert state.ranks == {c: k for c, k in ((VAC, k_vac), (TAU, k_tau)) if k}
            assert sorted(np.concatenate([state.coefficients(c) for c in state.charges])) == (
                pytest.approx(sorted(coeffs), abs=1e-15)
            )
            assert rng.bit_generator.state == reference.bit_generator.state


class TestAee:
    def test_single_tau(self):
        assert measure_report(new_schmidt_state({TAU: [1.0]})).aee == pytest.approx(
            0.6942419136, abs=1e-9
        )

    def test_product_state(self):
        assert measure_report(new_schmidt_state({VAC: [1.0]})).aee == 0.0

    def test_even_sector_split(self):
        # H(0.5, 0.5) + 0.5 * log2(phi) = 1 + 0.5 * 0.69424191...
        state = new_schmidt_state({VAC: [0.5], TAU: [0.5]})
        assert measure_report(state).aee == pytest.approx(1.3471209568, abs=1e-9)


class TestReducedDensity:
    def test_tau_block(self):
        op = reduced_density(new_schmidt_state({TAU: [1.0]}))
        block = op.block(TAU)
        assert block.shape == (1, 1)
        assert block[0, 0].real == pytest.approx(1.0 / PHI, abs=1e-12)
        assert op.weight(TAU) == pytest.approx(PHI)

    def test_vacuum_block(self):
        op = reduced_density(new_schmidt_state({VAC: [1.0]}))
        assert op.block(VAC)[0, 0] == 1.0
        assert op.weight(VAC) == 1.0

    @pytest.mark.parametrize("state", random_states(11, 20))
    def test_unit_quantum_trace(self, state):
        assert reduced_density(state).quantum_trace() == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("state", random_states(12, 10))
    def test_entropy_symmetry(self, state):
        # The joint projector is invariant under swapping A and B (pair
        # index i*k + j <-> j*k + i in every sector), so both sides reduce to
        # the one operator, and entropy, that reduced_density gives.
        rho = embed(state)
        swap, offset = [], 0
        for c in state.charges:
            k = state.rank(c)
            swap += (offset + np.arange(k * k).reshape(k, k).T.ravel()).tolist()
            offset += k * k
        [key] = rho.keys()
        block = rho.block(key)
        np.testing.assert_array_equal(block[np.ix_(swap, swap)], block)


class TestAnyonicEntropy:
    def test_reduced_single_tau(self):
        op = reduced_density(new_schmidt_state({TAU: [1.0]}))
        assert anyonic_entropy(op) == pytest.approx(0.6942419136, abs=1e-9)

    def test_pure_vacuum_block(self):
        op = GradedDensityOperator({VAC: np.array([[1.0]])})
        assert anyonic_entropy(op) == 0.0

    def test_mixed_sector_reduction(self):
        op = reduced_density(new_schmidt_state({VAC: [0.5], TAU: [0.5]}))
        assert anyonic_entropy(op) == pytest.approx(1.3471209568, abs=1e-9)

    @pytest.mark.parametrize("state", random_states(13, 25))
    def test_matches_aee(self, state):
        entropy = anyonic_entropy(reduced_density(state))
        assert entropy == pytest.approx(measure_report(state).aee, abs=1e-10)

    def test_not_a_state(self):
        op = GradedDensityOperator({TAU: np.array([[1.0]])})  # trace phi, not 1
        with pytest.raises(ValidationError, match="quantum trace is"):
            anyonic_entropy(op)


def is_pure(op):
    """True iff the anyonic entropy vanishes (below 1e-10)."""
    return anyonic_entropy(op) <= 1e-10


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


#: Prints the sector sum of a raw 40 000-group sector, and a digest of the
#: values ``from_arrays`` normalizes by its own total.
_SECTOR_SUMS = """
import hashlib
import numpy as np
from fibanyon.model import Charge
from fibanyon.states import SchmidtState, from_arrays
rng = np.random.default_rng(0)
values = rng.random(40_000)
mults = rng.integers(1, 30, values.size)
print(SchmidtState({Charge.TAU: (values, mults)}).sector_probability(Charge.TAU).hex())
state = from_arrays({Charge.TAU: (values / float(np.sum(values * mults)), mults)})
print(hashlib.sha256(state.grouped(Charge.TAU)[0].tobytes()).hexdigest())
"""


class TestSectorSums:
    def test_bits_do_not_depend_on_blas_threads(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run(
                [sys.executable, "-c", _SECTOR_SUMS],
                capture_output=True, text=True, env=env, timeout=120, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]


class TestShannonEntropy:
    @pytest.mark.parametrize(
        "values, mults", [([1.0], None), ([1.0], [1]), ([0.0, 1.0], [5, 1]), ([1.0, 0.0], None)]
    )
    def test_one_point_distribution_is_positive_zero(self, values, mults):
        value = _shannon_entropy(values, mults)
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_nonzero_entropy_keeps_its_bits(self, seed):
        values = np.random.default_rng(seed).dirichlet(np.ones(7))
        mults = np.arange(1, 8)
        v = values / np.dot(values, mults)
        expected = float(-np.sum(mults * v * np.log2(v)))
        assert _shannon_entropy(v, mults).hex() == expected.hex()


#: The messages of the state checks: an operator, or a separable factor, is no state.
NOT_A_STATE = "operator is not Hermitian|is not positive semidefinite|quantum trace is"


def _raises_silently(build, match):
    """``build()`` raises a ``ValidationError`` matching ``match`` and no warning;
    returns the error's message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValidationError, match=match) as raised:
            build()
    assert caught == []
    return str(raised.value)


class TestAllclose:
    """The Hermitian, involution and state tests are ``np.allclose`` verdicts,
    and no floating-point warning escapes them, whatever the entries."""

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ([1.0], [math.inf], False),
            ([math.inf], [math.inf], True),
            ([-math.inf], [math.inf], False),
            ([math.nan], [math.nan], False),
            ([complex(math.inf, 0.0)], [complex(math.inf, 0.0)], True),
            ([1.0 + 1e-5 + 2e-10], [1.0], False),
            ([1.0 + 1e-5], [1.0], True),
            ([1e308], [-1e308], False),
            ([-(2**63)], [2**63 - 1], False),
            ([True, False], [True, False], True),
        ],
    )
    def test_edge_cases(self, a, b, expected):
        """[[0, diag(a)], [diag(b)^dagger, 0]] is Hermitian to the state tolerance
        exactly when ``np.allclose`` takes a for b and b for a at atol 1e-10
        (``expected``).  Hermitian or not, it is not a state: its eigenvalues
        have both signs, or its quantum trace is 0."""
        a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
        zero = np.zeros((a.size, a.size))
        block = np.block([[zero, np.diag(a)], [np.diag(b.conj()), zero]])
        factors = {TAU: np.stack([block, block])[None]}
        for build in (
            lambda: GradedDensityOperator({TAU: block}).assert_state(),
            lambda: SeparableState(np.ones(1), factors),
        ):
            message = _raises_silently(build, NOT_A_STATE)
            assert (message == "operator is not Hermitian") is not expected

    @pytest.mark.parametrize(
        "diagonal",
        [
            (math.inf, 1.0),
            (math.nan, 1.0),
            (complex(0.0, -math.inf), 1.0),
            (1e308, 1e308),
            (1e308, -1e308),
            (-1e308, -1e308),
            (1e200, 1e200),
        ],
    )
    def test_out_of_range_blocks_raise_without_warning(self, diagonal):
        block = np.diag(np.array(diagonal, dtype=complex))
        factors = {TAU: np.stack([block, block])[None]}
        _raises_silently(lambda: GradedDensityOperator({TAU: block}).assert_state(), NOT_A_STATE)
        _raises_silently(lambda: SeparableState(np.ones(1), factors), NOT_A_STATE)
        _raises_silently(lambda: Observable({TAU: block}), "is not Hermitian|is not an involution")
