"""Joint copies, multi-copy closed forms, and the per-copy series."""

import math

import numpy as np
import pytest

from fibanyon.errors import CopyLimitExceeded
from fibanyon.measures import aee, e_aree_pure
from fibanyon.model import LOG2_PHI, PHI, Charge
from fibanyon.multicopy import copy_series, e_aree_ncopy, n_copy
from fibanyon.states import new_schmidt_state, random_schmidt_state

TAU = Charge.TAU
VAC = Charge.VACUUM


def tau_line():
    return new_schmidt_state({TAU: [1.0]})


def oracle_aree(coefficients):
    """Independent evaluation of H({l}) + 2 p_tau log2(phi) from flat lists."""
    h = -sum(v * math.log2(v) for values in coefficients.values() for v in values)
    p_tau = sum(coefficients.get(TAU, ()))
    return h + 2.0 * p_tau * LOG2_PHI


class TestNCopy:
    def test_two_copies(self):
        joint = n_copy(tau_line(), 2)
        # Coefficients d_c / phi**2 for c = 1, tau.
        assert joint.coefficients(VAC) == pytest.approx([0.3819660113], abs=1e-9)
        assert joint.coefficients(TAU) == pytest.approx([0.6180339887], abs=1e-9)

    def test_three_copies(self):
        joint = n_copy(tau_line(), 3)
        # One path to vacuum (1/phi**3), two paths to tau (1/phi**2 each).
        assert joint.coefficients(VAC) == pytest.approx([0.2360679775], abs=1e-9)
        assert joint.coefficients(TAU) == pytest.approx(
            [0.3819660113, 0.3819660113], abs=1e-9
        )

    def test_single_copy_is_identity(self):
        state = new_schmidt_state({VAC: [0.3], TAU: [0.7]})
        assert n_copy(state, 1) == state

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_normalization(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(5):
            state = random_schmidt_state(rng)
            assert n_copy(state, n).total() == pytest.approx(1.0, abs=1e-9)

    def test_copy_limit(self):
        with pytest.raises(CopyLimitExceeded):
            n_copy(tau_line(), 25)

    def test_rank_counts_follow_fusion_paths(self):
        joint = n_copy(tau_line(), 6)
        assert joint.rank(VAC) == 5  # paths of 6 taus to vacuum
        assert joint.rank(TAU) == 8


class TestClosedForm:
    def test_single_copy(self):
        assert e_aree_ncopy(tau_line(), 1) == pytest.approx(1.3884838273, abs=1e-9)

    def test_two_copies(self):
        # (2 + 1/phi) * log2(phi)
        expected = (2.0 + 1.0 / PHI) * LOG2_PHI
        assert expected == pytest.approx(1.8175489263, abs=1e-9)
        assert e_aree_ncopy(tau_line(), 2) == pytest.approx(expected, abs=1e-12)

    def test_three_copies(self):
        # (3 + 2/phi**2) * log2(phi)
        expected = (3.0 + 2.0 / PHI**2) * LOG2_PHI
        assert expected == pytest.approx(2.6130793701, abs=1e-9)
        assert e_aree_ncopy(tau_line(), 3) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_oracle_from_flat_coefficients(self, n):
        joint = n_copy(tau_line(), n)
        flat = {c: list(joint.coefficients(c)) for c in joint.charges}
        assert e_aree_ncopy(tau_line(), n) == pytest.approx(
            oracle_aree(flat), abs=1e-12
        )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_constructed_state(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(4):
            state = random_schmidt_state(rng)
            closed = e_aree_ncopy(state, n)
            constructed = e_aree_pure(n_copy(state, n))
            assert closed == pytest.approx(constructed, abs=1e-9)


class TestAdditivity:
    def test_three_copies_of_tau_line(self):
        assert abs(aee(n_copy(tau_line(), 3)) - 3 * aee(tau_line())) <= 1e-9

    def test_single_copy_trivial(self):
        state = new_schmidt_state({VAC: [0.2, 0.1], TAU: [0.7]})
        assert aee(n_copy(state, 1)) - aee(state) == 0.0

    def test_mixed_sector_state(self):
        state = new_schmidt_state({VAC: [0.5], TAU: [0.5]})
        assert abs(aee(n_copy(state, 4)) - 4 * aee(state)) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_random_states(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(5):
            state = random_schmidt_state(rng)
            assert abs(aee(n_copy(state, n)) - n * aee(state)) <= 1e-9


class TestCopySeries:
    def test_first_three_rows(self):
        series = copy_series(tau_line(), 3)
        expected = {
            1: (0.6942419136, 1.3884838273, 1.3884838273, 0.0),
            2: (0.6942419136, 0.9087744631, 0.9087744631, 0.0),
            3: (0.6942419136, 0.8710264567, 0.6163824492, 0.2546440075),
        }
        for n, *values in series.rows:
            assert values == pytest.approx(expected[n], abs=1e-6)

    def test_aee_column_constant(self):
        series = copy_series(tau_line(), 10)
        for _, aee_pc, *_ in series.rows:
            assert aee_pc == pytest.approx(LOG2_PHI, abs=1e-9)

    def test_rows_satisfy_decomposition(self):
        series = copy_series(new_schmidt_state({VAC: [0.4], TAU: [0.6]}), 6)
        for _, _, aree_pc, ace_pc, ce_pc in series.rows:
            assert aree_pc == pytest.approx(ace_pc + ce_pc, abs=1e-9)

    def test_aee_additive_for_mixed_state(self):
        state = new_schmidt_state({VAC: [0.25, 0.25], TAU: [0.5]})
        series = copy_series(state, 5)
        single = aee(state)
        for _, aee_pc, *_ in series.rows:
            assert aee_pc == pytest.approx(single, abs=1e-9)

    def test_csv_shape(self):
        text = copy_series(tau_line(), 3).to_csv()
        lines = text.splitlines()
        assert lines[0] == "n,aee,aree,ace,ce"
        assert len(lines) == 4
        assert text.endswith("\n")
        assert "\r" not in text

    def test_series_limit(self):
        with pytest.raises(CopyLimitExceeded):
            copy_series(tau_line(), 25)
