"""Joint copies, multi-copy closed forms, and the per-copy series."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fibanyon.errors import CopyLimitExceeded
from fibanyon.measures import aee, e_aree_pure
from fibanyon.model import CHARGE_ORDER, LOG2_PHI, PHI, Charge, fusion_space_dim, qdim_float
from fibanyon.multicopy import (
    _joint_rank,
    _ncopy_sector_probability,
    copy_series,
    e_aree_ncopy,
    n_copy,
)
from fibanyon.states import from_grouped, new_schmidt_state, random_schmidt_state

TAU = Charge.TAU
VAC = Charge.VACUUM


# Reference enumerator: one Python loop per composition of n over the
# (value, multiplicity) groups, merged in dicts and renormalised as scalars.
# The array kernel in n_copy must reproduce its arrays bit for bit.


def _compositions(total, parts):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _multinomial(n, counts):
    out = 1
    remaining = n
    for k in counts:
        out *= math.comb(remaining, k)
        remaining -= k
    return out


def _paths(m_tau, c):
    if m_tau == 0:
        return 1 if c is VAC else 0
    return fusion_space_dim(m_tau, c)


def _merged(groups):
    merged = {}
    for value, mult in groups:
        if value == 0.0:
            continue
        merged[value] = merged.get(value, 0) + mult
    order = sorted(merged, reverse=True)
    return np.array(order, dtype=float), np.array([merged[v] for v in order], dtype=np.int64)


def reference_n_copy(state, n):
    """Per-sector (values, mults) of the joint n-copy, by the scalar route."""
    letters = [
        (c, float(v), int(m)) for c in state.charges for v, m in zip(*state.grouped(c))
    ]
    acc = {c: {} for c in CHARGE_ORDER}
    for counts in _compositions(n, len(letters)):
        ways = _multinomial(n, counts)
        base = 1.0
        m_tau = 0
        for (c, value, mult), k in zip(letters, counts):
            if k == 0:
                continue
            ways *= mult**k
            base *= value**k
            if c is TAU:
                m_tau += k
        for c_total in CHARGE_ORDER:
            paths = _paths(m_tau, c_total)
            if not paths:
                continue
            coeff = base * qdim_float(c_total) / PHI**m_tau
            bucket = acc[c_total]
            bucket[coeff] = bucket.get(coeff, 0) + ways * paths
    sectors = {c: _merged(bucket.items()) for c, bucket in acc.items() if bucket}
    total = sum(float(np.dot(v, m)) for v, m in sectors.values())
    return {
        c: _merged((float(v) / total, int(m)) for v, m in zip(*vm)) for c, vm in sectors.items()
    }


#: Coefficient weights that repeat within and across sectors.
_TIED_WEIGHTS = (0.05, 0.1, 0.125, 0.2, 0.3)


@st.composite
def grouped_states(draw):
    """1-6 (value, multiplicity) groups over both sectors, multiplicities 1-3, with ties."""
    groups = [
        (
            draw(st.sampled_from(CHARGE_ORDER)),
            draw(st.sampled_from(_TIED_WEIGHTS) | st.floats(0.01, 1.0)),
            draw(st.integers(1, 3)),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    total = sum(weight * mult for _, weight, mult in groups)
    grouped = {}
    for c, weight, mult in groups:
        grouped.setdefault(c, []).append((weight / total, mult))
    return from_grouped(grouped)


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

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_exact_joint_rank_is_the_constructed_rank(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(5):
            state = random_schmidt_state(rng)
            assert _joint_rank(state, n) == sum(n_copy(state, n).ranks.values())

    def test_joint_rank_beyond_int64_refused(self):
        flat = new_schmidt_state({Charge.TAU: [0.001] * 1000})
        assert n_copy(flat, 5).rank(Charge.TAU) == 5 * 10**15
        with pytest.raises(CopyLimitExceeded, match="joint rank"):
            n_copy(flat, 7)

    def test_composition_budget_refused(self):
        values = np.random.default_rng(4).dirichlet(np.ones(20))
        wide = new_schmidt_state({Charge.VACUUM: list(values[:10]), Charge.TAU: list(values[10:])})
        with pytest.raises(CopyLimitExceeded, match="2220075 compositions"):
            n_copy(wide, 8)
        with pytest.raises(CopyLimitExceeded, match="compositions"):
            copy_series(wide, 12)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(state=grouped_states(), n=st.integers(2, 6))
    def test_kernel_matches_reference_enumerator(self, state, n):
        joint = n_copy(state, n)
        expected = reference_n_copy(state, n)
        assert joint.charges == tuple(expected)
        for c, (values, mults) in expected.items():
            assert np.array_equal(joint.grouped(c)[0], values)
            assert np.array_equal(joint.grouped(c)[1], mults)

    def test_int64_multiplicities_exact_near_the_rank_guard(self):
        flat = new_schmidt_state({TAU: [1 / 900] * 900})
        joint = n_copy(flat, 6)
        rank = _joint_rank(flat, 6)
        assert rank == 6_908_733_000_000_000_000  # about 0.75 (2**63 - 1)
        exact = {c: sum(joint.grouped(c)[1].tolist()) for c in joint.charges}
        assert exact == joint.ranks == {VAC: 900**6 * 5, TAU: 900**6 * 8}
        assert sum(exact.values()) == rank

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


def p_tau_closed(p_tau, n):
    """p_tau^(n) = (phi / sqrt 5)(1 - r^n) with r = 1 - p_tau sqrt 5 / phi."""
    r = 1.0 - p_tau * math.sqrt(5.0) / PHI
    return PHI / math.sqrt(5.0) * (1.0 - r**n)


#: log2 of the total quantum dimension squared, D^2 = 1 + phi^2.
LOG2_D2 = math.log2(1.0 + PHI**2)


class TestAsymptotes:
    """The n-copy tau probability and the limits of n ACE and n (CE - AEE)."""

    def test_tau_probability_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            state = random_schmidt_state(rng, max_rank=4)
            for n in range(1, 25):
                binomial = _ncopy_sector_probability(state, n, TAU)
                assert abs(p_tau_closed(state.p_tau, n) - binomial) <= 1e-14

    @pytest.mark.parametrize("n", range(1, 7))
    def test_tau_probability_exact_in_q_sqrt5(self, n):
        # In Q[sqrt 5]: d_tau / phi^m = (phi - 1)^(m - 1), and dim(m, tau) = F_m.
        sqrt5 = sp.sqrt(5)
        phi = (1 + sqrt5) / 2
        p = sp.Symbol("p")
        binomial = sum(
            sp.binomial(n, m) * p**m * (1 - p) ** (n - m) * sp.fibonacci(m) * (phi - 1) ** (m - 1)
            for m in range(1, n + 1)
        )
        closed = phi / sqrt5 * (1 - (1 - p * sqrt5 * (phi - 1)) ** n)
        assert sp.expand(binomial - closed) == 0
        for weight in (sp.Rational(1, 4), sp.Rational(1, 2), sp.Rational(3, 4), sp.Integer(1)):
            state = new_schmidt_state({VAC: [float(1 - weight)], TAU: [float(weight)]})
            exact = float(closed.subs(p, weight))
            assert _ncopy_sector_probability(state, n, TAU) == pytest.approx(exact, abs=1e-15)

    def test_tau_pair_charge_entanglement_tends_to_log2_d_squared(self):
        n, _, _, ace_pc, _ = copy_series(tau_line(), 24).rows[-1]
        assert n == 24
        assert LOG2_D2 == pytest.approx(1.8552060, abs=1e-7)
        assert abs(n * ace_pc - LOG2_D2) <= 1e-12

    def test_tau_pair_ce_offset(self):
        n, aee_pc, _, _, ce_pc = copy_series(tau_line(), 24).rows[-1]
        offset = PHI / math.sqrt(5.0) * LOG2_PHI - LOG2_D2
        assert offset == pytest.approx(-1.3528478, abs=1e-7)
        assert abs(n * (ce_pc - aee_pc) - offset) <= 1e-9


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
