"""Joint copies, multi-copy closed forms, and the per-copy series."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fibanyon import multicopy
from fibanyon.bell import optimize_chsh
from fibanyon.errors import CopyLimitExceeded
from fibanyon.measures import measure_report
from fibanyon.model import CHARGE_ORDER, LOG2_PHI, PHI, Charge, fusion_space_dim, qdim_float
from fibanyon.multicopy import (
    _check_copies,
    _joint_rank,
    _ncopy_sector_probability,
    copy_series,
    e_aree_ncopy,
    n_copy,
)
from fibanyon.states import from_arrays, new_schmidt_state, random_schmidt_state

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
    total = sum(float(np.sum(v * m)) for v, m in sectors.values())
    return {
        c: _merged((float(v) / total, int(m)) for v, m in zip(*vm)) for c, vm in sectors.items()
    }


#: Coefficient weights that repeat within and across sectors.
_TIED_WEIGHTS = (0.05, 0.1, 0.125, 0.2, 0.3)


@st.composite
def grouped_states(draw):
    """1-6 groups of equal coefficients over both sectors, 1-3 per group, with ties."""
    groups = [
        (
            draw(st.sampled_from(CHARGE_ORDER)),
            draw(st.sampled_from(_TIED_WEIGHTS) | st.floats(0.01, 1.0)),
            draw(st.integers(1, 3)),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    total = sum(weight * mult for _, weight, mult in groups)
    sectors = {}
    for c, weight, mult in groups:
        sectors.setdefault(c, []).extend([weight / total] * mult)
    return new_schmidt_state(sectors)


# Reference kernel: the letter-by-letter gather that n_copy used before it
# expanded in place.  It builds fresh arrays at every step and indexes the
# 2-D binomial table; n_copy must reproduce its groups bit for bit.

#: The copy limit of n_copy: C(66, 33) fits in int64, C(67, 33) does not.
COPY_LIMIT = 66

_REF_BINOMIAL = np.array(
    [[math.comb(r, k) for k in range(COPY_LIMIT + 1)] for r in range(COPY_LIMIT + 1)],
    dtype=np.int64,
)
_REF_PATHS = {c: np.array([_paths(m, c) for m in range(COPY_LIMIT + 1)]) for c in CHARGE_ORDER}
_REF_PHI_POWERS = np.array([PHI**m for m in range(COPY_LIMIT + 1)])


def gather_n_copy(state, n):
    """The joint n-copy by fresh-array gathers, one letter at a time."""
    left = np.array([n])
    ways = np.ones(1, dtype=np.int64)
    base = np.ones(1)
    m_tau = np.zeros(1, dtype=np.int64)
    letters = []
    for c in state.charges:
        values, mults = state.grouped(c)
        letters += [(c, value, mult) for value, mult in zip(values.tolist(), mults.tolist())]
    for i, (c, value, mult) in enumerate(letters):
        if i < len(letters) - 1:
            counts = left + 1
            row = np.repeat(np.arange(left.size), counts)
            k = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
            left, ways, base, m_tau = left[row], ways[row], base[row], m_tau[row]
            ways = ways * _REF_BINOMIAL[left, k]
            left = left - k
        else:
            k = left
        if mult > 1:
            ways = ways * np.array([mult**j for j in range(n + 1)], dtype=np.int64)[k]
        base = base * np.array([value**j for j in range(n + 1)])[k]
        if c is TAU:
            m_tau = m_tau + k
    sectors = {}
    for c in CHARGE_ORDER:
        paths = _REF_PATHS[c][m_tau]
        hit = paths > 0
        coeff = base[hit] * qdim_float(c) / _REF_PHI_POWERS[m_tau[hit]]
        sectors[c] = (coeff, ways[hit] * paths[hit])
    return from_arrays(sectors)


def assert_same_groups(joint, expected):
    assert joint.charges == expected.charges
    for c in expected.charges:
        assert np.array_equal(joint.grouped(c)[0], expected.grouped(c)[0])
        assert np.array_equal(joint.grouped(c)[1], expected.grouped(c)[1])


def within_budget(state, n):
    try:
        _check_copies(state, n)
    except CopyLimitExceeded:
        return False
    return True


#: The paper's tau-pair, a two-sector pair and the CLI tests' mixed state.
TAU_PAIR = {TAU: [1.0]}
SEVEN_THREE = {VAC: [0.7], TAU: [0.3]}
MIXED = {VAC: [0.3, 0.2], TAU: [0.5]}

#: Each named state with the last copy count n_copy admits: the copy
#: limit for the tau-pair, the int64 rank guard for the other two.
LAST_ADMITTED = [(TAU_PAIR, COPY_LIMIT), (SEVEN_THREE, 45), (MIXED, 34)]


@st.composite
def small_states(draw, per_sector=4):
    """Up to ``per_sector`` coefficients in each sector, with ties, normalized."""
    weights = st.sampled_from(_TIED_WEIGHTS) | st.floats(0.01, 1.0)
    vac = draw(st.lists(weights, max_size=per_sector))
    tau = draw(st.lists(weights, min_size=0 if vac else 1, max_size=per_sector))
    total = sum(vac) + sum(tau)
    return new_schmidt_state({VAC: [v / total for v in vac], TAU: [v / total for v in tau]})


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
        for sectors, last in LAST_ADMITTED + [({VAC: [1.0]}, COPY_LIMIT)]:
            state = new_schmidt_state(sectors)
            assert n_copy(state, last).total() == pytest.approx(1.0, abs=1e-9)
            reason = "copy limit 66, past which" if last == COPY_LIMIT else "joint rank"
            with pytest.raises(CopyLimitExceeded, match=reason):
                n_copy(state, last + 1)

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
        with pytest.raises(CopyLimitExceeded, match="293930 compositions"):
            n_copy(_ten_coefficient_state(), 12)

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


def _loop_sector_probability(state, n, c):
    """The n-copy sector probability as a loop over m with one path count per step."""
    p_tau = state.p_tau
    p_vac = 1.0 - p_tau
    total = 0.0
    for m in range(n + 1):
        paths = _paths(m, c)
        if not paths:
            continue
        total += math.comb(n, m) * p_tau**m * p_vac ** (n - m) * paths * qdim_float(c) / PHI**m
    return total


class TestPathTable:
    """The copy guard and the closed forms read one exact path table, built at import."""

    def test_no_path_count_is_computed_after_import(self, monkeypatch):
        def refuse(n, c):
            raise AssertionError(f"fusion_space_dim({n}, {c}) called after import")

        monkeypatch.setattr(multicopy, "fusion_space_dim", refuse)
        for sectors, last in LAST_ADMITTED:
            state = new_schmidt_state(sectors)
            _check_copies(state, last)
            for n in range(1, last + 1):
                e_aree_ncopy(state, n)
        assert len(copy_series(tau_line(), COPY_LIMIT).rows) == COPY_LIMIT

    def test_sector_probability_keeps_its_bits(self):
        rng = np.random.default_rng(28)
        states = [tau_line(), new_schmidt_state({VAC: [0.7], TAU: [0.3]})]
        states += [random_schmidt_state(rng, max_rank=3) for _ in range(20)]
        for state in states:
            for n in range(1, 25):
                for c in CHARGE_ORDER:
                    expected = _loop_sector_probability(state, n, c)
                    assert _ncopy_sector_probability(state, n, c) == expected

    def test_closed_form_refuses_counts_past_the_table(self):
        assert e_aree_ncopy(tau_line(), COPY_LIMIT) > 0.0
        with pytest.raises(CopyLimitExceeded, match="exceeds the copy limit 66"):
            e_aree_ncopy(tau_line(), COPY_LIMIT + 1)


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
            constructed = measure_report(n_copy(state, n)).aree
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

    def test_tau_pair_ce_law(self):
        """n CE = sum_c p_c log2 dim(n, c), with p_c = dim(n, c) d_c / phi**n: the
        joint sector c is dim(n, c) equal coefficients.  Exactly 0 at n = 1, 2."""
        for n, _, _, _, ce_pc in copy_series(tau_line(), 66).rows:
            law = sum(
                fusion_space_dim(n, c) * qdim_float(c) / PHI**n * math.log2(fusion_space_dim(n, c))
                for c in CHARGE_ORDER
                if fusion_space_dim(n, c)
            )
            if n <= 2:
                assert (ce_pc, law) == (0.0, 0.0)
            assert abs(n * ce_pc - law) <= 1e-13 * law


#: phi and 1/phi = phi - 1 in Q(sqrt 5): powers of 1/phi expand to a + b sqrt(5),
#: so sympy decides equality of the expanded forms exactly.
_PHI_EXACT = (1 + sp.sqrt(5)) / 2
_PHI_INV_EXACT = (sp.sqrt(5) - 1) / 2
_QDIM_EXACT = {VAC: sp.Integer(1), TAU: _PHI_EXACT}


def _tau_pair_dims(n):
    """dim(n, 1) = F(n - 1) and dim(n, tau) = F(n): sympy's Fibonacci numbers."""
    return {VAC: sp.fibonacci(n - 1), TAU: sp.fibonacci(n)}


class TestTauPairLawExact:
    """The tau-pair's superactivation law, exactly in Q(sqrt 2, sqrt 5), for n <= 12.

    Joint sector c holds dim(n, c) equal coefficients d_c / phi**n, so
    p_c = dim(n, c) d_c / phi**n, n CE = sum_c p_c log2 dim(n, c), and the
    sorted pairing leaves one coefficient of each odd sector unpaired: the
    leftover mass L(n) = sum_{c: dim(n, c) odd} d_c / phi**n sets the CHSH
    deficit, CHSH = 2 sqrt 2 - (2 sqrt 2 - 2) L(n).
    """

    def test_inverse_of_phi(self):
        assert sp.expand(_PHI_EXACT * _PHI_INV_EXACT) == 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sector_probabilities_sum_to_one(self, n):
        dims = _tau_pair_dims(n)
        joint = n_copy(tau_line(), n)
        probabilities = {c: sp.expand(dims[c] * _QDIM_EXACT[c] * _PHI_INV_EXACT**n) for c in dims}
        assert sp.expand(sum(probabilities.values())) == 1
        for c, dim in dims.items():
            assert dim == fusion_space_dim(n, c)
            assert joint.rank(c) == dim
            assert abs(joint.sector_probability(c) - float(probabilities[c])) <= 1e-15

    @pytest.mark.parametrize("n", range(1, 13))
    def test_ce_law_to_40_digits(self, n):
        _, _, _, _, ce_pc = copy_series(tau_line(), 12).rows[n - 1]
        dims = _tau_pair_dims(n)
        law = sum(
            dim * _QDIM_EXACT[c] * _PHI_INV_EXACT**n * sp.log(dim, 2)
            for c, dim in dims.items()
            if dim
        )
        if n <= 2:
            assert (ce_pc, law) == (0.0, 0)
        else:
            reference = sp.N(law, 40)
            assert abs(sp.Float(n * ce_pc, 40) - reference) <= 1e-14 * reference

    @pytest.mark.parametrize("n", range(1, 13))
    def test_odd_leftover_mass_is_a_power_of_phi(self, n):
        dims = _tau_pair_dims(n)
        leftover = sum(_QDIM_EXACT[c] * _PHI_INV_EXACT**n for c, dim in dims.items() if dim % 2)
        assert sp.expand(leftover) == sp.expand(_PHI_INV_EXACT ** (3 * (n // 3)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_chsh_law_matches_the_optimum(self, n):
        leftover = _PHI_INV_EXACT ** (3 * (n // 3))
        law = 2 * sp.sqrt(2) - (2 * sp.sqrt(2) - 2) * leftover
        assert abs(optimize_chsh(tau_line(), n).value - float(sp.N(law, 40))) <= 1e-15


class TestAdditivity:
    def test_three_copies_of_tau_line(self):
        joint = measure_report(n_copy(tau_line(), 3))
        assert abs(joint.aee - 3 * measure_report(tau_line()).aee) <= 1e-9

    def test_single_copy_trivial(self):
        state = new_schmidt_state({VAC: [0.2, 0.1], TAU: [0.7]})
        assert measure_report(n_copy(state, 1)).aee - measure_report(state).aee == 0.0

    def test_mixed_sector_state(self):
        state = new_schmidt_state({VAC: [0.5], TAU: [0.5]})
        assert abs(measure_report(n_copy(state, 4)).aee - 4 * measure_report(state).aee) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_random_states(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(5):
            state = random_schmidt_state(rng)
            joint = measure_report(n_copy(state, n))
            assert abs(joint.aee - n * measure_report(state).aee) <= 1e-9


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
        single = measure_report(state).aee
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
        with pytest.raises(CopyLimitExceeded, match="copy limit 66"):
            copy_series(tau_line(), COPY_LIMIT + 1)


def mp_series_rows(state, n_max):
    """Rows n, AEE/n, AREE/n, ACE/n, CE/n of the n-copy series at 50 digits.

    Built from exact compositions: Python-int multiplicities, and mpf
    coefficients from the state's canonical floats, normalised in mpf.
    Each group of the joint state enters the entropies on its own, so no
    coefficients are merged.  A sector holding a single coefficient gives
    CE exactly 0: its probability is that coefficient, bit for bit.
    """
    with mpmath.workdps(50):
        letters = [
            (c, mpmath.mpf(float(v)), int(m))
            for c in state.charges
            for v, m in zip(*state.grouped(c))
        ]
        norm = mpmath.fsum(v * m for _, v, m in letters)
        letters = [(c, v / norm, m) for c, v, m in letters]
        phi = (1 + mpmath.sqrt(5)) / 2
        log_phi = mpmath.log(phi, 2)
        qdim = {VAC: mpmath.mpf(1), TAU: phi}
        rows = []
        for n in range(1, n_max + 1):
            groups = {c: [] for c in CHARGE_ORDER}
            for counts in _compositions(n, len(letters)):
                ways = _multinomial(n, counts)
                base, m_tau = mpmath.mpf(1), 0
                for (c, value, mult), k in zip(letters, counts):
                    ways *= mult**k
                    base *= value**k
                    m_tau += k if c is TAU else 0
                for c in CHARGE_ORDER:
                    paths = _paths(m_tau, c)
                    if paths:
                        groups[c].append((base * qdim[c] / phi**m_tau, ways * paths))
            probs = {c: mpmath.fsum(v * m for v, m in g) for c, g in groups.items() if g}
            h, ce = mpmath.mpf(0), mpmath.mpf(0)
            for c, g in groups.items():
                for v, m in g:
                    h -= m * v * mpmath.log(v, 2)
                    ce -= m * v * mpmath.log(v / probs[c], 2)
            h_sectors = -mpmath.fsum(p * mpmath.log(p, 2) for p in probs.values())
            p_tau = probs.get(TAU, 0)
            measures = (
                h + p_tau * log_phi,
                h + 2 * p_tau * log_phi,
                h_sectors + 2 * p_tau * log_phi,
                ce,
            )
            rows.append((n, *(value / n for value in measures)))
        return rows


class TestSeriesPrecision:
    """Every series row against a 50-digit reference, up to the last admitted count."""

    @pytest.mark.parametrize("sectors, n_max", LAST_ADMITTED)
    def test_rows_within_1e13_relative(self, sectors, n_max):
        state = new_schmidt_state(sectors)
        rows = copy_series(state, n_max).rows
        for row, reference in zip(rows, mp_series_rows(state, n_max), strict=True):
            assert row[0] == reference[0]
            for value, exact in zip(row[1:], reference[1:]):
                if exact == 0:
                    assert value == 0.0
                else:
                    assert abs(value - exact) <= 1e-13 * abs(exact), (row, reference)


#: Bound on each single-state measure against the 50-digit reference: 1e-13
#: relative, with a 1e-15 absolute floor.  Near a pure state the reference,
#: renormalised in mpf, and the float route part by up to 3e-3 relative on
#: values near 1e-15, but never by more than 3e-16 absolute.
_MEASURE_RELATIVE, _MEASURE_FLOOR = 1e-13, 1e-15

#: Near-pure layouts: the second coefficient is 10**-e.
_NEAR_PURE = [
    lambda t: {VAC: [1.0 - t, t]},
    lambda t: {TAU: [1.0 - t, t]},
    lambda t: {VAC: [1.0 - t], TAU: [t]},
    lambda t: {VAC: [t], TAU: [1.0 - t]},
]


def assert_measures_match_reference(state):
    """``measure_report`` within the bound of the reference's n = 1 row, and an
    exact +0.0 where one sector makes ACE (vacuum only) or CE (rank 1) zero."""
    report = measure_report(state)
    values = (report.aee, report.aree, report.ace, report.ce)
    for value, exact in zip(values, mp_series_rows(state, 1)[0][1:], strict=True):
        assert abs(value - exact) <= _MEASURE_RELATIVE * abs(exact) + _MEASURE_FLOOR, (
            state,
            values,
        )
    zeros = [report.ace] if state.charges == (VAC,) else []
    zeros += [report.ce] if state.max_rank == 1 else []
    for value in zeros:
        assert value == 0.0 and math.copysign(1.0, value) == 1.0, (state, values)


class TestMeasurePrecision:
    """Every closed-form measure of one state against the 50-digit reference."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(state=small_states())
    def test_drawn_states(self, state):
        assert_measures_match_reference(state)

    @pytest.mark.parametrize("e", [1, 3, 6, 9, 12, 16])
    @pytest.mark.parametrize("layout", _NEAR_PURE)
    def test_near_pure_states(self, layout, e):
        assert_measures_match_reference(new_schmidt_state(layout(10.0**-e)))


class TestKernelBits:
    """The in-place kernel against the fresh-array gather kernel, bit for bit."""

    @pytest.mark.parametrize("sectors, n_max", LAST_ADMITTED)
    def test_named_states(self, sectors, n_max):
        state = new_schmidt_state(sectors)
        for n in range(2, n_max + 1):
            assert_same_groups(n_copy(state, n), gather_n_copy(state, n))

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(state=small_states())
    def test_drawn_states(self, state):
        for n in range(2, 9):
            if within_budget(state, n):
                assert_same_groups(n_copy(state, n), gather_n_copy(state, n))

    def test_vacuum_only_state(self):
        state = new_schmidt_state({VAC: [0.5, 0.3, 0.2]})
        for n in range(2, 9):
            joint = n_copy(state, n)
            assert joint.charges == (VAC,)
            assert_same_groups(joint, gather_n_copy(state, n))


def _ten_coefficient_state():
    values = np.random.default_rng(0).dirichlet(np.full(10, 2.0))
    return new_schmidt_state({VAC: list(values[:5]), TAU: list(values[5:])})


def _group_bytes(state):
    return sum(array.nbytes for c in state.charges for array in state.grouped(c))


def _traced_peak(build):
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    """Peak traced memory stays within a small multiple of the joint state built."""

    def test_n_copy_peak(self):
        joint, peak = _traced_peak(lambda: n_copy(_ten_coefficient_state(), 8))
        assert peak <= 3 * _group_bytes(joint)

    def test_copy_series_peak(self):
        state = _ten_coefficient_state()
        _, peak = _traced_peak(lambda: copy_series(state, 8))
        assert peak <= 3 * _group_bytes(n_copy(state, 8))


def _spectrum(state):
    return np.sort(np.concatenate([state.coefficients(c) for c in state.charges]))


class TestCopyAssociativity:
    """b copies of an a-copy joint state are the ab-copy joint state: fusion is associative.

    Only bit-equal coefficients are merged, so the two routes group equal
    values differently; the spectra and the measures are compared, never
    the groups.
    """

    FACTORS = ((2, 2), (2, 3), (3, 2), (2, 4))

    def check(self, state):
        for a, b in self.FACTORS:
            inner = n_copy(state, a)
            if not (within_budget(inner, b) and within_budget(state, a * b)):
                continue
            nested, direct = n_copy(inner, b), n_copy(state, a * b)
            assert nested.ranks == direct.ranks
            np.testing.assert_allclose(_spectrum(nested), _spectrum(direct), rtol=1e-14, atol=0)
            nested_report, direct_report = measure_report(nested), measure_report(direct)
            for field in ("aee", "aree", "ace", "ce"):
                assert abs(getattr(nested_report, field) - getattr(direct_report, field)) <= 1e-13

    @pytest.mark.parametrize("sectors", [TAU_PAIR, SEVEN_THREE, MIXED])
    def test_named_states(self, sectors):
        self.check(new_schmidt_state(sectors))

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(state=small_states(per_sector=2))
    def test_drawn_states(self, state):
        self.check(state)
