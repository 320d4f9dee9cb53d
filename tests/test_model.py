"""Model data: fusion rules, exact quantum dimensions, fusion-space counts."""

import itertools
import math
from fractions import Fraction

import pytest

from fibanyon.model import (
    CHARGE_ORDER,
    PHI,
    PHI_EXACT,
    Charge,
    QSqrt5,
    fuse,
    fusion_space_dim,
    qdim,
    qdim_float,
)
from fibanyon.verify import _brute_force_paths, _total_dimension


class TestFusion:
    def test_tau_tau(self):
        assert fuse(Charge.TAU, Charge.TAU) == {Charge.VACUUM, Charge.TAU}

    def test_vacuum_tau(self):
        assert fuse(Charge.VACUUM, Charge.TAU) == {Charge.TAU}
        assert fuse(Charge.TAU, Charge.VACUUM) == {Charge.TAU}

    def test_vacuum_vacuum(self):
        assert fuse(Charge.VACUUM, Charge.VACUUM) == {Charge.VACUUM}


class TestQuantumDimensions:
    def test_exact_values(self):
        assert qdim(Charge.VACUUM) == QSqrt5.from_int(1)
        assert qdim(Charge.TAU) == QSqrt5(Fraction(1, 2), Fraction(1, 2))

    def test_golden_identity_exact(self):
        phi = qdim(Charge.TAU)
        assert phi * phi - phi - 1 == QSqrt5.from_int(0)

    def test_float_values(self):
        assert qdim_float(Charge.TAU) == pytest.approx(1.6180339887, abs=1e-9)
        assert qdim_float(Charge.VACUUM) == 1.0
        assert PHI == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-15)

    def test_exact_powers(self):
        assert PHI_EXACT**5 == PHI_EXACT * PHI_EXACT * PHI_EXACT * PHI_EXACT * PHI_EXACT
        assert float(PHI_EXACT**3) == pytest.approx(PHI**3, rel=1e-14)

    def test_arithmetic(self):
        x = QSqrt5(Fraction(1, 3), Fraction(-2, 7))
        y = QSqrt5(Fraction(2), Fraction(1, 2))
        assert (x + y) - y == x
        assert x * y == y * x
        assert float(x * y) == pytest.approx(float(x) * float(y), rel=1e-14)


class TestFusionSpaceDim:
    def test_known_counts(self):
        assert fusion_space_dim(2, Charge.VACUUM) == 1
        assert fusion_space_dim(3, Charge.TAU) == 2
        assert fusion_space_dim(4, Charge.VACUUM) == 2

    def test_single_anyon(self):
        assert fusion_space_dim(1, Charge.TAU) == 1
        assert fusion_space_dim(1, Charge.VACUUM) == 0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            fusion_space_dim(0, Charge.TAU)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_path_enumeration_matches_exhaustive_filter(self, n):
        """Every charge sequence of length n, kept when each step is a fusion
        outcome: the exhaustive reference for the level-by-level enumeration."""
        with_tau = {c: fuse(c, Charge.TAU) for c in CHARGE_ORDER}
        counts = dict.fromkeys(CHARGE_ORDER, 0)
        for inner in itertools.product(CHARGE_ORDER, repeat=n - 1):
            charges = (Charge.TAU,) + inner
            if all(charges[i + 1] in with_tau[charges[i]] for i in range(n - 1)):
                counts[charges[-1]] += 1
        assert _brute_force_paths(n) == counts

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_brute_force(self, n):
        paths = _brute_force_paths(n)
        assert set(paths) == set(CHARGE_ORDER)
        for c in CHARGE_ORDER:
            assert fusion_space_dim(n, c) == paths[c]

    @pytest.mark.parametrize("n", range(1, 21))
    def test_total_dimension_identity_exact(self, n):
        assert _total_dimension(n) == PHI_EXACT**n

    @pytest.mark.parametrize("n", range(1, 13))
    def test_fibonacci_recurrence(self, n):
        assert fusion_space_dim(n + 1, Charge.VACUUM) == fusion_space_dim(n, Charge.TAU)
        assert fusion_space_dim(n + 1, Charge.TAU) == (
            fusion_space_dim(n, Charge.VACUUM) + fusion_space_dim(n, Charge.TAU)
        )

