import math

import pytest
from hypothesis import given, strategies as st

from stiefel.coefficients import (Bidegree, CoeffRing, FieldProfile, MCoefficient,
                                  binom_mod, is_prime)
from stiefel.errors import ContextMismatch, InvalidPresentation

Z = CoeffRing()
Z2 = CoeffRing(2)
PLAIN = FieldProfile()
SQUARE = FieldProfile(minus_one_is_square=True)


def mc(ring, profile, *terms):
    return MCoefficient(ring, profile, tuple(terms))


class TestCoeffRing:
    def test_names(self):
        assert Z.name == "Z"
        assert CoeffRing(6).name == "Z/6"

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            CoeffRing(1)
        with pytest.raises(ValueError):
            CoeffRing(-2)

    def test_mod_two_reduction(self):
        assert Z.reduce_mod_two(5) == 1
        assert CoeffRing(4).reduce_mod_two(2) == 0
        # 2 is invertible in Z/3, so R/2R vanishes
        assert CoeffRing(3).reduce_mod_two(1) == 0


class TestMCoefficient:
    def test_minus_one_is_two_torsion(self):
        x = MCoefficient.minus_one(Z, PLAIN)
        assert not (x + x)

    def test_additive_identity(self):
        x = mc(Z, PLAIN, (0, 3), (1, 1))
        assert MCoefficient.zero(Z, PLAIN) + x == x

    def test_componentwise_sum(self):
        x = mc(Z, PLAIN, (0, 3), (1, 1))
        y = MCoefficient.integer(Z, PLAIN, 1)
        assert x + y == mc(Z, PLAIN, (0, 4), (1, 1))

    def test_powers_multiply(self):
        m1 = MCoefficient.minus_one(Z, PLAIN)
        assert m1 * m1 == MCoefficient.minus_one(Z, PLAIN, power=2)

    def test_two_times_minus_one(self):
        assert not MCoefficient.minus_one(Z, PLAIN) * 2

    def test_square_profile_kills_positive_powers(self):
        assert not MCoefficient.minus_one(Z, SQUARE)
        assert not MCoefficient.minus_one(Z, SQUARE) * MCoefficient.one(Z, SQUARE)
        # the k = 0 part survives
        assert MCoefficient.integer(Z, SQUARE, 5).coefficient(0) == 5

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            MCoefficient.one(Z, PLAIN) + MCoefficient.one(Z2, PLAIN)
        with pytest.raises(ContextMismatch):
            MCoefficient.one(Z, PLAIN) * MCoefficient.one(Z, SQUARE)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            mc(Z, PLAIN, (-1, 1))

    def test_normalization_merges_and_drops(self):
        x = mc(Z, PLAIN, (1, 1), (1, 1), (0, 0))
        assert x.terms == ()
        y = mc(CoeffRing(4), PLAIN, (0, 7), (2, 3))
        assert y.terms == ((0, 3), (2, 1))

    def test_shift(self):
        x = mc(Z, PLAIN, (0, 3))
        assert x.shift(2) == mc(Z, PLAIN, (2, 3))  # 3 {-1}^2 = {-1}^2 mod 2

    def test_doubling_leaves_only_degree_zero(self):
        x = mc(Z, PLAIN, (0, 5), (1, 1), (3, 1))
        assert (x + x).terms == ((0, 10),)


class TestFieldProfile:
    def test_characteristic_zero_or_prime(self):
        for char in (None, 0, 2, 3, 101):
            assert FieldProfile(characteristic=char).characteristic == char

    @pytest.mark.parametrize("char", [1, 4, 9, -5])
    def test_other_characteristics_rejected(self, char):
        with pytest.raises(InvalidPresentation):
            FieldProfile(characteristic=char)


class TestBidegree:
    def test_addition(self):
        assert Bidegree(1, 1) + Bidegree(3, 2) == Bidegree(4, 3)
        assert Bidegree(2, 1) + (0, 0) == Bidegree(2, 1)


class TestBinomMod:
    def test_spec_values(self):
        assert binom_mod(6, 2, 2) == 1  # C(6,2) = 15 is odd
        assert binom_mod(2, 1, 2) == 0  # C(2,1) = 2
        for a in (0, 1, 7, 200):
            assert binom_mod(a, 0, 5) == 1

    def test_zero_above_diagonal(self):
        assert binom_mod(3, 5, 3) == 0

    def test_not_prime(self):
        with pytest.raises(ValueError):
            binom_mod(4, 2, 4)
        with pytest.raises(ValueError):
            binom_mod(4, 2, 1)

    def test_negative_arguments(self):
        with pytest.raises(ValueError):
            binom_mod(-1, 0, 2)

    @given(st.integers(0, 400), st.integers(0, 400), st.sampled_from([2, 3, 5, 7, 11]))
    def test_against_factorials(self, a, b, p):
        assert binom_mod(a, b, p) == math.comb(a, b) % p


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
