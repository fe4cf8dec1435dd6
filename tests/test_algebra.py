import itertools
import random
from collections import Counter

import pytest

from stiefel.algebra import (Element, StiefelPresentation, _normal_word, all_monomials,
                             basis_element, basis_in_bidegree, monomial_bidegree,
                             poincare_polynomial, random_element)
from stiefel.coefficients import Bidegree, CoeffRing, FieldProfile, MCoefficient
from stiefel.errors import ContextMismatch, InvalidGenerator, InvalidPresentation
from stiefel.suites import rewrite_outcomes

Z = CoeffRing()
PLAIN = FieldProfile()


def gl(n, ring=Z, profile=PLAIN):
    return StiefelPresentation(n, n, ring, profile)


class TestPresentation:
    def test_w31_single_generator(self):
        pres = StiefelPresentation(3, 1)
        assert list(pres.generators) == [3]
        assert pres.gen_square(3) == pres.zero()

    def test_gl3_relations(self):
        pres = gl(3)
        assert list(pres.generators) == [1, 2, 3]
        assert pres.gen_square(1) == pres.minus_one() * pres.gen(1)
        assert pres.gen_square(2) == pres.minus_one() * pres.gen(3)
        assert pres.gen_square(3) == pres.zero()

    def test_trivial_ring(self):
        pres = StiefelPresentation(4, 0)
        assert list(pres.generators) == []
        assert pres.unit() * pres.unit() == pres.unit()

    def test_invalid_parameters(self):
        with pytest.raises(InvalidPresentation):
            StiefelPresentation(2, 5)
        with pytest.raises(InvalidPresentation):
            StiefelPresentation(0, 0)
        with pytest.raises(InvalidPresentation):
            StiefelPresentation(3, -1)

    def test_invalid_generator(self):
        with pytest.raises(InvalidGenerator):
            StiefelPresentation(4, 2).gen(1)  # generators are 3, 4


class TestBidegrees:
    def test_single_generator(self):
        assert monomial_bidegree((3,)) == Bidegree(5, 3)

    def test_unit(self):
        assert monomial_bidegree(()) == Bidegree(0, 0)

    def test_product(self):
        assert monomial_bidegree((2, 3)) == Bidegree(8, 5)


class TestMultiply:
    def test_square_in_range(self):
        pres = gl(3)
        assert pres.gen(2) * pres.gen(2) == pres.minus_one() * pres.gen(3)

    def test_square_out_of_range(self):
        pres = gl(3)
        assert not pres.gen(3) * pres.gen(3)

    def test_iterated_rewrite(self):
        # (r2 r3) r2 = {-1}^2 r5 in GL(5): one sign move and two contractions
        pres = gl(5)
        got = pres.monomial((2, 3)) * pres.gen(2)
        assert got == pres.minus_one(2) * pres.gen(5)
        assert got == next(iter(rewrite_outcomes(pres, (2, 3, 2))))

    def test_anticommutativity_of_generators(self):
        pres = gl(4)
        assert pres.gen(3) * pres.gen(2) == -(pres.gen(2) * pres.gen(3))

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            gl(3).gen(2) * gl(4).gen(2)

    def test_scaling(self):
        pres = gl(3)
        assert 2 * pres.gen(2) == pres.gen(2) + pres.gen(2)
        assert pres.gen(2) * 0 == pres.zero()

    def test_unit_is_identity(self):
        pres = gl(4)
        x = random_element(pres, None, seed=5)
        assert pres.unit() * x == x

    def test_triple_power(self):
        # r1^3 = {-1}^2 r1 in GL(3)
        pres = gl(3)
        assert pres.gen(1) * pres.gen(1) * pres.gen(1) == pres.minus_one(2) * pres.gen(1)

    def test_minus_one_is_central(self):
        # {-1} has odd degree (1,1) but the graded sign acts trivially on it,
        # since 2 {-1} = 0; recorded as a tested invariant
        for n in range(1, 6):
            pres = gl(n)
            m1 = pres.minus_one()
            for seed in range(5):
                x = random_element(pres, None, seed=seed)
                assert m1 * x == x * m1


class TestNormalForm:
    def test_terms_sorted_and_merged(self):
        pres = gl(3)
        x = Element(pres, (((2,), MCoefficient.one(Z, PLAIN)),
                           ((1,), MCoefficient.one(Z, PLAIN)),
                           ((2,), MCoefficient.one(Z, PLAIN))))
        assert x.terms == (((1,), MCoefficient.one(Z, PLAIN)),
                           ((2,), MCoefficient.integer(Z, PLAIN, 2)))

    def test_rejects_unsorted_monomial(self):
        with pytest.raises(ValueError):
            Element(gl(3), (((2, 1), MCoefficient.one(Z, PLAIN)),))

    def test_rejects_repeated_index(self):
        with pytest.raises(ValueError):
            Element(gl(3), (((2, 2), MCoefficient.one(Z, PLAIN)),))

    def test_homogeneity(self):
        pres = gl(3)
        x = pres.gen(2) + pres.minus_one() * pres.gen(1)
        assert x.bidegrees() == {Bidegree(3, 2), Bidegree(2, 2)}
        assert not x.is_homogeneous()
        assert x.homogeneous_part((3, 2)) == pres.gen(2)


class TestBasis:
    def test_gl2_examples(self):
        pres = gl(2)
        assert basis_in_bidegree(pres, (3, 2)) == [((2,), 0)]
        assert basis_in_bidegree(pres, (4, 3)) == [((1, 2), 0), ((2,), 1)]
        assert basis_in_bidegree(pres, (5, -1)) == []

    def test_exhaustive_cross_check(self):
        # independent enumeration: solve for k from both coordinates
        pres = StiefelPresentation(5, 3)
        for p in range(0, 18):
            for q in range(0, 12):
                expected = []
                for mono in all_monomials(pres):
                    base = monomial_bidegree(mono)
                    k = p - base.p
                    if k >= 0 and q - base.q == k:
                        expected.append((mono, k))
                got = basis_in_bidegree(pres, (p, q))
                assert sorted(got) == sorted(expected)

    def test_no_torsion_lines_when_minus_one_square(self):
        pres = gl(2, profile=FieldProfile(minus_one_is_square=True))
        assert basis_in_bidegree(pres, (4, 3)) == [((1, 2), 0)]

    def test_no_torsion_lines_over_odd_modulus(self):
        pres = gl(2, ring=CoeffRing(3))
        assert basis_in_bidegree(pres, (4, 3)) == [((1, 2), 0)]

    def test_basis_element(self):
        pres = gl(2)
        assert basis_element(pres, (2,), 1) == pres.minus_one() * pres.gen(2)


class TestPoincare:
    def test_w_n1(self):
        for n in (1, 3, 7):
            pres = StiefelPresentation(n, 1)
            assert poincare_polynomial(pres) == {Bidegree(0, 0): 1,
                                                 Bidegree(2 * n - 1, n): 1}

    def test_gl2(self):
        assert poincare_polynomial(gl(2)) == {
            Bidegree(0, 0): 1, Bidegree(1, 1): 1, Bidegree(3, 2): 1, Bidegree(4, 3): 1}

    def test_trivial(self):
        assert poincare_polynomial(StiefelPresentation(5, 0)) == {Bidegree(0, 0): 1}

    def test_matches_histogram(self):
        for n in range(1, 7):
            for m in range(0, n + 1):
                pres = StiefelPresentation(n, m)
                histogram = Counter(monomial_bidegree(w) for w in all_monomials(pres))
                assert dict(histogram) == poincare_polynomial(pres)


class TestRandomElement:
    def test_deterministic(self):
        pres = gl(3)
        assert random_element(pres, None, seed=0) == random_element(pres, None, seed=0)
        assert random_element(pres, (3, 2), seed=1) == random_element(pres, (3, 2), seed=1)

    def test_homogeneous_support(self):
        pres = gl(3)
        lines = set(basis_in_bidegree(pres, (4, 3)))
        x = random_element(pres, (4, 3), seed=1)
        for mono, c in x.terms:
            for k, _ in c.terms:
                assert (mono, k) in lines

    def test_trivial_ring(self):
        pres = StiefelPresentation(4, 0)
        for seed in range(5):
            x = random_element(pres, None, seed=seed)
            assert all(mono == () for mono, _ in x.terms)


class TestRewriteOracle:
    def test_confluence_on_small_words(self):
        pres = gl(4)
        for word in itertools.product(pres.generators, repeat=3):
            outcomes = rewrite_outcomes(pres, word)
            assert len(outcomes) == 1
            product = pres.unit()
            for i in word:
                product = product * pres.gen(i)
            assert next(iter(outcomes)) == product


# Reference normal form for the bitmask kernel: sort the concatenated word
# by adjacent swaps, then contract the smallest repeated index and re-sort,
# on plain lists.  It shares no code with algebra._normal_word.

def _sorted_with_sign(word):
    w = list(word)
    sign = 1
    for i in range(1, len(w)):
        j = i
        while j and w[j - 1] > w[j]:
            w[j - 1], w[j] = w[j], w[j - 1]
            sign = -sign
            j -= 1
    return w, sign


def _reference_normal_word(n, word):
    """(monomial, sign, twist) with word = sign {-1}^twist monomial, or None."""
    w, sign = _sorted_with_sign(word)
    twist = 0
    while True:
        dup = next((t for t in range(len(w) - 1) if w[t] == w[t + 1]), None)
        if dup is None:
            return tuple(w), sign, twist
        i = w[dup]
        if 2 * i - 1 > n:
            return None
        w[dup:dup + 2] = [2 * i - 1]
        twist += 1
        w, s = _sorted_with_sign(w)
        sign *= s


def _bits(mono):
    return sum(1 << i for i in mono)


def _reference_product(x, y):
    """x * y term by term, through the reference and MCoefficient arithmetic."""
    pres = x.pres
    terms = []
    for m1, c1 in x.terms:
        for m2, c2 in y.terms:
            nf = _reference_normal_word(pres.n, m1 + m2)
            if nf is None:
                continue
            mono, sign, twist = nf
            c = c1 * c2
            terms.append((mono, (c if sign > 0 else -c).shift(twist)))
    return Element(pres, tuple(terms))


def _dense_element(pres, rng):
    terms = []
    for mono in all_monomials(pres):
        if rng.random() < 0.6:
            c = MCoefficient(pres.ring, pres.profile,
                             ((0, rng.randint(-5, 5)), (1, rng.randint(0, 1)),
                              (2, rng.randint(0, 1))))
            terms.append((mono, c))
    return Element(pres, tuple(terms))


class TestBitmaskKernel:
    def test_every_monomial_pair_up_to_gl8(self):
        for n in range(1, 9):
            monos = all_monomials(gl(n))
            for m1 in monos:
                for m2 in monos:
                    expected = _reference_normal_word(n, m1 + m2)
                    got = _normal_word(n, _bits(m1), _bits(m2))
                    if expected is None:
                        assert got is None, (n, m1, m2)
                        continue
                    mono, sign, twist = expected
                    assert got is not None, (n, m1, m2)
                    assert (got[0], got[2]) == (_bits(mono), twist), (n, m1, m2)
                    # a contraction leaves {-1}^twist with twist >= 1, whose
                    # coefficients lie in R/2R where -1 = 1: the sign only
                    # matters, and is only compared, when twist = 0
                    if twist == 0:
                        assert got[1] == sign, (n, m1, m2)

    def test_rho1_square(self):
        # rho_1^2 = {-1} rho_1
        assert _normal_word(3, _bits((1,)), _bits((1,))) == (_bits((1,)), 1, 1)
        assert _normal_word(3, _bits((1, 2)), _bits((1,))) == (_bits((1, 2)), 1, 1)

    def test_triple_copy(self):
        # (r2 r3)(r2 r3): r2^2 = {-1} r3 lands on two copies of r3, one
        # pair of which contracts to {-1} r5
        assert _normal_word(5, _bits((2, 3)), _bits((2, 3))) == (_bits((3, 5)), 1, 2)
        assert _normal_word(4, _bits((2, 3)), _bits((2, 3))) is None

    def test_chained_contraction(self):
        # r2 * (r2 r3): r2^2 = {-1} r3 meets the single r3, then r3^2 = {-1} r5
        assert _normal_word(5, _bits((2,)), _bits((2, 3))) == (_bits((5,)), 1, 2)

    def test_disjoint_sign(self):
        assert _normal_word(4, _bits((3,)), _bits((2,))) == (_bits((2, 3)), -1, 0)
        assert _normal_word(4, _bits((3, 4)), _bits((1, 2))) == (_bits((1, 2, 3, 4)), 1, 0)

    @pytest.mark.parametrize("ring,profile", [
        (Z, PLAIN), (CoeffRing(3), PLAIN), (CoeffRing(4), PLAIN),
        (Z, FieldProfile(minus_one_is_square=True))])
    def test_dense_products_match_reference(self, ring, profile):
        rng = random.Random(20260)
        for n, m in ((6, 6), (7, 5), (8, 4)):
            pres = StiefelPresentation(n, m, ring, profile)
            for _ in range(3):
                x, y = _dense_element(pres, rng), _dense_element(pres, rng)
                assert x * y == _reference_product(x, y)
