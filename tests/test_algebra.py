import itertools
import random
import sys
import time
import tracemalloc
from collections import Counter

import pytest

from stiefel.algebra import (Element, StiefelPresentation, _mask, _monomial, _normal_word,
                             _shapes, all_monomials, basis_element, basis_in_bidegree,
                             monomial_bidegree, piece_size, poincare_polynomial,
                             random_element, table_product)
from stiefel.coefficients import (Bidegree, CoeffRing, FieldProfile, MCoefficient, pack,
                                  twisted_modulus, unpack)
from stiefel.errors import ContextMismatch, InvalidGenerator, InvalidPresentation
from stiefel.maps import apply_map, immersion_pullback
from stiefel.operations import apply_operation, power, square
from stiefel.suites import rewrite_outcomes
from stiefel.targets import PGmPresentation

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

    def test_construction_builds_nothing_n_bits_wide(self):
        # a ring on two generators is small whatever n is: nothing n bits
        # wide (such as the codec's zero mask) is built before a product
        tracemalloc.start()
        try:
            StiefelPresentation(10**9, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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
        # element and monomial take keys from the caller and validate them
        pres = gl(3)
        cases = [
            (lambda: pres.element((3, 2)), ValueError,
             "monomial indices must be strictly increasing, got (3, 2)"),
            (lambda: pres.element((4,)), InvalidGenerator, "rho_4 is not a generator of W(3,3)"),
            (lambda: pres.monomial((2, 2)), ValueError,
             "monomial indices must be strictly increasing, got (2, 2)"),
            (lambda: pres.monomial((0, 1)), InvalidGenerator,
             "rho_0 is not a generator of W(3,3)"),
        ]
        for call, error, message in cases:
            with pytest.raises(error) as caught:
                call()
            assert type(caught.value) is error
            assert str(caught.value) == message


class TestBidegrees:
    def test_single_generator(self):
        assert monomial_bidegree((3,)) == Bidegree(5, 3)

    def test_unit(self):
        assert monomial_bidegree(()) == Bidegree(0, 0)

    def test_product(self):
        assert monomial_bidegree((2, 3)) == Bidegree(8, 5)

    @pytest.mark.parametrize("pres", [gl(7), gl(6, CoeffRing(4)), StiefelPresentation(9, 5),
                                      PGmPresentation(6), PGmPresentation(5, CoeffRing(2))])
    def test_element_bidegrees_per_key_and_power(self, pres):
        for seed in range(40):
            x = random_element(pres, seed=seed)
            expected = {pres.key_bidegree(key) + (k, k)
                        for key, c in x.terms for k, _ in c.terms}
            got = x.bidegrees()
            assert got == expected
            assert all(type(bd) is Bidegree for bd in got)


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
        for other in (gl(4), gl(3, CoeffRing(2))):
            x, y = gl(3).gen(2), other.gen(2)
            for combine in (lambda: x + y, lambda: x - y, lambda: x * y):
                with pytest.raises(ContextMismatch) as caught:
                    combine()
                assert str(caught.value) == (
                    f"elements live in different rings: {gl(3)!r} vs {other!r}")

    def test_coefficient_from_another_context(self):
        for other in (MCoefficient.one(CoeffRing(2), PLAIN),
                      MCoefficient.one(Z, FieldProfile(minus_one_is_square=True))):
            with pytest.raises(ContextMismatch) as caught:
                gl(3).scalar(other)
            assert str(caught.value) == "scalar coefficient from a different context"
            with pytest.raises(ContextMismatch) as caught:
                Element(gl(3), (((2,), other),))
            assert str(caught.value) == "coefficient from a different context"
            x = gl(3).gen(2) + gl(3).gen(3)
            for scale in (lambda: x.scale(other), lambda: x * other, lambda: other * x):
                with pytest.raises(ContextMismatch) as caught:
                    scale()
                assert str(caught.value) == ("coefficients from different contexts: "
                                             f"Z/{PLAIN} vs {other.ring.name}/{other.profile}")

    def test_scaling(self):
        pres = gl(3)
        assert 2 * pres.gen(2) == pres.gen(2) + pres.gen(2)
        assert pres.gen(2) * 0 == pres.zero()
        for pres in (gl(3), gl(3, CoeffRing(3)), gl(3, Z, FieldProfile(minus_one_is_square=True))):
            assert pres.scalar(MCoefficient.zero(pres.ring, pres.profile)) == pres.zero()
            assert not pres.scalar(MCoefficient.zero(pres.ring, pres.profile)).terms
            assert not pres.unit(0).terms
            assert bool(pres.minus_one().terms) == (twisted_modulus(pres.ring, pres.profile) > 1)

    def test_float_factor_is_a_type_error(self):
        with pytest.raises(TypeError):
            gl(3).gen(2) * 1.5

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


# Reference for the subset-sum enumerator: filter every monomial of
# all_monomials, as a brute-force walk would.  The monomials are bucketed by
# bidegree once per presentation, and every line {-1}^k mono is filed under
# bidegree(mono) + (k, k); the enumerator's (2S - L + k, S + k) rule and its
# pruning play no part here.

def _reference_pieces(pres, max_q):
    """Map each bidegree of weight at most max_q to its sorted basis lines."""
    torsion = pres.ring.modulus % 2 == 0 and not pres.profile.minus_one_is_square
    buckets = {}
    for mono in all_monomials(pres):
        buckets.setdefault(monomial_bidegree(mono), []).append(mono)
    pieces = {}
    for base, monos in buckets.items():
        for k in range(max_q - base.q + 1 if torsion else 1):
            pieces.setdefault(base + (k, k), []).extend((mono, k) for mono in monos)
    for lines in pieces.values():
        lines.sort(key=lambda line: (line[1], line[0]))
    return pieces


def _assert_every_piece_matches(pres):
    # every bidegree of weight -2 .. top + 2 with q - m - 3 <= p <= 2q + 3,
    # which frames every nonempty piece with empty ones on each side
    max_q = sum(pres.generators) + 2
    pieces = _reference_pieces(pres, max_q)
    checked = set()
    for q in range(-2, max_q + 1):
        for p in range(q - pres.m - 3, 2 * q + 4):
            assert basis_in_bidegree(pres, (p, q)) == pieces.get((p, q), []), (pres, p, q)
            checked.add((p, q))
    assert set(pieces) <= checked


class TestEnumeratorAgainstFilter:
    @pytest.mark.parametrize("ring,profile", [
        (Z, PLAIN), (CoeffRing(2), PLAIN), (CoeffRing(3), PLAIN),
        (Z, FieldProfile(minus_one_is_square=True))],
        ids=["Z", "Z/2", "Z/3", "Z-minus-one-square"])
    def test_every_piece_up_to_n9(self, ring, profile):
        for n in range(1, 10):
            for m in range(0, n + 1):
                _assert_every_piece_matches(StiefelPresentation(n, m, ring, profile))

    def test_m_zero(self):
        # only the unit, in (0, 0), and its {-1}-multiples in (k, k)
        pres = StiefelPresentation(6, 0)
        assert basis_in_bidegree(pres, (0, 0)) == [((), 0)]
        assert basis_in_bidegree(pres, (3, 3)) == [((), 3)]
        assert basis_in_bidegree(pres, (1, 0)) == []
        assert basis_in_bidegree(pres, (11, 6)) == []

    def test_minus_one_square_keeps_free_lines_only(self):
        pres = gl(5, profile=FieldProfile(minus_one_is_square=True))
        assert basis_in_bidegree(pres, (8, 5)) == [((1, 4), 0), ((2, 3), 0)]
        assert basis_in_bidegree(pres, (9, 6)) == [((1, 2, 3), 0)]
        assert basis_in_bidegree(pres, (10, 7)) == []

    def test_odd_modulus_keeps_free_lines_only(self):
        # R/2R = 0 over Z/3, so no {-1}-shifted line survives
        pres = gl(5, ring=CoeffRing(3))
        assert basis_in_bidegree(pres, (9, 6)) == [((1, 2, 3), 0)]
        assert basis_in_bidegree(pres, (10, 7)) == []
        assert basis_in_bidegree(gl(5), (10, 7)) == [
            ((1, 2, 3), 1), ((1, 4), 2), ((2, 3), 2), ((4,), 3)]

    def test_shifted_and_mixed_piece(self):
        # (9, 6) holds the free line r1 r2 r3 and the shifted lines
        # {-1} r1 r4, {-1} r2 r3 and {-1}^2 r4
        assert basis_in_bidegree(gl(5), (9, 6)) == [
            ((1, 2, 3), 0), ((1, 4), 1), ((2, 3), 1), ((4,), 2)]

    def test_negative_and_out_of_range(self):
        pres = gl(4)
        assert basis_in_bidegree(pres, (-3, 2)) == []
        assert basis_in_bidegree(pres, (0, -1)) == []
        assert basis_in_bidegree(pres, (40, 20)) == []
        assert basis_in_bidegree(pres, (3, 30)) == []


class TestPieceSize:
    # piece_size against two oracles on the window of
    # _assert_every_piece_matches: the lines basis_in_bidegree lists, and
    # the full Poincare polynomial shifted by (k, k) for the {-1}^k lines,
    # with the torsion rule of _reference_pieces, not twisted_modulus
    @pytest.mark.parametrize("ring", [Z, CoeffRing(2), CoeffRing(3)], ids=["Z", "Z/2", "Z/3"])
    @pytest.mark.parametrize("square", [False, True], ids=["nonsquare", "square"])
    def test_every_piece_up_to_n9(self, ring, square):
        profile = FieldProfile(minus_one_is_square=square)
        for n in range(1, 10):
            for m in range(0, n + 1):
                pres = StiefelPresentation(n, m, ring, profile)
                torsion = ring.modulus % 2 == 0 and not square
                max_q = sum(pres.generators) + 2
                shifted = Counter()
                for base, count in poincare_polynomial(pres).items():
                    for k in range(max_q - base.q + 1 if torsion else 1):
                        shifted[base.p + k, base.q + k] += count
                for q in range(-2, max_q + 1):
                    for p in range(q - m - 3, 2 * q + 4):
                        size = piece_size(pres, (p, q))
                        assert size == shifted[p, q], (pres, p, q)
                        assert size == len(basis_in_bidegree(pres, (p, q))), (pres, p, q)

    @pytest.mark.parametrize("ring", [Z, CoeffRing(2), CoeffRing(3)], ids=["Z", "Z/2", "Z/3"])
    @pytest.mark.parametrize("square", [False, True], ids=["nonsquare", "square"])
    def test_shapes_are_empty_exactly_on_empty_pieces(self, ring, square):
        # _shapes lists only the shapes with a line, so the Steenrod kernel
        # may read an empty list as an empty piece
        profile = FieldProfile(minus_one_is_square=square)
        for n in range(1, 10):
            for m in range(0, n + 1):
                pres = StiefelPresentation(n, m, ring, profile)
                max_q = sum(pres.generators) + 2
                for q in range(-2, max_q + 1):
                    for p in range(q - m - 3, 2 * q + 4):
                        assert bool(_shapes(pres, (p, q))) == (piece_size(pres, (p, q)) > 0), \
                            (pres, p, q)


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


def _reduce_packed(table, modulus, twisted):
    """A table of packed coefficients with c_0 reduced and zeros dropped."""
    return {code: pack(terms, twisted) for code, value in table.items()
            if (terms := unpack(value, modulus, twisted))}


class TestBitmaskKernel:
    def test_every_monomial_pair_up_to_gl8(self):
        # both _normal_word and table_product on single-key tables of packed
        # (c_0, B) pairs, whose square-zero mask skips some pairs before
        # _normal_word is called
        skipped = 0
        for n in range(1, 9):
            _, _, product, nil, twisted = gl(n).codec()
            assert twisted == 2
            # nil has exactly the bits of the generators with rho_i^2 = 0
            assert [i for i in range(1, n + 1) if nil >> i & 1] == \
                [i for i in range(1, n + 1) if 2 * i - 1 > n]
            monos = all_monomials(gl(n))
            for m1 in monos:
                for m2 in monos:
                    a, b = _bits(m1), _bits(m2)
                    skipped += bool(a & b & nil)
                    expected = _reference_normal_word(n, m1 + m2)
                    got = _normal_word(n, a, b)
                    table = table_product(n, product, nil, twisted, {a: (1, 0)}, {b: (1, 0)}, {})
                    if expected is None:
                        assert got is None, (n, m1, m2)
                        assert table == {}, (n, m1, m2)
                        continue
                    mono, sign, twist = expected
                    assert got is not None, (n, m1, m2)
                    assert (got[0], got[2]) == (_bits(mono), twist), (n, m1, m2)
                    packed = (got[1], 0) if twist == 0 else (0, 1 << twist)
                    assert table == {got[0]: packed}, (n, m1, m2)
                    # a contraction leaves {-1}^twist with twist >= 1, whose
                    # coefficients lie in R/2R where -1 = 1: the sign only
                    # matters, and is only compared, when twist = 0
                    if twist == 0:
                        assert got[1] == sign, (n, m1, m2)
        assert skipped > 10_000

    def test_tate_codec_has_no_square_zero_mask(self):
        for n in range(1, 6):
            assert PGmPresentation(n).codec()[3] == 0

    @pytest.mark.parametrize("ring,profile", [
        (CoeffRing(3), PLAIN), (CoeffRing(5), PLAIN),
        (Z, FieldProfile(minus_one_is_square=True)),
        (CoeffRing(2), FieldProfile(minus_one_is_square=True))])
    def test_zero_mask_covers_every_overlap_when_minus_one_vanishes(self, ring, profile):
        # every overlap contracts, and every {-1}-power it leaves vanishes,
        # so skipping all overlapping pairs changes no reduced product
        assert twisted_modulus(ring, profile) == 1
        # packed, the positive {-1}-powers of x and y are already gone
        x, y = pack(((0, -2), (1, 1), (3, 1)), 1), pack(((0, 1), (2, 1)), 1)
        skipped = 0
        for n in range(1, 9):
            pres = StiefelPresentation(n, n, ring, profile)
            _, _, product, nil, twisted = pres.codec()
            assert (nil, twisted) == (-1, 1)
            narrow = -1 << ((n + 1) // 2 + 1)
            masks = [_bits(mono) for mono in all_monomials(pres)]
            for a in masks:
                for b in masks:
                    skipped += bool(a & b)
                    tables = [_reduce_packed(table_product(n, product, mask, 1, {a: x}, {b: y}, {}),
                                             ring.modulus, 1)
                              for mask in (nil, narrow)]
                    assert tables[0] == tables[1], (n, a, b)
            tate = PGmPresentation(n, ring, profile)
            encode, _, key_product, tate_nil, _ = tate.codec()
            assert tate_nil == 1
            codes = [encode((s, e)) for s in (0, 1) for e in range(n)]
            for a in codes:
                for b in codes:
                    tables = [_reduce_packed(table_product(n, key_product, mask, 1, {a: x},
                                                           {b: y}, {}), ring.modulus, 1)
                              for mask in (tate_nil, 0)]
                    assert tables[0] == tables[1], (n, a, b)
        assert skipped > 50_000
        assert PGmPresentation(4, CoeffRing(3)).codec()[3] == 1

    def test_monomial_decode_matches_bit_loop(self):
        def reference(mask):
            out = []
            while mask:
                low = mask & -mask
                out.append(low.bit_length() - 1)
                mask ^= low
            return tuple(out)

        rng = random.Random(2026)
        # sparse masks with bits up to 10^5 cross long runs of zero bytes
        sparse = [1 << k | 1 << j for k in (8, 9, 255, 256, 4097, 10**5)
                  for j in (0, 7, 8, k // 2, k - 8, k - 1)]
        masks = itertools.chain(range(1 << 16),
                                (rng.getrandbits(rng.randint(1, 130)) for _ in range(20_000)),
                                sparse)
        for mask in masks:
            mono = _monomial(mask)
            assert mono == reference(mask), mask
            assert _mask(mono) == mask

    def test_no_state_outlives_a_call(self):
        # after wide decodes and one product, operation and map per ring
        # context, no module-level dict, list or set of a stiefel submodule
        # has grown (the package's own export cache is bounded by __all__)
        def sizes():
            return {(name, attr): len(value)
                    for name, module in list(sys.modules.items()) if name.startswith("stiefel.")
                    for attr, value in vars(module).items()
                    if not attr.startswith("__") and isinstance(value, (dict, list, set))}

        before = sizes()
        rng = random.Random(31)
        for _ in range(20):
            mask = rng.getrandbits(200_000)
            assert len(_monomial(mask)) == mask.bit_count()
        for ring, profile in _CONTEXTS:
            pres = StiefelPresentation(6, 4, ring, profile)
            x = pres.monomial((3, 5)) + pres.minus_one() * pres.gen(4)
            assert x * pres.gen(6) == pres.monomial((3, 5, 6)) + pres.minus_one() \
                * pres.monomial((4, 6))
            op = {2: square(2), 3: power(1, 3)}.get(ring.modulus)
            if op is not None:
                apply_operation(op, x)
            apply_map(immersion_pullback(6, 4, ring=ring, profile=profile), x)
        after = sizes()
        assert {key: (before[key], size) for key, size in after.items()
                if key in before and size > before[key]} == {}

    def test_an_all_ones_mask_decodes_in_linear_time(self):
        mask = (1 << 10**5) - 1
        times = []
        for _ in range(3):  # best of 3, in process
            start = time.perf_counter()
            mono = _monomial(mask)
            times.append(time.perf_counter() - start)
        assert min(times) <= 0.05
        assert _mask(mono) == mask

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
        (Z, FieldProfile(minus_one_is_square=True)), (CoeffRing(2), PLAIN),
        (CoeffRing(3), FieldProfile(minus_one_is_square=True)),
        (CoeffRing(4), FieldProfile(minus_one_is_square=True))])
    def test_dense_products_match_reference(self, ring, profile):
        rng = random.Random(20260)
        for n, m in ((6, 6), (7, 5), (8, 4)):
            pres = StiefelPresentation(n, m, ring, profile)
            for _ in range(3):
                x, y = _dense_element(pres, rng), _dense_element(pres, rng)
                z = x * y
                assert z == _reference_product(x, y)
                assert Element(z.pres, z.terms) == z


def _expected_table(nf, modulus, twisted):
    """The reduced packed table of a reference normal form (monomial, sign,
    twist) or None, reduced by hand: power 0 in R, a positive power in
    Z/twisted, where -1 = 1."""
    if nf is None:
        return {}
    mono, sign, twist = nf
    value = (sign % modulus if modulus else sign) if twist == 0 else 1 % twisted
    return {_bits(mono): pack(((twist, value),), twisted)} if value else {}


class TestRingLawsExhaustive:
    # Every monomial triple x, y, z of GL(n <= 5): (x y) z and x (y z)
    # equal the list normal form of the concatenated word, and so does
    # (-1)^{|x| |yz|} (y z) x (graded commutativity; z = 1 covers every
    # pair).  The degree of rho_I is |I| mod 2; a product that contracts
    # carries a positive {-1}-power, whose coefficient lies in R/2R, so its
    # sign does not matter.  GL(6)'s 2^18 triples would cost more than the
    # tier-1 budget allows.
    @pytest.mark.parametrize("ring", [Z, CoeffRing(3)])
    def test_every_monomial_triple_up_to_gl5(self, ring):
        modulus, twisted = ring.modulus, twisted_modulus(ring, PLAIN)
        for n in range(1, 6):
            pres = gl(n, ring)
            _, _, product, nil, _ = pres.codec()

            def mul(xs, ys):
                return _reduce_packed(table_product(n, product, nil, twisted, xs, ys, {}),
                                      modulus, twisted)

            one = pack(((0, 1),), twisted)
            monos = all_monomials(pres)
            masks = [_bits(mono) for mono in monos]
            single = {a: {a: one} for a in masks}
            pairs = {(a, b): mul(single[a], single[b]) for a in masks for b in masks}
            for m1, a in zip(monos, masks):
                for m2, b in zip(monos, masks):
                    ab = pairs[a, b]
                    for m3, c in zip(monos, masks):
                        bc = pairs[b, c]
                        expected = _expected_table(_reference_normal_word(n, m1 + m2 + m3),
                                                   modulus, twisted)
                        sign = -1 if len(m1) * (len(m2) + len(m3)) % 2 else 1
                        assert mul(ab, single[c]) == expected, (n, m1, m2, m3)
                        assert mul(single[a], bc) == expected, (n, m1, m2, m3)
                        assert mul(bc, {a: pack(((0, sign),), twisted)}) == expected, \
                            (n, m1, m2, m3)


# Coefficient shapes for the packed-coefficient pins: c_0 alone, c_0 with
# {-1}-powers 1..3, and {-1}-powers alone.  Each context normalizes them.
_COEFF_SHAPES = (((0, 3),), ((0, -2), (1, 1)), ((1, 1), (3, 1)), ((0, 5), (2, 1), (3, 1)),
                 ((0, 1),), ((2, 1),), ((0, -7), (1, 1), (2, 1), (3, 1)), ((0, 2), (3, 1)))
_CONTEXTS = [(ring, profile) for ring in (Z, CoeffRing(2), CoeffRing(3), CoeffRing(4))
             for profile in (PLAIN, FieldProfile(minus_one_is_square=True))]


class TestElementProductsExhaustive:
    # Element products of single terms, against the list normal form and
    # validating MCoefficient arithmetic, in every context of Z, Z/2, Z/3
    # and Z/4 with and without {-1} a square.  The reference normal form of
    # each monomial pair is computed once and shared by the contexts.

    @staticmethod
    def _check_pairs(n, monos, contexts):
        words = {(m1, m2): _reference_normal_word(n, m1 + m2) for m1 in monos for m2 in monos}
        for ring, profile in contexts:
            pres = gl(n, ring, profile)
            coeffs = [MCoefficient(ring, profile, shape) for shape in _COEFF_SHAPES]
            xs = [pres.monomial(m, coeffs[i % len(coeffs)]) for i, m in enumerate(monos)]
            ys = [pres.monomial(m, coeffs[(3 * i + 1) % len(coeffs)]) for i, m in enumerate(monos)]
            for m1, x in zip(monos, xs):
                for m2, y in zip(monos, ys):
                    nf = words[m1, m2]
                    if nf is None:
                        expected = pres.zero()
                    else:
                        mono, sign, twist = nf
                        c = x.terms[0][1] * y.terms[0][1] if x and y else None
                        expected = pres.zero() if c is None else \
                            pres.monomial(mono, (c if sign > 0 else -c).shift(twist))
                    got = x * y
                    assert got == expected, (ring, profile, m1, m2)
                    assert repr(got) == repr(expected), (ring, profile, m1, m2)

    def test_every_monomial_pair_up_to_gl6(self):
        for n in range(1, 7):
            self._check_pairs(n, all_monomials(gl(n)), _CONTEXTS)

    def test_contraction_chain_on_gl17(self):
        # rho_2 -> rho_3 -> rho_5 -> rho_9 -> rho_17: twists up to 4 meet
        # coefficients carrying {-1}-powers up to 3
        chain = (2, 3, 5, 9, 17)
        monos = [tuple(i for b, i in enumerate(chain) if mask >> b & 1)
                 for mask in range(1 << len(chain))]
        self._check_pairs(17, monos, _CONTEXTS)


class TestGenSquare:
    def test_matches_the_product_on_every_generator_up_to_n12(self):
        # gen_square builds {-1} rho_{2i-1} directly; the product is its oracle
        for ring, profile in _CONTEXTS:
            for n in range(1, 13):
                for m in range(n + 1):
                    pres = StiefelPresentation(n, m, ring, profile)
                    for i in pres.generators:
                        got = pres.gen_square(i)
                        expected = (pres.minus_one() * pres.gen(2 * i - 1) if 2 * i - 1 <= n
                                    else pres.zero())
                        assert got == expected and repr(got) == repr(expected), (n, m, i)
                        assert got == pres.gen(i) * pres.gen(i), (n, m, i)
