import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from stiefel.algebra import StiefelPresentation
from stiefel import coefficients
from stiefel.coefficients import (PRIME_LIMIT, Bidegree, CoeffRing, FieldProfile, MCoefficient,
                                  binom_mod, is_prime, pack, twisted_modulus, unpack)
from stiefel.errors import ContextMismatch, InadmissibleOperation, InvalidPresentation
from stiefel.operations import Operation, OperationKind, power_on_generator

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


class TestReduced:
    """unpack, and the unchecked coefficients that from_table builds from
    packed coefficients, against the validating constructor."""

    @pytest.mark.parametrize("profile", [PLAIN, SQUARE], ids=["plain", "minus-one-square"])
    @pytest.mark.parametrize("ring", [Z, Z2, CoeffRing(3), CoeffRing(4)],
                             ids=["Z", "Z/2", "Z/3", "Z/4"])
    def test_matches_validating_constructor(self, ring, profile):
        rng = random.Random(4021)
        unit = StiefelPresentation(1, 0, ring, profile)
        twisted = twisted_modulus(ring, profile)
        draws = [{k: rng.choice([0, rng.randint(-9, 9), rng.randint(-10**20, 10**20)])
                  for k in rng.sample(range(5), rng.randint(0, 5))} for _ in range(500)]
        # wide bitsets: at least 10^4 set {-1}-powers among the first 2 * 10^4
        for width in (10**4, 15_000, 2 * 10**4 - 1):
            draws.append({0: rng.randint(-10**20, 10**20),
                          **{k: rng.choice([1, -1, 3, 10**20 + 1])
                             for k in rng.sample(range(1, 2 * 10**4), width)}})
        for powers in draws:
            expected = MCoefficient(ring, profile, tuple(powers.items()))
            # packed with c_0 unreduced and each positive power's parity
            c0 = powers.get(0, 0)
            value = c0 if twisted == 1 else \
                (c0, sum((c & 1) << k for k, c in powers.items() if k))
            reduced = unpack(value, ring.modulus, twisted)
            built = unit.from_table({0: value})
            if not expected:
                assert reduced == () and built.terms == (), powers
                continue
            assert reduced == expected.terms, powers
            assert unpack(pack(reduced, twisted), ring.modulus, twisted) == reduced, powers
            ((key, got),) = built.terms
            assert key == ()
            for c in (MCoefficient._unchecked(ring, profile, reduced), got):
                assert c == expected and repr(c) == repr(expected), powers
                assert hash(c) == hash(expected)

    def test_unpack_reads_a_wide_bitset_in_linear_time(self):
        # bits 1, 3, ..., 19999: 10^4 {-1}-powers
        bits = int("10" * 10**4, 2)
        times = []
        for _ in range(3):  # best of 3, in process (0.218 s with a bit-by-bit loop)
            start = time.perf_counter()
            terms = unpack((5, bits), 0, 2)
            times.append(time.perf_counter() - start)
        assert min(times) <= 0.05
        assert terms == ((0, 5),) + tuple((k, 1) for k in range(1, 2 * 10**4, 2))

    @pytest.mark.parametrize("profile", [PLAIN, SQUARE], ids=["plain", "minus-one-square"])
    def test_twisted_modulus_matches_reduce_mod_two(self, profile):
        for ring in [Z] + [CoeffRing(m) for m in range(2, 7)]:
            torsion = not profile.minus_one_is_square and ring.reduce_mod_two(1) != 0
            assert twisted_modulus(ring, profile) == (2 if torsion else 1), ring


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


# psi_4, psi_11 and psi_12: the least strong pseudoprimes to the first 4,
# 11 and 12 prime bases, so only the later bases reject them
PSEUDOPRIMES = [3215031751, 3825123056546413051, 318665857834031151167461]


def _sieve(size: int) -> list[int]:
    """The primes below size, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * size
    sieve[0] = sieve[1] = 0
    for d in range(2, math.isqrt(size) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytearray(len(range(d * d, size, d)))
    return [p for p in range(size) if sieve[p]]


class TestIsPrime:
    def test_every_number_below_ten_to_the_five_against_a_sieve(self):
        size = 10**5
        assert [p for p in range(size) if is_prime(p)] == _sieve(size)
        assert not any(is_prime(p) for p in range(-5, 0))

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(19)
        draws = [rng.randrange(2, 10**bits) for bits in (6, 12, 18, 24) for _ in range(250)]
        draws += [rng.randrange(2, PRIME_LIMIT) | 1 for _ in range(250)]
        for p in draws + PSEUDOPRIMES:
            assert is_prime(p) == sympy.isprime(p), p

    def test_the_last_base_is_needed(self, monkeypatch):
        assert not is_prime(PSEUDOPRIMES[-1])
        monkeypatch.setattr(coefficients, "PRIME_BASES", coefficients.PRIME_BASES[:-1])
        assert is_prime(PSEUDOPRIMES[-1])

    def test_undecided_from_the_limit_on(self):
        # psi_13 passes every base: it and any p beyond with no small factor
        # are refused, not guessed
        for p in (PRIME_LIMIT, PRIME_LIMIT + 142, 2**89 - 1):  # + 142: the next prime
            with pytest.raises(ValueError, match="cannot decide whether"):
                is_prime(p)
        assert not is_prime(2 * PRIME_LIMIT)
        assert not is_prime(3 * 10**40)

    def test_every_caller_refuses_with_its_own_error(self):
        with pytest.raises(InvalidPresentation, match="cannot decide whether"):
            FieldProfile(characteristic=PRIME_LIMIT)
        for kind in (OperationKind.POWER, OperationKind.BOCKSTEIN):
            with pytest.raises(ValueError, match="cannot decide whether"):
                Operation(PRIME_LIMIT, kind, 1)
        with pytest.raises(ValueError, match="cannot decide whether"):
            binom_mod(3, 1, PRIME_LIMIT)
        pres = StiefelPresentation(3, 3, CoeffRing(PRIME_LIMIT), PLAIN)
        with pytest.raises(InadmissibleOperation, match="cannot decide whether"):
            power_on_generator(1, 2, PRIME_LIMIT, pres)

    def test_large_primes_in_bounded_time(self):
        mersenne = 2**61 - 1
        assert is_prime(mersenne) and is_prime(10**12 + 39) and is_prime(10**14 + 31)
        assert FieldProfile(characteristic=mersenne).characteristic == mersenne
        assert binom_mod(5, 2, mersenne) == 10
