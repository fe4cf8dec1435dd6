import gc
import math
import random
import re

import pytest

from stiefel import operations
from stiefel.algebra import (Element, StiefelPresentation, all_monomials, poincare_polynomial,
                             random_element)
from stiefel.coefficients import Bidegree, CoeffRing, FieldProfile, MCoefficient
from stiefel.errors import InadmissibleOperation, InvalidGenerator
from stiefel.operations import (Operation, OperationKind, apply_operation, bockstein, power,
                                power_on_generator, sq_on_generator, square)
from stiefel.targets import PGmPresentation

PLAIN = FieldProfile()


def gl(n, p):
    return StiefelPresentation(n, n, CoeffRing(p), PLAIN)


class TestOperationSpec:
    def test_square_factory(self):
        op = square(4)
        assert op.kind is OperationKind.SQUARE and op.index == 2 and op.prime == 2
        odd = square(3)
        assert odd.kind is OperationKind.ODD_SQUARE and odd.index == 1

    def test_kind_prime_constraints(self):
        with pytest.raises(ValueError):
            Operation(3, OperationKind.SQUARE, 1)
        with pytest.raises(ValueError):
            power(1, 2)
        with pytest.raises(ValueError):
            power(1, 9)
        with pytest.raises(ValueError):
            bockstein(2)

    def test_bidegree_shifts(self):
        assert square(4).bidegree_shift == Bidegree(4, 2)
        assert square(3).bidegree_shift == Bidegree(3, 1)
        assert power(2, 3).bidegree_shift == Bidegree(8, 4)
        assert bockstein(5).bidegree_shift == Bidegree(1, 0)


    def test_describe_and_shift_table(self):
        # Sq^{2i} has bidegree (2i, i) and Sq^{2i+1} has (2i+1, i); P^i has
        # (2d, d) with d = i(p - 1); beta has (1, 0) whatever its index
        for i in range(7):
            assert (square(2 * i).describe(), square(2 * i).bidegree_shift) == (
                f"Sq^{2 * i}", (2 * i, i))
            assert (square(2 * i + 1).describe(), square(2 * i + 1).bidegree_shift) == (
                f"Sq^{2 * i + 1}", (2 * i + 1, i))
            for p in (3, 5, 7):
                d = i * (p - 1)
                op = Operation(p, OperationKind.POWER, i)
                assert (op.describe(), op.bidegree_shift) == (f"P^{i}", (2 * d, d))
                op = Operation(p, OperationKind.BOCKSTEIN, i)
                assert (op.describe(), op.bidegree_shift) == ("beta", (1, 0))
        for p in (3, 5, 7):
            with pytest.raises(ValueError):
                Operation(p, OperationKind.SQUARE, 1)
            with pytest.raises(ValueError):
                Operation(p, OperationKind.ODD_SQUARE, 1)
        for kind in (OperationKind.POWER, OperationKind.BOCKSTEIN):
            with pytest.raises(ValueError):
                Operation(2, kind, 1)
        beta = Operation(5, OperationKind.BOCKSTEIN, 4)
        assert (beta.describe(), beta.bidegree_shift) == ("beta", Bidegree(1, 0))
        assert [square(6).describe(), power(2, 3).describe(), bockstein(7).describe()] == [
            "Sq^6", "P^2", "beta"]
        assert [square(7).bidegree_shift, power(2, 5).bidegree_shift] == [(7, 3), (16, 8)]


class TestGeneratorFormulas:
    def test_sq2_rho2_gl3(self):
        pres = gl(3, 2)
        assert sq_on_generator(1, 2, pres) == pres.gen(3)

    def test_sq2_rho3_gl5_vanishes(self):
        # C(2,1) = 2 is even
        pres = gl(5, 2)
        assert not sq_on_generator(1, 3, pres)

    def test_sq4_rho3_gl4_out_of_range(self):
        pres = gl(4, 2)
        assert not sq_on_generator(2, 3, pres)

    def test_odd_squares_vanish(self):
        pres = gl(4, 2)
        for j in pres.generators:
            for k in (1, 3, 5, 7):
                assert not apply_operation(square(k), pres.gen(j))
        assert not apply_operation(square(3), pres.monomial((2, 3), 1) + pres.minus_one())

    def test_p1_rho2_gl4_at_3(self):
        pres = gl(4, 3)
        assert power_on_generator(1, 2, 3, pres) == pres.gen(4)

    def test_p1_rho3_gl5_at_3(self):
        # C(2,1) = 2 mod 3, lands on rho_5
        pres = gl(5, 3)
        assert power_on_generator(1, 3, 3, pres) == pres.gen(5) * 2

    def test_p0_is_identity(self):
        pres = gl(4, 3)
        for j in pres.generators:
            assert power_on_generator(0, j, 3, pres) == pres.gen(j)

    def test_bockstein_vanishes(self):
        pres = gl(4, 5)
        for j in pres.generators:
            assert not apply_operation(bockstein(5), pres.gen(j))
        assert not apply_operation(bockstein(5), pres.gen(2) + pres.gen(3))

    def test_full_table_against_factorials(self):
        for n in range(1, 9):
            pres2 = gl(n, 2)
            for j in range(1, n + 1):
                for i in range(9):
                    c = math.comb(j - 1, i) % 2
                    expected = pres2.gen(j + i) if (j + i <= n and c) else pres2.zero()
                    assert sq_on_generator(i, j, pres2) == expected
        for p in (3, 5):
            for n in range(1, 9):
                pres = gl(n, p)
                for j in range(1, n + 1):
                    for i in range(6):
                        target = i * p + j - i
                        c = math.comb(j - 1, i) % p
                        expected = pres.gen(target) * c if (target <= n and c) else pres.zero()
                        assert power_on_generator(i, j, p, pres) == expected


class TestAdmissibility:
    def test_wrong_coefficients(self):
        with pytest.raises(InadmissibleOperation):
            sq_on_generator(1, 2, StiefelPresentation(3, 3))
        with pytest.raises(InadmissibleOperation):
            power_on_generator(1, 2, 3, gl(3, 5))

    def test_characteristic_clash(self):
        bad2 = StiefelPresentation(3, 3, CoeffRing(2), FieldProfile(characteristic=2))
        with pytest.raises(InadmissibleOperation):
            sq_on_generator(1, 2, bad2)
        bad3 = StiefelPresentation(3, 3, CoeffRing(3), FieldProfile(characteristic=3))
        with pytest.raises(InadmissibleOperation):
            power_on_generator(1, 2, 3, bad3)

    def test_characteristic_zero_is_fine(self):
        pres = StiefelPresentation(3, 3, CoeffRing(2), FieldProfile(characteristic=0))
        assert sq_on_generator(1, 2, pres) == pres.gen(3)

    def test_invalid_generator(self):
        pres = StiefelPresentation(4, 2, CoeffRing(2), PLAIN)
        with pytest.raises(InvalidGenerator):
            sq_on_generator(1, 1, pres)
        # an element never carries rho_1 in W(4,2), so no operation sees it
        with pytest.raises(InvalidGenerator):
            apply_operation(square(1), pres.gen(1))
        with pytest.raises(InvalidGenerator):
            apply_operation(bockstein(3), StiefelPresentation(4, 2, CoeffRing(3)).monomial((1,)))

    def test_even_prime_for_power(self):
        with pytest.raises(InadmissibleOperation):
            power_on_generator(1, 2, 2, gl(3, 2))

    def test_odd_operations_check_the_context(self):
        # the zero values of the odd square and the Bockstein still need
        # Z/p coefficients and a ground field of characteristic other than p
        with pytest.raises(InadmissibleOperation):
            apply_operation(square(3), StiefelPresentation(3, 3).gen(2))
        with pytest.raises(InadmissibleOperation):
            apply_operation(bockstein(5), gl(3, 3).gen(2))
        bad2 = StiefelPresentation(3, 3, CoeffRing(2), FieldProfile(characteristic=2))
        with pytest.raises(InadmissibleOperation):
            apply_operation(square(1), bad2.gen(2))
        bad3 = StiefelPresentation(3, 3, CoeffRing(3), FieldProfile(characteristic=3))
        with pytest.raises(InadmissibleOperation):
            apply_operation(bockstein(3), bad3.gen(2))


    def test_generator_errors_keep_their_types_and_messages(self):
        w42 = StiefelPresentation(4, 2, CoeffRing(2), PLAIN)
        cases = [
            (lambda: sq_on_generator(1, 2, StiefelPresentation(3, 3)), InadmissibleOperation,
             "operation needs Z/2 coefficients, ring is Z"),
            (lambda: power_on_generator(1, 2, 3, gl(3, 5)), InadmissibleOperation,
             "operation needs Z/3 coefficients, ring is Z/5"),
            (lambda: sq_on_generator(1, 2, StiefelPresentation(
                3, 3, CoeffRing(2), FieldProfile(characteristic=2))), InadmissibleOperation,
             "operation is unavailable over a ground field of characteristic 2"),
            (lambda: power_on_generator(1, 2, 5, StiefelPresentation(
                3, 3, CoeffRing(5), FieldProfile(characteristic=5))), InadmissibleOperation,
             "operation is unavailable over a ground field of characteristic 5"),
            (lambda: power_on_generator(1, 2, 2, gl(3, 2)), InadmissibleOperation,
             "reduced powers need an odd prime, got 2"),
            (lambda: power_on_generator(1, 2, 9, gl(3, 9)), InadmissibleOperation,
             "reduced powers need an odd prime, got 9"),
            (lambda: sq_on_generator(-1, 2, gl(3, 2)), ValueError,
             "operation index must be nonnegative"),
            (lambda: power_on_generator(-1, 2, 3, gl(3, 3)), ValueError,
             "operation index must be nonnegative"),
            (lambda: sq_on_generator(1, 1, w42), InvalidGenerator,
             "rho_1 is not a generator of W(4,2)"),
            (lambda: power_on_generator(1, 5, 3, gl(4, 3)), InvalidGenerator,
             "rho_5 is not a generator of W(4,4)"),
            # one index below W(4,2)'s range 3..4 and one above, at every front
            (lambda: w42.gen(2), InvalidGenerator, "rho_2 is not a generator of W(4,2)"),
            (lambda: w42.gen(5), InvalidGenerator, "rho_5 is not a generator of W(4,2)"),
            (lambda: w42.gen_square(2), InvalidGenerator, "rho_2 is not a generator of W(4,2)"),
            (lambda: w42.gen_square(5), InvalidGenerator, "rho_5 is not a generator of W(4,2)"),
            (lambda: w42.monomial((2, 3)), InvalidGenerator,
             "rho_2 is not a generator of W(4,2)"),
            (lambda: w42.monomial((3, 5)), InvalidGenerator,
             "rho_5 is not a generator of W(4,2)"),
            # check_key reports the first index outside the range
            (lambda: Element(w42, (((1, 5), MCoefficient.one(CoeffRing(2), PLAIN)),)),
             InvalidGenerator, "rho_1 is not a generator of W(4,2)"),
            (lambda: Element(w42, (((4, 5, 6), MCoefficient.one(CoeffRing(2), PLAIN)),)),
             InvalidGenerator, "rho_5 is not a generator of W(4,2)"),
            (lambda: apply_operation(square(2), w42.monomial((1,))), InvalidGenerator,
             "rho_1 is not a generator of W(4,2)"),
            (lambda: sq_on_generator(1, 5, w42), InvalidGenerator,
             "rho_5 is not a generator of W(4,2)"),
            (lambda: power_on_generator(1, 2, 3, StiefelPresentation(4, 2, CoeffRing(3))),
             InvalidGenerator, "rho_2 is not a generator of W(4,2)"),
        ]
        for call, kind, message in cases:
            with pytest.raises(kind, match=f"^{re.escape(message)}$") as caught:
                call()
            assert type(caught.value) is kind


class TestCartan:
    def test_sq2_on_product_gl3(self):
        # Sq^2(r1 r2) = Sq^2(r1) r2 + r1 Sq^2(r2) = 0 + r1 r3
        pres = gl(3, 2)
        got = apply_operation(square(2), pres.monomial((1, 2)))
        assert got == pres.monomial((1, 3))

    def test_sq0_fixes_everything(self):
        pres = gl(4, 2)
        for seed in range(10):
            x = random_element(pres, None, seed=seed)
            assert apply_operation(square(0), x) == x

    def test_p1_on_product_gl5_at_3(self):
        # P^1(r2 r3) = r4 r3 + r2 (2 r5) = 2 r3 r4 + 2 r2 r5
        pres = gl(5, 3)
        got = apply_operation(power(1, 3), pres.monomial((2, 3)))
        assert got == pres.monomial((3, 4), 2) + pres.monomial((2, 5), 2)

    def test_scalars_ride_along(self):
        pres = gl(3, 2)
        x = pres.minus_one() * pres.gen(2)
        assert apply_operation(square(2), x) == pres.minus_one() * pres.gen(3)

    def test_positive_operations_kill_base_classes(self):
        pres = gl(3, 2)
        assert not apply_operation(square(2), pres.unit())
        assert not apply_operation(square(2), pres.minus_one(2))
        assert apply_operation(square(0), pres.minus_one()) == pres.minus_one()

    def test_additivity(self):
        pres = gl(5, 2)
        for seed in range(10):
            x = random_element(pres, None, seed=seed)
            y = random_element(pres, None, seed=seed + 100)
            op = square(2 * (seed % 4))
            assert (apply_operation(op, x + y)
                    == apply_operation(op, x) + apply_operation(op, y))

    def test_bidegree_shift_on_results(self):
        pres = gl(6, 2)
        x = random_element(pres, (9, 6), seed=7)
        out = apply_operation(square(4), x)
        assert out.bidegrees() <= {Bidegree(13, 8)}

    def test_cartan_total_square_multiplicativity(self):
        # Sq(xy) = Sq(x) Sq(y) summed over all even components
        pres = gl(6, 2)
        x = random_element(pres, None, seed=11)
        y = random_element(pres, None, seed=12)
        limit = 30
        lhs = pres.zero()
        for k in range(limit):
            lhs = lhs + apply_operation(square(2 * k), x * y)
        rhs = pres.zero()
        for a in range(limit):
            for b in range(limit):
                rhs = rhs + apply_operation(square(2 * a), x) * apply_operation(square(2 * b), y)
        assert lhs == rhs


def reference_cartan(op, pres):
    """The Element-valued Cartan recursion that the integer kernel replaced,
    kept as the reference: every cache entry is an Element, every step a
    product with the one-term value of sq_on_generator or power_on_generator.

    Returns cartan(mono, k), the degree-k operation on the monomial mono;
    its cache lives as long as the returned function."""
    if op.kind is OperationKind.SQUARE:
        def gen_action(b, j):
            return sq_on_generator(b, j, pres)
    else:
        def gen_action(b, j):
            return power_on_generator(b, j, op.prime, pres)
    cache = {}

    def cartan(mono, k):
        if not mono:
            return pres.unit() if k == 0 else pres.zero()
        key = (mono, k)
        if key not in cache:
            head, last = mono[:-1], mono[-1]
            terms = []
            for b in range(k + 1):
                g = gen_action(b, last)
                if g:
                    terms.extend((cartan(head, k - b) * g).terms)
            cache[key] = Element(pres, tuple(terms))
        return cache[key]

    return cartan


def reference_apply(cartan, op, x):
    terms = []
    for mono, c in x.terms:
        terms.extend((cartan(mono, op.index) * c).terms)
    return Element(x.pres, tuple(terms))


# Sq^{2i}, i <= 8, over Z/2 with and without -1 a square; P^i, i <= 4, at 3 and 5
OPERATION_GRID = {
    "Z/2": (2, PLAIN, [square(2 * i) for i in range(9)]),
    "Z/2, -1 a square": (2, FieldProfile(minus_one_is_square=True),
                         [square(2 * i) for i in range(9)]),
    "Z/3": (3, PLAIN, [power(i, 3) for i in range(5)]),
    "Z/5": (5, PLAIN, [power(i, 5) for i in range(5)]),
}


def operation_contexts(context):
    """(presentation, operations) for W(n, m), n <= 8, in one context."""
    p, profile, ops = OPERATION_GRID[context]
    for n in range(1, 9):
        for m in range(n + 1):
            yield StiefelPresentation(n, m, CoeffRing(p), profile), ops


@pytest.mark.parametrize("context", sorted(OPERATION_GRID))
class TestKernelAgainstReference:
    def test_every_twisted_monomial(self, context):
        for pres, ops in operation_contexts(context):
            for op in ops:
                cartan = reference_cartan(op, pres)
                for mono in all_monomials(pres):
                    for k in range(3):
                        x = pres.monomial(mono, MCoefficient.minus_one(pres.ring, pres.profile, k))
                        y = apply_operation(op, x)
                        assert y == reference_apply(cartan, op, x), (op.describe(), pres, mono, k)
                        assert Element(y.pres, y.terms) == y

    def test_seeded_sums(self, context):
        for pres, ops in operation_contexts(context):
            for seed in range(4):
                x = pres.zero()
                for part in range(3):
                    x = x + random_element(pres, None, seed=10 * seed + part)
                x = x * random_element(pres, None, seed=1000 + seed) + x
                for op in ops:
                    y = apply_operation(op, x)
                    assert y == reference_apply(reference_cartan(op, pres), op, x), \
                        (op.describe(), pres, seed)
                    assert Element(y.pres, y.terms) == y

    def test_deep_contractions(self, context):
        # GL(17) holds the chain rho_2 -> rho_3 -> rho_5 -> rho_9 -> rho_17 of
        # squarings rho_i^2 = {-1} rho_{2i-1}, deeper than any W(n <= 8, m)
        p, profile, ops = OPERATION_GRID[context]
        pres = StiefelPresentation(17, 17, CoeffRing(p), profile)
        rng = random.Random(17)
        monos = [(2, 3, 5, 9, 17), (1, 2, 3, 5, 9), (2, 3, 4, 5, 8, 9, 16, 17)]
        monos += [tuple(sorted(rng.sample(range(1, 18), rng.randint(3, 9)))) for _ in range(6)]
        xs = [pres.monomial(mono, MCoefficient.minus_one(pres.ring, profile, k))
              for mono in monos for k in range(2)]
        mixed = MCoefficient(pres.ring, profile, ((0, 1), (1, 1), (2, 1)))
        xs.append(sum((pres.monomial(mono, mixed) for mono in monos), pres.zero()))
        for op in ops:
            cartan = reference_cartan(op, pres)
            for x in xs:
                y = apply_operation(op, x)
                assert y == reference_apply(cartan, op, x), (op.describe(), x)
                assert Element(y.pres, y.terms) == y


# GL(12) and GL(14) over Z/2, both profiles, Sq^{2i} for i <= 12; GL(12) over
# Z/3 and GL(14) over Z/5, P^i for i <= 5
TOP_GRID = [(n, 2, profile, [square(2 * i) for i in range(13)])
            for n in (12, 14) for profile in (PLAIN, FieldProfile(minus_one_is_square=True))]
TOP_GRID += [(12, 3, PLAIN, [power(i, 3) for i in range(6)]),
             (14, 5, PLAIN, [power(i, 5) for i in range(6)])]


@pytest.mark.parametrize("n, p, profile, ops", TOP_GRID, ids=[
    f"GL({n}) Z/{p} {'square' if profile.minus_one_is_square else 'plain'}"
    for n, p, profile, _ in TOP_GRID])
class TestTopMonomials:
    def test_top_and_near_top_against_reference(self, n, p, profile, ops):
        # the top class of GL(n) and the n monomials one generator below it,
        # where most operations land in a graded piece with no line
        pres = StiefelPresentation(n, n, CoeffRing(p), profile)
        top = tuple(pres.generators)
        monos = [top] + [top[:i] + top[i + 1:] for i in range(n)]
        for op in ops:
            cartan = reference_cartan(op, pres)
            for mono in monos:
                x = pres.monomial(mono)
                assert apply_operation(op, x) == reference_apply(cartan, op, x), \
                    (op.describe(), mono)


# every line of the densest piece of GL(n), where many terms share generators
FULL_PIECES = [(12, 2, square(6)), (14, 2, square(8)), (16, 2, square(12)), (14, 3, power(2, 3))]


@pytest.mark.parametrize("n, p, op", FULL_PIECES,
                         ids=[f"GL({n}) {op.describe()}" for n, p, op in FULL_PIECES])
def test_full_pieces_against_reference(n, p, op):
    pres = gl(n, p)
    series = poincare_polynomial(pres)
    x = random_element(pres, max(series, key=lambda bd: (series[bd], bd)), seed=1)
    assert len(x.terms) > 50
    assert apply_operation(op, x) == reference_apply(reference_cartan(op, pres), op, x)


def one_step_sq2(pres, mono):
    """Sq^2 of a monomial over Z/2 by the Cartan formula, one generator at a
    time: Sq^2(rho_J) = sum over even j in J of monomial(J - {j}) rho_{j+1},
    since Sq^2(rho_j) = (j - 1) rho_{j+1} and signs vanish mod 2."""
    terms = []
    for j in mono:
        if j % 2 == 0:
            terms.extend((pres.monomial(tuple(i for i in mono if i != j)) * pres.gen(j + 1)).terms)
    return Element(pres, tuple(terms))


def test_sq2_on_a_long_monomial():
    # reference_cartan recurses once per generator, so a formula is the oracle
    pres = gl(800, 2)
    mono = tuple(range(1, 401))
    y = apply_operation(square(2), pres.monomial(mono))
    assert y and y == one_step_sq2(pres, mono)


def reduced_power(i, p):
    """P^i at an odd prime; at p = 2, P^i stands for Sq^{2i}."""
    return square(2 * i) if p == 2 else power(i, p)


def adem_terms(a, b, p):
    """(c, a + b - i, i) for the terms c P^{a+b-i} P^i of the Adem relation
    for P^a P^b, a < pb, with binomials from math.comb:

        P^a P^b = sum_i (-1)^{a+i} C((p-1)(b-i) - 1, a - pi) P^{a+b-i} P^i.

    At p = 2 this reads Sq^{2a} Sq^{2b} = sum_i C(2b-2i-1, 2a-4i)
    Sq^{2(a+b-i)} Sq^{2i}: the other terms of the relation, and the motivic
    rho/tau corrections, pass through odd squares, which vanish here."""
    for i in range(a // p + 1):
        if p == 2:
            c = math.comb(2 * b - 2 * i - 1, 2 * a - 4 * i)
        else:
            c = (-1) ** (a + i) * math.comb((p - 1) * (b - i) - 1, a - p * i)
        yield c, a + b - i, i


@pytest.mark.parametrize("profile", [PLAIN, FieldProfile(minus_one_is_square=True)],
                         ids=["plain", "-1 a square"])
@pytest.mark.parametrize("p", [2, 3, 5])
class TestAdemRelations:
    def test_every_twisted_monomial(self, p, profile):
        # every monomial times {-1}^k, k <= 1, of W(n <= 5, m), 1 <= a, b <= 4
        pairs = [(a, b) for a in range(1, 5) for b in range(1, 5) if a < p * b]
        for n in range(1, 6):
            for m in range(n + 1):
                pres = StiefelPresentation(n, m, CoeffRing(p), profile)
                for mono in all_monomials(pres):
                    for k in range(2):
                        x = pres.monomial(mono, MCoefficient.minus_one(pres.ring, profile, k))
                        px = [apply_operation(reduced_power(i, p), x) for i in range(5)]
                        for a, b in pairs:
                            lhs = apply_operation(reduced_power(a, p), px[b])
                            rhs = pres.zero()
                            for c, outer, inner in adem_terms(a, b, p):
                                rhs = rhs + apply_operation(reduced_power(outer, p), px[inner]) * c
                            assert lhs == rhs, (p, a, b, pres, mono, k)


class TestKernelCost:
    def test_huge_index_needs_no_loop_over_it(self, monkeypatch):
        calls = []
        binom_mod = operations.binom_mod

        def counting_binom(a, b, p):
            calls.append(b)
            return binom_mod(a, b, p)

        monkeypatch.setattr(operations, "binom_mod", counting_binom)
        pres = gl(6, 2)
        x = pres.monomial(pres.generators) + random_element(pres, None, seed=3)
        # every target piece of a huge index is empty, so no row is built
        assert not apply_operation(square(2 * 10**9), x)
        assert not calls
        # b <= (n - j) // (p - 1) per generator: 6 + 5 + ... + 1 values; at
        # p = 2 the rows are the submasks of j - 1, with no binomial
        for p in (2, 3):
            table = operations._generator_table(6, p, 10**9, x.terms)
            entries = [b for row in table.values() for b, _, _ in row]
            assert len(entries) <= 21 and max(entries) <= 5
            if p == 2:
                assert not calls
        assert len(calls) <= 21 and max(calls) <= 5

    def test_empty_target_pieces_skip_the_recursion(self, monkeypatch):
        # Sq^24 of the top class of GL(20) lands in a piece with no line
        def no_cartan(*args):
            raise AssertionError("_cartan ran on a term with an empty target piece")

        monkeypatch.setattr(operations, "_cartan", no_cartan)
        pres = gl(20, 2)
        assert not apply_operation(square(24), pres.monomial(pres.generators))

    def test_no_garbage_cycles(self):
        pres = StiefelPresentation(12, 12, CoeffRing(2), PLAIN)
        x = pres.monomial((2, 3, 5, 8, 11))
        gc.collect()
        gc.disable()
        try:
            assert apply_operation(square(6), x)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTateAction:
    def test_matches_projective_formula(self):
        pres = PGmPresentation(8, CoeffRing(2), PLAIN)
        for j in range(1, 8):
            for i in range(6):
                got = apply_operation(square(2 * i), pres.eta(j))
                c = math.comb(j, i) % 2
                expected = pres.term(0, j + i) if (j + i < 8 and c) else pres.zero()
                assert got == expected
        assert apply_operation(square(0), pres.unit()) == pres.unit()
        assert not apply_operation(square(2), pres.unit())

    def test_sigma_passes_through(self):
        pres = PGmPresentation(8, CoeffRing(2), PLAIN)
        for j in range(6):
            for i in range(5):
                lhs = apply_operation(square(2 * i), pres.sigma() * pres.eta(j))
                rhs = pres.sigma() * apply_operation(square(2 * i), pres.eta(j))
                assert lhs == rhs

    def test_odd_and_bockstein_vanish(self):
        pres2 = PGmPresentation(5, CoeffRing(2), PLAIN)
        assert not apply_operation(square(3), pres2.sigma() * pres2.eta(2))
        pres3 = PGmPresentation(5, CoeffRing(3), PLAIN)
        assert not apply_operation(bockstein(3), pres3.sigma() * pres3.eta(2))

    def test_power_action(self):
        pres = PGmPresentation(12, CoeffRing(3), PLAIN)
        # P^1(eta^2) = C(2,1) eta^4 = 2 eta^4
        assert apply_operation(power(1, 3), pres.eta(2)) == pres.term(0, 4, 2)

    def test_every_term_against_binomials(self):
        # P^i(sigma^s eta^e) = C(e, i) sigma^s eta^{e + i(p-1)}, zero from
        # eta^n on; at p = 2, P^i is Sq^{2i}
        for p in (2, 3, 5, 7):
            ops = [reduced_power(i, p) for i in range(13)]
            for n in range(1, 41):
                pres = PGmPresentation(n, CoeffRing(p), PLAIN)
                for s in (0, 1):
                    for e in range(n):
                        x = pres.term(s, e)
                        for i, op in enumerate(ops):
                            c, target = math.comb(e, i) % p, e + i * (p - 1)
                            expected = pres.term(s, target, c) if c and target < n else pres.zero()
                            assert apply_operation(op, x) == expected, (p, n, s, e, i)
