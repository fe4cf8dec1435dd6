"""The real and complex points of W(n, m), as oracles from outside the paper.

Borel computed the cohomology of the real and complex Stiefel manifolds
(A. Borel, Ann. of Math. 57 (1953); A. Hatcher, Algebraic Topology (2002),
section 3.D; N. E. Steenrod and D. B. A. Epstein, Cohomology Operations
(1962), chapter IV), and the motivic ring must realise to them:

- real points V_m(R^n), over Z/2 with {-1} inverted: H^{p,q} goes to
  degree p - q, {-1} to 1, rho_i to x_{i-1} and Sq^{2a} to Sq^a (see
  D. Dugger and D. C. Isaksen, Ann. K-Theory 2 (2017));
- complex points V_m(C^n), by Betti realisation: H^{p,q} goes to degree
  p, {-1} to 0, rho_i to x_{2i-1} and P^a (Sq^{2a} at p = 2) to P^a.

The two algebras below are written from Borel's formulas alone, on tuples
of indices with math.comb: they reach neither the product (_normal_word,
table_product), nor the Steenrod kernel (_cartan, _generator_table), nor
binom_mod.  Each check is exhaustive on W(n, m), n <= 6: each realisation
is a ring map, commutes with the operations, and is onto degree by degree.
"""

import itertools
import math
from collections import Counter

import pytest

from stiefel.algebra import StiefelPresentation, all_monomials, basis_element
from stiefel.coefficients import CoeffRing, FieldProfile
from stiefel.operations import apply_operation, power, square

Z, Z2 = CoeffRing(), CoeffRing(2)
PROFILES = (FieldProfile(), FieldProfile(minus_one_is_square=True))
PROFILE_IDS = ["plain", "minus-one-square"]


def stiefel_rings(ring, profile):
    """W(n, m) for n <= 6 and every m."""
    for n in range(1, 7):
        for m in range(n + 1):
            yield StiefelPresentation(n, m, ring, profile)


class RealPoints:
    """H*(V_m(R^n); F_2): the simple system of x_i, n - m <= i <= n - 1,
    with x_i^2 = x_{2i} (0 when 2i > n - 1) and Sq^j x_i = C(i, j) x_{i+j}
    (0 when i + j > n - 1).  A monomial is a sorted tuple of indices, and
    an element is the set of its monomials."""

    def __init__(self, n, m):
        self.n, self.gens = n, range(n - m, n)

    def basis(self, d):
        return {mono for r in range(len(self.gens) + 1)
                for mono in itertools.combinations(self.gens, r) if sum(mono) == d}

    def word(self, indices):
        """x_{i_1} ... x_{i_r}, each repeated pair x_i x_i rewritten to x_{2i}."""
        counts = Counter(indices)
        while any(c > 1 for c in counts.values()):
            i = min(i for i, c in counts.items() if c > 1)
            if 2 * i > self.n - 1:
                return set()
            counts[i] -= 2
            counts[2 * i] += 1
        return {tuple(sorted(i for i, c in counts.items() if c))}

    def mul(self, x, y):
        out = set()
        for a in x:
            for b in y:
                out ^= self.word(a + b)
        return out

    def sq(self, a, x):
        """Sq^a x by the Cartan formula, one generator at a time."""
        out = set()
        for mono in x:
            if not mono:
                out ^= {()} if a == 0 else set()
                continue
            i, rest = mono[0], {mono[1:]}
            for b in range(a + 1):
                if math.comb(i, b) % 2 and i + b <= self.n - 1:
                    out ^= self.mul({(i + b,)}, self.sq(a - b, rest))
        return out


class ComplexPoints:
    """H*(V_m(C^n); R): the exterior algebra on x_{2i-1}, n - m + 1 <= i <= n,
    with P^a x_{2j-1} = C(j-1, a) x_{2(j+a(p-1))-1} mod p (0 past x_{2n-1}),
    P^a being Sq^{2a} at p = 2.  A monomial is the sorted tuple of its i,
    and an element is {monomial: coefficient}, reduced mod the modulus (0
    for Z)."""

    def __init__(self, n, m, modulus):
        self.n, self.modulus, self.gens = n, modulus, range(n - m + 1, n + 1)

    def basis(self, d):
        return {mono for r in range(len(self.gens) + 1)
                for mono in itertools.combinations(self.gens, r)
                if sum(2 * i - 1 for i in mono) == d}

    def reduced(self, acc):
        out = {mono: c % self.modulus if self.modulus else c for mono, c in acc.items()}
        return {mono: c for mono, c in out.items() if c}

    def mul(self, x, y):
        """The exterior product; the generators have odd degree, so the sign
        counts the pairs that cross."""
        acc = Counter()
        for a, c in x.items():
            for b, e in y.items():
                if not set(a) & set(b):
                    crossings = sum(1 for i in a for j in b if i > j)
                    acc[tuple(sorted(a + b))] += (-1) ** crossings * c * e
        return self.reduced(acc)

    def power(self, a, x):
        """P^a x at p = modulus by the Cartan formula (P^a has even degree,
        so no sign), one generator at a time."""
        p, acc = self.modulus, Counter()
        for mono, c in x.items():
            if not mono:
                acc[()] += c if a == 0 else 0
                continue
            j, rest = mono[0], {mono[1:]: c}
            for b in range(a + 1):
                target, value = j + b * (p - 1), math.comb(j - 1, b) % p
                if value and target <= self.n:
                    acc.update(self.mul({(target,): value}, self.power(a - b, rest)))
        return self.reduced(acc)


def real_points(x):
    """The image of x in H*(V_m(R^n); F_2): {-1}^k rho_I -> x_{I-1}."""
    out = set()
    for mono, c in x.terms:
        if sum(v for _, v in c.terms) % 2:
            out ^= {tuple(i - 1 for i in mono)}
    return out


def complex_points(x):
    """The image of x in H*(V_m(C^n); R): rho_I -> x_{2I-1}, {-1} -> 0."""
    return {mono: c.coefficient(0) for mono, c in x.terms if c.coefficient(0)}


def test_real_points_ring_map_and_squares():
    products = squares = 0
    for pres in stiefel_rings(Z2, PROFILES[0]):
        borel = RealPoints(pres.n, pres.m)
        xs = [pres.monomial(mono) for mono in all_monomials(pres)]
        for x in xs:
            fx = real_points(x)
            for y in xs:
                assert real_points(x * y) == borel.mul(fx, real_points(y)), (pres, x, y)
                products += 1
            for a in range(pres.n + 1):
                lhs = real_points(apply_operation(square(2 * a), x))
                assert lhs == borel.sq(a, fx), (pres, x, a)
                squares += 1
    assert (products, squares) == (7278, 1509)


@pytest.mark.parametrize("profile", PROFILES, ids=PROFILE_IDS)
def test_complex_points_ring_map(profile):
    products = 0
    for pres in stiefel_rings(Z, profile):
        borel = ComplexPoints(pres.n, pres.m, 0)
        xs = [pres.monomial(mono) for mono in all_monomials(pres)]
        for x in xs:
            fx = complex_points(x)
            for y in xs:
                assert complex_points(x * y) == borel.mul(fx, complex_points(y)), (pres, x, y)
                products += 1
    assert products == 7278


# at odd p, {-1} vanishes in R/2R = 0 whatever the profile
@pytest.mark.parametrize("p, profile", [(2, PROFILES[0]), (2, PROFILES[1]), (3, PROFILES[0]),
                                        (5, PROFILES[0])],
                         ids=["Z/2-plain", "Z/2-minus-one-square", "Z/3", "Z/5"])
def test_complex_points_reduced_powers(p, profile):
    cases = 0
    for pres in stiefel_rings(CoeffRing(p), profile):
        borel = ComplexPoints(pres.n, pres.m, p)
        for mono in all_monomials(pres):
            x = pres.monomial(mono)
            fx = complex_points(x)
            for a in range(pres.n + 1):
                op = square(2 * a) if p == 2 else power(a, p)
                lhs = complex_points(apply_operation(op, x))
                assert lhs == borel.power(a, fx), (pres, x, op)
                cases += 1
    assert cases == 1509


def test_real_points_onto_each_degree():
    for pres in stiefel_rings(Z2, PROFILES[0]):
        borel = RealPoints(pres.n, pres.m)
        # a line {-1}^k rho_I lies in degree p - q = sum(I) - |I| at weight
        # q = sum(I) + k; one weight above the top reaches every I
        weights = range(sum(pres.generators) + 2)
        for d in range(sum(borel.gens) + 1):
            hit = set()
            for q in weights:
                for key, k in pres.lines((q + d, q)):
                    image = real_points(basis_element(pres, key, k))
                    assert all(sum(mono) == d for mono in image), (pres, key, k)
                    hit |= image
            assert hit == borel.basis(d), (pres, d)


@pytest.mark.parametrize("profile", PROFILES, ids=PROFILE_IDS)
def test_complex_points_onto_each_degree(profile):
    for pres in stiefel_rings(Z, profile):
        borel = ComplexPoints(pres.n, pres.m, 0)
        for d in range(sum(2 * i - 1 for i in borel.gens) + 1):
            hit = set()
            # every line of degree p = d has weight q <= p
            for q in range(d + 1):
                for key, k in pres.lines((d, q)):
                    image = complex_points(basis_element(pres, key, k))
                    assert all(sum(2 * i - 1 for i in mono) == d for mono in image), (pres, key, k)
                    hit |= {mono for mono, c in image.items() if c in (1, -1)}
            assert hit == borel.basis(d), (pres, d)
