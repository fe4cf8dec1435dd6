import pytest

from stiefel.algebra import StiefelPresentation, random_element
from stiefel.coefficients import Bidegree, CoeffRing, FieldProfile, MCoefficient
from stiefel.errors import ContextMismatch, InadmissibleOperation, InvalidPresentation
from stiefel.targets import (PGmElement, PGmPresentation, basis_in_bidegree, is_reduced,
                             pgm_key_bidegree, reduced_part, sq_projective,
                             total_square_oracle)

Z = CoeffRing()
Z2 = CoeffRing(2)
PLAIN = FieldProfile()
RINGS = (Z, Z2, CoeffRing(3), CoeffRing(4))
PROFILES = (PLAIN, FieldProfile(minus_one_is_square=True))


def pgm(n, ring=Z, profile=PLAIN):
    return PGmPresentation(n, ring, profile)


class TestPresentation:
    def test_invalid(self):
        with pytest.raises(InvalidPresentation):
            PGmPresentation(0)
        # term takes its key from the caller and validates it
        for call, message in ((lambda: pgm(3).term(2, 0), "sigma exponent must be 0 or 1, got 2"),
                              (lambda: pgm(3).term(0, 3), "eta exponent out of range: 3 (n=3)"),
                              (lambda: pgm(3).term(1, -1), "eta exponent out of range: -1 (n=3)"),
                              (lambda: pgm(3).eta(-1), "eta exponent out of range: -1 (n=3)")):
            with pytest.raises(ValueError) as caught:
                call()
            assert str(caught.value) == message

    def test_eta_truncates(self):
        pres = pgm(3)
        assert not pres.eta(3)
        assert pres.eta(3) == pres.zero() == pres.eta(7)
        assert pres.eta(2)
        assert pres.eta(2) == pres.term(0, 2) and pres.sigma() == pres.term(1, 0)

    def test_bidegrees(self):
        assert pgm_key_bidegree((1, 0)) == Bidegree(1, 1)   # sigma
        assert pgm_key_bidegree((0, 1)) == Bidegree(2, 1)   # eta
        assert pgm_key_bidegree((1, 2)) == Bidegree(5, 3)   # sigma eta^2


class TestMultiply:
    def test_sigma_squared(self):
        pres = pgm(4)
        assert pres.sigma() * pres.sigma() == pres.minus_one() * pres.sigma()

    def test_tate_product_rule(self):
        pres = pgm(9)
        for a in range(4):
            for b in range(4):
                lhs = (pres.sigma() * pres.eta(a)) * (pres.sigma() * pres.eta(b))
                rhs = pres.minus_one() * pres.sigma() * pres.eta(a + b)
                assert lhs == rhs

    def test_eta_truncation_in_products(self):
        pres = pgm(4)
        assert not pres.eta(2) * pres.eta(2)
        assert pres.eta(2) * pres.eta(1) == pres.eta(3)

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            pgm(3).sigma() * pgm(4).sigma()

    def test_stiefel_times_tate_is_a_context_mismatch(self):
        gl3 = StiefelPresentation(3, 3)
        with pytest.raises(ContextMismatch):
            gl3.gen(1) * pgm(3).sigma()
        with pytest.raises(ContextMismatch):
            pgm(3).sigma() + gl3.gen(1)

    def test_reduced_ideal(self):
        pres = pgm(5)
        x = random_element(pres, None, seed=3)
        y = reduced_part(random_element(pres, None, seed=4))
        assert is_reduced(x * y)
        assert is_reduced(y * x)


def reference_tate_product(x, y):
    """The Tate product term by term on MCoefficients: eta exponents add,
    eta^n = 0, and sigma^2 = {-1} sigma.  The reference for the integer
    product kernel; it shares no code with Element.__mul__."""
    acc = {}
    for (s1, e1), c1 in x.terms:
        for (s2, e2), c2 in y.terms:
            e = e1 + e2
            if e >= x.pres.n:
                continue
            c = c1 * c2
            s = s1 + s2
            if s == 2:
                # sigma^2 = {-1} sigma; eta is even, so no signs arise
                s, c = 1, c.shift(1)
            key = (s, e)
            acc[key] = acc[key] + c if key in acc else c
    return PGmElement(x.pres, tuple(acc.items()))


class TestProductAgainstReference:
    def test_every_twisted_key_pair(self):
        for ring in RINGS:
            for profile in PROFILES:
                for n in range(1, 9):
                    pres = pgm(n, ring, profile)
                    lines = [pres.term(s, e, MCoefficient.minus_one(ring, profile, k))
                             for s in (0, 1) for e in range(n) for k in range(3)]
                    for x in lines:
                        for y in lines:
                            z = x * y
                            assert z == reference_tate_product(x, y), (x, y)
                            assert PGmElement(z.pres, z.terms) == z

    def test_seeded_sums(self):
        for seed in range(400):
            pres = pgm(1 + seed % 8, RINGS[seed % 4], PROFILES[seed % 7 == 0])
            x = sum((random_element(pres, None, seed=seed * 3 + t) for t in range(3)),
                    pres.zero())
            y = random_element(pres, None, seed=seed + 10_000) - pres.unit(seed % 5)
            for u, v in ((x, y), (y, x)):
                z = u * v
                assert z == reference_tate_product(u, v)
                assert PGmElement(z.pres, z.terms) == z


class TestSqProjective:
    def test_sq2_on_eta_in_p2(self):
        pres = pgm(3, ring=Z2)
        assert sq_projective(1, 1, pres) == pres.term(0, 2)

    def test_sq2_on_eta_squared_vanishes(self):
        # C(2,1) = 2 is even
        pres = pgm(9, ring=Z2)
        assert not sq_projective(1, 2, pres)

    def test_sq0_is_identity(self):
        pres = pgm(9, ring=Z2)
        for j in range(1, 8):
            assert sq_projective(0, j, pres) == pres.term(0, j)

    def test_truncation(self):
        pres = pgm(3, ring=Z2)
        assert not sq_projective(2, 1, pres)  # eta^3 = 0 in P^2

    def test_requires_mod2(self):
        with pytest.raises(InadmissibleOperation):
            sq_projective(1, 1, pgm(3))
        with pytest.raises(InadmissibleOperation):
            sq_projective(1, 1, pgm(3, ring=Z2,
                                    profile=FieldProfile(characteristic=2)))


class TestTotalSquareOracle:
    def test_base_cases(self):
        pres = pgm(20, ring=Z2)
        assert total_square_oracle(0, pres) == pres.unit()
        assert total_square_oracle(1, pres) == pres.eta(1) + pres.eta(2)

    def test_square_case(self):
        # (eta + eta^2)^2 = eta^2 + eta^4 over F_2
        pres = pgm(20, ring=Z2)
        assert total_square_oracle(2, pres) == pres.eta(2) + pres.eta(4)

    def test_refusals(self):
        with pytest.raises(InadmissibleOperation) as caught:
            total_square_oracle(1, pgm(3, ring=CoeffRing(3)))
        assert str(caught.value) == "Steenrod squares need Z/2 coefficients, ring is Z/3"
        with pytest.raises(ValueError) as caught:
            total_square_oracle(-1, pgm(3, ring=Z2))
        assert type(caught.value) is ValueError
        assert str(caught.value) == "power must be nonnegative"

    def test_agrees_with_sq_projective(self):
        for n in (2, 5, 13, 25):
            pres = pgm(n, ring=Z2)
            for j in range(13):
                oracle = total_square_oracle(j, pres)
                for i in range(13):
                    expected = pres.zero()
                    if j + i < n and oracle.coefficient((0, j + i)):
                        expected = pres.term(0, j + i)
                    assert sq_projective(i, j, pres) == expected


class TestBasis:
    def test_lines_in_low_degrees(self):
        pres = pgm(3)
        assert basis_in_bidegree(pres, (1, 1)) == [((1, 0), 0), ((0, 0), 1)]
        assert basis_in_bidegree(pres, (3, 2)) == [((1, 1), 0), ((0, 1), 1)]
        assert basis_in_bidegree(pres, (2, 1)) == [((0, 1), 0)]
        assert basis_in_bidegree(pres, (2, 2)) == [((1, 0), 1), ((0, 0), 2)]
        assert basis_in_bidegree(pres, (2, -1)) == []

    def test_reduced_line_of_comparison_degree(self):
        pres = pgm(6)
        for j in range(1, 7):
            free = [line for line in basis_in_bidegree(pres, (2 * j - 1, j)) if line[1] == 0]
            assert free == [((1, j - 1), 0)]


def _filtered_pieces(pres, max_k):
    """Map each bidegree to its sorted basis lines by filing every (s, e, k),
    k <= max_k, under bidegree(sigma^s eta^e) + (k, k); the closed form
    e = p - q, k = 2q - p - s plays no part here."""
    torsion = pres.ring.modulus % 2 == 0 and not pres.profile.minus_one_is_square
    pieces = {}
    for s in (0, 1):
        for e in range(pres.n):
            for k in range(max_k + 1 if torsion else 1):
                pieces.setdefault(pgm_key_bidegree((s, e)) + (k, k), []).append(((s, e), k))
    for lines in pieces.values():
        lines.sort(key=lambda line: (line[1], line[0]))
    return pieces


class TestEnumeratorAgainstFilter:
    @pytest.mark.parametrize("ring", [Z, Z2, CoeffRing(3)], ids=["Z", "Z/2", "Z/3"])
    @pytest.mark.parametrize("profile", PROFILES, ids=["plain", "minus-one-square"])
    def test_every_piece_up_to_n8(self, ring, profile):
        for n in range(1, 9):
            pres = pgm(n, ring, profile)
            pieces = _filtered_pieces(pres, 40)
            for p in range(-3, 30):
                for q in range(-3, 30):
                    assert basis_in_bidegree(pres, (p, q)) == pieces.get((p, q), []), \
                        (pres, p, q)
