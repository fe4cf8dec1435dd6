"""The comparison target: H(G_m x P^{n-1}) with the Tate product rule.

As an algebra over the modeled base this is

    M[sigma, eta] / (sigma^2 - {-1} sigma, eta^n),
    |sigma| = (1, 1),  |eta| = (2, 1),

the tensor product of H(G_m) = M[sigma]/(sigma^2 - {-1} sigma) with the
truncated polynomial ring H(P^{n-1}) = M[eta]/(eta^n).  The reduced
cohomology of the Tate suspension of P^{n-1} with a disjoint basepoint is
the ideal of terms divisible by sigma, where the suspension product rule
(sigma x)(sigma y) = {-1} sigma (x y) follows from sigma^2 = {-1} sigma.

Its elements are algebra.Element values over a PGmPresentation; products
encode the key sigma^s eta^e as the int s | e << 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter

from .algebra import Element, Presentation, has_torsion_lines
from .coefficients import Bidegree, CoeffRing, FieldProfile, MCoefficient
from .errors import InadmissibleOperation, InvalidPresentation, json_int
from .operations import apply_operation, square

# a monomial sigma^s eta^e is keyed by (s, e) with s in {0, 1}, 0 <= e < n
PGmKey = tuple[int, int]
PGmElement = Element  # an Element whose presentation is a PGmPresentation


def pgm_key_bidegree(key: PGmKey) -> Bidegree:
    s, e = key
    return Bidegree(s + 2 * e, s + e)


def _encode(key: PGmKey) -> int:
    s, e = key
    return s | e << 1


def _decode(code: int) -> PGmKey:
    return code & 1, code >> 1


def _key_product(n: int, a: int, b: int) -> tuple[int, int, int] | None:
    """Product of the encoded keys a and b as (code, sign, twist), or None
    once the eta exponents reach the truncation degree n.  sigma^2 =
    {-1} sigma gives twist 1; eta is even, so no signs arise."""
    e = (a >> 1) + (b >> 1)
    if e >= n:
        return None
    if a & b & 1:
        return 1 | e << 1, 1, 1
    return (a | b) & 1 | e << 1, 1, 0


@dataclass(frozen=True)
class PGmPresentation(Presentation):
    """Presentation data for H(G_m x P^{n-1}; R); a value object."""

    n: int
    ring: CoeffRing = CoeffRing()
    profile: FieldProfile = FieldProfile()

    unit_key = (0, 0)
    json_fields = ("n",)
    key_fields = ("s", "e")
    key_bidegree = staticmethod(pgm_key_bidegree)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidPresentation(f"n must be at least 1, got n={self.n}")

    def term(self, s: int, e: int, coeff: int | MCoefficient = 1) -> Element:
        return self.element((s, e), coeff)

    def sigma(self) -> Element:
        return self.term(1, 0)

    def eta(self, e: int = 1) -> Element:
        """eta^e, which is zero once e reaches the truncation degree n."""
        if e >= self.n:
            return self.zero()
        return self.term(0, e)

    def check_key(self, key) -> PGmKey:
        s, e = key
        if s not in (0, 1):
            raise ValueError(f"sigma exponent must be 0 or 1, got {s}")
        if not 0 <= e < self.n:
            raise ValueError(f"eta exponent out of range: {e} (n={self.n})")
        return s, e

    term_order = staticmethod(itemgetter(0))

    def codec(self):
        return _encode, _decode, _key_product

    def lines(self, bd) -> list[tuple[PGmKey, int]]:
        return basis_in_bidegree(self, bd)

    def random_key(self, rng: random.Random) -> PGmKey:
        return rng.randint(0, 1), rng.randrange(self.n)

    @staticmethod
    def key_to_json(key: PGmKey) -> dict:
        return {"s": key[0], "e": key[1]}

    @staticmethod
    def key_from_json(entry: dict) -> PGmKey:
        return json_int(entry["s"], "s"), json_int(entry["e"], "e")


def reduced_part(x: Element) -> Element:
    """The component in the image of the Tate suspension: sigma-divisible terms."""
    return Element(x.pres, tuple((k, c) for k, c in x.terms if k[0] == 1))


def is_reduced(x: Element) -> bool:
    return all(s == 1 for (s, _), _ in x.terms)


def sq_projective(i: int, j: int, pres: PGmPresentation) -> Element:
    """Sq^{2i} on the hyperplane power eta^j, by apply_operation:
    binom(j, i) eta^{j+i} mod 2, truncated at eta^n.  The odd squares
    vanish on these classes."""
    return apply_operation(square(2 * i), pres.eta(j))


def total_square_oracle(j: int, pres: PGmPresentation) -> Element:
    """(eta + eta^2)^j by honest repeated multiplication of truncated
    polynomials over Z/2, coefficient lists indexed by the eta exponent;
    the independent cross-check for sq_projective, sharing no code with
    the element product."""
    if pres.ring.modulus != 2:
        raise InadmissibleOperation(
            f"Steenrod squares need Z/2 coefficients, ring is {pres.ring.name}")
    if j < 0:
        raise ValueError("power must be nonnegative")
    power = [1] + [0] * (pres.n - 1)
    for _ in range(j):
        power = [((power[e - 1] if e >= 1 else 0) + (power[e - 2] if e >= 2 else 0)) % 2
                 for e in range(pres.n)]
    return Element(pres, tuple(((0, e), MCoefficient.one(pres.ring, pres.profile))
                               for e, c in enumerate(power) if c))


def basis_in_bidegree(pres: PGmPresentation, bd) -> list[tuple[PGmKey, int]]:
    """Basis lines ((s, e), k) of the (p, q) graded piece, k the {-1}-power;
    same conventions as the Stiefel-side enumeration."""
    bd = Bidegree(*bd)
    if bd.q < 0:
        return []
    torsion_lines = has_torsion_lines(pres)
    out = []
    for s in (0, 1):
        for e in range(pres.n):
            base = pgm_key_bidegree((s, e))
            k = bd.p - base.p
            if k < 0 or bd.q - base.q != k:
                continue
            if k >= 1 and not torsion_lines:
                continue
            out.append(((s, e), k))
    out.sort(key=lambda line: (line[1], line[0]))
    return out
