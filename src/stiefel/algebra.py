"""Cohomology rings of Stiefel varieties W(n, m).

H(W(n, m); R) is the free module over the modeled base ring on squarefree
monomials in generators rho_{n-m+1}, ..., rho_n, where rho_i has bidegree
(2i-1, i).  Multiplication is graded-commutative with the squaring rule

    rho_i^2 = {-1} rho_{2i-1}   when 2i-1 <= n,      rho_i^2 = 0 otherwise.

Monomials are tuples of strictly increasing generator indices; the empty
tuple is the unit.  Elements are kept in a unique normal form, so equality
of elements is structural equality.

Products encode each monomial as an int bitmask, bit i standing for rho_i.
Two disjoint monomials multiply as in an exterior algebra, with the sign
given by the parity of the crossing pairs; overlapping ones are contracted
by the squaring rule (see _normal_word).  Coefficients of one product are
summed as integers per monomial and {-1}-power and normalised once per
output monomial.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable

from .coefficients import Bidegree, CoeffRing, FieldProfile, MCoefficient
from .errors import ContextMismatch, InvalidGenerator, InvalidPresentation

Monomial = tuple[int, ...]


def monomial_bidegree(mono: Monomial) -> Bidegree:
    """Sum of (2i-1, i) over the generator indices of the monomial."""
    return Bidegree(sum(2 * i - 1 for i in mono), sum(mono))


@dataclass(frozen=True)
class StiefelPresentation:
    """Presentation data for H(W(n, m); R).

    A value object: two presentations with the same ambient dimension,
    frame length, coefficient ring and field profile are the same ring.
    """

    n: int
    m: int
    ring: CoeffRing = CoeffRing()
    profile: FieldProfile = FieldProfile()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidPresentation(f"n must be at least 1, got n={self.n}")
        if self.m < 0:
            raise InvalidPresentation(f"m must be nonnegative, got m={self.m}")
        if self.m > self.n:
            raise InvalidPresentation(f"m > n: a full-rank {self.n}x{self.m} matrix cannot exist")

    @property
    def generators(self) -> range:
        """Generator indices n-m+1 .. n."""
        return range(self.n - self.m + 1, self.n + 1)

    def is_generator(self, i: int) -> bool:
        return self.n - self.m + 1 <= i <= self.n

    def zero(self) -> "Element":
        return Element(self, ())

    def scalar(self, c: MCoefficient) -> "Element":
        if c.ring != self.ring or c.profile != self.profile:
            raise ContextMismatch("scalar coefficient from a different context")
        return Element(self, (((), c),))

    def unit(self, c: int = 1) -> "Element":
        return self.scalar(MCoefficient.integer(self.ring, self.profile, c))

    def minus_one(self, power: int = 1) -> "Element":
        """The base class {-1}^power as a ring element."""
        return self.scalar(MCoefficient.minus_one(self.ring, self.profile, power))

    def gen(self, i: int) -> "Element":
        if not self.is_generator(i):
            raise InvalidGenerator(f"rho_{i} is not a generator of W({self.n},{self.m})")
        return Element(self, (((i,), MCoefficient.one(self.ring, self.profile)),))

    def monomial(self, indices: Iterable[int], coeff: int | MCoefficient = 1) -> "Element":
        mono = tuple(indices)
        if not isinstance(coeff, MCoefficient):
            coeff = MCoefficient.integer(self.ring, self.profile, coeff)
        return Element(self, ((mono, coeff),))

    def gen_square(self, i: int) -> "Element":
        """The value of rho_i^2 forced by the defining relation."""
        if not self.is_generator(i):
            raise InvalidGenerator(f"rho_{i} is not a generator of W({self.n},{self.m})")
        if 2 * i - 1 > self.n:
            return self.zero()
        return self.minus_one() * self.gen(2 * i - 1)


@dataclass(frozen=True)
class Element:
    """A class in H(W(n, m); R), in normal form.

    terms pairs squarefree monomials with nonzero MCoefficients, stored
    sorted by (length, indices) so that equal elements compare equal.  An
    element may be inhomogeneous; it is then the sum of its homogeneous
    parts.
    """

    pres: StiefelPresentation
    terms: tuple[tuple[Monomial, MCoefficient], ...]

    def __post_init__(self) -> None:
        acc: dict[Monomial, MCoefficient] = {}
        for mono, c in self.terms:
            mono = tuple(mono)
            if list(mono) != sorted(set(mono)):
                raise ValueError(f"monomial indices must be strictly increasing, got {mono}")
            for i in mono:
                if not self.pres.is_generator(i):
                    raise InvalidGenerator(
                        f"rho_{i} is not a generator of W({self.pres.n},{self.pres.m})")
            if c.ring != self.pres.ring or c.profile != self.pres.profile:
                raise ContextMismatch("coefficient from a different context")
            acc[mono] = acc[mono] + c if mono in acc else c
        normal = tuple(sorted(((m, c) for m, c in acc.items() if c),
                              key=lambda t: (len(t[0]), t[0])))
        object.__setattr__(self, "terms", normal)

    def _require_same_ring(self, other: "Element") -> None:
        if self.pres != other.pres:
            raise ContextMismatch(
                f"elements live in different rings: W({self.pres.n},{self.pres.m}) over "
                f"{self.pres.ring.name} vs W({other.pres.n},{other.pres.m}) over "
                f"{other.pres.ring.name}")

    def __add__(self, other: "Element") -> "Element":
        self._require_same_ring(other)
        return Element(self.pres, self.terms + other.terms)

    def __neg__(self) -> "Element":
        return Element(self.pres, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, MCoefficient)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_ring(other)
        pres = self.pres
        n = pres.n
        ys = [(_mask(m2), c2.terms) for m2, c2 in other.terms]
        # coefficients summed in Z[{-1}] per (monomial, {-1}-power), then
        # reduced once per monomial: reduction is a ring homomorphism
        acc: dict[int, dict[int, int]] = {}
        for m1, c1 in self.terms:
            a, t1 = _mask(m1), c1.terms
            for b, t2 in ys:
                nf = _normal_word(n, a, b)
                if nf is None:
                    continue
                mask, sign, twist = nf
                powers = acc.get(mask)
                if powers is None:
                    powers = acc[mask] = {}
                for k1, v1 in t1:
                    k1 += twist
                    v1 *= sign
                    for k2, v2 in t2:
                        k = k1 + k2
                        powers[k] = powers.get(k, 0) + v1 * v2
        ring, profile = pres.ring, pres.profile
        return Element(pres, tuple(
            (_monomial(mask), MCoefficient(ring, profile, tuple(powers.items())))
            for mask, powers in acc.items()))

    def __rmul__(self, other) -> "Element":
        if isinstance(other, (int, MCoefficient)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: int | MCoefficient) -> "Element":
        if isinstance(c, int):
            c = MCoefficient.integer(self.pres.ring, self.pres.profile, c)
        return Element(self.pres, tuple((m, cc * c) for m, cc in self.terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, mono: Iterable[int]) -> MCoefficient:
        mono = tuple(mono)
        for m, c in self.terms:
            if m == mono:
                return c
        return MCoefficient.zero(self.pres.ring, self.pres.profile)

    def bidegrees(self) -> set[Bidegree]:
        """Bidegrees of the homogeneous constituents, one per monomial and
        {-1}-power (a single {-1}^k factor contributes (k, k))."""
        out = set()
        for mono, c in self.terms:
            base = monomial_bidegree(mono)
            for k, _ in c.terms:
                out.add(base + (k, k))
        return out

    def is_homogeneous(self) -> bool:
        return len(self.bidegrees()) <= 1

    def homogeneous_part(self, bd) -> "Element":
        bd = Bidegree(*bd)
        picked = []
        for mono, c in self.terms:
            base = monomial_bidegree(mono)
            keep = tuple((k, ck) for k, ck in c.terms if base + (k, k) == bd)
            if keep:
                picked.append((mono, MCoefficient(self.pres.ring, self.pres.profile, keep)))
        return Element(self.pres, tuple(picked))


def _mask(mono: Monomial) -> int:
    """The monomial as a bitmask, bit i standing for rho_i."""
    return sum(1 << i for i in mono)


def _monomial(mask: int) -> Monomial:
    """Inverse of _mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _normal_word(n: int, a: int, b: int) -> tuple[int, int, int] | None:
    """Normal form of the product of the monomials with bitmasks a and b
    inside W(n, *), bit i standing for rho_i.

    Returns (mask, sign, twist) meaning the product equals
    sign * {-1}^twist * monomial(mask), or None when the product is zero.

    Disjoint monomials multiply as in an exterior algebra: every generator
    has odd degree, so the sign is the parity of the crossing pairs (i in
    a, j in b, i > j).  Repeated indices are contracted smallest first via
    rho_i rho_i -> {-1} rho_{2i-1} (zero when 2i-1 > n); rho_{2i-1} may
    already be present once (giving a new repeat) or twice (a triple copy,
    of which one pair remains to contract), and rho_1^2 = {-1} rho_1.  No
    sign is tracked once a contraction happens: the result then carries
    {-1}^twist with twist >= 1, whose coefficients lie in R/2R, where
    -1 = 1, so sign 1 is returned.
    """
    twice = a & b
    if not twice:
        crossings = 0
        rest = b
        while rest:
            low = rest & -rest
            crossings += (a >> low.bit_length()).bit_count()
            rest ^= low
        return a | b, -1 if crossings & 1 else 1, 0
    # every repeated index is contracted at least once
    if twice >> ((n + 1) // 2 + 1):
        return None
    single = a ^ b
    twist = 0
    while twice:
        low = twice & -twice
        twice ^= low
        j = 2 * low.bit_length() - 3  # 2i - 1 for low = 1 << i
        if j > n:
            return None
        twist += 1
        bit = 1 << j
        if single & bit:
            single ^= bit
            twice |= bit
        else:
            single |= bit
    return single, 1, twist


def all_monomials(pres: StiefelPresentation) -> list[Monomial]:
    """All squarefree monomials (the M-module basis), shortest first."""
    gens = list(pres.generators)
    out: list[Monomial] = []
    for r in range(len(gens) + 1):
        out.extend(itertools.combinations(gens, r))
    return out


def basis_in_bidegree(pres: StiefelPresentation, bd) -> list[tuple[Monomial, int]]:
    """Basis lines (monomial, k) of the (p, q) graded piece, k the {-1}-power.

    A line with k = 0 carries a copy of R and one with k >= 1 a copy of
    R/2R; lines whose coefficient group vanishes (R/2R = 0, or -1 a square)
    are omitted.  Negative weight gives the empty list, per the vanishing
    range of the theory.
    """
    bd = Bidegree(*bd)
    if bd.q < 0:
        return []
    torsion_lines = (not pres.profile.minus_one_is_square
                     and pres.ring.reduce_mod_two(1) != 0)
    out = []
    for mono in all_monomials(pres):
        base = monomial_bidegree(mono)
        k = bd.p - base.p
        if k < 0 or bd.q - base.q != k:
            continue
        if k >= 1 and not torsion_lines:
            continue
        out.append((mono, k))
    out.sort(key=lambda line: (line[1], line[0]))
    return out


def basis_element(pres: StiefelPresentation, mono: Monomial, k: int) -> Element:
    """The basis-line generator {-1}^k * mono with unit coefficient."""
    return pres.monomial(mono, MCoefficient(pres.ring, pres.profile, ((k, 1),)))


def poincare_polynomial(pres: StiefelPresentation) -> dict[Bidegree, int]:
    """Multiset of M-basis bidegrees with multiplicities: the expansion of
    the product of (1 + T^(2i-1, i)) over the generators."""
    series = {Bidegree(0, 0): 1}
    for i in pres.generators:
        step = Bidegree(2 * i - 1, i)
        nxt = dict(series)
        for bd, mult in series.items():
            nxt[bd + step] = nxt.get(bd + step, 0) + mult
        series = nxt
    return series


def _random_scalar(rng: random.Random, ring: CoeffRing, k: int) -> int:
    if k >= 1:
        return rng.randint(0, 1)
    if ring.modulus == 0:
        return rng.randint(-4, 4)
    return rng.randint(0, ring.modulus - 1)


def random_element(pres: StiefelPresentation, bidegree=None, seed: int = 0) -> Element:
    """Deterministic pseudo-random normal-form element.

    With a bidegree, the result is homogeneous and supported on the basis
    lines of that graded piece.  The same seed always yields the same
    element.
    """
    rng = random.Random(seed)
    terms: list[tuple[Monomial, MCoefficient]] = []
    if bidegree is not None:
        for mono, k in basis_in_bidegree(pres, bidegree):
            c = MCoefficient(pres.ring, pres.profile, ((k, _random_scalar(rng, pres.ring, k)),))
            if c:
                terms.append((mono, c))
    else:
        gens = list(pres.generators)
        for _ in range(rng.randint(1, 3)):
            mono = tuple(i for i in gens if rng.random() < 0.5)
            ks = rng.sample((0, 1, 2), rng.randint(1, 2))
            c = MCoefficient(pres.ring, pres.profile,
                             tuple((k, _random_scalar(rng, pres.ring, k)) for k in sorted(ks)))
            if c:
                terms.append((mono, c))
    return Element(pres, tuple(terms))
