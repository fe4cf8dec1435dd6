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

Element is the element type of every computed ring: it reads the keys and
their product from a Presentation, here StiefelPresentation and, for the
Tate target, targets.PGmPresentation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Hashable, Iterable

from .coefficients import Bidegree, CoeffRing, FieldProfile, MCoefficient
from .errors import (ContextMismatch, ElementParseError, InvalidGenerator,
                     InvalidPresentation, json_int)

Monomial = tuple[int, ...]


def monomial_bidegree(mono: Monomial) -> Bidegree:
    """Sum of (2i-1, i) over the generator indices of the monomial."""
    return Bidegree(sum(2 * i - 1 for i in mono), sum(mono))


class Presentation:
    """What Element reads from a ring with a monomial M-basis, in which a
    product of two basis keys is sign * {-1}^twist * key or zero.

    A presentation is a frozen dataclass with fields n, ring and profile.
    It supplies check_key(key) (the canonical key, or ValueError),
    term_order(term) (the sort key of a (key, coefficient) term of the
    normal form), key_bidegree(key), codec() (encode and decode between
    keys and ints, and product(n, a, b) giving (code, sign, twist) or None
    for zero), lines(bd) (the basis lines (key, k) of a graded piece),
    random_key(rng), the JSON fields json_fields, key_fields,
    key_to_json(key) and key_from_json(entry), and unit_key.  The elements
    built below are the same in every ring.
    """

    def zero(self) -> "Element":
        return Element(self, ())

    def scalar(self, c: MCoefficient) -> "Element":
        if c.ring != self.ring or c.profile != self.profile:
            raise ContextMismatch("scalar coefficient from a different context")
        return Element(self, ((self.unit_key, c),))

    def unit(self, c: int = 1) -> "Element":
        return self.scalar(MCoefficient.integer(self.ring, self.profile, c))

    def minus_one(self, power: int = 1) -> "Element":
        """The base class {-1}^power as a ring element."""
        return self.scalar(MCoefficient.minus_one(self.ring, self.profile, power))

    def element(self, key, coeff: int | MCoefficient = 1) -> "Element":
        """coeff times the basis key."""
        if not isinstance(coeff, MCoefficient):
            coeff = MCoefficient.integer(self.ring, self.profile, coeff)
        return Element(self, ((key, coeff),))


@dataclass(frozen=True)
class StiefelPresentation(Presentation):
    """Presentation data for H(W(n, m); R).

    A value object: two presentations with the same ambient dimension,
    frame length, coefficient ring and field profile are the same ring.
    Keys are monomials; products encode them as bitmasks.
    """

    n: int
    m: int
    ring: CoeffRing = CoeffRing()
    profile: FieldProfile = FieldProfile()

    unit_key = ()
    json_fields = ("n", "m")
    key_fields = ("gens",)
    key_bidegree = staticmethod(monomial_bidegree)

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

    def gen(self, i: int) -> "Element":
        if not self.is_generator(i):
            raise InvalidGenerator(f"rho_{i} is not a generator of W({self.n},{self.m})")
        return Element(self, (((i,), MCoefficient.one(self.ring, self.profile)),))

    def monomial(self, indices: Iterable[int], coeff: int | MCoefficient = 1) -> "Element":
        return self.element(tuple(indices), coeff)

    def gen_square(self, i: int) -> "Element":
        """The value of rho_i^2 forced by the defining relation."""
        if not self.is_generator(i):
            raise InvalidGenerator(f"rho_{i} is not a generator of W({self.n},{self.m})")
        if 2 * i - 1 > self.n:
            return self.zero()
        return self.minus_one() * self.gen(2 * i - 1)

    def check_key(self, mono: Iterable[int]) -> Monomial:
        mono = tuple(mono)
        if list(mono) != sorted(set(mono)):
            raise ValueError(f"monomial indices must be strictly increasing, got {mono}")
        # increasing, so the ends bound every index
        if mono and (mono[0] <= self.n - self.m or mono[-1] > self.n):
            i = next(i for i in mono if not self.is_generator(i))
            raise InvalidGenerator(f"rho_{i} is not a generator of W({self.n},{self.m})")
        return mono

    @staticmethod
    def term_order(term: tuple[Monomial, MCoefficient]) -> tuple:
        return len(term[0]), term[0]

    def codec(self):
        return _mask, _monomial, _normal_word

    def lines(self, bd) -> list[tuple[Monomial, int]]:
        return basis_in_bidegree(self, bd)

    def random_key(self, rng: random.Random) -> Monomial:
        return tuple(i for i in self.generators if rng.random() < 0.5)

    @staticmethod
    def key_to_json(mono: Monomial) -> dict:
        return {"gens": list(mono)}

    @staticmethod
    def key_from_json(entry: dict) -> Monomial:
        if not isinstance(entry["gens"], list):
            raise ElementParseError("gens must be a list")
        return tuple(json_int(g, "generator index") for g in entry["gens"])


@dataclass(frozen=True)
class Element:
    """A class in one of the computed rings, in normal form.

    terms pairs the keys of the presentation (monomial tuples for
    H(W(n, m)), (s, e) for the Tate target) with nonzero MCoefficients,
    stored in the presentation's key order so that equal elements compare
    equal.  An element may be inhomogeneous; it is then the sum of its
    homogeneous parts.
    """

    pres: Presentation
    terms: tuple[tuple[Hashable, MCoefficient], ...]

    def __post_init__(self) -> None:
        pres = self.pres
        check = pres.check_key
        acc: dict = {}
        for key, c in self.terms:
            key = check(key)
            if c.ring != pres.ring or c.profile != pres.profile:
                raise ContextMismatch("coefficient from a different context")
            acc[key] = acc[key] + c if key in acc else c
        normal = tuple(sorted(((k, c) for k, c in acc.items() if c), key=pres.term_order))
        object.__setattr__(self, "terms", normal)

    def _require_same_ring(self, other: "Element") -> None:
        if self.pres != other.pres:
            raise ContextMismatch(
                f"elements live in different rings: {self.pres!r} vs {other.pres!r}")

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
        encode, decode, product = pres.codec()
        ys = [(encode(k2), c2.terms) for k2, c2 in other.terms]
        # coefficients summed in Z[{-1}] per (key, {-1}-power), then reduced
        # once per key: reduction is a ring homomorphism
        acc: dict[int, dict[int, int]] = {}
        for key, c1 in self.terms:
            a, t1 = encode(key), c1.terms
            for b, t2 in ys:
                nf = product(n, a, b)
                if nf is None:
                    continue
                code, sign, twist = nf
                powers = acc.get(code)
                if powers is None:
                    powers = acc[code] = {}
                for k1, v1 in t1:
                    k1 += twist
                    v1 *= sign
                    for k2, v2 in t2:
                        k = k1 + k2
                        powers[k] = powers.get(k, 0) + v1 * v2
        ring, profile = pres.ring, pres.profile
        return Element(pres, tuple(
            (decode(code), MCoefficient(ring, profile, tuple(powers.items())))
            for code, powers in acc.items()))

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

    def coefficient(self, key: Iterable[int]) -> MCoefficient:
        key = tuple(key)
        for m, c in self.terms:
            if m == key:
                return c
        return MCoefficient.zero(self.pres.ring, self.pres.profile)

    def bidegrees(self) -> set[Bidegree]:
        """Bidegrees of the homogeneous constituents, one per key and
        {-1}-power (a single {-1}^k factor contributes (k, k))."""
        out = set()
        for key, c in self.terms:
            base = self.pres.key_bidegree(key)
            for k, _ in c.terms:
                out.add(base + (k, k))
        return out

    def is_homogeneous(self) -> bool:
        return len(self.bidegrees()) <= 1

    def homogeneous_part(self, bd) -> "Element":
        bd = Bidegree(*bd)
        picked = []
        for key, c in self.terms:
            base = self.pres.key_bidegree(key)
            keep = tuple((k, ck) for k, ck in c.terms if base + (k, k) == bd)
            if keep:
                picked.append((key, MCoefficient(self.pres.ring, self.pres.profile, keep)))
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


def has_torsion_lines(pres: Presentation) -> bool:
    """Whether lines with k >= 1 exist: R/2R is nonzero and -1 is not a
    square."""
    return not pres.profile.minus_one_is_square and pres.ring.reduce_mod_two(1) != 0


def basis_in_bidegree(pres: StiefelPresentation, bd) -> list[tuple[Monomial, int]]:
    """Basis lines (monomial, k) of the (p, q) graded piece, k the {-1}-power,
    sorted by (k, monomial).

    A line with k = 0 carries a copy of R and one with k >= 1 a copy of
    R/2R; lines whose coefficient group vanishes (R/2R = 0, or -1 a square)
    are omitted.  Negative weight gives the empty list, per the vanishing
    range of the theory.

    The line {-1}^k rho_I, with S = sum(I) and L = |I|, sits in bidegree
    (2S - L + k, S + k).  So for each k the piece is exactly the L-subsets
    of the generators n-m+1 .. n with sum S, where S = q - k and
    L = 2q - p - k; they are listed depth first in ascending order.  The
    r-subsets of a run of consecutive integers a .. b reach every sum in
    [r a + r(r-1)/2, r b - r(r-1)/2], so bounding each next index by that
    interval prunes exactly: the walk never meets a dead end, and its cost
    scales with the number of lines, not with 2^m.
    """
    p, q = bd
    if q < 0:
        return []
    lo, hi = pres.n - pres.m + 1, pres.n
    # k ranges over S >= 0 (k <= q) and 0 <= L <= m
    top = min(q if has_torsion_lines(pres) else 0, 2 * q - p)
    out: list[tuple[Monomial, int]] = []
    for k in range(max(0, 2 * q - p - pres.m), top + 1):
        _append_subsets(out, k, (), lo, hi, 2 * q - p - k, q - k)
    return out


def _append_subsets(out: list, k: int, prefix: Monomial, lo: int, hi: int,
                    r: int, s: int) -> None:
    """Append (prefix + I, k) to out for every r-subset I of lo .. hi with
    sum s, in ascending lexicographic order."""
    if r == 0:
        if s == 0:
            out.append((prefix, k))
        return
    # the smallest index x leaves an (r-1)-subset of x+1 .. hi with sum
    # s - x, which exists iff x lies in [first, last]
    first = max(lo, s - (r - 1) * hi + (r - 1) * (r - 2) // 2)
    last = min(hi - r + 1, (s - r * (r - 1) // 2) // r)
    for x in range(first, last + 1):
        _append_subsets(out, k, prefix + (x,), x + 1, hi, r - 1, s - x)


def basis_element(pres: Presentation, key, k: int) -> Element:
    """The basis-line generator {-1}^k * key with unit coefficient."""
    return pres.element(key, MCoefficient(pres.ring, pres.profile, ((k, 1),)))


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


def random_element(pres: Presentation, bidegree=None, seed: int = 0) -> Element:
    """Deterministic pseudo-random normal-form element.

    With a bidegree, the result is homogeneous and supported on the basis
    lines of that graded piece.  The same seed always yields the same
    element.
    """
    rng = random.Random(seed)
    terms = []
    if bidegree is not None:
        for key, k in pres.lines(bidegree):
            c = MCoefficient(pres.ring, pres.profile, ((k, _random_scalar(rng, pres.ring, k)),))
            if c:
                terms.append((key, c))
    else:
        for _ in range(rng.randint(1, 3)):
            key = pres.random_key(rng)
            ks = rng.sample((0, 1, 2), rng.randint(1, 2))
            c = MCoefficient(pres.ring, pres.profile,
                             tuple((k, _random_scalar(rng, pres.ring, k)) for k in sorted(ks)))
            if c:
                terms.append((key, c))
    return Element(pres, tuple(terms))
