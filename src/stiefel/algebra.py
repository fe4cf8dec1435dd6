"""Cohomology rings of Stiefel varieties W(n, m).

H(W(n, m); R) is the free module over the modeled base ring on squarefree
monomials in generators rho_{n-m+1}, ..., rho_n, where rho_i has bidegree
(2i-1, i).  Multiplication is graded-commutative with the squaring rule

    rho_i^2 = {-1} rho_{2i-1}   when 2i-1 <= n,      rho_i^2 = 0 otherwise.

Monomials are tuples of strictly increasing generator indices; the empty
tuple is the unit.  Elements are kept in a unique normal form, so equality
of elements is structural equality.  Outside input goes through Element(...),
which checks each key and coefficient context, merges and sorts; the values
the library computes go through Presentation._from_terms, which checks nothing.

Products encode each monomial as an int bitmask, bit i standing for rho_i.
Two disjoint monomials multiply as in an exterior algebra, with the sign
given by the parity of the crossing pairs; overlapping ones are contracted
by the squaring rule (see _normal_word).  Pairs sharing a bit of the codec's
zero mask nil multiply to zero, or to a {-1}-power that vanishes in the ring,
and are skipped before _normal_word.  nil holds the rho_i with 2i-1 > n, or
every bit when coefficients.twisted_modulus is 1, since every overlap then
contracts to a vanishing {-1}-power.  The codec reads twisted_modulus, so
twisted_modulus, pack and unpack stay the one owner of the torsion rule.

Element is the element type of every computed ring: it reads the keys and
their product from a Presentation, here StiefelPresentation and, for the
Tate target, targets.PGmPresentation.  Products, ring maps and the
Steenrod kernel's input fold multiply {code: packed coefficient} tables
(coefficients.pack) in table_product; Presentation.from_table unpacks them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Hashable, Iterable

from .coefficients import (Bidegree, CoeffRing, FieldProfile, MCoefficient, pack,
                           twisted_modulus, unpack)
from .errors import (ContextMismatch, ElementParseError, InvalidGenerator,
                     InvalidPresentation, json_int)

Monomial = tuple[int, ...]


def monomial_bidegree(mono: Monomial) -> Bidegree:
    """Sum of (2i-1, i) over the generator indices of the monomial."""
    s = sum(mono)
    return Bidegree(2 * s - len(mono), s)


class Presentation:
    """What Element reads from a ring with a monomial M-basis, in which a
    product of two basis keys is sign * {-1}^twist * key or zero.

    A presentation is a frozen dataclass with fields n, ring and profile.
    It supplies check_key(key) (the canonical key, or ValueError),
    term_order(term) (the sort key of a (key, coefficient) term of the
    normal form), key_bidegree(key), codec() (encode and decode between
    keys and ints, product(n, a, b) giving (code, sign, twist) or None
    for zero, the zero mask nil: codes a, b with a & b & nil multiply
    to zero, or to a {-1}-power that vanishes in the ring, and
    twisted_modulus, which picks the packed coefficient form of the
    tables), lines(bd) (the basis lines (key, k) of a graded piece),
    random_key(rng), the JSON fields json_fields, key_fields,
    key_to_json(key) and key_from_json(entry), and unit_key.  The elements
    and the packed tables (table, from_table) below are the same in every ring.
    """

    def table(self, x: "Element") -> dict:
        """x as {code: packed coefficient} (coefficients.pack)."""
        encode, _, _, _, twisted = self.codec()
        return {encode(key): pack(c.terms, twisted) for key, c in x.terms}

    def from_table(self, acc: dict) -> "Element":
        """The element of a computed {code: packed coefficient} table,
        reduced by coefficients.unpack and decoded.  Codec products of valid
        keys are valid and distinct, so _from_terms checks nothing.  Equal
        reduced coefficients share one object, for this call only."""
        _, decode, _, _, twisted = self.codec()
        ring, profile, modulus = self.ring, self.profile, self.ring.modulus
        unchecked = MCoefficient._unchecked
        shared: dict = {}  # by packed value, unreduced
        by_row: dict = {}  # by reduced terms
        terms = []
        for code, value in acc.items():
            c = shared.get(value)
            if c is None:
                row = unpack(value, modulus, twisted)
                c = by_row.get(row)
                if c is None:
                    c = by_row[row] = unchecked(ring, profile, row)
                shared[value] = c
            if c.terms:
                terms.append((decode(code), c))
        return self._from_terms(terms)

    def _from_terms(self, terms) -> "Element":
        """The element of terms with valid, distinct keys and nonzero reduced
        coefficients of this ring, sorted by term_order: no check at all."""
        x = object.__new__(Element)
        object.__setattr__(x, "pres", self)
        object.__setattr__(x, "terms", tuple(sorted(terms, key=self.term_order)))
        return x

    def _sum(self, terms) -> "Element":
        """_from_terms after merging repeated keys and dropping zero terms."""
        acc: dict = {}
        for key, c in terms:
            acc[key] = acc[key] + c if key in acc else c
        return self._from_terms([term for term in acc.items() if term[1]])

    def _basis(self, key) -> "Element":
        """The valid key with unit coefficient, not checked."""
        return self._from_terms(((key, MCoefficient.one(self.ring, self.profile)),))

    def zero(self) -> "Element":
        return self._from_terms(())

    def scalar(self, c: MCoefficient) -> "Element":
        if c.ring != self.ring or c.profile != self.profile:
            raise ContextMismatch("scalar coefficient from a different context")
        return self._from_terms(((self.unit_key, c),) if c else ())

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

    def require_generator(self, i: int) -> int:
        """i if rho_i is a generator, else InvalidGenerator; every front checks here."""
        if not self.is_generator(i):
            raise InvalidGenerator(f"rho_{i} is not a generator of W({self.n},{self.m})")
        return i

    def gen(self, i: int) -> "Element":
        return self._basis((self.require_generator(i),))

    def monomial(self, indices: Iterable[int], coeff: int | MCoefficient = 1) -> "Element":
        return self.element(tuple(indices), coeff)

    def gen_square(self, i: int) -> "Element":
        """The value of rho_i^2 forced by the defining relation."""
        c = MCoefficient.minus_one(self.ring, self.profile)
        nonzero = 2 * self.require_generator(i) - 1 <= self.n and c
        return self._from_terms((((2 * i - 1,), c),) if nonzero else ())

    def check_key(self, mono: Iterable[int]) -> Monomial:
        mono = tuple(mono)
        if list(mono) != sorted(set(mono)):
            raise ValueError(f"monomial indices must be strictly increasing, got {mono}")
        # increasing, so the ends bound every index
        if mono and (mono[0] <= self.n - self.m or mono[-1] > self.n):
            self.require_generator(next(i for i in mono if not self.is_generator(i)))
        return mono

    @staticmethod
    def term_order(term: tuple[Monomial, MCoefficient]) -> tuple:
        return len(term[0]), term[0]

    def codec(self):
        # rho_i^2 = 0 once 2i - 1 > n; when {-1} vanishes, every overlap
        # contracts to a vanishing {-1}-power
        twisted = twisted_modulus(self.ring, self.profile)
        nil = -1 if twisted == 1 else -1 << ((self.n + 1) // 2 + 1)
        return _mask, _monomial, _normal_word, nil, twisted

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
        acc: dict = {}
        for key, c in self.terms:
            key = pres.check_key(key)
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
        return self.pres._sum(self.terms + other.terms)

    def __neg__(self) -> "Element":
        return self.pres._from_terms([(m, -c) for m, c in self.terms])

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, MCoefficient)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_ring(other)
        pres = self.pres
        return pres.from_table(table_product(pres.n, *pres.codec()[2:], pres.table(self),
                                             pres.table(other), {}))

    def __rmul__(self, other) -> "Element":
        if isinstance(other, (int, MCoefficient)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: int | MCoefficient) -> "Element":
        # MCoefficient * int reduces the product, as * MCoefficient.integer would
        return self.pres._from_terms([(m, d) for m, cc in self.terms if (d := cc * c)])

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, key: Iterable[int]) -> MCoefficient:
        return dict(self.terms).get(tuple(key),
                                    MCoefficient.zero(self.pres.ring, self.pres.profile))

    def bidegrees(self) -> set[Bidegree]:
        """Bidegrees of the homogeneous constituents, one per key and
        {-1}-power (a single {-1}^k factor contributes (k, k))."""
        return set(map(Bidegree._make, self._bidegree_pairs()))

    def _bidegree_pairs(self) -> set[tuple[int, int]]:
        """bidegrees() as plain (p, q) tuples, with no Bidegree per {-1}-power."""
        bidegree = self.pres.key_bidegree
        return {(p + k, q + k) for key, c in self.terms for p, q in [bidegree(key)]
                for k, _ in c.terms}


def table_product(n: int, product, nil: int, twisted: int, xs: dict, ys: dict,
                  acc: dict) -> dict:
    """Add xs * ys into the table acc and return it.  The tables map codes
    to packed coefficients, ints or (c_0, B) pairs as twisted
    (twisted_modulus) picks; see coefficients.pack.  product and nil are the
    codec's key product and zero mask, and pairs meeting in nil, whose
    product is zero or carries a vanishing {-1}-power, are skipped.

    A pair with sign s and twist t adds s c_0 d_0 at power 0 when t = 0,
    unreduced (reduction is a homomorphism).  At the positive powers, in
    Z/2, it xors in the carry-less product of (c_0 mod 2) + B and
    (d_0 mod 2) + C shifted by t, without its bit 0."""
    if twisted == 1:
        ys = list(ys.items())
        for a, x in xs.items():
            clash = a & nil
            for b, y in ys:
                if b & clash:
                    continue
                nf = product(n, a, b)
                if nf is None or nf[2]:
                    continue
                code, sign, _ = nf
                acc[code] = acc.get(code, 0) + sign * x * y
        return acc
    # y carries the set bits of (d_0 mod 2) + C, read as by _monomial
    ys = [(b, y0, _monomial(y0 & 1 | yb)) for b, (y0, yb) in ys.items()]
    for a, (x0, xb) in xs.items():
        clash = a & nil
        xc = x0 & 1 | xb
        for b, y0, ks in ys:
            if b & clash:
                continue
            nf = product(n, a, b)
            if nf is None:
                continue
            code, sign, twist = nf
            c0, bits = acc.get(code, (0, 0))
            if not twist:
                c0 += sign * x0 * y0
            for k in ks:
                bits ^= xc << k + twist
            acc[code] = c0, bits & -2
    return acc


def _mask(mono: Monomial) -> int:
    """The monomial as a bitmask, bit i standing for rho_i."""
    return sum(map((1).__lshift__, mono))


# _monomial's decode table: the indices of the set bits of each byte value
# at each byte position, keyed by 256 * position + byte; filled on first use
_BYTE_ROWS: dict[int, Monomial] = {}


def _monomial(mask: int) -> Monomial:
    """Inverse of _mask, read a byte at a time through _BYTE_ROWS, zero runs at once."""
    out = ()
    base = 0
    while mask:
        if not mask & 255:
            zeros = ((mask & -mask).bit_length() - 1) >> 3
            mask >>= zeros << 3
            base += zeros << 8
        key = base | mask & 255
        row = _BYTE_ROWS.get(key)
        if row is None:
            row = _BYTE_ROWS[key] = tuple(base // 32 + i for i in range(8) if mask >> i & 1)
        out += row
        mask >>= 8
        base += 256
    return out


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
    -1 = 1, so sign 1 is returned.  Callers skip the pairs meeting in the
    codec's zero mask; a direct call on a pair with rho_i^2 = 0 still gives
    None, by the j > n test.
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
    """Basis lines (monomial, k) of the (p, q) graded piece, k the {-1}-power,
    sorted by (k, monomial).

    For each shape (k, L, S) of _shapes, the L-subsets of the generators
    n-m+1 .. n with sum S are listed depth first in ascending order.  The
    r-subsets of a run of consecutive integers a .. b reach every sum in
    [r a + r(r-1)/2, r b - r(r-1)/2], so bounding each next index by that
    interval prunes exactly: the walk never meets a dead end, and its cost
    scales with the number of lines, not with 2^m, nor with their length:
    the short subsets that end the lines are listed once per call.
    """
    lo, hi = pres.n - pres.m + 1, pres.n
    out: list[tuple[Monomial, int]] = []
    endings: dict[tuple[int, int, int], list[tuple[Monomial, int]]] = {}
    for k, size, total in _shapes(pres, bd):
        _append_subsets(out, k, (), lo, hi, size, total, endings)
    return out


def piece_size(pres: StiefelPresentation, bd) -> int:
    """len(basis_in_bidegree(pres, bd)), counted without listing the lines:
    the L-subsets of lo .. lo+m-1 with sum S number the coefficient of x^d
    in the Gaussian binomial [m choose L], d = S - L lo - L(L-1)/2 (G. E.
    Andrews, The Theory of Partitions, 1976, Thm. 3.1), read off the product
    of (1 - x^(m-L+i)) / (1 - x^i), i = 1 .. L, truncated at x^d.  The box
    symmetries d <-> L(m-L) - d and L <-> m-L keep d and L small."""
    m, lo = pres.m, pres.n - pres.m + 1
    count = 0
    for _, size, total in _shapes(pres, bd):
        d = total - size * lo - size * (size - 1) // 2
        d = min(d, size * (m - size) - d)
        size = min(size, m - size)
        series = [1] + [0] * d
        for i in range(1, size + 1):
            j = m - size + i
            for e in range(d, j - 1, -1):
                series[e] -= series[e - j]
            for e in range(i, d + 1):
                series[e] += series[e - i]
        count += series[d]
    return count


def _shapes(pres: StiefelPresentation, bd) -> list[tuple[int, int, int]]:
    """The shapes (k, L, S), by ascending k, of the lines {-1}^k rho_I of the
    (p, q) piece, L = |I| and S = sum(I), that have at least one line; so
    the piece is empty exactly when the list is.  Such a line sits in
    (2S - L + k, S + k), so S = q - k and 0 <= L = 2q - p - k <= m, and the
    L-subsets of lo .. lo+m-1 reach exactly the sums S whose offset
    d = S - L lo - L(L-1)/2 lies in [0, L(m - L)] (see basis_in_bidegree).
    Lines with k >= 1 carry R/2R, so none exist when R/2R = 0 or -1 is a
    square.  The cost is O(m) whatever the bidegree."""
    p, q = bd
    m, lo = pres.m, pres.n - pres.m + 1
    top = min(q if twisted_modulus(pres.ring, pres.profile) > 1 else 0, 2 * q - p)
    out = []
    for k in range(max(0, 2 * q - p - m), top + 1):
        size, total = 2 * q - p - k, q - k
        if 0 <= total - size * lo - size * (size - 1) // 2 <= size * (m - size):
            out.append((k, size, total))
    return out


def _append_subsets(out: list, k: int, prefix: Monomial, lo: int, hi: int,
                    r: int, s: int, endings: dict) -> None:
    """Append (prefix + I, k) to out for every r-subset I of lo .. hi with
    sum s, in ascending lexicographic order.  The subsets of at most 4
    indices are listed once in endings and shared by every prefix."""
    if prefix and r <= 4:
        if (lo, r, s) not in endings:
            _append_subsets(endings.setdefault((lo, r, s), []), k, (), lo, hi, r, s, endings)
        out += [(prefix + rest, k) for rest, _ in endings[lo, r, s]]
        return
    if r == 0:
        if s == 0:
            out.append((prefix, k))
        return
    # the smallest index x leaves an (r-1)-subset of x+1 .. hi with sum
    # s - x, which exists iff x lies in [first, last]
    first = max(lo, s - (r - 1) * hi + (r - 1) * (r - 2) // 2)
    last = min(hi - r + 1, (s - r * (r - 1) // 2) // r)
    for x in range(first, last + 1):
        _append_subsets(out, k, prefix + (x,), x + 1, hi, r - 1, s - x, endings)


def basis_element(pres: Presentation, key, k: int) -> Element:
    """The basis-line generator {-1}^k * key with unit coefficient."""
    return pres.element(key, MCoefficient(pres.ring, pres.profile, ((k, 1),)))


def poincare_polynomial(pres: StiefelPresentation) -> dict[Bidegree, int]:
    """Multiset of M-basis bidegrees with multiplicities: the expansion of
    the product of (1 + T^(2i-1, i)) over the generators; piece_size's oracle."""
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
            terms.append((key, c))
    else:
        for _ in range(rng.randint(1, 3)):
            key = pres.random_key(rng)
            ks = rng.sample((0, 1, 2), rng.randint(1, 2))
            c = MCoefficient(pres.ring, pres.profile,
                             tuple((k, _random_scalar(rng, pres.ring, k)) for k in sorted(ks)))
            terms.append((key, c))
    return pres._sum(terms)
