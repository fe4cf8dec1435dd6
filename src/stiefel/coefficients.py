"""Coefficient arithmetic for the motivic base ring.

Only the subring of the base ring generated by the weight-(1,1) class {-1}
is modeled; every relation and operation formula on the Stiefel rings
involves nothing else.  An MCoefficient is a finite sum

    c_0 + c_1 {-1} + c_2 {-1}^2 + ...

with c_0 in the coefficient ring R (the integers or Z/m) and, because
2 {-1} = 0, every higher c_k in R/2R.  When -1 is a square in the ground
field, {-1} itself vanishes and all positive powers are dropped.

twisted_modulus, pack and unpack own that rule for computed tables, which
hold one packed coefficient per key: the int c_0 when twisted_modulus is 1,
else a pair (c_0, B) with bit k >= 1 of B the Z/2 coefficient of {-1}^k.
The validating MCoefficient constructor, their oracle, applies it on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from .errors import ContextMismatch, InvalidPresentation


@dataclass(frozen=True)
class CoeffRing:
    """The coefficient ring R: modulus 0 means Z, otherwise Z/modulus."""

    modulus: int = 0

    def __post_init__(self) -> None:
        if self.modulus < 0 or self.modulus == 1:
            raise ValueError(f"modulus must be 0 (meaning Z) or at least 2, got {self.modulus}")

    @property
    def name(self) -> str:
        return "Z" if self.modulus == 0 else f"Z/{self.modulus}"

    def reduce(self, c: int) -> int:
        """Canonical representative of c in R."""
        return c if self.modulus == 0 else c % self.modulus

    def reduce_mod_two(self, c: int) -> int:
        """Canonical representative of c in R/2R, where the positive
        {-1}-powers live.

        R/2R is Z/2 when R is Z or Z/even; it vanishes for Z/odd, since 2
        is then invertible.
        """
        if self.modulus and self.modulus % 2:
            return 0
        return c % 2

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FieldProfile:
    """Recorded facts about the ground field k.

    minus_one_is_square kills the class {-1} outright.  characteristic,
    when recorded, gates the operations: Steenrod squares need char k != 2
    and the reduced powers at an odd prime p need char k != p.  None means
    nothing is recorded and no gate applies.
    """

    minus_one_is_square: bool = False
    characteristic: int | None = None

    def __post_init__(self) -> None:
        try:
            prime = self.characteristic in (None, 0) or is_prime(self.characteristic)
        except ValueError as exc:
            raise InvalidPresentation(str(exc)) from None
        if not prime:
            raise InvalidPresentation(
                f"the characteristic of a field is 0 or a prime, got {self.characteristic}")


class Bidegree(NamedTuple):
    """Cohomological (degree, weight) pair; adds componentwise."""

    p: int
    q: int

    def __add__(self, other) -> "Bidegree":  # type: ignore[override]
        return Bidegree(self.p + other[0], self.q + other[1])

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


@dataclass(frozen=True)
class MCoefficient:
    """Element of the modeled base ring, in normal form.

    terms holds (k, c_k) pairs sorted by k with every stored c_k nonzero;
    the constructor accepts any (k, c) sequence and normalizes it, merging
    repeated powers, reducing c_0 in R and c_k (k >= 1) in R/2R.
    """

    ring: CoeffRing
    profile: FieldProfile
    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        acc: dict[int, int] = {}
        for k, c in self.terms:
            if k < 0:
                raise ValueError("negative power of {-1}")
            acc[k] = acc.get(k, 0) + c
        out = []
        for k in sorted(acc):
            if k and self.profile.minus_one_is_square:
                continue
            c = self.ring.reduce(acc[k]) if k == 0 else self.ring.reduce_mod_two(acc[k])
            if c:
                out.append((k, c))
        object.__setattr__(self, "terms", tuple(out))

    @classmethod
    def zero(cls, ring: CoeffRing, profile: FieldProfile) -> "MCoefficient":
        return cls(ring, profile)

    @classmethod
    def one(cls, ring: CoeffRing, profile: FieldProfile) -> "MCoefficient":
        return cls(ring, profile, ((0, 1),))

    @classmethod
    def integer(cls, ring: CoeffRing, profile: FieldProfile, c: int) -> "MCoefficient":
        return cls(ring, profile, ((0, c),))

    @classmethod
    def minus_one(cls, ring: CoeffRing, profile: FieldProfile, power: int = 1) -> "MCoefficient":
        """The class {-1}^power."""
        return cls(ring, profile, ((power, 1),))

    @classmethod
    def _unchecked(cls, ring: CoeffRing, profile: FieldProfile,
                   terms: tuple[tuple[int, int], ...]) -> "MCoefficient":
        """The coefficient of normal-form terms (as unpack gives them),
        built without normalizing."""
        x = object.__new__(cls)
        fields = x.__dict__  # written directly, past the frozen __setattr__
        fields["ring"], fields["profile"], fields["terms"] = ring, profile, terms
        return x

    def _require_same_context(self, other: "MCoefficient") -> None:
        if self.ring != other.ring or self.profile != other.profile:
            raise ContextMismatch(
                f"coefficients from different contexts: {self.ring.name}/{self.profile} "
                f"vs {other.ring.name}/{other.profile}")

    def __add__(self, other: "MCoefficient") -> "MCoefficient":
        self._require_same_context(other)
        return MCoefficient(self.ring, self.profile, self.terms + other.terms)

    def __neg__(self) -> "MCoefficient":
        return MCoefficient(self.ring, self.profile, tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other: "MCoefficient") -> "MCoefficient":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return MCoefficient(self.ring, self.profile,
                                tuple((k, c * other) for k, c in self.terms))
        if not isinstance(other, MCoefficient):
            return NotImplemented
        self._require_same_context(other)
        prods = tuple((k1 + k2, c1 * c2) for k1, c1 in self.terms for k2, c2 in other.terms)
        return MCoefficient(self.ring, self.profile, prods)

    __rmul__ = __mul__

    def shift(self, power: int) -> "MCoefficient":
        """Multiply by {-1}^power."""
        return MCoefficient(self.ring, self.profile,
                            tuple((k + power, c) for k, c in self.terms))

    def coefficient(self, k: int) -> int:
        for kk, c in self.terms:
            if kk == k:
                return c
        return 0

    def powers(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)


def twisted_modulus(ring: CoeffRing, profile: FieldProfile) -> int:
    """The modulus of the positive {-1}-powers: 2 when they live in
    R/2R = Z/2, and 1 when they vanish (R/2R = 0, or -1 a square)."""
    return 1 if profile.minus_one_is_square or ring.modulus % 2 else 2


def pack(terms: tuple[tuple[int, int], ...], twisted: int):
    """The packed coefficient of normal-form MCoefficient terms: the int
    c_0 when twisted (twisted_modulus) is 1, else the pair (c_0, B) with
    bit k of B set for each {-1}^k, k >= 1, whose coefficient is then 1."""
    c0 = terms[0][1] if terms and not terms[0][0] else 0
    if twisted == 1:
        return c0
    bits = 0
    for k, _ in terms:
        bits |= 1 << k
    return c0, bits & -2


def unpack(value, modulus: int, twisted: int) -> tuple[tuple[int, int], ...]:
    """The normal-form MCoefficient terms of a packed coefficient, whose B
    has no bit 0 and is read by set_bits, with c_0 reduced mod modulus (0: Z)."""
    c0, bits = (value, 0) if twisted == 1 else value
    if modulus:
        c0 %= modulus
    terms = ((0, c0),) if c0 else ()
    if bits:
        terms += tuple(zip(set_bits(bits), repeat(1)))
    return terms


# set_bits' fixed rows: row 256 * position + byte lists the bit indices of
# that byte value at byte position 0, 1 or 2 (built by doubling)
_ROWS: list[tuple[int, ...]] = [()]
for _bit in range(8):
    _ROWS += [row + (_bit,) for row in _ROWS]
_ROWS += [tuple(i + shift for i in row) for shift in (8, 16) for row in _ROWS]


def set_bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of mask >= 0, ascending: three table
    rows below 2^24, else one row per nonzero byte, in time linear in the
    width of mask.  It keeps nothing between calls."""
    if mask < 1 << 24:
        return _ROWS[mask & 255] + _ROWS[256 | mask >> 8 & 255] + _ROWS[512 | mask >> 16]
    out: list[int] = []
    # to_bytes takes its length explicitly, as Python 3.10 requires
    for position, byte in enumerate(mask.to_bytes(mask.bit_length() + 7 >> 3, "little")):
        if byte:
            out += map((position << 3).__add__, _ROWS[byte])
    return tuple(out)


# Miller-Rabin to every one of these bases decides primality below
# PRIME_LIMIT = psi_13, the least composite that passes them all
# (J. Sorenson and J. Webster, Math. Comp. 86, 2017)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Whether p is prime, exactly: trial division by PRIME_BASES, then a
    strong probable-prime test to each of them.  A p from PRIME_LIMIT on
    with no factor among them raises ValueError."""
    if p < 2:
        return False
    for a in PRIME_BASES:
        if p % a == 0:
            return p == a
    if p >= PRIME_LIMIT:
        raise ValueError(f"cannot decide whether {p} is prime: primality is decided "
                         f"only below {PRIME_LIMIT}")
    d, s = p - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def binom_mod(a: int, b: int, p: int) -> int:
    """Binomial coefficient C(a, b) modulo a prime, by Lucas' theorem.

    Works digit by digit in base p; each digit binomial is evaluated by the
    multiplicative formula with a Fermat inverse, so nothing here shares a
    code path with the big-integer factorial oracle used to test it.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a < 0 or b < 0:
        raise ValueError("binomial arguments must be nonnegative")
    result = 1
    while a or b:
        ad, a = a % p, a // p
        bd, b = b % p, b // p
        if bd > ad:
            return 0
        num = den = 1
        for t in range(bd):
            num = num * (ad - t) % p
            den = den * (t + 1) % p
        result = result * num * pow(den, -1, p) % p
    return result
