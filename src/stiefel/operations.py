"""Motivic Steenrod squares and odd reduced powers on the computed rings.

Generator values follow the closed formulas

    Sq^{2i}(rho_j) = binom(j-1, i) rho_{j+i}       if i + j <= n, else 0
    P^i(rho_j)     = binom(j-1, i) rho_{ip+j-i}    if ip+j-i <= n, else 0

with every odd square and the Bockstein vanishing on these classes, so
apply_operation returns zero for them (after the same context checks).
The action extends to monomials by the even-operation Cartan sum

    Sq^{2k}(w rho_j) = sum_{a+b=k} Sq^{2a}(w) Sq^{2b}(rho_j)

(and the P-analogue); odd operations are declared zero on rho-monomials,
which makes every odd cross-term of the general Cartan expansion vanish.
Pure base classes are fixed by Sq^0 / P^0 and killed by anything of
positive degree; {-1}-powers attached to a monomial ride along as scalars.

The Cartan sum runs on plain integers.  Each call first tabulates the
nonzero generator values (b, rho_target bit, binomial) for the generators
of its input; since target = j + b(p-1) must stay <= n, a table row has at
most (n - j)/(p - 1) + 1 entries however large the index.  The recursion
(_cartan) maps a monomial bitmask and a degree to {mask: {power of {-1}:
integer}}, multiplies by one generator value per step through
algebra._normal_word, and reduces each cache entry (mod p at power 0, in
R/2R above) before it is reused.  Only the result is an Element, with one
MCoefficient per output monomial.

On the Tate target the squares act through the projective-space formula
Sq^{2i}(eta^e) = binom(e, i) eta^{e+i} with sigma passing through, since
the operations are stable under the Tate suspension.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .algebra import Element, StiefelPresentation, _mask, _monomial, _normal_word
from .coefficients import (Bidegree, CoeffRing, FieldProfile, MCoefficient, binom_mod,
                           is_prime)
from .errors import InadmissibleOperation, InvalidGenerator


class OperationKind(enum.Enum):
    SQUARE = "Sq-even"
    ODD_SQUARE = "Sq-odd"
    POWER = "P"
    BOCKSTEIN = "beta"


@dataclass(frozen=True)
class Operation:
    """A reduced power operation over Z/prime.

    index means: Sq^{2*index} for SQUARE, Sq^{2*index+1} for ODD_SQUARE,
    P^index for POWER; it is unused for BOCKSTEIN.
    """

    prime: int
    kind: OperationKind
    index: int = 0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("operation index must be nonnegative")
        if self.kind in (OperationKind.SQUARE, OperationKind.ODD_SQUARE):
            if self.prime != 2:
                raise ValueError("Steenrod squares live at the prime 2")
        else:
            if self.prime == 2 or not is_prime(self.prime):
                raise ValueError("reduced powers and the Bockstein need an odd prime")

    @property
    def bidegree_shift(self) -> Bidegree:
        if self.kind is OperationKind.SQUARE:
            return Bidegree(2 * self.index, self.index)
        if self.kind is OperationKind.ODD_SQUARE:
            return Bidegree(2 * self.index + 1, self.index)
        if self.kind is OperationKind.POWER:
            d = self.index * (self.prime - 1)
            return Bidegree(2 * d, d)
        return Bidegree(1, 0)

    def describe(self) -> str:
        if self.kind is OperationKind.SQUARE:
            return f"Sq^{2 * self.index}"
        if self.kind is OperationKind.ODD_SQUARE:
            return f"Sq^{2 * self.index + 1}"
        if self.kind is OperationKind.POWER:
            return f"P^{self.index}"
        return "beta"


def square(k: int) -> Operation:
    """Sq^k at p = 2; even k acts through the generator formula, odd k is zero."""
    if k % 2 == 0:
        return Operation(2, OperationKind.SQUARE, k // 2)
    return Operation(2, OperationKind.ODD_SQUARE, (k - 1) // 2)


def power(i: int, p: int) -> Operation:
    """The reduced power P^i at an odd prime p."""
    return Operation(p, OperationKind.POWER, i)


def bockstein(p: int) -> Operation:
    return Operation(p, OperationKind.BOCKSTEIN)


def _require_context(ring: CoeffRing, profile: FieldProfile, p: int) -> None:
    if ring.modulus != p:
        raise InadmissibleOperation(
            f"operation needs Z/{p} coefficients, ring is {ring.name}")
    if profile.characteristic == p:
        raise InadmissibleOperation(
            f"operation is unavailable over a ground field of characteristic {p}")


def sq_on_generator(i: int, j: int, pres: StiefelPresentation) -> Element:
    """Value of Sq^{2i} on the generator rho_j."""
    _require_context(pres.ring, pres.profile, 2)
    if i < 0:
        raise ValueError("operation index must be nonnegative")
    if not pres.is_generator(j):
        raise InvalidGenerator(f"rho_{j} is not a generator of W({pres.n},{pres.m})")
    if i + j > pres.n or binom_mod(j - 1, i, 2) == 0:
        return pres.zero()
    # i + j >= j >= n-m+1, so rho_{i+j} is again a generator
    return pres.gen(j + i)


def power_on_generator(i: int, j: int, p: int, pres: StiefelPresentation) -> Element:
    """Value of P^i on the generator rho_j at the odd prime p."""
    if p == 2 or not is_prime(p):
        raise InadmissibleOperation(f"reduced powers need an odd prime, got {p}")
    _require_context(pres.ring, pres.profile, p)
    if i < 0:
        raise ValueError("operation index must be nonnegative")
    if not pres.is_generator(j):
        raise InvalidGenerator(f"rho_{j} is not a generator of W({pres.n},{pres.m})")
    target = i * p + j - i
    if target > pres.n:
        return pres.zero()
    c = binom_mod(j - 1, i, p)
    return pres.gen(target) * c if c else pres.zero()


def apply_operation(op: Operation, x: Element) -> Element:
    """Apply an operation to a Stiefel or Tate-target element.

    Additive in x; acts part by part on inhomogeneous input.  The bidegree
    shift of every result is checked against the operation's bidegree."""
    pres = x.pres
    _require_context(pres.ring, pres.profile, op.prime)
    if op.kind in (OperationKind.ODD_SQUARE, OperationKind.BOCKSTEIN):
        return pres.zero()
    apply = _apply_stiefel if isinstance(pres, StiefelPresentation) else _apply_tate
    out = apply(op, x)
    _check_shift(op, x, out)
    return out


def _apply_stiefel(op: Operation, x: Element) -> Element:
    """An even operation on an element of H(W(n, m)) by the Cartan sum."""
    pres = x.pres
    n, p, index = pres.n, op.prime, op.index
    # R/2R carries the positive {-1}-powers; it is Z/2 for p = 2, else 0
    twisted_modulus = 2 if p == 2 and not pres.profile.minus_one_is_square else 1
    terms = [(_mask(mono), c.terms) for mono, c in x.terms]
    support = 0
    for mask, _ in terms:
        support |= mask
    table = _generator_table(n, p, index, support)
    cache: dict[tuple[int, int], dict[int, dict[int, int]]] = {}
    acc: dict[int, dict[int, int]] = {}
    for mono_mask, c in terms:
        value = _cartan(cache, table, n, p, twisted_modulus, mono_mask, index)
        for mask, powers in value.items():
            dst = acc.get(mask)
            if dst is None:
                dst = acc[mask] = {}
            for k1, v1 in powers.items():
                for k2, v2 in c:
                    k = k1 + k2
                    dst[k] = dst.get(k, 0) + v1 * v2
    ring, profile = pres.ring, pres.profile
    return Element(pres, tuple(
        (_monomial(mask), MCoefficient(ring, profile, tuple(powers.items())))
        for mask, powers in acc.items()))


def _generator_table(n: int, p: int, index: int, support: int) -> dict[int, list]:
    """table[j] lists (b, 1 << target, c) for the nonzero values
    Sq^{2b}(rho_j) or P^b(rho_j) = c rho_target, b <= index, ascending in b,
    for every generator j in the bitmask support.

    target = j + b (p - 1), so b stops at (n - j) // (p - 1): the table
    costs at most index + 1 binomials per generator, and none beyond n."""
    step = p - 1
    table: dict[int, list] = {}
    for j in _monomial(support):
        row = table[j] = []
        for b in range(min(index, (n - j) // step) + 1):
            c = binom_mod(j - 1, b, p)
            if c:
                row.append((b, 1 << (j + b * step), c))
    return table


def _cartan(cache: dict, table: dict[int, list], n: int, p: int, twisted_modulus: int,
            mask: int, k: int) -> dict[int, dict[int, int]]:
    """The degree-k operation on the monomial with bitmask mask, as
    {mask: {power of {-1}: coefficient}}, by the Cartan sum over its last
    generator.

    Coefficients are reduced (mod p at power 0, mod twisted_modulus above)
    and zeros dropped, so cancelled monomials stop propagating.  The cache
    is keyed by (mask, k) and owned by the caller."""
    if not mask:
        return {0: {0: 1}} if k == 0 else {}
    key = (mask, k)
    value = cache.get(key)
    if value is not None:
        return value
    last = mask.bit_length() - 1
    head = mask ^ (1 << last)
    acc: dict[int, dict[int, int]] = {}
    for b, bit, c in table[last]:
        if b > k:
            break
        for a, powers in _cartan(cache, table, n, p, twisted_modulus, head, k - b).items():
            nf = _normal_word(n, a, bit)
            if nf is None:
                continue
            prod, sign, twist = nf
            dst = acc.get(prod)
            if dst is None:
                dst = acc[prod] = {}
            sc = sign * c
            for e, v in powers.items():
                e += twist
                dst[e] = dst.get(e, 0) + v * sc
    value = {}
    for prod, powers in acc.items():
        reduced = {}
        for e, v in powers.items():
            v %= twisted_modulus if e else p
            if v:
                reduced[e] = v
        if reduced:
            value[prod] = reduced
    cache[key] = value
    return value


def _apply_tate(op: Operation, x: Element) -> Element:
    """An even operation on a Tate-target element: binom(e, k) eta^{e+step}."""
    pres = x.pres
    k = op.index
    terms = []
    for (s, e), c in x.terms:
        coeff = binom_mod(e, k, op.prime)
        if not coeff:
            continue
        step = k if op.kind is OperationKind.SQUARE else k * (op.prime - 1)
        if e + step >= pres.n:
            continue
        terms.append(((s, e + step), c * coeff))
    return Element(pres, tuple(terms))


def _check_shift(op: Operation, x, out) -> None:
    allowed = {bd + op.bidegree_shift for bd in x.bidegrees()}
    stray = out.bidegrees() - allowed
    if stray:
        raise AssertionError(
            f"{op.describe()} broke the bidegree bookkeeping, stray bidegrees {stray}")
