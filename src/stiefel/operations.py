"""Motivic Steenrod squares and odd reduced powers on the computed rings.

Generator values follow the closed formulas

    Sq^{2i}(rho_j) = binom(j-1, i) rho_{j+i}       if i + j <= n, else 0
    P^i(rho_j)     = binom(j-1, i) rho_{ip+j-i}    if ip+j-i <= n, else 0

with every odd square and the Bockstein vanishing on these classes.  The
action extends to monomials by the even-operation Cartan sum

    Sq^{2k}(w rho_j) = sum_{a+b=k} Sq^{2a}(w) Sq^{2b}(rho_j)

(and the P-analogue); odd operations are declared zero on rho-monomials,
which makes every odd cross-term of the general Cartan expansion vanish.
Pure base classes are fixed by Sq^0 / P^0 and killed by anything of
positive degree; {-1}-powers attached to a monomial ride along as scalars.

On the Tate target the squares act through the projective-space formula
Sq^{2i}(eta^e) = binom(e, i) eta^{e+i} with sigma passing through, since
the operations are stable under the Tate suspension.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .algebra import Element, Monomial, StiefelPresentation
from .coefficients import Bidegree, CoeffRing, FieldProfile, binom_mod, is_prime
from .errors import InadmissibleOperation, InvalidGenerator
from .targets import PGmElement


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


def odd_sq_on_generator(j: int, pres: StiefelPresentation) -> Element:
    """Every odd square vanishes on the generators, for dimensional reasons."""
    _require_context(pres.ring, pres.profile, 2)
    if not pres.is_generator(j):
        raise InvalidGenerator(f"rho_{j} is not a generator of W({pres.n},{pres.m})")
    return pres.zero()


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


def bockstein_on_generator(j: int, p: int, pres: StiefelPresentation) -> Element:
    """The Bockstein vanishes on the generators, for dimensional reasons."""
    if p == 2 or not is_prime(p):
        raise InadmissibleOperation(f"the Bockstein here needs an odd prime, got {p}")
    _require_context(pres.ring, pres.profile, p)
    if not pres.is_generator(j):
        raise InvalidGenerator(f"rho_{j} is not a generator of W({pres.n},{pres.m})")
    return pres.zero()


def apply_operation(op: Operation, x):
    """Apply an operation to a Stiefel or Tate-target element.

    Additive in x; acts part by part on inhomogeneous input.  The bidegree
    shift of every result is checked against the operation's bidegree."""
    if isinstance(x, Element):
        return _apply_stiefel(op, x)
    if isinstance(x, PGmElement):
        return _apply_tate(op, x)
    raise TypeError(f"cannot apply operations to {type(x).__name__}")


def _apply_stiefel(op: Operation, x: Element) -> Element:
    pres = x.pres
    _require_context(pres.ring, pres.profile, op.prime)
    if op.kind in (OperationKind.ODD_SQUARE, OperationKind.BOCKSTEIN):
        return pres.zero()
    if op.kind is OperationKind.SQUARE:
        def gen_action(b: int, j: int) -> Element:
            return sq_on_generator(b, j, pres)
    else:
        def gen_action(b: int, j: int) -> Element:
            return power_on_generator(b, j, op.prime, pres)

    cache: dict[tuple[Monomial, int], Element] = {}

    def cartan(mono: Monomial, k: int) -> Element:
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

    terms = []
    for mono, c in x.terms:
        terms.extend((cartan(mono, op.index) * c).terms)
    out = Element(pres, tuple(terms))
    _check_shift(op, x, out)
    return out


def _apply_tate(op: Operation, x: PGmElement) -> PGmElement:
    pres = x.pres
    _require_context(pres.ring, pres.profile, op.prime)
    if op.kind in (OperationKind.ODD_SQUARE, OperationKind.BOCKSTEIN):
        return pres.zero()
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
    out = PGmElement(pres, tuple(terms))
    _check_shift(op, x, out)
    return out


def _check_shift(op: Operation, x, out) -> None:
    allowed = {bd + op.bidegree_shift for bd in x.bidegrees()}
    stray = out.bidegrees() - allowed
    if stray:
        raise AssertionError(
            f"{op.describe()} broke the bidegree bookkeeping, stray bidegrees {stray}")
