"""Motivic Steenrod squares and odd reduced powers on the computed rings.

Generator values follow one closed formula at every prime p,

    P^i(rho_j) = binom(j-1, i) rho_{j+i(p-1)}    if j + i(p-1) <= n, else 0,

where P^i stands for Sq^{2i} at p = 2 (Voevodsky, Publ. IHES 98, 2003).
Every odd square and the Bockstein vanish on these classes, so
apply_operation returns zero for them (after the same context checks).
The action extends to monomials by the Cartan sum

    P^k(rho_j w) = sum_{a+b=k} P^b(rho_j) P^a(w);

odd operations are declared zero on rho-monomials,
which makes every odd cross-term of the general Cartan expansion vanish.
Pure base classes are fixed by Sq^0 / P^0 and killed by anything of
positive degree; {-1}-powers attached to a monomial ride along as scalars.

A value of a degree-(2d, d) operation on a monomial w lies in the graded
piece of bidegree(w) + (2d, d), and that piece often has no basis line
(algebra._shapes tells in O(m)).  So each call first drops the input
terms whose target piece is empty: their values are zero, {-1}-multiples
included, and neither the generator rows nor the kernel see them.

The Cartan sum runs on plain integers.  Each call tabulates the nonzero
generator values (b, rho_target bit, binomial) of the surviving terms'
generators; target = j + b(p-1) <= n bounds a row by (n - j)/(p - 1) + 1
entries, and at p = 2 a row lists the submasks b of j - 1 (Lucas).  The
kernel (_cartan) peels the lowest generator first, so the top generators,
which contract or vanish, cut terms before the wide low rows multiply
them; it skips degrees above a suffix's capacity, keeps its memo for one
call and runs on a work list, so no monomial is too long for the stack.
Over Z/p one int holds a coefficient: a bitset of the Z/2 coefficients of
the {-1}-powers when they survive (then p = 2), else a residue mod p.
_apply_stiefel folds in the input's coefficients by algebra.table_product
before Presentation.from_table builds the result; both skip products
meeting in the codec's zero mask.

On the Tate target the same formula acts key by key through the comparison
map rho_j -> sigma eta^{j-1}: P^i(eta^e) = binom(e, i) eta^{e+i(p-1)}, zero
from eta^n on, with sigma passing through, since the operations are stable
under the Tate suspension.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .algebra import (Element, StiefelPresentation, _normal_word, _shapes, monomial_bidegree,
                      table_product)
from .coefficients import Bidegree, CoeffRing, FieldProfile, binom_mod, is_prime, pack
from .errors import InadmissibleOperation


class OperationKind(enum.Enum):
    SQUARE = "Sq-even"
    ODD_SQUARE = "Sq-odd"
    POWER = "P"
    BOCKSTEIN = "beta"


# the kinds of odd degree, which vanish on both rings
_ODD = (OperationKind.ODD_SQUARE, OperationKind.BOCKSTEIN)


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
        d = 0 if self.kind is OperationKind.BOCKSTEIN else self.index * (self.prime - 1)
        return Bidegree(2 * d + (self.kind in _ODD), d)

    def describe(self) -> str:
        if self.prime == 2:  # Sq^k has degree k
            return f"Sq^{self.bidegree_shift.p}"
        return "beta" if self.kind in _ODD else f"P^{self.index}"


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


def _generator_value(i: int, j: int, p: int, n: int) -> tuple[int, int]:
    """(target, c) with P^i(rho_j) = c rho_target, P^i being Sq^{2i} at
    p = 2: target = j + i(p - 1) and c = binom(j - 1, i) mod p, with c = 0
    beyond rho_n."""
    target = j + i * (p - 1)
    return target, binom_mod(j - 1, i, p) if target <= n else 0


def sq_on_generator(i: int, j: int, pres: StiefelPresentation) -> Element:
    """Value of Sq^{2i} on the generator rho_j."""
    return _on_generator(i, j, 2, pres)


def power_on_generator(i: int, j: int, p: int, pres: StiefelPresentation) -> Element:
    """Value of P^i on the generator rho_j at the odd prime p."""
    try:
        odd_prime = p != 2 and is_prime(p)
    except ValueError as exc:
        raise InadmissibleOperation(str(exc)) from None
    if not odd_prime:
        raise InadmissibleOperation(f"reduced powers need an odd prime, got {p}")
    return _on_generator(i, j, p, pres)


def _on_generator(i: int, j: int, p: int, pres: StiefelPresentation) -> Element:
    """P^i(rho_j), P^i being Sq^{2i} at p = 2, after the context, index and
    generator checks, in that order."""
    _require_context(pres.ring, pres.profile, p)
    if i < 0:
        raise ValueError("operation index must be nonnegative")
    target, c = _generator_value(i, pres.require_generator(j), p, pres.n)
    # c = 0 beyond rho_n; otherwise target >= j >= n-m+1 is again a generator
    return pres._basis((target,)).scale(c) if c else pres.zero()


def apply_operation(op: Operation, x: Element) -> Element:
    """Apply an operation to a Stiefel or Tate-target element.

    Additive in x; acts part by part on inhomogeneous input, each term's
    value lying in its bidegree plus op.bidegree_shift."""
    pres = x.pres
    _require_context(pres.ring, pres.profile, op.prime)
    if op.kind in _ODD:
        return pres.zero()
    return (_apply_stiefel if isinstance(pres, StiefelPresentation) else _apply_tate)(op, x)


def _apply_stiefel(op: Operation, x: Element) -> Element:
    """An even operation on an element of H(W(n, m)) by the Cartan sum."""
    pres = x.pres
    n, p, index, shift = pres.n, op.prime, op.index, op.bidegree_shift
    _, _, product, nil, twisted = pres.codec()
    # the value on w lies in the piece of bidegree(w) + shift, so it is
    # zero, and so is any {-1}-multiple of it, when that piece has no line
    terms = [(mono, c) for mono, c in x.terms if _shapes(pres, monomial_bidegree(mono) + shift)]
    table = _generator_table(n, p, index, terms)
    memo: dict[int, dict[int, dict[int, int]]] = {0: {0: {0: 1}}}
    acc: dict = {}
    for mono, c in terms:
        value = _cartan(memo, table, n, nil, p, twisted, mono, index)
        if twisted == 2:  # bit 0 of the bitset is c_0
            value = {a: (v & 1, v & -2) for a, v in value.items()}
        # the coefficient multiplies as a table on the unit key
        table_product(n, product, nil, twisted, value, {0: pack(c.terms, twisted)}, acc)
    return pres.from_table(acc)


def _generator_table(n: int, p: int, index: int, terms) -> dict[int, list]:
    """table[j] lists (b, 1 << target, c) for the nonzero values
    Sq^{2b}(rho_j) or P^b(rho_j) = c rho_target, b <= index, ascending in b,
    for every generator j of the monomials of the (monomial, coefficient)
    terms, read off the tuples rather than decoded from bitmasks.

    target = j + b (p - 1), so b stops at (n - j) // (p - 1): the table
    costs at most index + 1 binomials per generator, and none beyond n.
    At p = 2 it costs none: by Lucas' theorem C(j - 1, b) is odd exactly
    when b is a submask of j - 1, and b -> (b - (j - 1)) & (j - 1) steps
    through those submasks in ascending order."""
    step = p - 1
    table: dict[int, list] = {}
    for j in {j for mono, _ in terms for j in mono}:
        row = table[j] = []
        top = min(index, (n - j) // step)
        if p == 2:
            b = 0
            while True:
                row.append((b, 1 << (j + b), 1))
                b = (b - j + 1) & (j - 1)
                if not 0 < b <= top:
                    break
        else:
            for b in range(top + 1):
                c = binom_mod(j - 1, b, p)
                if c:
                    row.append((b, 1 << (j + b * step), c))
    return table


def _cartan(memo: dict, table: dict[int, list], n: int, nil: int, p: int,
            twisted: int, mono: tuple[int, ...], k: int) -> dict[int, int]:
    """The degree-k operation on the monomial mono, as {mask: int}, by the
    Cartan sum over its lowest generator j: the degree-d value of rho_j t
    sums P^b(rho_j) times the degree-(d - b) value of its tail t, the
    generator value on the left.  The ring is Z/p; twisted (twisted_modulus)
    is 2 only for an even modulus, and then p = 2 and the int is a bitset
    whose bit e is the Z/2 coefficient of {-1}^e: signs and binomials are 1,
    a disjoint product adds by xor, and a contraction by _normal_word adds
    the bitset shifted by its twist.  When it is 1, every positive
    {-1}-power vanishes, so the int is the coefficient mod p, contracting
    products are skipped, and the sign of a left product with the bit of a
    generator value is the parity of the generators of t below it.

    memo[suffix mask][degree] holds the values, zeros dropped, so cancelled
    monomials stop propagating; the caller owns it, seeds it with the unit
    and shares it between the terms of one call.  A degree above the
    capacity of a suffix, the sum of the largest b in its generators' rows,
    is zero and never looked up.  A work list stands in for recursion: the
    descent peels a generator per level and collects the tail degrees asked
    for and not in memo until none is left; the ascent computes them."""
    mask = cap = 0
    for j in mono:
        mask |= 1 << j
        cap += table[j][-1][0]
    if k > cap:
        return {}
    top = values = memo.setdefault(mask, {})
    levels, need = [], () if k in values else (k,)
    for j in mono:
        if not need:
            break
        row = table[j]
        mask ^= 1 << j
        cap -= row[-1][0]
        tail = memo.setdefault(mask, {})
        levels.append((values, row, tail, cap, need))
        wanted = set()
        for d in need:
            for b, _, _ in row:
                if b > d:
                    break
                if d - b <= cap and d - b not in tail:
                    wanted.add(d - b)
        need, values = wanted, tail
    for values, row, tail, cap, need in reversed(levels):
        for d in need:
            acc: dict[int, int] = {}
            for b, bit, c in row:
                if b > d:
                    break
                if d - b > cap:
                    continue
                if twisted == 2:
                    for a, v in tail[d - b].items():
                        if not a & bit:
                            a |= bit
                        elif a & bit & nil or (nf := _normal_word(n, bit, a)) is None:
                            continue
                        else:
                            a, _, twist = nf
                            v <<= twist
                        acc[a] = acc.get(a, 0) ^ v
                else:
                    below = bit - 1
                    for a, v in tail[d - b].items():
                        if a & bit:
                            continue
                        if (a & below).bit_count() & 1:
                            v = -v
                        a |= bit
                        acc[a] = (acc.get(a, 0) + c * v) % p
            values[d] = {a: v for a, v in acc.items() if v}
    return top[k]


def _apply_tate(op: Operation, x: Element) -> Element:
    """An even operation on a Tate-target element: sigma^s eta^e is read as
    the generator rho_{e+1}, so its value is c sigma^s eta^{target-1}."""
    terms = []
    for (s, e), c in x.terms:
        target, coeff = _generator_value(op.index, e + 1, op.prime, x.pres.n)
        if coeff:
            terms.append(((s, target - 1), c * coeff))
    return Element(x.pres, tuple(terms))
