"""Deterministic property suites.

These replay the algebraic laws and the closed-form identities of the
computed rings on seeded pseudo-random or exhaustive inputs, and the CLI
`check` command runs them.  A suite body only makes checks; its decorator
registers it under its name in `SUITES`, in definition order (the order of
`check --suite all`), and builds its `SuiteResult` and its
`random.Random(seed)`.  `@suite` bodies take (result, rng), walk their
inputs exhaustively and may return early once the result is saturated;
`@sampled_suite` bodies take (result, rng, trial) and run for _TRIALS
trials, stopping after any trial once the failures saturate.  Every suite
is a pure function of its seed.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from . import operations, serialize
from .algebra import (Element, StiefelPresentation, all_monomials, basis_element,
                      basis_in_bidegree, monomial_bidegree, poincare_polynomial,
                      random_element)
from .coefficients import Bidegree, CoeffRing, FieldProfile, MCoefficient, binom_mod
from .maps import (SymmetryKind, apply_map, comparison_map, immersion_pullback,
                   kernel_basis, projection_pullback, ring_map, symmetry_pullback)
from .operations import apply_operation, power, power_on_generator, sq_on_generator, square
from .targets import (PGmPresentation, is_reduced, pgm_key_bidegree, reduced_part, sq_projective,
                      total_square_oracle)

_FAILURE_CAP = 20
_TRIALS = 1000


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: str) -> None:
        self.cases += 1
        if not ok and len(self.failures) < _FAILURE_CAP:
            self.failures.append(message)

    def saturated(self) -> bool:
        return len(self.failures) >= _FAILURE_CAP


SUITES: dict[str, Callable[[int], SuiteResult]] = {}


def suite(name: str):
    """Register body(result, rng) as the suite `name`."""
    def register(body) -> Callable[[int], SuiteResult]:
        def run(seed: int = 0) -> SuiteResult:
            result = SuiteResult(name)
            body(result, random.Random(seed))
            return result
        SUITES[name] = run
        return run
    return register


def sampled_suite(name: str):
    """Register body(result, rng, trial), run for _TRIALS trials, as the
    suite `name`."""
    def register(body) -> Callable[[int], SuiteResult]:
        def trials(result: SuiteResult, rng: random.Random) -> None:
            for trial in range(_TRIALS):
                body(result, rng, trial)
                if result.saturated():
                    return
        return suite(name)(trials)
    return register


_Z = CoeffRing()
_PLAIN = FieldProfile()
_LAW_RINGS = (_Z, CoeffRing(2), CoeffRing(3), CoeffRing(4))
_JSON_RINGS = _LAW_RINGS + (CoeffRing(6),)


def _random_mcoeff(rng: random.Random, ring: CoeffRing,
                   profile: FieldProfile) -> MCoefficient:
    terms = []
    for k in range(rng.randint(1, 3)):
        c = rng.randint(-6, 6) if ring.modulus == 0 else rng.randrange(ring.modulus)
        terms.append((rng.randint(0, 3), c))
    return MCoefficient(ring, profile, tuple(terms))


@suite("binomials")
def suite_binomials(result: SuiteResult, rng: random.Random) -> None:
    """Lucas-based binom_mod against exact big-integer factorial arithmetic."""
    for p in (2, 3, 5, 7):
        for a in range(201):
            for b in range(201):
                expected = math.comb(a, b) % p
                result.check(binom_mod(a, b, p) == expected,
                             f"binom_mod({a},{b},{p}) != {expected}")
            if result.saturated():
                return


@sampled_suite("coefficient-laws")
def suite_coefficient_laws(result: SuiteResult, rng: random.Random, trial: int) -> None:
    """Associativity, commutativity and distributivity of the base
    coefficients, plus 2-torsion of every positive {-1}-power."""
    ring = rng.choice(_LAW_RINGS)
    profile = FieldProfile(minus_one_is_square=rng.random() < 0.2)
    x = _random_mcoeff(rng, ring, profile)
    y = _random_mcoeff(rng, ring, profile)
    z = _random_mcoeff(rng, ring, profile)
    result.check((x * y) * z == x * (y * z), f"mul not associative: {x} {y} {z}")
    result.check(x * y == y * x, f"mul not commutative: {x} {y}")
    result.check(x * (y + z) == x * y + x * z, f"no distributivity: {x} {y} {z}")
    doubled = x + x
    result.check(doubled.powers() in ((), (0,)) and
                 doubled.coefficient(0) == ring.reduce(2 * x.coefficient(0)),
                 f"x + x kept torsion terms: {x} -> {doubled}")


def _random_pres(rng: random.Random, ring: CoeffRing, max_n: int = 6) -> StiefelPresentation:
    n = rng.randint(1, max_n)
    return StiefelPresentation(n, rng.randint(0, n), ring, _PLAIN)


def _random_homogeneous(rng: random.Random, pres: StiefelPresentation) -> Element:
    monos = all_monomials(pres)
    k = rng.randint(0, 2)
    bd = monomial_bidegree(rng.choice(monos)) + (k, k)
    return random_element(pres, bd, seed=rng.randrange(1 << 30))


@sampled_suite("commutativity")
def suite_commutativity(result: SuiteResult, rng: random.Random, trial: int) -> None:
    """Graded commutativity x y = (-1)^{deg x deg y} y x on homogeneous pairs."""
    pres = _random_pres(rng, _Z)
    x = _random_homogeneous(rng, pres)
    y = _random_homogeneous(rng, pres)
    degs = [bd.p for bd in x.bidegrees()] or [0]
    degs_y = [bd.p for bd in y.bidegrees()] or [0]
    sign = -1 if degs[0] % 2 and degs_y[0] % 2 else 1
    result.check(x * y == (y * x) * sign,
                 f"graded commutativity failed in W({pres.n},{pres.m})")


@sampled_suite("associativity")
def suite_associativity(result: SuiteResult, rng: random.Random, trial: int) -> None:
    pres = _random_pres(rng, rng.choice((_Z, CoeffRing(2), CoeffRing(4))))
    x = random_element(pres, None, seed=rng.randrange(1 << 30))
    y = random_element(pres, None, seed=rng.randrange(1 << 30))
    z = random_element(pres, None, seed=rng.randrange(1 << 30))
    result.check((x * y) * z == x * (y * z),
                 f"associativity failed in W({pres.n},{pres.m})")


@sampled_suite("distributivity")
def suite_distributivity(result: SuiteResult, rng: random.Random, trial: int) -> None:
    pres = _random_pres(rng, rng.choice((_Z, CoeffRing(3))))
    x = random_element(pres, None, seed=rng.randrange(1 << 30))
    y = random_element(pres, None, seed=rng.randrange(1 << 30))
    z = random_element(pres, None, seed=rng.randrange(1 << 30))
    result.check(x * (y + z) == x * y + x * z and (y + z) * x == y * x + z * x,
                 f"distributivity failed in W({pres.n},{pres.m})")


def rewrite_outcomes(pres: StiefelPresentation, word: tuple[int, ...]) -> set[Element]:
    """All normal forms reachable from a generator word, one rewrite at a time.

    Moves: swap an out-of-order adjacent pair (sign -1), or contract an
    adjacent repeated pair via rho_i rho_i -> {-1} rho_{2i-1} (zero when
    2i-1 > n).  Both moves shrink (length, inversions), so the exploration
    terminates; confluence holds exactly when one element comes back.
    """
    n = pres.n
    zero = pres.zero()
    memo: dict[tuple, set[Element]] = {}

    def as_element(w: tuple[int, ...], sign: int, twist: int) -> Element:
        return Element(pres, ((w, MCoefficient(pres.ring, pres.profile, ((twist, sign),))),))

    def explore(state: tuple) -> set[Element]:
        if state in memo:
            return memo[state]
        w, sign, twist = state
        moves = []
        for t in range(len(w) - 1):
            if w[t] > w[t + 1]:
                moves.append((w[:t] + (w[t + 1], w[t]) + w[t + 2:], -sign, twist))
            elif w[t] == w[t + 1]:
                i = w[t]
                if 2 * i - 1 > n:
                    moves.append(None)
                else:
                    moves.append((w[:t] + (2 * i - 1,) + w[t + 2:], sign, twist + 1))
        if not moves:
            out = {as_element(w, sign, twist)}
        else:
            out = set()
            for move in moves:
                out |= {zero} if move is None else explore(move)
        memo[state] = out
        return out

    return explore((tuple(word), 1, 0))


@suite("confluence")
def suite_confluence(result: SuiteResult, rng: random.Random) -> None:
    """Rewrite-order independence for all generator words of length <= 4."""
    for n in range(1, 7):
        pres = StiefelPresentation(n, n, _Z, _PLAIN)
        words: list[tuple[int, ...]] = [()]
        for _ in range(4):
            words = [w + (i,) for w in words for i in pres.generators]
            for word in words:
                outcomes = rewrite_outcomes(pres, word)
                product = pres.unit()
                for i in word:
                    product = product * pres.gen(i)
                result.check(len(outcomes) == 1 and next(iter(outcomes)) == product,
                             f"rewrite order changed the normal form of {word} in GL({n})")
                if result.saturated():
                    return


@suite("squares")
def suite_squares(result: SuiteResult, rng: random.Random) -> None:
    """rho_i^2 = {-1} rho_{2i-1} or 0 in every W(n, m), n <= 8, over Z and
    Z/2; all squares vanish when -1 is a square; 2 rho_i^2 = 0 over Z."""
    square_profile = FieldProfile(minus_one_is_square=True)
    for n in range(1, 9):
        for m in range(0, n + 1):
            for ring in (_Z, CoeffRing(2)):
                pres = StiefelPresentation(n, m, ring, _PLAIN)
                for i in pres.generators:
                    got = pres.gen(i) * pres.gen(i)
                    if 2 * i - 1 <= n:
                        expected = Element(pres, (((2 * i - 1,),
                                                   MCoefficient.minus_one(ring, _PLAIN)),))
                    else:
                        expected = pres.zero()
                    result.check(got == expected,
                                 f"rho_{i}^2 wrong in W({n},{m}) over {ring.name}")
                    if ring.modulus == 0:
                        result.check(not (got * 2), f"2 rho_{i}^2 != 0 in W({n},{m})")
            pres_sq = StiefelPresentation(n, m, _Z, square_profile)
            for i in pres_sq.generators:
                result.check(not (pres_sq.gen(i) * pres_sq.gen(i)),
                             f"rho_{i}^2 != 0 in W({n},{m}) with -1 a square")


@suite("rank")
def suite_rank(result: SuiteResult, rng: random.Random) -> None:
    """M-module rank 2^n for GL(n), n <= 12; the Poincare polynomial matches
    the bidegree histogram of the monomial basis for n <= 8."""
    for n in range(1, 13):
        pres = StiefelPresentation(n, n, _Z, _PLAIN)
        series = poincare_polynomial(pres)
        result.check(sum(series.values()) == 2 ** n, f"rank of GL({n}) is not 2^{n}")
        result.check(len(all_monomials(pres)) == 2 ** n,
                     f"monomial count of GL({n}) is not 2^{n}")
    for n in range(1, 9):
        for m in range(0, n + 1):
            pres = StiefelPresentation(n, m, _Z, _PLAIN)
            histogram = Counter(monomial_bidegree(w) for w in all_monomials(pres))
            result.check(dict(histogram) == poincare_polynomial(pres),
                         f"series mismatch for W({n},{m})")


@suite("cartan-oracle")
def suite_cartan_oracle(result: SuiteResult, rng: random.Random) -> None:
    """sq_projective against the (eta + eta^2)^j repeated-multiplication oracle."""
    for n in range(1, 26):
        pres = PGmPresentation(n, CoeffRing(2), _PLAIN)
        for j in range(13):
            oracle = total_square_oracle(j, pres)
            for i in range(13):
                got = sq_projective(i, j, pres)
                if j + i < n and oracle.coefficient((0, j + i)):
                    expected = pres.term(0, j + i)
                else:
                    expected = pres.zero()
                result.check(got == expected,
                             f"Sq^{2 * i}(eta^{j}) disagrees with the oracle at n={n}")
                if result.saturated():
                    return


def _factorial_value(i: int, j: int, p: int, pres: StiefelPresentation) -> Element:
    """P^i(rho_j), Sq^{2i} at p = 2, from math.comb: the generator tables' oracle."""
    c = math.comb(j - 1, i) % p if j + i * (p - 1) <= pres.n else 0
    return pres.gen(j + i * (p - 1)) * c if c else pres.zero()


@suite("operation-table")
def suite_operation_table(result: SuiteResult, rng: random.Random) -> None:
    """Generator tables for Sq^{2i} (p=2) and P^i (p=3,5) for j <= n <= 10,
    i <= 10, with coefficients from exact factorial binomials."""
    for p in (2, 3, 5):
        ring = CoeffRing(p)
        for n in range(1, 11):
            pres = StiefelPresentation(n, n, ring, _PLAIN)
            for j in range(1, n + 1):
                for i in range(11):
                    expected = _factorial_value(i, j, p, pres)
                    if p == 2:
                        got = sq_on_generator(i, j, pres)
                        op = square(2 * i)
                        odd = apply_operation(square(2 * i + 1), pres.gen(j))
                    else:
                        got = power_on_generator(i, j, p, pres)
                        op = power(i, p)
                        odd = apply_operation(operations.bockstein(p), pres.gen(j))
                    result.check(got == expected,
                                 f"{op.describe()}(rho_{j}) wrong in GL({n}) at p={p}")
                    result.check(apply_operation(op, pres.gen(j)) == expected,
                                 f"apply_operation disagrees on rho_{j}, GL({n}), p={p}")
                    result.check(not odd,
                                 f"odd operation failed to vanish on rho_{j} at p={p}")
                    if result.saturated():
                        return
                if p == 2:
                    # instability: the top square Sq^{2j} kills rho_j, matching
                    # the vanishing of the k = 0 part of rho_j^2 = {-1} rho_{2j-1}
                    top = sq_on_generator(j, j, pres)
                    honest = pres.gen(j) * pres.gen(j)
                    zero_part = any(c.coefficient(0) for _, c in honest.terms)
                    result.check(not top and not zero_part,
                                 f"instability failed on rho_{j} in GL({n})")


@suite("comparison")
def suite_comparison(result: SuiteResult, rng: random.Random) -> None:
    """The comparison map sends rho_j to sigma eta^{j-1}; in bidegree
    (2j-1, j) both sides are rank one over M and correspond; squares are
    respected everywhere."""
    for ring in (_Z, CoeffRing(2)):
        for n in range(1, 11):
            f = comparison_map(n, ring, _PLAIN)
            source, target = f.source, f.target
            # built unchecked; ring_map's relation check must give it back whole
            images = dict(zip(source.generators, f.images))
            result.check(ring_map(source, target, images, f.label) == f,
                         f"comparison map downgraded at n={n} over {ring.name}")
            for j in range(1, n + 1):
                img = apply_map(f, source.gen(j))
                result.check(img == target.term(1, j - 1),
                             f"f_{n}(rho_{j}) is not sigma eta^{j - 1}")
                lhs = apply_map(f, source.gen(j) * source.gen(j))
                result.check(lhs == img * img,
                             f"f(rho_{j}^2) != f(rho_{j})^2 at n={n} over {ring.name}")
                bd = Bidegree(2 * j - 1, j)
                src_free = [line for line in basis_in_bidegree(source, bd) if line[1] == 0]
                result.check(src_free == [((j,), 0)],
                             f"source piece {bd} of GL({n}) is not spanned by rho_{j}")
                tgt_free = [line for line in target.lines(bd) if line[1] == 0]
                result.check(tgt_free == [((1, j - 1), 0)],
                             f"target piece {bd} is not spanned by sigma eta^{j - 1}")


@suite("naturality")
def suite_naturality(result: SuiteResult, rng: random.Random) -> None:
    """f_n* Sq^{2i} = Sq^{2i} f_n* on every generator, n <= 8, i <= 8."""
    ring = CoeffRing(2)
    for n in range(1, 9):
        f = comparison_map(n, ring, _PLAIN)
        for j in range(1, n + 1):
            for i in range(9):
                op = square(2 * i)
                lhs = apply_map(f, apply_operation(op, f.source.gen(j)))
                rhs = apply_operation(op, apply_map(f, f.source.gen(j)))
                result.check(lhs == rhs,
                             f"naturality failed for Sq^{2 * i} on rho_{j} in GL({n})")


def _bidegrees_up_to(pres: StiefelPresentation, max_degree: int) -> list[Bidegree]:
    out = set()
    for base in poincare_polynomial(pres):
        if base.p > max_degree:
            continue
        for k in range(max_degree - base.p + 1):
            out.add(base + (k, k))
    return sorted(out)


@suite("induced-maps")
def suite_induced_maps(result: SuiteResult, rng: random.Random) -> None:
    """Kernel of the immersion pullback equals the ideal (rho_n) piece by
    piece up to total degree 20; the projection pullback is injective on
    basis monomials; symmetry pullbacks are identities."""
    for ring, max_n in ((CoeffRing(2), 8), (_Z, 8)):
        for n in range(2, max_n + 1):
            f = immersion_pullback(n, n, ring, _PLAIN)
            for bd in _bidegrees_up_to(f.source, 20):
                lines = basis_in_bidegree(f.source, bd)
                killed = [line for line in lines if n in line[0]]
                for mono, k in killed:
                    result.check(not apply_map(f, basis_element(f.source, mono, k)),
                                 f"ideal line {mono}, k={k} survived the immersion pullback")
                kb = kernel_basis(f, bd)
                result.check(len(kb) == len(killed),
                             f"kernel rank mismatch in bidegree {bd} of GL({n}), "
                             f"{ring.name}: {len(kb)} != {len(killed)}")
                for element in kb:
                    in_ideal = all(n in mono for mono, _ in element.terms)
                    result.check(in_ideal and not apply_map(f, element),
                                 f"kernel generator escaped the ideal (rho_{n}) at {bd}")
                if result.saturated():
                    return
    for n in range(1, 9):
        for m_small in range(0, n + 1):
            for m_big in range(m_small, n + 1):
                f = projection_pullback(n, m_small, m_big, _Z, _PLAIN)
                images = set()
                for mono in all_monomials(f.source):
                    img = apply_map(f, f.source.monomial(mono))
                    result.check(img == f.target.monomial(mono),
                                 f"projection moved the monomial {mono}")
                    images.add(img.terms)
                result.check(len(images) == 2 ** m_small,
                             f"projection not injective on monomials of W({n},{m_small})")
    for n in range(1, 9):
        for m in range(0, n + 1):
            perm = list(range(1, m + 1))
            rng.shuffle(perm)
            syms = [symmetry_pullback(n, m, SymmetryKind.PERMUTATION, perm, _Z, _PLAIN)]
            if m >= 1:
                syms.append(symmetry_pullback(n, m, SymmetryKind.NEGATE_FIRST_COLUMN,
                                              ring=_Z, profile=_PLAIN))
            for f in syms:
                x = random_element(f.source, None, seed=rng.randrange(1 << 30))
                result.check(apply_map(f, x) == x,
                             f"symmetry pullback '{f.label}' moved an element of W({n},{m})")


@sampled_suite("pgm-laws")
def suite_pgm_laws(result: SuiteResult, rng: random.Random, trial: int) -> None:
    """Ring laws of the Tate target, the suspension product rule, and the
    ideal property of the reduced part."""
    n = rng.randint(1, 8)
    pres = PGmPresentation(n, _Z, _PLAIN)
    x = random_element(pres, None, seed=rng.randrange(1 << 30))
    y = random_element(pres, None, seed=rng.randrange(1 << 30))
    z = random_element(pres, None, seed=rng.randrange(1 << 30))
    result.check((x * y) * z == x * (y * z), f"PGm associativity failed at n={n}")
    key = (rng.randint(0, 1), rng.randrange(n))
    k = rng.randint(0, 2)
    bd = pgm_key_bidegree(key) + (k, k)
    xh = random_element(pres, bd, seed=rng.randrange(1 << 30))
    yh = random_element(pres, bd, seed=rng.randrange(1 << 30))
    sign = -1 if bd.p % 2 else 1
    result.check(xh * yh == (yh * xh) * sign, f"PGm graded commutativity at n={n}")
    # suspension rule (sigma x)(sigma y) = {-1} sigma (x y) on eta-polynomials
    ex = sum((pres.eta(e) * rng.randint(-3, 3) for e in range(n)), pres.zero())
    ey = sum((pres.eta(e) * rng.randint(-3, 3) for e in range(n)), pres.zero())
    lhs = (pres.sigma() * ex) * (pres.sigma() * ey)
    rhs = pres.minus_one() * pres.sigma() * (ex * ey)
    result.check(lhs == rhs, f"Tate product rule failed at n={n}")
    reduced = reduced_part(y)
    result.check(is_reduced(x * reduced),
                 f"the reduced part is not an ideal at n={n}")


@sampled_suite("additivity")
def suite_additivity(result: SuiteResult, rng: random.Random, trial: int) -> None:
    """Operations are additive, and shift bidegrees by their advertised amount."""
    p = rng.choice((2, 3, 5))
    ring = CoeffRing(p)
    n = rng.randint(1, 6)
    pres = StiefelPresentation(n, rng.randint(0, n), ring, _PLAIN)
    if p == 2:
        op = square(rng.randint(0, 10))
    else:
        op = power(rng.randint(0, 4), p) if rng.random() < 0.8 else operations.bockstein(p)
    x = random_element(pres, None, seed=rng.randrange(1 << 30))
    y = random_element(pres, None, seed=rng.randrange(1 << 30))
    result.check(apply_operation(op, x + y) == apply_operation(op, x) + apply_operation(op, y),
                 f"{op.describe()} is not additive on W({pres.n},{pres.m})")
    xh = _random_homogeneous(rng, pres)
    out = apply_operation(op, xh)
    allowed = {bd + op.bidegree_shift for bd in xh.bidegrees()}
    result.check(out.bidegrees() <= allowed,
                 f"{op.describe()} shifted bidegrees wrongly on W({pres.n},{pres.m})")


@sampled_suite("json-roundtrip")
def suite_json_roundtrip(result: SuiteResult, rng: random.Random, trial: int) -> None:
    """parse(render(x)) = x, bit for bit, on random elements."""
    ring = rng.choice(_JSON_RINGS)
    profile = FieldProfile(minus_one_is_square=rng.random() < 0.2)
    n = rng.randint(1, 6)
    if trial % 5 == 0:
        pres = PGmPresentation(n, ring, profile)
    else:
        pres = StiefelPresentation(n, rng.randint(0, n), ring, profile)
    x = random_element(pres, None, seed=rng.randrange(1 << 30))
    text = serialize.element_to_json(x)
    back = serialize.element_from_json(text, type(pres))
    result.check(back == x and serialize.element_to_json(back) == text,
                 f"JSON round-trip failed for {text}")


def suite_names() -> list[str]:
    return list(SUITES)


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    return SUITES[name](seed)
