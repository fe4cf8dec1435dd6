"""The four benchmark workloads and the checks on their outputs.

Each builder takes the loaded package modules and a seed and returns a pool
of operations.  The seed drives a private random.Random; the package only
ever receives the elements, bidegrees, maps and argument lists built here.
Every pool is stratified: the strata (context, size band, operation kind)
are fixed, and the seed chooses the concrete inputs inside each stratum, so
two seeds give different inputs with the same cost profile.

The checks run after the timed phase.  Each one rests on an oracle that
does not go through the code path being timed: the rewriting oracle and
ring laws for products, bidegree bookkeeping and naturality under the
comparison map for the operations, Poincare-polynomial counts for graded
pieces, and the library's own rendering for the CLI.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Op:
    """One operation of a workload.

    run is the timed call.  check takes its output and returns None or a
    failure message.  known_defect names a documented defect the request
    is expected to hit; its check failures are counted apart from failures.
    malformed marks a request that the program must reject.
    inproc, when set, is the in-process equivalent of run used by the
    traced run (the CLI workload spawns processes otherwise).
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    known_defect: str | None = None
    inproc: Callable[[], Any] | None = None
    malformed: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    spawns: bool = False      # operations run in child processes


# ---------------------------------------------------------------- helpers

def _coefficient(S, pres, rng: random.Random):
    """A nonzero coefficient, mixing {-1}-powers when the ring has them."""
    MC = S.coefficients.MCoefficient
    ring, profile = pres.ring, pres.profile
    torsion = _has_torsion_lines(pres)
    if ring.modulus == 0:
        c0 = rng.choice((-3, -2, -1, 1, 2, 3))
    else:
        c0 = rng.randrange(1, ring.modulus)
    terms = [(0, c0)]
    if torsion:
        ks = rng.sample((1, 2, 3), rng.randint(0, 2))
        terms.extend((k, 1) for k in sorted(ks))
        if ks and rng.random() < 0.3:
            terms = terms[1:]
    return MC(ring, profile, tuple(terms))


def _mono_from_mask(gens: list[int], mask: int) -> tuple[int, ...]:
    return tuple(g for b, g in enumerate(gens) if mask >> b & 1)


def _dense_element(S, pres, nterms: int, rng: random.Random):
    """An element with exactly nterms distinct monomials."""
    gens = list(pres.generators)
    masks = rng.sample(range(1 << len(gens)), nterms)
    terms = tuple((_mono_from_mask(gens, mask), _coefficient(S, pres, rng)) for mask in masks)
    return S.algebra.Element(pres, terms)


def _parity_part(S, x, parity: int):
    """Components of x whose cohomological degree has the given parity.

    A component {-1}^k * mono has degree sum(2i-1) + k, whose parity is
    len(mono) + k."""
    MC = S.coefficients.MCoefficient
    picked = []
    for mono, c in x.terms:
        keep = tuple((k, ck) for k, ck in c.terms if (len(mono) + k) % 2 == parity)
        if keep:
            picked.append((mono, MC(x.pres.ring, x.pres.profile, keep)))
    return S.algebra.Element(x.pres, tuple(picked))


def _support_check(out, x, y) -> str | None:
    allowed = {a + b for a in x.bidegrees() for b in y.bidegrees()}
    stray = out.bidegrees() - allowed
    return f"bidegrees {sorted(stray)} are not sums of factor bidegrees" if stray else None


# --------------------------------------------------------------- products

# (n, m, modulus, -1 is a square): Z, Z/2, Z/3 and Z/4, with and without
# -1 a square; every m >= 8 so that 200 distinct monomials exist.
PRODUCT_CONTEXTS = [
    (10, 10, 0, False),
    (11, 9, 2, False),
    (9, 9, 3, False),
    (10, 8, 4, False),
    (11, 10, 0, True),
    (10, 9, 2, True),
]
# term counts of the two factors, each within 20..200; a product costs about
# |x| |y| normal forms, kept at most 8000 so that one pass stays short
PRODUCT_SIZES = [(20, 40), (25, 200), (40, 60), (50, 120), (70, 70), (100, 50),
                 (160, 30), (200, 40)]
TOY_PRODUCT_SIZES = [(20, 20), (30, 25)]
VARIANTS = 3     # distinct inputs per stratum; more of them steady the percentiles


def build_products(S, seed: int, toy: bool = False) -> Workload:
    rng = random.Random(seed)
    sizes = TOY_PRODUCT_SIZES if toy else PRODUCT_SIZES
    contexts = PRODUCT_CONTEXTS[:2] if toy else PRODUCT_CONTEXTS
    ops = []
    strata = [(ci, context, si, size) for ci, context in enumerate(contexts)
              for si, size in enumerate(sizes)] * (1 if toy else VARIANTS)
    for ci, (n, m, modulus, square), si, (a, b) in strata:
        pres = S.algebra.StiefelPresentation(
            n, m, S.coefficients.CoeffRing(modulus), S.coefficients.FieldProfile(square))
        x = _dense_element(S, pres, a, rng)
        op_rng = random.Random(rng.randrange(1 << 30))
        if (ci + si) % 8 == 3:
            # a minority of x*(y+z): the sum is part of the operation
            y = _dense_element(S, pres, b // 2, rng)
            z = _dense_element(S, pres, b - b // 2, rng)
            ops.append(Op(f"x*(y+z) W({n},{m}) {pres.ring.name} {a}x{b}",
                          lambda x=x, y=y, z=z: x * (y + z),
                          lambda out, x=x, y=y, z=z, r=op_rng:
                              _check_distributive(S, out, x, y, z, r)))
        else:
            y = _dense_element(S, pres, b, rng)
            ops.append(Op(f"x*y W({n},{m}) {pres.ring.name} {a}x{b}",
                          lambda x=x, y=y: x * y,
                          lambda out, x=x, y=y, r=op_rng: _check_product(S, out, x, y, r)))
    rng.shuffle(ops)
    return Workload("products", ops)


def _check_rewrites(S, x, y, rng: random.Random, pairs: int = 2) -> str | None:
    """Compare the product of sampled short monomial pairs with the
    rewriting oracle, which explores every rewrite order separately."""
    pres = x.pres
    short_x = [mono for mono, _ in x.terms if len(mono) <= 3]
    short_y = [mono for mono, _ in y.terms if len(mono) <= 3]
    if not short_x or not short_y:
        return None
    for _ in range(pairs):
        m1, m2 = rng.choice(short_x), rng.choice(short_y)
        outcomes = S.suites.rewrite_outcomes(pres, m1 + m2)
        got = pres.monomial(m1) * pres.monomial(m2)
        if outcomes != {got}:
            return f"normal form of {m1}*{m2} disagrees with the rewriting oracle"
    return None


def _check_product(S, out, x, y, rng) -> str | None:
    # graded commutativity: x y = y x - 2 (y_odd x_odd)
    swapped = y * x - (_parity_part(S, y, 1) * _parity_part(S, x, 1)).scale(2)
    if out != swapped:
        return "x*y breaks graded commutativity against y*x"
    return _support_check(out, x, y) or _check_rewrites(S, x, y, rng)


def _check_distributive(S, out, x, y, z, rng) -> str | None:
    if out != x * y + x * z:
        return "x*(y+z) differs from x*y + x*z"
    return _support_check(out, x, y + z) or _check_rewrites(S, x, y, rng)


# --------------------------------------------------------------- steenrod

# (prime, n values, operation indices): Sq^{2i} over Z/2, P^i over Z/3, Z/5
STEENROD_GRID = [
    (2, (12, 16, 20), (3, 7, 12)),
    (3, (14, 18), (1, 3, 5)),
    (5, (13, 17), (1, 2, 3)),
]
TOY_STEENROD_GRID = [(2, (6,), (1, 2)), (3, (6,), (1,))]
TATE_GRID = [(2, 12, 3), (2, 16, 5), (2, 20, 7), (3, 14, 2), (3, 18, 3), (5, 17, 1)]


def _steenrod_input(S, pres, kind: str, rng: random.Random):
    gens = list(pres.generators)
    one = S.coefficients.MCoefficient.one(pres.ring, pres.profile)
    if kind == "top":
        return pres.monomial(gens, one)
    if kind == "near-top":
        drop = rng.choice(gens)
        return pres.monomial([g for g in gens if g != drop], _coefficient(S, pres, rng))
    terms = []
    for _ in range(4):
        length = len(gens) // 2 + rng.randint(0, 1)
        terms.append((tuple(sorted(rng.sample(gens, length))), _coefficient(S, pres, rng)))
    return S.algebra.Element(pres, tuple(terms))


def _operation(S, p: int, i: int):
    if p == 2:
        return S.operations.square(2 * i), (2 * i, i)
    return S.operations.power(i, p), (2 * i * (p - 1), i * (p - 1))


def build_steenrod(S, seed: int, toy: bool = False) -> Workload:
    rng = random.Random(seed)
    C = S.coefficients
    ops = []
    for p, ns, indices in (TOY_STEENROD_GRID if toy else STEENROD_GRID * VARIANTS):
        for n in ns:
            pres = S.algebra.StiefelPresentation(n, n, C.CoeffRing(p), C.FieldProfile())
            f = S.maps.comparison_map(n, pres.ring, pres.profile)
            for i in indices:
                op, shift = _operation(S, p, i)
                for kind in ("top", "near-top", "sum"):
                    x = _steenrod_input(S, pres, kind, rng)
                    ops.append(Op(f"{op.describe()} {kind} GL({n})",
                                  lambda op=op, x=x: S.operations.apply_operation(op, x),
                                  lambda out, op=op, x=x, shift=shift, f=f:
                                      _check_stiefel_operation(S, out, op, x, shift, f)))
    for p, n, i in (TATE_GRID[:1] if toy else TATE_GRID):
        pres = S.targets.PGmPresentation(n, C.CoeffRing(p), C.FieldProfile())
        op, (_, step) = _operation(S, p, i)  # eta^e moves to eta^{e+step}
        terms = tuple(((rng.randint(0, 1), rng.randrange(n)), _coefficient(S, pres, rng))
                      for _ in range(rng.randint(4, 8)))
        x = S.targets.PGmElement(pres, terms)
        ops.append(Op(f"{op.describe()} Tate n={n}",
                      lambda op=op, x=x: S.operations.apply_operation(op, x),
                      lambda out, x=x, i=i, step=step, p=p:
                          _check_tate_operation(S, out, x, i, step, p)))
    rng.shuffle(ops)
    return Workload("steenrod", ops)


def _check_stiefel_operation(S, out, op, x, shift, f) -> str | None:
    allowed = {bd + shift for bd in x.bidegrees()}
    stray = out.bidegrees() - allowed
    if stray:
        return f"{op.describe()} left the shifted bidegrees: {sorted(stray)}"
    # naturality under the comparison map; the Tate side has its own formula
    lhs = S.maps.apply_map(f, out)
    rhs = S.operations.apply_operation(op, S.maps.apply_map(f, x))
    if lhs != rhs:
        return f"{op.describe()} does not commute with the comparison map"
    return None


def _check_tate_operation(S, out, x, i, step, p) -> str | None:
    """Factorial binomials: op(sigma^s eta^e) = C(e, i) sigma^s eta^{e+step}."""
    terms = []
    for (s, e), c in x.terms:
        b = math.comb(e, i) % p
        if b and e + step < x.pres.n:
            terms.append(((s, e + step), c * b))
    if out != S.targets.PGmElement(x.pres, tuple(terms)):
        return "operation on the Tate target disagrees with the factorial formula"
    return None


# ----------------------------------------------------------------- pieces

# (n, bidegrees from the Poincare support, empty bidegrees): basis_in_bidegree
# walks all 2^n monomials of GL(n) whatever the size of the answer
BASIS_STRATA = [(14, 4, 0), (15, 4, 0), (16, 3, 1), (17, 2, 0), (18, 1, 0)]
# (map, n, modulus, smallest and largest piece in basis lines, operations):
# weighted toward middle pieces of 50-160 lines, which exist from GL(11) on;
# the counts keep the operations dense around the median and the 90th
# percentile, so that the percentiles do not jump between strata
KERNEL_STRATA = [
    ("imm", 13, 0, 150, 160, 1), ("imm", 12, 2, 110, 120, 3), ("imm", 11, 0, 66, 74, 5),
    ("imm", 10, 2, 36, 44, 5),
    ("cmp", 13, 2, 86, 94, 3), ("cmp", 12, 0, 66, 74, 5), ("cmp", 11, 2, 52, 58, 5),
    ("cmp", 9, 0, 20, 26, 5),
    ("proj", 13, 0, 70, 80, 3), ("proj", 12, 2, 46, 54, 5), ("proj", 11, 0, 20, 26, 5),
]
TOY_BASIS_STRATA = [(6, 1, 1)]
TOY_KERNEL_STRATA = [("imm", 6, 0, 2, 6, 1), ("cmp", 5, 2, 1, 4, 1), ("proj", 6, 0, 1, 4, 1)]


def _has_torsion_lines(pres) -> bool:
    return not pres.profile.minus_one_is_square and pres.ring.reduce_mod_two(1) != 0


def _piece_size(series: dict, torsion: bool, bd) -> int:
    """Basis lines of a piece, from the Poincare polynomial alone: a line
    {-1}^k * mono sits at bidegree(mono) + (k, k)."""
    p, q = bd
    lines = series.get((p, q), 0)
    if torsion:
        lines += sum(series.get((p - k, q - k), 0) for k in range(1, q + 1))
    return lines


def _piece_sizes(S, pres) -> dict:
    """Sizes of the pieces at the monomial bidegrees and a few {-1} shifts."""
    series = S.algebra.poincare_polynomial(pres)
    torsion = _has_torsion_lines(pres)
    shifts = range(4) if torsion else range(1)
    return {(p + k, q + k): _piece_size(series, torsion, (p + k, q + k))
            for p, q in series for k in shifts}


def _kernel_map(S, label: str, n: int, ring, profile):
    if label == "imm":
        return S.maps.immersion_pullback(n, n, ring, profile)
    if label == "cmp":
        return S.maps.comparison_map(n, ring, profile)
    return S.maps.projection_pullback(n, n - 1, n, ring, profile)


def build_pieces(S, seed: int, toy: bool = False) -> Workload:
    rng = random.Random(seed)
    C = S.coefficients
    ops = []
    for n, full, empty in (TOY_BASIS_STRATA if toy else BASIS_STRATA):
        modulus = rng.choice((0, 2))
        pres = S.algebra.StiefelPresentation(n, n, C.CoeffRing(modulus), C.FieldProfile())
        series = S.algebra.poincare_polynomial(pres)
        support = sorted(series)
        picks = [rng.choice(support) for _ in range(full)]
        # weight above degree never carries a line
        picks += [(q, q + 1) for q in (rng.choice(support).q for _ in range(empty))]
        for bd in picks:
            ops.append(Op(f"basis GL({n}) {tuple(bd)}",
                          lambda pres=pres, bd=bd: S.algebra.basis_in_bidegree(pres, bd),
                          lambda out, pres=pres, bd=bd, series=series:
                              _check_basis(out, pres, bd, series)))
    for label, n, modulus, lo, hi, count in (TOY_KERNEL_STRATA if toy else KERNEL_STRATA):
        ring, profile = C.CoeffRing(modulus), C.FieldProfile()
        f = _kernel_map(S, label, n, ring, profile)
        sizes = _piece_sizes(S, f.source)
        band = sorted(bd for bd, size in sizes.items() if lo <= size <= hi)
        for bd in rng.sample(band, count):
            ops.append(Op(f"kernel {label} GL({n}) {ring.name} {bd} {sizes[bd]} lines",
                          lambda f=f, bd=bd: S.maps.kernel_basis(f, bd),
                          lambda out, f=f, bd=bd, lines=sizes[bd]:
                              _check_kernel(S, out, f, bd, lines)))
    rng.shuffle(ops)
    return Workload("pieces", ops)


def _check_basis(out, pres, bd, series) -> str | None:
    free = sum(1 for _, k in out if k == 0)
    if free != series.get(tuple(bd), 0):
        return f"{free} free lines at {bd}, Poincare polynomial says {series.get(tuple(bd), 0)}"
    expected = _piece_size(series, _has_torsion_lines(pres), bd)
    if len(out) != expected:
        return f"{len(out)} lines at {bd}, Poincare polynomial says {expected}"
    return None


def _check_kernel(S, out, f, bd, lines: int) -> str | None:
    for element in out:
        if element.bidegrees() - {tuple(bd)}:
            return f"kernel element outside the piece {bd}"
        if S.maps.apply_map(f, element):
            return f"kernel element does not map to 0 under {f.label}"
    n = f.source.n
    if f.label == "imm":
        # lines containing rho_n are rho_n times the lines of GL(n-1)
        lower = S.algebra.StiefelPresentation(n - 1, n - 1, f.source.ring, f.source.profile)
        expected = _piece_size(S.algebra.poincare_polynomial(lower),
                               _has_torsion_lines(lower), (bd[0] - (2 * n - 1), bd[1] - n))
        if len(out) != expected:
            return f"imm kernel rank {len(out)} at {bd}, expected {expected}"
    elif f.label == "proj" and out:
        return "projection pullback has a kernel"
    elif f.label == "cmp":
        # target lines sigma^s eta^e {-1}^k with s + 2e + k = p, s + e + k = q
        p, q = bd
        torsion = _has_torsion_lines(f.target)
        e = p - q
        target = sum(1 for s in (0, 1) if 0 <= e < n and (2 * q - p - s == 0
                     or (torsion and 2 * q - p - s > 0)))
        if len(out) < lines - target:
            return f"cmp kernel has {len(out)} generators, needs at least {lines - target}"
    return None


# -------------------------------------------------------------------- cli

# Malformed requests and what they hit; README: exit 2 or 3 with a message.
MALFORMED = [
    (["sq", "-i", "-2", "r1", "-n", "3"], "negative Sq index ends in a traceback (exit 1)"),
    (["mul", "r2", "r2", "-n", "3", "--char", "4"], "--char 4 is accepted (exit 0)"),
    (["mul", "r1", "r3", "-n", "4", "--char", "-5"], "--char -5 is accepted (exit 0)"),
    (["mul", "r2", "r9", "-n", "3"], None),
    (["mul", "r2", "bogus", "-n", "3"], None),
    (["power", "-i", "-1", "-p", "3", "r1", "-n", "3", "--coeff", "Z/3"], None),
    (["map", "proj", "r1", "-n", "4", "-m", "2"], None),
]
FORMATS = ("text", "json", "latex")


def _emit(S, x, fmt: str) -> str:
    if fmt == "json":
        return S.serialize.element_to_json(x)
    return S.render.element_text(x, latex=(fmt == "latex"))


def _ring_args(pres) -> list[str]:
    return ["-n", str(pres.n), "-m", str(pres.m), "--coeff", pres.ring.name]


def _cli_requests(S, rng: random.Random, toy: bool):
    """Well-formed (argv, expected stdout) pairs, rendered in process."""
    C, A = S.coefficients, S.algebra
    R = S.render

    def pres_of(n, m, modulus):
        return A.StiefelPresentation(n, m, C.CoeffRing(modulus), C.FieldProfile())

    out = []
    for fmt in FORMATS:
        n = rng.randint(3, 8)
        pres = pres_of(n, rng.randint(1, n), rng.choice((0, 2, 4)))
        text = {"text": lambda: R.presentation_text(pres),
                "json": lambda: json.dumps(R.presentation_dict(pres)),
                "latex": lambda: R.presentation_latex(pres)}[fmt]()
        out.append((["present", *_ring_args(pres), "--format", fmt], text))
        for size in ((20,) if toy else (40, 150)):
            n = rng.randint(8, 9)
            pres = pres_of(n, 8, rng.choice((0, 2, 3)))
            x = _dense_element(S, pres, size, rng)
            y = _dense_element(S, pres, rng.randint(10, 40), rng)
            argv = ["mul", S.serialize.element_to_json(x), S.serialize.element_to_json(y)]
            out.append((argv + _ring_args(pres) + ["--format", fmt], _emit(S, x * y, fmt)))
        for use_json in (True, False):
            n = rng.randint(8, 12)
            pres = pres_of(n, n, 2)
            i = rng.randint(1, 4)
            if use_json:
                x = _steenrod_input(S, pres, "sum", rng)
                token = S.serialize.element_to_json(x)
            else:
                j = rng.randint(1, n)
                x, token = pres.gen(j), f"r{j}"
            y = S.operations.apply_operation(S.operations.square(2 * i), x)
            out.append((["sq", "-i", str(2 * i), token, *_ring_args(pres), "--format", fmt],
                        _emit(S, y, fmt)))
        p = rng.choice((3, 5))
        n = rng.randint(8, 12)
        pres = pres_of(n, n, p)
        x = _steenrod_input(S, pres, "near-top", rng)
        i = rng.randint(1, 2)
        y = S.operations.apply_operation(S.operations.power(i, p), x)
        out.append((["power", "-i", str(i), "-p", str(p), S.serialize.element_to_json(x),
                     *_ring_args(pres), "--format", fmt], _emit(S, y, fmt)))
        for _ in range(1):
            n = rng.randint(6, 12)
            pres = pres_of(n, n, rng.choice((0, 2)))
            bd = rng.choice(sorted(A.poincare_polynomial(pres)))
            lines = A.basis_in_bidegree(pres, bd)
            if fmt == "json":
                text = json.dumps({"p": bd[0], "q": bd[1], "lines": [
                    {"gens": list(mono), "k": k} for mono, k in lines]})
            else:
                text = R.basis_report(pres, bd, lines, latex=(fmt == "latex"))
            out.append((["basis", "-p", str(bd[0]), "-q", str(bd[1]), *_ring_args(pres),
                         "--format", fmt], text))
        n = rng.randint(4, 12)
        pres = pres_of(n, rng.randint(1, n), 0)
        if fmt == "json":
            text = json.dumps([{"p": bd.p, "q": bd.q, "count": c}
                               for bd, c in R.series_entries(pres)])
        else:
            text = R.series_text(pres, latex=(fmt == "latex"))
        out.append((["series", *_ring_args(pres), "--format", fmt], text))
    for label in ("proj", "imm", "perm", "neg", "cmp"):
        n = rng.randint(5, 9)
        m = n if label == "cmp" else rng.randint(2, n - 1)
        ring, profile = C.CoeffRing(rng.choice((0, 2))), C.FieldProfile()
        extra = []
        if label == "proj":
            f = S.maps.projection_pullback(n, m, n, ring, profile)
            extra = ["--m-big", str(n)]
        elif label == "imm":
            f = S.maps.immersion_pullback(n, m, ring, profile)
        elif label == "perm":
            perm = list(range(1, m + 1))
            rng.shuffle(perm)
            f = S.maps.symmetry_pullback(n, m, S.maps.SymmetryKind.PERMUTATION, perm,
                                         ring, profile)
            extra = ["--sigma", ",".join(map(str, perm))]
        elif label == "neg":
            f = S.maps.symmetry_pullback(n, m, S.maps.SymmetryKind.NEGATE_FIRST_COLUMN,
                                         ring=ring, profile=profile)
        else:
            f = S.maps.comparison_map(n, ring, profile)
        x = _dense_element(S, f.source, min(40, 1 << m), rng)
        fmt = rng.choice(FORMATS)
        argv = ["map", label, S.serialize.element_to_json(x), *extra,
                *_ring_args(f.source), "--format", fmt]
        out.append((argv, _emit(S, S.maps.apply_map(f, x), fmt)))
    return out


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(argv: list[str], env: dict):
    proc = subprocess.run([sys.executable, "-m", "stiefel.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_in_process(S, argv: list[str]):
    """Run stiefel.cli.main on argv in this process; (exit code, stdout, stderr)."""
    import contextlib
    import io
    import traceback

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            S.cli.main.main(args=argv, prog_name="stiefel")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # an escaping exception is what a traceback exit looks like
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _check_output(result, expected: str) -> str | None:
    code, stdout, stderr = result
    if code != 0:
        return f"exit {code}: {stderr.strip().splitlines()[-1:]}"
    if stdout != expected + "\n":
        return "stdout differs from the in-process rendering"
    return None


def _check_rejection(result) -> str | None:
    code, stdout, stderr = result
    lines = [line for line in stderr.splitlines() if line.strip()]
    if code not in (2, 3):
        return f"malformed request exited {code}, not 2 or 3"
    if stdout or "Traceback" in stderr or not lines or not lines[-1].lower().startswith("error:"):
        return "malformed request did not end in a one-line error message"
    return None


def build_cli(S, seed: int, toy: bool = False) -> Workload:
    rng = random.Random(seed)
    env = cli_env()
    requests = _cli_requests(S, rng, toy)
    if toy:
        requests = requests[:4]
    ops = []
    for argv, expected in requests:
        ops.append(Op(f"cli {argv[0]} {argv[-1]}",
                      lambda argv=argv: _spawn(argv, env),
                      lambda result, expected=expected: _check_output(result, expected),
                      inproc=lambda argv=argv: run_cli_in_process(S, argv)))
    for argv, defect in (MALFORMED[:3] if toy else MALFORMED):
        ops.append(Op(f"cli malformed {' '.join(argv)}",
                      lambda argv=argv: _spawn(argv, env), _check_rejection,
                      known_defect=defect, malformed=True,
                      inproc=lambda argv=argv: run_cli_in_process(S, argv)))
    rng.shuffle(ops)
    return Workload("cli", ops, spawns=True)


BUILDERS = {
    "products": build_products,
    "steenrod": build_steenrod,
    "pieces": build_pieces,
    "cli": build_cli,
}
