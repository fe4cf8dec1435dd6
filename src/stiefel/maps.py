"""Ring homomorphisms between the computed rings.

Maps are stored by generator images and extended additively and
multiplicatively on demand; {-1}-powers map to themselves.  Construction
verifies that the images respect the squaring relations; a map failing
that check is kept, but downgraded to generator-level and usable only on
the span of single generators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import Element, Presentation, StiefelPresentation, basis_element
from .coefficients import Bidegree, CoeffRing, FieldProfile, MCoefficient
from .errors import ContextMismatch, InvalidGenerator, InvalidPresentation, SpanError
from .linalg import module_kernel
from .targets import PGmPresentation


class SymmetryKind(enum.Enum):
    PERMUTATION = "perm"
    NEGATE_FIRST_COLUMN = "neg"


@dataclass(frozen=True)
class RingMap:
    """A homomorphism out of a Stiefel ring, given on generators.

    generator_level_only marks maps whose images fail the relation check;
    those may only be applied to combinations of single generators.
    """

    source: StiefelPresentation
    target: Presentation
    images: tuple[tuple[int, Element], ...]
    label: str
    generator_level_only: bool = False

    def image(self, i: int) -> Element:
        for j, img in self.images:
            if j == i:
                return img
        raise InvalidGenerator(f"rho_{i} is not a generator of the source of '{self.label}'")


def ring_map(source: StiefelPresentation, target: Presentation,
             images: Mapping[int, Element], label: str) -> RingMap:
    """Build a map from generator images.

    Checks the shared coefficient context and the homogeneity of each
    image, then verifies image(rho_i)^2 = {-1} image(rho_{2i-1}) (the image
    of an overflow index reading as 0).  Failure downgrades the map to
    generator-level instead of rejecting it.
    """
    if source.ring != target.ring or source.profile != target.profile:
        raise ContextMismatch("source and target must share the coefficient context")
    imgs: dict[int, Element] = {}
    for i in source.generators:
        if i not in images:
            raise InvalidGenerator(f"missing image for rho_{i}")
        img = images[i]
        if img.pres != target:
            raise ContextMismatch(f"image of rho_{i} does not live in the target ring")
        expected = Bidegree(2 * i - 1, i)
        if any(bd != expected for bd in img.bidegrees()):
            raise ValueError(f"image of rho_{i} is not homogeneous of bidegree {expected}")
        imgs[i] = img
    total = all(_respects_square(source, imgs, i) for i in source.generators)
    return RingMap(source, target, tuple(sorted(imgs.items())), label,
                   generator_level_only=not total)


def _respects_square(source: StiefelPresentation, imgs: Mapping[int, Element],
                     i: int) -> bool:
    lhs = imgs[i] * imgs[i]
    square_image = imgs.get(2 * i - 1) if 2 * i - 1 <= source.n else None
    if square_image is None:
        # a non-generator or overflow index reads as 0
        rhs = imgs[i].pres.zero()
    else:
        rhs = MCoefficient.minus_one(source.ring, source.profile) * square_image
    return lhs == rhs


def apply_map(f: RingMap, x: Element) -> Element:
    """Extend f additively and multiplicatively to x; {-1}^k maps to {-1}^k."""
    if x.pres != f.source:
        raise ContextMismatch(f"element is not in the source ring of '{f.label}'")
    out = f.target.zero()
    for mono, c in x.terms:
        if f.generator_level_only and len(mono) > 1:
            raise SpanError(
                f"map '{f.label}' is generator-level only and cannot take products")
        term = f.target.scalar(c)
        for i in mono:
            term = term * f.image(i)
        out = out + term
    return out


def compose(outer: RingMap, inner: RingMap) -> RingMap:
    """The map x -> outer(inner(x)), constructed image-wise."""
    if not isinstance(inner.target, StiefelPresentation) or inner.target != outer.source:
        raise ContextMismatch("maps do not compose: inner target is not the outer source")
    images = {i: apply_map(outer, inner.image(i)) for i in inner.source.generators}
    return ring_map(inner.source, outer.target, images, f"{outer.label}*{inner.label}")


def projection_pullback(n: int, m_small: int, m_big: int,
                        ring: CoeffRing = CoeffRing(),
                        profile: FieldProfile = FieldProfile()) -> RingMap:
    """H(W(n, m_small)) -> H(W(n, m_big)), rho_i -> rho_i.

    Pullback of the projection W(n, m_big) -> W(n, m_small) that forgets
    the trailing frame vectors; an inclusion of rings.
    """
    if not 0 <= m_small <= m_big <= n:
        raise InvalidPresentation(
            f"need 0 <= m_small <= m_big <= n, got ({n}, {m_small}, {m_big})")
    source = StiefelPresentation(n, m_small, ring, profile)
    target = StiefelPresentation(n, m_big, ring, profile)
    return ring_map(source, target, {i: target.gen(i) for i in source.generators}, "proj")


def immersion_pullback(n: int, m: int,
                       ring: CoeffRing = CoeffRing(),
                       profile: FieldProfile = FieldProfile()) -> RingMap:
    """H(W(n, m)) -> H(W(n-1, m-1)): rho_n -> 0, rho_j -> rho_j otherwise.

    Pullback of the closed immersion W(n-1, m-1) -> W(n, m) prepending a
    fixed first column; a surjection with kernel (rho_n).
    """
    if n < 2 or m < 1:
        raise InvalidPresentation(f"immersion pullback needs n >= 2, m >= 1, got ({n}, {m})")
    source = StiefelPresentation(n, m, ring, profile)
    target = StiefelPresentation(n - 1, m - 1, ring, profile)
    images = {i: (target.zero() if i == n else target.gen(i)) for i in source.generators}
    return ring_map(source, target, images, "imm")


def symmetry_pullback(n: int, m: int, kind: SymmetryKind,
                      permutation: Sequence[int] | None = None,
                      ring: CoeffRing = CoeffRing(),
                      profile: FieldProfile = FieldProfile()) -> RingMap:
    """The identity endomorphism of H(W(n, m)), labeled by its geometric
    origin: a column permutation, or the sign change of the first column."""
    pres = StiefelPresentation(n, m, ring, profile)
    if kind is SymmetryKind.PERMUTATION:
        sigma = tuple(permutation) if permutation is not None else tuple(range(1, m + 1))
        if sorted(sigma) != list(range(1, m + 1)):
            raise InvalidPresentation(f"not a permutation of {m} letters: {sigma}")
        label = "perm"
    else:
        if m < 1:
            raise InvalidPresentation("the sign change needs at least one column")
        label = "neg"
    return ring_map(pres, pres, {i: pres.gen(i) for i in pres.generators}, label)


def comparison_map(n: int,
                   ring: CoeffRing = CoeffRing(),
                   profile: FieldProfile = FieldProfile()) -> RingMap:
    """H(GL(n)) -> H(G_m x P^{n-1}): rho_i -> sigma eta^{i-1}.

    The construction runs the same relation check as every other map.  Over
    this target the two sides of each check vanish together (2i-1 > n
    forces 2i-2 >= n, killing eta^{2i-2}), so the map always comes out
    defined on the whole ring; the generator-level fallback exists but is
    never taken here.
    """
    source = StiefelPresentation(n, n, ring, profile)
    target = PGmPresentation(n, ring, profile)
    images = {i: target.sigma() * target.eta(i - 1) for i in range(1, n + 1)}
    return ring_map(source, target, images, "cmp")


def _line_coords(y: Element):
    for key, c in y.terms:
        for k, value in c.terms:
            yield (key, k), value


def _line_modulus(ring: CoeffRing, k: int) -> int:
    # lines with k >= 1 carry R/2R; they are only enumerated when that is Z/2
    return ring.modulus if k == 0 else 2


def kernel_basis(f: RingMap, bd) -> list[Element]:
    """Basis of the kernel of f on the (p, q) graded piece.

    Returns independent generators of the kernel subgroup (free generators
    and 2-torsion generators mixed), computed by exact integer linear
    algebra on the graded piece.  Generator-level maps are rejected.
    """
    if f.generator_level_only:
        raise SpanError("kernel computation needs a map defined on the whole ring")
    src_lines = f.source.lines(bd)
    if not src_lines:
        return []
    tgt_lines = f.target.lines(bd)
    index = {line: t for t, line in enumerate(tgt_lines)}
    matrix = [[0] * len(src_lines) for _ in tgt_lines]
    for col, (mono, k) in enumerate(src_lines):
        y = apply_map(f, basis_element(f.source, mono, k))
        for line, value in _line_coords(y):
            if line not in index:
                raise AssertionError(f"image term {line} missed the graded piece {bd}")
            matrix[index[line]][col] = value
    src_moduli = [_line_modulus(f.source.ring, k) for _, k in src_lines]
    tgt_moduli = [_line_modulus(f.target.ring, k) for _, k in tgt_lines]
    out = []
    for vector, _order in module_kernel(matrix, src_moduli, tgt_moduli):
        terms = []
        for coord, (mono, k) in zip(vector, src_lines):
            if coord:
                terms.append((mono, MCoefficient(f.source.ring, f.source.profile,
                                                 ((k, coord),))))
        element = Element(f.source, tuple(terms))
        if element:
            out.append(element)
    return out
