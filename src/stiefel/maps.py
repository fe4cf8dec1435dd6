"""Ring homomorphisms between the computed rings.

A map keeps one image per generator, in generator order.  apply_map and
kernel_basis share one fold, _term_image, that tabulates the images of the
generators its input names and extends them multiplicatively on tables of
packed coefficients (algebra.table_product); {-1}-powers map to themselves.
apply_map adds every term's image into one table and kernel_basis writes
each into module_kernel rows.  Only ring_map, which takes the caller's
images and compose's, verifies that they respect the squaring relations; a
map failing that check is kept, but downgraded to generator-level and usable
only on the span of single generators.  The built-in maps hold by
construction, unchecked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import (Element, Presentation, StiefelPresentation, monomial_bidegree,
                      table_product)
from .coefficients import CoeffRing, FieldProfile, MCoefficient, pack, unpack
from .errors import ContextMismatch, InvalidGenerator, InvalidPresentation, SpanError
from .targets import PGmPresentation


class SymmetryKind(enum.Enum):
    PERMUTATION = "perm"
    NEGATE_FIRST_COLUMN = "neg"


@dataclass(frozen=True)
class RingMap:
    """A ring homomorphism; images[k] is the image of source.generators[k].

    generator_level_only marks maps whose images fail the relation check;
    those may only be applied to combinations of single generators.
    """

    source: StiefelPresentation
    target: Presentation
    images: tuple[Element, ...]
    label: str
    generator_level_only: bool = False

    def image(self, i: int) -> Element:
        if not self.source.is_generator(i):
            raise InvalidGenerator(f"rho_{i} is not a generator of the source of '{self.label}'")
        return self.images[i - self.source.generators.start]


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
        expected = monomial_bidegree((i,))
        if any(bd != expected for bd in img.bidegrees()):
            raise ValueError(f"image of rho_{i} is not homogeneous of bidegree {expected}")
        imgs[i] = img
    total = all(_respects_square(source, imgs, i) for i in source.generators)
    return RingMap(source, target, tuple(imgs.values()), label,
                   generator_level_only=not total)


def _respects_square(source: StiefelPresentation, imgs: Mapping[int, Element],
                     i: int) -> bool:
    # the image of rho_i^2, which gen_square gives as {-1} rho_{2i-1} or 0
    rhs = sum((c * imgs[j] for (j,), c in source.gen_square(i).terms), imgs[i].pres.zero())
    return imgs[i] * imgs[i] == rhs


def _term_image(f: RingMap, inputs):
    """The function image(mono, terms, acc) that adds f's image of the term
    (monomial, MCoefficient terms) into the target table acc and returns
    acc; it tabulates the images of the generators inputs' monomials name."""
    target = f.target
    encode, _, product, nil, twisted = target.codec()
    n, unit = target.n, encode(target.unit_key)
    images = {i: target.table(f.image(i)) for i in {i for mono, _ in inputs for i in mono}}
    one = {unit: pack(((0, 1),), twisted)}

    def image(mono: tuple[int, ...], terms, acc: dict) -> dict:
        if f.generator_level_only and len(mono) > 1:
            raise SpanError(
                f"map '{f.label}' is generator-level only and cannot take products")
        table = images[mono[0]] if mono else one
        for i in mono[1:]:
            table = table_product(n, product, nil, twisted, table, images[i], {})
        # the coefficient multiplies as a table on the unit key
        return table_product(n, product, nil, twisted, table, {unit: pack(terms, twisted)}, acc)
    return image


def apply_map(f: RingMap, x: Element) -> Element:
    """Extend f additively and multiplicatively to x; {-1}^k maps to {-1}^k.
    The terms are summed in one table, so one element is built per call."""
    if x.pres != f.source:
        raise ContextMismatch(f"element is not in the source ring of '{f.label}'")
    image, acc = _term_image(f, x.terms), {}
    for mono, c in x.terms:
        image(mono, c.terms, acc)
    return f.target.from_table(acc)


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
    images = tuple(target.gen(i) for i in source.generators)
    return RingMap(source, target, images, "proj")


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
    images = tuple(target.zero() if i == n else target.gen(i) for i in source.generators)
    return RingMap(source, target, images, "imm")


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
    return RingMap(pres, pres, tuple(pres.gen(i) for i in pres.generators), label)


def comparison_map(n: int,
                   ring: CoeffRing = CoeffRing(),
                   profile: FieldProfile = FieldProfile()) -> RingMap:
    """H(GL(n)) -> H(G_m x P^{n-1}): rho_i -> sigma eta^{i-1}."""
    source = StiefelPresentation(n, n, ring, profile)
    target = PGmPresentation(n, ring, profile)
    images = tuple(target._basis((1, i - 1)) for i in source.generators)
    return RingMap(source, target, images, "cmp")


def kernel_basis(f: RingMap, bd) -> list[Element]:
    """Basis of the kernel of f on the (p, q) graded piece.

    Returns independent generators of the kernel subgroup (free generators
    and 2-torsion generators mixed), computed by exact integer linear
    algebra on the graded piece: unpack turns each source line's image into
    a column, of modulus R at k = 0 and twisted_modulus above.  With no
    target line there is nothing to eliminate.  Kernel vectors are read out by
    the source lines' keys, with no codec.  Generator-level maps are rejected.
    """
    if f.generator_level_only:
        raise SpanError("kernel computation needs a map defined on the whole ring")
    source = f.source
    src_lines = source.lines(bd)
    if not src_lines:
        return []
    tgt_lines = f.target.lines(bd)
    # source and target share the ring and profile
    ring, profile = source.ring, source.profile
    if tgt_lines:
        from .linalg import module_kernel
        encode, decode, _, _, twisted = f.target.codec()
        index = {(encode(key), k): t for t, (key, k) in enumerate(tgt_lines)}
        rows: list[dict[int, int]] = [{} for _ in tgt_lines]
        image = _term_image(f, src_lines)
        for col, (mono, power) in enumerate(src_lines):
            for code, packed in image(mono, ((power, 1),), {}).items():
                for k, value in unpack(packed, ring.modulus, twisted):
                    if (code, k) not in index:
                        raise AssertionError(
                            f"image term {(decode(code), k)} missed the graded piece {bd}")
                    rows[index[code, k]][col] = value
        src_moduli = [ring.modulus if k == 0 else twisted for _, k in src_lines]
        tgt_moduli = [ring.modulus if k == 0 else twisted for _, k in tgt_lines]
        vectors = [vector for vector, _order in module_kernel(rows, src_moduli, tgt_moduli)]
    else:
        # the map is zero on the piece, so every source line is in the kernel
        vectors = [{col: 1} for col in range(len(src_lines))]
    # module_kernel's entries are reduced and nonzero, and a monomial fixes
    # its k in a graded piece, so the keys are distinct
    unchecked = MCoefficient._unchecked
    return [source._from_terms([(src_lines[c][0], unchecked(ring, profile, ((src_lines[c][1], v),)))
                                for c, v in vector.items()])
            for vector in vectors]
