import random
from collections import Counter

import pytest

from stiefel.algebra import (Element, StiefelPresentation, all_monomials, basis_element,
                             basis_in_bidegree, monomial_bidegree, random_element)
from stiefel.coefficients import CoeffRing, FieldProfile, MCoefficient
from stiefel.errors import ContextMismatch, InvalidGenerator, InvalidPresentation, SpanError
from stiefel.linalg import module_kernel
from stiefel.maps import (RingMap, SymmetryKind, apply_map, comparison_map, compose,
                          immersion_pullback, kernel_basis, projection_pullback,
                          ring_map, symmetry_pullback)
from stiefel.operations import apply_operation, power, square
from stiefel.serialize import element_to_json
from stiefel.targets import PGmPresentation

Z = CoeffRing()
Z2 = CoeffRing(2)
PLAIN = FieldProfile()
MAP_RINGS = (Z, Z2, CoeffRing(3), CoeffRing(4))
MAP_PROFILES = (PLAIN, FieldProfile(minus_one_is_square=True))


def rechecked(f):
    """f rebuilt through ring_map, which checks the relations of its images."""
    return ring_map(f.source, f.target, dict(f.images), f.label)


class TestProjectionPullback:
    def test_top_generator(self):
        f = projection_pullback(4, 1, 3)
        assert apply_map(f, f.source.gen(4)) == f.target.gen(4)

    def test_identity_when_equal(self):
        f = projection_pullback(5, 2, 2)
        x = random_element(f.source, None, seed=3)
        assert apply_map(f, x) == x

    def test_monomials_fixed(self):
        f = projection_pullback(4, 2, 3)
        assert apply_map(f, f.source.monomial((3, 4))) == f.target.monomial((3, 4))

    def test_bounds(self):
        with pytest.raises(InvalidPresentation):
            projection_pullback(3, 2, 1)
        with pytest.raises(InvalidPresentation):
            projection_pullback(3, 1, 4)

    def test_total(self):
        f = projection_pullback(6, 2, 5)
        assert rechecked(f) == f


class TestImmersionPullback:
    def test_gl3_images(self):
        f = immersion_pullback(3, 3)
        assert not apply_map(f, f.source.gen(3))
        assert apply_map(f, f.source.gen(2)) == f.target.gen(2)
        assert apply_map(f, f.source.gen(1)) == f.target.gen(1)

    def test_monomials_with_top_generator_die(self):
        f = immersion_pullback(3, 3)
        assert not apply_map(f, f.source.monomial((2, 3)))

    def test_relation_compatibility_on_rho2(self):
        # rho_2^2 = {-1} rho_3 -> 0, and (image rho_2)^2 = rho_2^2 = 0 in GL(2)
        f = immersion_pullback(3, 3)
        assert not apply_map(f, f.source.gen(2) * f.source.gen(2))
        assert rechecked(f) == f

    def test_bounds(self):
        with pytest.raises(InvalidPresentation):
            immersion_pullback(1, 1)
        with pytest.raises(InvalidPresentation):
            immersion_pullback(3, 0)


class TestSymmetryPullback:
    def test_permutation_is_identity(self):
        f = symmetry_pullback(3, 3, SymmetryKind.PERMUTATION, [3, 1, 2])
        x = random_element(f.source, None, seed=9)
        assert apply_map(f, x) == x
        assert f.label == "perm"

    def test_negation_is_identity(self):
        f = symmetry_pullback(4, 2, SymmetryKind.NEGATE_FIRST_COLUMN)
        x = random_element(f.source, None, seed=2)
        assert apply_map(f, x) == x
        assert f.label == "neg"

    def test_composition_of_symmetries(self):
        f = symmetry_pullback(3, 3, SymmetryKind.PERMUTATION, [2, 3, 1])
        g = symmetry_pullback(3, 3, SymmetryKind.NEGATE_FIRST_COLUMN)
        h = compose(g, f)
        for i in h.source.generators:
            assert h.image(i) == h.source.gen(i)

    def test_invalid_permutation(self):
        with pytest.raises(InvalidPresentation):
            symmetry_pullback(3, 3, SymmetryKind.PERMUTATION, [1, 2])
        with pytest.raises(InvalidPresentation):
            symmetry_pullback(3, 3, SymmetryKind.PERMUTATION, [1, 1, 2])

    def test_sign_change_needs_a_column(self):
        with pytest.raises(InvalidPresentation) as caught:
            symmetry_pullback(3, 0, SymmetryKind.NEGATE_FIRST_COLUMN)
        assert str(caught.value) == "the sign change needs at least one column"


class TestComparisonMap:
    def test_images(self):
        f = comparison_map(3)
        t = f.target
        assert apply_map(f, f.source.gen(1)) == t.sigma()
        assert apply_map(f, f.source.gen(2)) == t.sigma() * t.eta(1)
        assert apply_map(f, f.source.gen(3)) == t.sigma() * t.eta(2)

    def test_gl1_is_gm(self):
        f = comparison_map(1)
        assert apply_map(f, f.source.gen(1)) == f.target.sigma()

    def test_product_lands_in_truncation(self):
        # rho_2 rho_3 -> {-1} sigma eta^3 = 0 in P^2
        f = comparison_map(3)
        assert not apply_map(f, f.source.monomial((2, 3)))

    def test_always_total(self):
        for n in range(1, 11):
            for ring in (Z, Z2):
                f = comparison_map(n, ring)
                assert rechecked(f) == f

    def test_respects_products(self):
        f = comparison_map(4)
        x = random_element(f.source, None, seed=21)
        y = random_element(f.source, None, seed=22)
        assert apply_map(f, x * y) == apply_map(f, x) * apply_map(f, y)


class TestGeneratorLevelMaps:
    def make_bad_map(self):
        # rho_3 -> 0 breaks rho_2^2 = {-1} rho_3 while staying homogeneous
        pres = StiefelPresentation(3, 3)
        return ring_map(pres, pres,
                        {1: pres.gen(1), 2: pres.gen(2), 3: pres.zero()}, "bad")

    def test_downgraded(self):
        assert self.make_bad_map().generator_level_only

    def test_generator_span_still_works(self):
        f = self.make_bad_map()
        x = f.source.gen(1) + f.source.minus_one() * f.source.gen(3)
        assert apply_map(f, x) == f.target.gen(1)

    @pytest.mark.parametrize("ring", (Z, Z2, CoeffRing(3)), ids=["Z", "Z/2", "Z/3"])
    @pytest.mark.parametrize("profile", MAP_PROFILES, ids=["nonsquare", "square"])
    def test_diagonal_map_verdicts(self, ring, profile):
        # rho_i -> c_i rho_i respects rho_i^2 = {-1} rho_{2i-1} (0 once 2i-1 > n)
        # iff c_i^2 = c_{2i-1} wherever {-1} rho_{2i-1} survives; {-1}-multiples
        # lie in R/2R, which is Z/2 over Z and Z/2, and 0 over Z/3 or with -1 a
        # square
        survives = ring.modulus % 2 == 0 and not profile.minus_one_is_square
        rng = random.Random(20)
        for n in range(1, 9):
            for m in range(n + 1):
                pres = StiefelPresentation(n, m, ring, profile)
                gens = list(pres.generators)
                draws = [{i: rng.choice((0, 1, 2)) for i in gens} for _ in range(4)]
                # the boundary indices 2i - 1 = n and 2i - 1 = n + 1, with an
                # odd c_i against an even c_{2i-1} where both are generators
                for i in ((n + 1) // 2, n // 2 + 1):
                    if pres.is_generator(i):
                        cs = {j: 1 for j in gens}
                        if 2 * i - 1 <= n and 2 * i - 1 != i:
                            cs[2 * i - 1] = 2
                        draws.append(cs)
                for cs in draws:
                    expected = survives and any(
                        2 * i - 1 <= n and (cs[i] ** 2 - cs[2 * i - 1]) % 2 for i in gens)
                    f = ring_map(pres, pres, {i: pres.gen(i) * cs[i] for i in gens}, "diag")
                    assert f.generator_level_only == expected, (n, m, cs)

    def test_products_rejected(self):
        f = self.make_bad_map()
        with pytest.raises(SpanError):
            apply_map(f, f.source.monomial((1, 2)))
        with pytest.raises(SpanError):
            kernel_basis(f, (3, 2))


class TestRingMapValidation:
    def test_context_mismatch(self):
        a = StiefelPresentation(2, 2, Z)
        b = StiefelPresentation(2, 2, Z2)
        with pytest.raises(ContextMismatch):
            ring_map(a, b, {1: b.gen(1), 2: b.gen(2)}, "oops")

    def test_inhomogeneous_image_rejected(self):
        pres = StiefelPresentation(2, 2)
        with pytest.raises(ValueError):
            ring_map(pres, pres, {1: pres.gen(1) + pres.unit(), 2: pres.gen(2)}, "oops")

    def test_wrong_source_element(self):
        f = immersion_pullback(3, 3)
        with pytest.raises(ContextMismatch):
            apply_map(f, StiefelPresentation(4, 4).gen(2))

    def test_missing_image(self):
        pres = StiefelPresentation(2, 2)
        with pytest.raises(InvalidGenerator) as caught:
            ring_map(pres, pres, {1: pres.gen(1)}, "oops")
        assert str(caught.value) == "missing image for rho_2"

    def test_image_in_another_ring(self):
        pres, other = StiefelPresentation(2, 2), StiefelPresentation(3, 3)
        with pytest.raises(ContextMismatch) as caught:
            ring_map(pres, pres, {1: pres.gen(1), 2: other.gen(2)}, "oops")
        assert str(caught.value) == "image of rho_2 does not live in the target ring"

    def test_image_of_a_non_generator(self):
        f = immersion_pullback(3, 2)
        with pytest.raises(InvalidGenerator) as caught:
            f.image(1)
        assert str(caught.value) == "rho_1 is not a generator of the source of 'imm'"


class TestCompose:
    def test_projection_then_immersion(self):
        for n in range(2, 9):
            inner = projection_pullback(n, n - 1, n)
            outer = immersion_pullback(n, n)
            composite = compose(outer, inner)
            direct = ring_map(
                inner.source, outer.target,
                {i: (outer.target.zero() if i == n else outer.target.gen(i))
                 for i in inner.source.generators},
                "direct")
            for i in inner.source.generators:
                assert composite.image(i) == direct.image(i)

    def test_image_wise_associativity(self):
        f = projection_pullback(5, 2, 3)
        g = projection_pullback(5, 3, 5)
        h = immersion_pullback(5, 5)
        left = compose(h, compose(g, f))
        right = compose(compose(h, g), f)
        for i in f.source.generators:
            assert left.image(i) == right.image(i)

    def test_compose_into_comparison(self):
        f = projection_pullback(3, 1, 3)
        g = comparison_map(3)
        h = compose(g, f)
        assert apply_map(h, h.source.gen(3)) == g.target.sigma() * g.target.eta(2)

    def test_mismatched_composition(self):
        with pytest.raises(ContextMismatch):
            compose(immersion_pullback(4, 4), projection_pullback(3, 1, 3))


class TestKernelBasis:
    def test_spec_examples(self):
        f = immersion_pullback(3, 3)
        assert kernel_basis(f, (5, 3)) == [f.source.gen(3)]
        assert kernel_basis(f, (1, 1)) == []
        ident = symmetry_pullback(3, 3, SymmetryKind.PERMUTATION, [1, 2, 3])
        for bd in [(1, 1), (4, 3), (9, 6)]:
            assert kernel_basis(ident, bd) == []

    def test_mixed_free_and_torsion_kernel(self):
        # f_2 sends both r1 r2 and {-1} r2 to {-1} sigma eta; the kernel in
        # bidegree (4,3) over Z is generated by their difference
        f = comparison_map(2)
        kb = kernel_basis(f, (4, 3))
        assert len(kb) == 1
        generator = kb[0]
        assert not apply_map(f, generator)
        assert {mono for mono, _ in generator.terms} == {(1, 2), (2,)}

    def test_kernel_matches_ideal(self):
        for ring in (Z, Z2):
            f = immersion_pullback(4, 4, ring)
            seen = set()
            for mono in all_monomials(f.source):
                base = monomial_bidegree(mono)
                for k in range(0, 4):
                    seen.add(base + (k, k))
            for bd in sorted(seen):
                lines = basis_in_bidegree(f.source, bd)
                killed = [line for line in lines if 4 in line[0]]
                kb = kernel_basis(f, bd)
                assert len(kb) == len(killed)
                for element in kb:
                    assert all(4 in mono for mono, _ in element.terms)
                    assert not apply_map(f, element)
                for mono, k in killed:
                    assert not apply_map(f, basis_element(f.source, mono, k))

    def test_empty_piece(self):
        f = immersion_pullback(3, 3)
        assert kernel_basis(f, (2, -1)) == []

    @pytest.mark.parametrize("profile", MAP_PROFILES, ids=["plain", "minus-one-square"])
    @pytest.mark.parametrize("ring", MAP_RINGS, ids=["Z", "Z/2", "Z/3", "Z/4"])
    def test_pieces_with_no_target_line(self, ring, profile):
        # the whole piece is the kernel: the same generators as module_kernel
        # gives for a map with no target row
        pieces = 0
        for n in range(1, 9):
            f = comparison_map(n, ring, profile)
            bidegrees = {monomial_bidegree(mono) + (k, k)
                         for mono in all_monomials(f.source) for k in range(4)}
            for bd in sorted(bidegrees):
                src_lines = f.source.lines(bd)
                if not src_lines or f.target.lines(bd):
                    continue
                pieces += 1
                moduli = [ring.modulus if k == 0 else 2 for _, k in src_lines]
                expected = [
                    Element(f.source, tuple(
                        (src_lines[c][0], MCoefficient(ring, profile, ((src_lines[c][1], v),)))
                        for c, v in vector.items()))
                    for vector, _order in module_kernel([], moduli, [])]
                assert kernel_basis(f, bd) == expected, (n, bd)
        assert pieces > 100


class TestNaturality:
    def test_squares_commute_with_comparison(self):
        for n in range(1, 7):
            f = comparison_map(n, Z2)
            for j in f.source.generators:
                for i in range(7):
                    op = square(2 * i)
                    lhs = apply_map(f, apply_operation(op, f.source.gen(j)))
                    rhs = apply_operation(op, apply_map(f, f.source.gen(j)))
                    assert lhs == rhs


class TestNaturalityOnTwistedMonomials:
    # f(P x) = P(f x) on every monomial times {-1}^k, k <= 1.  For cmp the two
    # sides run the Stiefel Cartan kernel and _apply_tate, which share no code
    OPERATIONS = ((CoeffRing(2), [square(2 * i) for i in range(7)]),
                  (CoeffRing(3), [power(i, 3) for i in range(4)]),
                  (CoeffRing(5), [power(i, 5) for i in range(4)]))

    @pytest.mark.parametrize("profile", [PLAIN, FieldProfile(minus_one_is_square=True)],
                             ids=["plain", "minus-one-square"])
    def test_cmp_imm_proj(self, profile):
        cases = 0
        for ring, ops in self.OPERATIONS:
            for n in range(1, 7):
                maps = [comparison_map(n, ring, profile)]
                maps += [immersion_pullback(n, m, ring, profile)
                         for m in range(1, n + 1) if n >= 2]
                maps += [projection_pullback(n, m_small, m_big, ring, profile)
                         for m_big in range(n + 1) for m_small in range(m_big + 1)]
                for f in maps:
                    for mono in all_monomials(f.source):
                        for k in range(2):
                            x = f.source.monomial(mono, MCoefficient.minus_one(ring, profile, k))
                            fx = apply_map(f, x)
                            for op in ops:
                                lhs = apply_map(f, apply_operation(op, x))
                                assert lhs == apply_operation(op, fx), (f.label, n, op, mono, k)
                                cases += 1
        assert cases == 24870, cases


def reference_apply_map(f, x):
    """The Element-valued apply_map that the table fold replaced, kept as the
    reference: each term is the scalar of its coefficient times the images
    of its generators, multiplied as Elements and added one at a time."""
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


def _assert_matches_reference(f, x):
    y = apply_map(f, x)
    assert element_to_json(y) == element_to_json(reference_apply_map(f, x)), (f.label, x)
    assert Element(y.pres, y.terms) == y


def _builtin_maps(n, ring, profile):
    for m_big in range(n + 1):
        for m_small in range(m_big + 1):
            yield projection_pullback(n, m_small, m_big, ring, profile)
    for m in range(n + 1):
        if n >= 2 and m >= 1:
            yield immersion_pullback(n, m, ring, profile)
        yield symmetry_pullback(n, m, SymmetryKind.PERMUTATION, ring=ring, profile=profile)
        if m >= 1:
            yield symmetry_pullback(n, m, SymmetryKind.NEGATE_FIRST_COLUMN,
                                    ring=ring, profile=profile)
    yield comparison_map(n, ring, profile)


class TestApplyMapAgainstReference:
    @pytest.mark.parametrize("ring", MAP_RINGS, ids=["Z", "Z/2", "Z/3", "Z/4"])
    @pytest.mark.parametrize("profile", MAP_PROFILES, ids=["plain", "minus-one-square"])
    def test_builtin_maps_on_every_twisted_monomial(self, ring, profile):
        for n in range(1, 8):
            for f in _builtin_maps(n, ring, profile):
                for mono in all_monomials(f.source):
                    for k in range(3):
                        _assert_matches_reference(f, f.source.monomial(
                            mono, MCoefficient.minus_one(ring, profile, k)))

    def test_random_multi_term_images(self):
        # built-in maps send each generator to a single term; images drawn from
        # whole graded pieces, such as sigma eta^{i-1} + {-1} eta^{i-1}, make
        # the fold add several products per term
        seen = Counter()
        for seed in range(200):
            rng = random.Random(seed)
            ring, profile = MAP_RINGS[seed % 4], MAP_PROFILES[seed % 5 == 0]
            n = rng.randint(1, 6)
            source = StiefelPresentation(n, rng.randint(1, n), ring, profile)
            if seed % 4:
                target = PGmPresentation(rng.randint(1, 7), ring, profile)
            else:
                big = rng.randint(n, 7)
                target = StiefelPresentation(big, rng.randint(0, big), ring, profile)
            images = {i: random_element(target, (2 * i - 1, i), seed=1000 * seed + i)
                      for i in source.generators}
            f = ring_map(source, target, images, "random")
            multi = any(len(img.terms) > 1 for img in images.values())
            seen[f.generator_level_only, multi] += 1
            inputs = [source.monomial(mono, MCoefficient.minus_one(ring, profile, k))
                      for mono in all_monomials(source) for k in range(3)]
            inputs += [random_element(source, None, seed=seed + t) for t in range(3)]
            for x in inputs:
                if f.generator_level_only and any(len(mono) > 1 for mono, _ in x.terms):
                    with pytest.raises(SpanError):
                        apply_map(f, x)
                    with pytest.raises(SpanError):
                        reference_apply_map(f, x)
                else:
                    _assert_matches_reference(f, x)
        # total and generator-level maps, each with multi-term images
        assert min(seen[True, True], seen[False, True]) >= 10, seen


class TestBuiltinMapsAgainstRingMap:
    # the built-in constructors skip ring_map's relation check; rebuilt
    # through it, each map must come back equal: the same images in
    # generator order, and defined on the whole ring
    @pytest.mark.parametrize("ring", MAP_RINGS, ids=["Z", "Z/2", "Z/3", "Z/4"])
    @pytest.mark.parametrize("profile", MAP_PROFILES, ids=["plain", "minus-one-square"])
    def test_every_builtin_map(self, ring, profile):
        for n in range(1, 9):
            for f in _builtin_maps(n, ring, profile):
                assert rechecked(f) == f, (f.label, n, f.source.m)

    def test_planted_map_is_caught(self):
        # rho_3 -> 0 breaks rho_2^2 = {-1} rho_3, so ring_map downgrades it
        pres = StiefelPresentation(3, 3)
        f = RingMap(pres, pres, ((1, pres.gen(1)), (2, pres.gen(2)), (3, pres.zero())), "bad")
        assert rechecked(f) != f
