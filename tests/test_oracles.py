"""The oracles stay off the paths they check, and the checks that left the
library still catch what they are there for.

Each row of ORACLES names an oracle, the fast-path functions it must not
reach, and a call of the fast path that does reach them.  With those
functions replaced by stubs that raise, the oracle must still give its
hard-coded value on a small case, and the fast path must hit a stub.

The library builds its own values unchecked (`Presentation._from_terms`)
and leaves the bidegree shift of `apply_operation` unchecked; the shared
suite pass (`suite_runs.library_checks`) checks both.  Each computation in
UNCHECKED must run with the validating `Element.__post_init__` stubbed out,
so that the shared pass sees every value it builds.  The planted faults
below show that those oracles fail on what they guard against, and that
the faults pass silently without them.  The built-in ring maps skip the
relation check of `maps.ring_map`, which `tests/test_maps.py` runs on each
of them as an oracle.
"""

import contextlib
from unittest import mock

import pytest

from stiefel import algebra, coefficients, linalg, maps, operations, suites, targets
from stiefel.algebra import (Element, Presentation, StiefelPresentation, poincare_polynomial,
                             random_element)
from stiefel.coefficients import CoeffRing
from stiefel.maps import SymmetryKind
from stiefel.operations import power, square
from stiefel.suites import _factorial_value, rewrite_outcomes
from stiefel.targets import PGmPresentation, total_square_oracle

from suite_runs import library_checks
from test_algebra import _reference_normal_word
from test_coefficients import _sieve
from test_linalg import _cone_invariants, _rational_solve, brute_force_kernel
from test_maps import reference_apply_map
from test_operations import reference_apply, reference_cartan
from test_realisation import ComplexPoints, RealPoints, complex_points, real_points

Z2 = CoeffRing(2)


def _plain(x: Element) -> list:
    return [(key, c.terms) for key, c in x.terms]


def _outcomes(n: int, word: tuple) -> list:
    return [_plain(x) for x in rewrite_outcomes(StiefelPresentation(n, n), word)]


def _factorial_table(p: int) -> list:
    pres = StiefelPresentation(6, 6, CoeffRing(p))
    return [_plain(_factorial_value(1, j, p, pres)) for j in pres.generators]


@contextlib.contextmanager
def _stubbed(forbidden):
    """Replace each (owner, name) by a function that raises."""
    with contextlib.ExitStack() as stack:
        for owner, name in forbidden:
            def stub(*args, name=name, **kwargs):
                raise AssertionError(f"reached {name}")
            stack.enter_context(mock.patch.object(owner, name, stub))
        yield


# small inputs, built before any stub is in place
W = StiefelPresentation(4, 4)
X, Y = W.monomial((1, 2), 3) + W.gen(4), W.monomial((2, 4)) - W.gen(1) + W.minus_one()
T = PGmPresentation(4)
S, E = T.term(1, 1, 2) + T.term(0, 2), T.term(1, 0) + T.term(0, 1, -1)
W2, W3 = StiefelPresentation(4, 4, Z2), StiefelPresentation(5, 5, CoeffRing(3))
X2, X3 = W2.monomial((1, 2)) + W2.gen(3), W3.monomial((2, 3)) + W3.gen(1)
CMP, IMM = maps.comparison_map(4), maps.immersion_pullback(5, 5)
V = IMM.source.monomial((4, 5)) + IMM.source.gen(3)

PRODUCT_PATH = [(algebra, "_normal_word"), (operations, "_normal_word"),
                (algebra, "table_product"),
                (StiefelPresentation, "codec"), (PGmPresentation, "codec")]
KERNEL_PATH = [(linalg, "_eliminate"), (linalg, "module_kernel")]


def _product():
    return StiefelPresentation(5, 5).gen(3) * StiefelPresentation(5, 5).gen(2)


def _module_kernel():
    return linalg.module_kernel([{0: 2, 1: 1}], [2, 4, 3], [4])


def _borel_values() -> list:
    real, fx = RealPoints(4, 4), real_points(X2)
    return [sorted(real.mul(fx, fx)), sorted(real.sq(1, fx)), sorted(real.sq(2, {(1, 2)})),
            ComplexPoints(4, 4, 0).mul({(2,): 1}, {(1,): 1}),
            ComplexPoints(5, 5, 3).power(1, {(2, 3): 1}), complex_points(X2)]


def _reference_operations() -> list:
    return [_plain(reference_apply(reference_cartan(op, x.pres), op, x))
            for op, x in ((square(2), X2), (power(1, 3), X3))]


ORACLES = [
    pytest.param(
        lambda: [_outcomes(3, (2, 1)), _outcomes(5, (3, 2, 3)), _outcomes(4, (3, 3)),
                 _outcomes(3, (1, 1, 1))],
        PRODUCT_PATH, _product,
        [[[((1, 2), ((0, -1),))]], [[((2, 5), ((1, 1),))]], [[]], [[((1,), ((2, 1),))]]],
        id="rewrite_outcomes"),
    pytest.param(
        lambda: [_reference_normal_word(3, (2, 1)), _reference_normal_word(5, (3, 2, 3)),
                 _reference_normal_word(4, (3, 3)), _reference_normal_word(3, (1, 1, 1))],
        PRODUCT_PATH, _product,
        [((1, 2), -1, 0), ((2, 5), -1, 1), None, ((1,), 1, 2)],
        id="_reference_normal_word"),
    pytest.param(
        lambda: sorted(poincare_polynomial(StiefelPresentation(5, 4)).items()),
        [(algebra, "_shapes"), (algebra, "piece_size")],
        lambda: algebra.piece_size(StiefelPresentation(5, 4), (12, 7)),
        [((0, 0), 1), ((3, 2), 1), ((5, 3), 1), ((7, 4), 1), ((8, 5), 1), ((9, 5), 1),
         ((10, 6), 1), ((12, 7), 2), ((14, 8), 1), ((15, 9), 1), ((16, 9), 1), ((17, 10), 1),
         ((19, 11), 1), ((21, 12), 1), ((24, 14), 1)],
        id="poincare_polynomial"),
    pytest.param(
        lambda: brute_force_kernel([[2, 1, 0]], [2, 4, 3], [4]),
        KERNEL_PATH, _module_kernel,
        {(0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 2, 0), (1, 2, 1), (1, 2, 2)},
        id="brute_force_kernel"),
    pytest.param(
        lambda: _cone_invariants([[2, 1, 0]], [2, 4, 0], [4]),
        KERNEL_PATH, _module_kernel, (1, [2]),
        id="_cone_invariants"),
    pytest.param(
        lambda: _rational_solve([[1, 1], [0, 2]], [[2, 4], [0, -2]]),
        KERNEL_PATH, _module_kernel, [[2, 0], [1, -1]],
        id="_rational_solve"),
    pytest.param(
        lambda: [_factorial_table(2), _factorial_table(3)],
        [(coefficients, "binom_mod"), (operations, "binom_mod"), (suites, "binom_mod"),
         (operations, "_generator_table")],
        lambda: operations.apply_operation(square(2), StiefelPresentation(6, 6, Z2).gen(2)),
        [[[], [((3,), ((0, 1),))], [], [((5,), ((0, 1),))], [], []],
         [[], [((4,), ((0, 1),))], [((5,), ((0, 2),))], [], [], []]],
        id="factorial-binomials"),
    pytest.param(
        lambda: _plain(total_square_oracle(3, PGmPresentation(6, Z2))),
        [(targets, "sq_projective"), (suites, "sq_projective"),
         (operations, "_generator_value"), (algebra, "table_product")],
        lambda: operations.apply_operation(square(2), PGmPresentation(6, Z2).eta(3)),
        [((0, 3), ((0, 1),)), ((0, 4), ((0, 1),)), ((0, 5), ((0, 1),))],
        id="total_square_oracle"),
    # reference_cartan and reference_apply_map multiply Elements on purpose,
    # so they reach the product path; the rewrite_outcomes and
    # _reference_normal_word rows check that path against oracles that do not
    pytest.param(
        _reference_operations,
        [(operations, "_cartan"), (operations, "_generator_table")],
        lambda: operations.apply_operation(square(2), X2),
        [[((1, 3), ((0, 1),))], [((2, 5), ((0, 2),)), ((3, 4), ((0, 2),))]],
        id="reference_cartan"),
    pytest.param(
        lambda: _plain(reference_apply_map(CMP, X)),
        [(maps, "_term_image")], lambda: maps.apply_map(CMP, X),
        [((1, 1), ((1, 1),)), ((1, 3), ((0, 1),))],
        id="reference_apply_map"),
    pytest.param(
        _borel_values,
        PRODUCT_PATH + [(operations, "_cartan"), (operations, "_generator_table"),
                        (coefficients, "binom_mod"), (operations, "binom_mod"),
                        (suites, "binom_mod")],
        lambda: operations.apply_operation(square(2), X2),
        [[(0, 2)], [(0, 2)], [], {(1, 2): -1}, {(2, 5): 2, (3, 4): 2}, {(3,): 1, (1, 2): 1}],
        id="realisation"),
    pytest.param(
        lambda: _sieve(30), [(coefficients, "is_prime")], lambda: coefficients.is_prime(97),
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29],
        id="_sieve"),
]


@pytest.mark.parametrize("oracle, forbidden, fast, expected", ORACLES)
def test_oracle_does_not_reach_its_fast_path(oracle, forbidden, fast, expected):
    with _stubbed(forbidden):
        assert oracle() == expected
        with pytest.raises(AssertionError, match="^reached "):
            fast()


BUILT_IN_MAPS = [
    pytest.param(lambda: maps.projection_pullback(4, 2, 4), id="projection_pullback"),
    pytest.param(lambda: maps.immersion_pullback(4, 3), id="immersion_pullback"),
    pytest.param(lambda: [maps.symmetry_pullback(3, 3, SymmetryKind.PERMUTATION, (2, 1, 3)),
                          maps.symmetry_pullback(3, 2, SymmetryKind.NEGATE_FIRST_COLUMN)],
                 id="symmetry_pullback"),
    pytest.param(lambda: maps.comparison_map(4), id="comparison_map"),
]

UNCHECKED = [
    pytest.param(lambda: [X * Y, X + Y, X - Y, -X, X.scale(3), 2 * X, Y * 0],
                 id="stiefel-ring"),
    pytest.param(lambda: [S * E, S + E, S - S, S.scale(3), E * 2], id="tate-ring"),
    pytest.param(lambda: [W.gen_square(i) for i in W.generators], id="gen_square"),
    pytest.param(lambda: [operations.apply_operation(square(2), X2),
                          operations.apply_operation(power(1, 3), X3)], id="apply_operation"),
    pytest.param(lambda: [operations.sq_on_generator(1, j, W2) for j in W2.generators],
                 id="sq_on_generator"),
    pytest.param(lambda: [operations.power_on_generator(1, j, 3, W3) for j in W3.generators],
                 id="power_on_generator"),
    *BUILT_IN_MAPS,
    pytest.param(lambda: maps.compose(CMP, IMM), id="compose"),
    pytest.param(lambda: [maps.apply_map(CMP, X), maps.apply_map(IMM, V)], id="apply_map"),
    pytest.param(lambda: [maps.kernel_basis(CMP, bd) for bd in [(4, 3), (6, 4), (8, 5)]],
                 id="kernel_basis"),
    pytest.param(lambda: targets.reduced_part(S + E), id="reduced_part"),
    pytest.param(lambda: [random_element(W, seed=0), random_element(W, (8, 5), seed=2),
                          random_element(T, seed=3), random_element(T, (3, 2), seed=4)],
                 id="random_element"),
    pytest.param(lambda: [W.from_table(W.table(X)), T.from_table(T.table(S))],
                 id="from_table"),
]


@pytest.mark.parametrize("compute", UNCHECKED)
def test_the_library_builds_its_own_values_unchecked(compute):
    expected = compute()
    with _stubbed([(Element, "__post_init__")]):
        assert compute() == expected
        with pytest.raises(AssertionError, match="^reached __post_init__$"):
            W.element((1,))


@pytest.mark.parametrize("build", BUILT_IN_MAPS)
def test_the_built_in_maps_skip_the_relation_check(build):
    expected = build()
    with _stubbed([(maps, "ring_map"), (maps, "_respects_square")]):
        assert build() == expected
        with pytest.raises(AssertionError, match="^reached ring_map$"):
            maps.compose(CMP, IMM)


def _unsorted_from_terms(pres, terms):
    """Presentation._from_terms without its sort."""
    x = object.__new__(Element)
    object.__setattr__(x, "pres", pres)
    object.__setattr__(x, "terms", tuple(terms))
    return x


def _sum_keeping_zeros(pres, terms):
    """Presentation._sum that drops no zero term."""
    acc = {}
    for key, c in terms:
        acc[key] = acc[key] + c if key in acc else c
    return pres._from_terms(list(acc.items()))


def _sum_without_merging(pres, terms):
    """Presentation._sum that leaves repeated keys apart."""
    return pres._from_terms([term for term in terms if term[1]])


@pytest.mark.parametrize("name, mutant, build", [
    pytest.param("_from_terms", _unsorted_from_terms, lambda p: p.gen(3) + p.gen(1),
                 id="unsorted-terms"),
    pytest.param("_sum", _sum_keeping_zeros, lambda p: p.gen(2) - p.gen(2),
                 id="zero-coefficient"),
    pytest.param("_sum", _sum_without_merging, lambda p: p.gen(2) + p.gen(2),
                 id="repeated-key"),
])
def test_revalidation_catches_a_planted_fault(name, mutant, build):
    pres = StiefelPresentation(3, 3)
    with mock.patch.object(Presentation, name, mutant):
        x = build(pres)
        assert x != Element(x.pres, x.terms)  # unchecked, the fault passes
        with library_checks(), pytest.raises(AssertionError, match="out of normal form"):
            build(pres)


def _value_one_higher(i, j, p, n, value=operations._generator_value):
    target, c = value(i, j, p, n)
    return target + 1, c


def _table_one_higher(n, p, index, terms, table=operations._generator_table):
    return {j: [(b, bit << 1, c) for b, bit, c in row]
            for j, row in table(n, p, index, terms).items()}


@pytest.mark.parametrize("name, mutant, x", [
    pytest.param("_generator_value", _value_one_higher, PGmPresentation(6, Z2).eta(1),
                 id="tate"),
    pytest.param("_generator_table", _table_one_higher, StiefelPresentation(4, 4, Z2).gen(2),
                 id="stiefel"),
])
def test_shift_check_catches_an_output_one_degree_off(name, mutant, x):
    op = square(2)
    with mock.patch.object(operations, name, mutant):
        assert operations.apply_operation(op, x)  # unchecked, the fault passes
        with library_checks():
            assert suites.apply_operation is operations.apply_operation
            for apply in (operations.apply_operation, suites.apply_operation):
                with pytest.raises(AssertionError, match="Sq\\^2 broke the bidegree bookkeeping"):
                    apply(op, x)
    with library_checks():
        assert operations.apply_operation(op, x) == (
            x.pres.eta(2) if isinstance(x.pres, PGmPresentation) else x.pres.gen(3))
