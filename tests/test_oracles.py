"""The oracles stay off the paths they check, and the checks that left the
library still catch what they are there for.

Each row of ORACLES names an oracle, the fast-path functions it must not
reach, and a call of the fast path that does reach them.  With those
functions replaced by stubs that raise, the oracle must still give its
hard-coded value on a small case, and the fast path must hit a stub.

The library builds its own values unchecked (`Presentation._from_terms`)
and leaves the bidegree shift of `apply_operation` unchecked; the shared
suite pass (`suite_runs.library_checks`) checks both.  The planted faults
below show that those oracles fail on what they guard against, and that
the faults pass silently without them.
"""

import contextlib
from unittest import mock

import pytest

from stiefel import algebra, coefficients, operations, suites, targets
from stiefel.algebra import Element, Presentation, StiefelPresentation
from stiefel.coefficients import CoeffRing
from stiefel.operations import square
from stiefel.suites import _factorial_value, rewrite_outcomes
from stiefel.targets import PGmPresentation, total_square_oracle

from suite_runs import library_checks

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


ORACLES = [
    pytest.param(
        lambda: [_outcomes(3, (2, 1)), _outcomes(5, (3, 2, 3)), _outcomes(4, (3, 3)),
                 _outcomes(3, (1, 1, 1))],
        [(algebra, "_normal_word"), (operations, "_normal_word"), (algebra, "table_product"),
         (operations, "table_product"), (StiefelPresentation, "codec"),
         (PGmPresentation, "codec")],
        lambda: StiefelPresentation(5, 5).gen(3) * StiefelPresentation(5, 5).gen(2),
        [[[((1, 2), ((0, -1),))]], [[((2, 5), ((1, 1),))]], [[]], [[((1,), ((2, 1),))]]],
        id="rewrite_outcomes"),
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
]


@pytest.mark.parametrize("oracle, forbidden, fast, expected", ORACLES)
def test_oracle_does_not_reach_its_fast_path(oracle, forbidden, fast, expected):
    with _stubbed(forbidden):
        assert oracle() == expected
        with pytest.raises(AssertionError, match="^reached "):
            fast()


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
