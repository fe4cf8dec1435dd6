"""One timed, logged run of each property suite per test process.

`suite_run(name, seed)` calls `suites.run_suite` once per (name, seed) and
keeps the result, its wall time, and a sha256 of its case log: the
(ok, message) of every `SuiteResult.check` call, in order.  The acceptance
criteria assert on these runs, and the golden `check` group and two CLI
`check` tests feed them to the CLI by patching `suites.run_suite` with
`shared_result`, so a tier-1 session runs each suite once per seed.

The library builds the values it computes without checking them
(`Presentation._from_terms`), and `apply_operation` does not check its
output's bidegrees.  While this shared run goes, `library_checks` puts both
checks back as oracles: every element that `_from_terms` builds must equal
the validating `Element(...)` of its own terms, and every value of
`apply_operation` must pass `check_shift`.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import time
from dataclasses import dataclass
from unittest import mock

from stiefel import operations, suites
from stiefel.algebra import Element, Presentation
from stiefel.coefficients import Bidegree

# bound at import, so that callers may patch suites.run_suite with shared_result
_run_suite = suites.run_suite


def check_shift(op, x: Element, out: Element) -> None:
    """Every bidegree of out is a bidegree of x plus op's shift."""
    dp, dq = op.bidegree_shift
    stray = out._bidegree_pairs() - {(p + dp, q + dq) for p, q in x._bidegree_pairs()}
    if stray:
        stray = set(map(Bidegree._make, stray))
        raise AssertionError(
            f"{op.describe()} broke the bidegree bookkeeping, stray bidegrees {stray}")


def shift_checked(apply):
    """apply_operation with check_shift run on every value."""
    def checked(op, x):
        out = apply(op, x)
        check_shift(op, x, out)
        return out
    return checked


def revalidated(from_terms):
    """Presentation._from_terms that asserts its element is in normal form:
    the validating constructor of its terms gives the same terms back."""
    def checked(pres, terms):
        x = from_terms(pres, terms)
        normal = Element(x.pres, x.terms).terms
        if normal != x.terms:
            raise AssertionError(f"{pres!r} built terms out of normal form: {x.terms!r}")
        return x
    return checked


@contextlib.contextmanager
def library_checks():
    """Run the library's unchecked constructions and operations checked."""
    apply = shift_checked(operations.apply_operation)
    with (mock.patch.object(Presentation, "_from_terms", revalidated(Presentation._from_terms)),
          mock.patch.object(operations, "apply_operation", apply),
          mock.patch.object(suites, "apply_operation", apply)):
        yield


@dataclass(frozen=True)
class SuiteRun:
    result: suites.SuiteResult
    seconds: float
    case_log: str


@functools.cache
def suite_run(name: str, seed: int) -> SuiteRun:
    log = hashlib.sha256()
    check = suites.SuiteResult.check

    def logged(self, ok, message):
        log.update(f"{bool(ok):d} {message}\n".encode())
        check(self, ok, message)

    with mock.patch.object(suites.SuiteResult, "check", logged), library_checks():
        start = time.perf_counter()
        result = _run_suite(name, seed)
        seconds = time.perf_counter() - start
    return SuiteRun(result, seconds, log.hexdigest())


def shared_result(name: str, seed: int = 0) -> suites.SuiteResult:
    """A stand-in for `suites.run_suite` that answers from `suite_run`."""
    return suite_run(name, seed).result
