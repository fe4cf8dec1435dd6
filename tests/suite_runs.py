"""One timed, logged run of each property suite per test process.

`suite_run(name, seed)` calls `suites.run_suite` once per (name, seed) and
keeps the result, its wall time, and a sha256 of its case log: the
(ok, message) of every `SuiteResult.check` call, in order.  The acceptance
criteria assert on these runs, and the golden `check` group and two CLI
`check` tests feed them to the CLI by patching `suites.run_suite` with
`shared_result`, so a tier-1 session runs each suite once per seed.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass
from unittest import mock

from stiefel import suites

# bound at import, so that callers may patch suites.run_suite with shared_result
_run_suite = suites.run_suite


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

    with mock.patch.object(suites.SuiteResult, "check", logged):
        start = time.perf_counter()
        result = _run_suite(name, seed)
        seconds = time.perf_counter() - start
    return SuiteRun(result, seconds, log.hexdigest())


def shared_result(name: str, seed: int = 0) -> suites.SuiteResult:
    """A stand-in for `suites.run_suite` that answers from `suite_run`."""
    return suite_run(name, seed).result
