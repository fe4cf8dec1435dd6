"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
report.  All equalities are exact; the only tolerances are the stated
runtime budgets.  Each criterion asserts on the one seed-0 run of its
suites that the whole test session shares (`suite_runs.suite_run`), and
each budget is that run's measured wall time.
"""

from stiefel.algebra import basis_in_bidegree
from stiefel.coefficients import CoeffRing, FieldProfile
from stiefel.maps import apply_map, comparison_map

from suite_runs import suite_run

Z2 = CoeffRing(2)


def _report(number: int, title: str) -> None:
    print(f"ACCEPTANCE {number} ({title}): PASS")


def _run(name: str) -> float:
    """Assert that the shared seed-0 run of a suite passed; return its seconds."""
    run = suite_run(name, 0)
    assert run.result.passed, f"suite {name} failed: " + "; ".join(run.result.failures)
    return run.seconds


def test_criterion_1_ring_presentation():
    elapsed = _run("squares")
    assert elapsed < 1.0, f"squares took {elapsed:.2f}s, budget is 1s"
    _report(1, "ring presentation, n <= 8, over Z and Z/2 and with -1 square")


def test_criterion_2_additive_structure():
    elapsed = _run("rank")
    assert elapsed < 1.0, f"rank took {elapsed:.2f}s, budget is 1s"
    _report(2, "rank 2^n for n <= 12 and Poincare polynomials for n <= 8")


def test_criterion_3_operation_table():
    _run("operation-table")
    _run("binomials")
    _report(3, "Sq/P generator tables for j <= n <= 10, i <= 10, p in {2,3,5}")


def test_criterion_4_oracle_equivalence():
    _run("cartan-oracle")
    _report(4, "sq_projective vs (eta+eta^2)^j oracle, j,i <= 12, n <= 25")


def test_criterion_5_comparison_map():
    _run("comparison")
    # explicit restatement of the stated tolerance: exact equality per j <= n <= 10
    for n in range(1, 11):
        f = comparison_map(n, Z2, FieldProfile())
        for j in range(1, n + 1):
            img = apply_map(f, f.source.gen(j))
            assert img == f.target.term(1, j - 1)
            if 2 * j - 1 <= n:
                assert apply_map(f, f.source.gen(j) * f.source.gen(j)) == img * img
            free = [line for line in basis_in_bidegree(f.source, (2 * j - 1, j))
                    if line[1] == 0]
            assert free == [((j,), 0)]
    _report(5, "comparison map values and stable-range rank-1 pieces, n <= 10")


def test_criterion_6_naturality():
    _run("naturality")
    _report(6, "f_n* Sq^{2i} = Sq^{2i} f_n* on generators, n <= 8, i <= 8")


def test_criterion_7_induced_maps():
    _run("induced-maps")
    _report(7, "immersion kernel = (rho_n), projection injective, symmetries identity")


def test_criterion_8_algebra_laws():
    elapsed = sum(_run(name) for name in
                  ("commutativity", "associativity", "distributivity", "confluence"))
    assert elapsed < 30.0, f"algebra-law suites took {elapsed:.2f}s, budget is 30s"
    _report(8, "graded commutativity, associativity, distributivity, confluence")
