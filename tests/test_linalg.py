import itertools
import random

import pytest

from stiefel import linalg
from stiefel.linalg import diagonalize, solve_integer

from random_maps import random_well_defined_map


def mat_vec(rows, v):
    return [sum(a * b for a, b in zip(row, v)) for row in rows]


# module_kernel and integer_kernel take and return sparse {column: value}
# rows and vectors.  The tests below state their inputs and expectations as
# dense lists, as the solve_integer and diagonalize references do; these
# wrappers are the one place that converts between the two forms.

def sparse_rows(matrix):
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


def dense(vector, ncols):
    return [vector.get(c, 0) for c in range(ncols)]


def module_kernel(matrix, src_moduli, tgt_moduli):
    return [(dense(vec, len(src_moduli)), order)
            for vec, order in linalg.module_kernel(sparse_rows(matrix), src_moduli, tgt_moduli)]


def integer_kernel(rows, ncols):
    return [dense(vec, ncols) for vec in linalg.integer_kernel(sparse_rows(rows), ncols)]


class TestIntegerKernel:
    def test_zero_map(self):
        basis = integer_kernel([[0, 0, 0]], 3)
        assert len(basis) == 3

    def test_no_rows(self):
        assert len(integer_kernel([], 2)) == 2

    def test_full_rank(self):
        assert integer_kernel([[1, 0], [0, 1]], 2) == []

    def test_members_are_in_kernel(self):
        rng = random.Random(0)
        for _ in range(200):
            nr, nc = rng.randint(1, 4), rng.randint(1, 5)
            rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
            basis = integer_kernel(rows, nc)
            for v in basis:
                assert mat_vec(rows, v) == [0] * nr

    def test_spans_all_small_solutions(self):
        # every small integer solution must be an integer combination of the
        # basis: the sympy solve raises unless its coordinates are integers
        pytest.importorskip("sympy")
        rng = random.Random(1)
        for _ in range(60):
            nr, nc = rng.randint(1, 3), rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
            basis = integer_kernel(rows, nc)
            solutions = [list(v) for v in itertools.product(range(-2, 3), repeat=nc)
                         if any(v) and mat_vec(rows, list(v)) == [0] * nr]
            if solutions:
                coords = _rational_solve(basis, solutions)
                assert all(len(row) == len(solutions) for row in coords)

    def test_captures_saturation(self):
        # kernel of (2 -2) is generated by (1, 1), not only (2, 2)
        basis = integer_kernel([[2, -2]], 2)
        assert len(basis) == 1
        assert sorted(map(abs, basis[0])) == [1, 1]


class TestDiagonalize:
    def test_reconstruction_of_lattice(self):
        # B * C and B * rinv * diag generate the same lattice
        rng = random.Random(2)
        for _ in range(100):
            n, k = rng.randint(1, 4), rng.randint(1, 4)
            c = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)]
            diag, rinv = diagonalize(c)
            # unimodularity: rinv must be invertible over Z (determinant +-1)
            assert abs(_det(rinv)) == 1
            # columns of rinv * D(snf) and of C span the same lattice
            d_mat = [[diag[j] if i == j and j < len(diag) else 0 for j in range(k)]
                     for i in range(n)]
            lhs = _mat_mul(rinv, d_mat)
            assert _lattice_equal(lhs, c)

    def test_diagonal_orders(self):
        diag, _ = diagonalize([[2, 0], [0, 3]])
        assert sorted(abs(d) for d in diag) == [2, 3]


def _det(m):
    n = len(m)
    if n == 0:
        return 1
    from fractions import Fraction
    a = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return det


def _mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
            for i in range(rows)]


def _columns(m):
    return [[row[j] for row in m] for j in range(len(m[0]) if m else 0)]


def _lattice_equal(a, b):
    """The columns of a and of b span the same lattice: their Hermite normal
    forms, which sympy computes and which name the lattice, agree.  Nothing
    of linalg is used, so a fault in its elimination cannot agree with itself."""
    pytest.importorskip("sympy")
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    def hnf(m):
        cols = [c for c in _columns(m) if any(c)]
        return hermite_normal_form(Matrix(cols).T) if cols else None
    return hnf(a) == hnf(b)


def brute_force_kernel(matrix, src_moduli, tgt_moduli):
    """All kernel elements of a map between finite cyclic-group sums."""
    assert all(s > 0 for s in src_moduli)
    out = []
    for x in itertools.product(*(range(s) for s in src_moduli)):
        image = mat_vec(matrix, list(x))
        if all(v % t == 0 for v, t in zip(image, tgt_moduli)):
            out.append(x)
    return set(out)


def subgroup_closure(gens, src_moduli):
    """Additive closure of the generators inside the finite module."""
    zero = tuple(0 for _ in src_moduli)
    seen = {zero}
    frontier = [zero]
    while frontier:
        base = frontier.pop()
        for g, _ in gens:
            nxt = tuple((a + b) % s for a, b, s in zip(base, g, src_moduli))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


class TestModuleKernel:
    def test_against_brute_force_finite(self):
        rng = random.Random(3)
        for _ in range(150):
            a = rng.randint(1, 3)
            b = rng.randint(1, 3)
            src = [rng.choice([2, 4, 3, 6]) for _ in range(a)]
            tgt = [rng.choice([2, 4, 3, 6]) for _ in range(b)]
            matrix = random_well_defined_map(rng, src, tgt)
            expected = brute_force_kernel(matrix, src, tgt)
            gens = module_kernel(matrix, src, tgt)
            got = subgroup_closure(gens, src)
            assert got == expected, (matrix, src, tgt)

    def test_orders_are_honest(self):
        rng = random.Random(4)
        for _ in range(100):
            src = [rng.choice([2, 4]) for _ in range(rng.randint(1, 3))]
            tgt = [rng.choice([2, 4]) for _ in range(rng.randint(1, 2))]
            matrix = random_well_defined_map(rng, src, tgt)
            for vec, order in module_kernel(matrix, src, tgt):
                assert order > 1  # finite module: no free generators
                for mult in range(1, order):
                    assert any(mult * v % s for v, s in zip(vec, src))
                assert all(order * v % s == 0 for v, s in zip(vec, src))

    def test_free_kernel_over_z(self):
        # x -> 2x on Z is injective
        assert module_kernel([[2]], [0], [0]) == []
        # x -> 0 on Z has kernel Z
        kern = module_kernel([[0]], [0], [0])
        assert len(kern) == 1 and kern[0][1] == 0 and kern[0][0] in ([1], [-1])

    def test_z_to_torsion(self):
        # x -> 2x mod 4: kernel is 2Z, a free generator
        kern = module_kernel([[2]], [0], [4])
        assert len(kern) == 1
        vec, order = kern[0]
        assert order == 0 and vec in ([2], [-2])

    def test_mixed_z_and_torsion(self):
        # (x, y) -> x + y mod 2 on Z + Z/2: kernel generated by (1, 1)
        kern = module_kernel([[1, 1]], [0, 2], [2])
        closure_parities = {(v[0] % 2, v[1] % 2) for v, _ in kern}
        assert len(kern) == 1 and kern[0][1] == 0
        assert closure_parities == {(1, 1)}

    def test_no_columns(self):
        assert module_kernel([[], []], [], [2, 4]) == []

    @pytest.mark.parametrize("tgt", [0, 3], ids=["free", "torsion"])
    def test_rejects_a_matrix_that_is_not_a_map(self, tgt):
        # Z/2 -> Z and Z/2 -> Z/3, x -> x: 2 e_0 is not sent to 0
        with pytest.raises(ValueError, match="does not send the source relations"):
            linalg.module_kernel([{0: 1}], [2], [tgt])

    def test_sparse_row_forms(self):
        # rows that leave out zeros, rows that spell them out, and empty rows
        # give the same generators; the vectors hold no zero entry and no
        # column outside the source, and each entry is reduced mod its line
        rng = random.Random(6)
        for _ in range(300):
            src = [rng.choice([0, 2, 3, 4, 6]) for _ in range(rng.randint(0, 5))]
            tgt = [rng.choice([0, 2, 3, 4, 6]) for _ in range(rng.randint(0, 5))]
            matrix = random_well_defined_map(rng, src, tgt)
            gens = linalg.module_kernel(sparse_rows(matrix), src, tgt)
            explicit = [dict(enumerate(row)) for row in matrix]
            assert linalg.module_kernel(explicit, src, tgt) == gens
            padded, padded_tgt = sparse_rows(matrix), list(tgt)
            for t in (0, 2, 4):
                at = rng.randint(0, len(padded))
                padded.insert(at, rng.choice([{}, dict.fromkeys(range(len(src)), 0)]))
                padded_tgt.insert(at, t)
            assert linalg.module_kernel(padded, src, padded_tgt) == gens
            for vec, _ in gens:
                assert vec and set(vec) <= set(range(len(src)))
                for c, v in vec.items():
                    assert v != 0 and (not src[c] or 0 < v < src[c]), (matrix, src, tgt, gens)


# --------------------------------------------------------------------------
# Independent oracle: the kernel of sum Z/s_j -> sum Z/t_i is H_1 of the
# mapping cone Z^a' -> Z^a + Z^b' -> Z^b of the two presentations, with
# d1 = [A | T'] and d2 = [D; -X], where D and T' hold the relations s_j e_j
# and t_i e_i and X = T'^{-1} A D.  Its torsion is the non-unit part of the
# Smith form of d2 (ker d1 is saturated), and its free rank is
# a + b' - rank d1 - rank d2.  sympy computes both; nothing of linalg is used.

def _elementary_divisors(orders):
    """The prime-power factors of each order, as one sorted list."""
    out = []
    for order in orders:
        p = 2
        while order > 1:
            power = 1
            while order % p == 0:
                order //= p
                power *= p
            if power > 1:
                out.append(power)
            p += 1
    return sorted(out)


def _cone_invariants(matrix, src_moduli, tgt_moduli):
    """(free rank, elementary divisors) of the kernel, from sympy alone."""
    pytest.importorskip("sympy")
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    a = len(src_moduli)
    rel_src = [j for j, s in enumerate(src_moduli) if s]
    rel_tgt = [i for i, t in enumerate(tgt_moduli) if t]
    ad = [[row[j] * src_moduli[j] for j in rel_src] for row in matrix]
    assert all(not v for i, t in enumerate(tgt_moduli) if not t for v in ad[i])
    assert all(v % tgt_moduli[i] == 0 for i in rel_tgt for v in ad[i])
    d1 = [[ZZ(v) for v in row] + [ZZ(t if i == r else 0) for i in rel_tgt]
          for r, (row, t) in enumerate(zip(matrix, tgt_moduli))]
    d2 = ([[ZZ(src_moduli[r] if j == r else 0) for j in rel_src] for r in range(a)]
          + [[ZZ(-v // tgt_moduli[i]) for v in ad[i]] for i in rel_tgt])
    d1 = DomainMatrix(d1, (len(tgt_moduli), a + len(rel_tgt)), ZZ)
    d2 = DomainMatrix(d2, (a + len(rel_tgt), len(rel_src)), ZZ)
    free = a + len(rel_tgt) - d1.rank() - d2.rank()
    return free, _elementary_divisors(int(d) for d in invariant_factors(d2) if d > 1)


def _assert_matches_cone(matrix, src_moduli, tgt_moduli):
    gens = module_kernel(matrix, src_moduli, tgt_moduli)
    for vec, order in gens:
        assert order != 1
        image = mat_vec(matrix, vec)
        assert all(v % t == 0 if t else v == 0 for v, t in zip(image, tgt_moduli))
    got = (sum(1 for _, order in gens if order == 0),
           _elementary_divisors(order for _, order in gens if order))
    assert got == _cone_invariants(matrix, src_moduli, tgt_moduli), (
        matrix, src_moduli, tgt_moduli, gens)


def _piece_map(f, bd):
    """The matrix and line moduli of f on the piece bd, rebuilt from
    apply_map on the basis lines."""
    from stiefel import algebra, targets
    from stiefel.maps import apply_map

    src_lines = algebra.basis_in_bidegree(f.source, bd)
    enumerate_target = (algebra.basis_in_bidegree
                        if isinstance(f.target, algebra.StiefelPresentation)
                        else targets.basis_in_bidegree)
    tgt_lines = enumerate_target(f.target, bd)
    row_of = {line: r for r, line in enumerate(tgt_lines)}
    matrix = [[0] * len(src_lines) for _ in tgt_lines]
    for col, (mono, k) in enumerate(src_lines):
        for key, c in apply_map(f, algebra.basis_element(f.source, mono, k)).terms:
            for kk, value in c.terms:
                matrix[row_of[(key, kk)]][col] = value

    def modulus(ring, k):
        return ring.modulus if k == 0 else 2

    return (matrix, [modulus(f.source.ring, k) for _, k in src_lines],
            [modulus(f.target.ring, k) for _, k in tgt_lines])


class TestModuleKernelAgainstSmithForm:
    def test_random_mixed_maps(self):
        pytest.importorskip("sympy")
        rng = random.Random(5)
        for _ in range(300):
            src = [rng.choice([0, 2, 3, 4, 6]) for _ in range(rng.randint(0, 5))]
            tgt = [rng.choice([0, 2, 3, 4, 6]) for _ in range(rng.randint(0, 5))]
            _assert_matches_cone(random_well_defined_map(rng, src, tgt), src, tgt)

    @pytest.mark.parametrize("modulus", [0, 2], ids=["Z", "Z/2"])
    def test_every_piece_of_imm_cmp_proj(self, modulus):
        pytest.importorskip("sympy")
        from stiefel.algebra import poincare_polynomial
        from stiefel.coefficients import CoeffRing
        from stiefel.maps import comparison_map, immersion_pullback, projection_pullback

        ring = CoeffRing(modulus)
        for n in range(2, 8):
            maps = [immersion_pullback(n, n, ring), comparison_map(n, ring),
                    projection_pullback(n, n - 1, n, ring)]
            top = sum(range(1, n + 1))
            # every piece of weight up to the top one: lines {-1}^k rho_I sit
            # at bidegree(rho_I) + (k, k), since R/2R = Z/2 here
            pieces = {(p + k, q + k) for p, q in poincare_polynomial(maps[0].source)
                      for k in range(top - q + 1)}
            for f in maps:
                for bd in sorted(pieces):
                    _assert_matches_cone(*_piece_map(f, bd))

    @pytest.mark.parametrize("modulus", [0, 2], ids=["Z", "Z/2"])
    def test_every_piece_of_random_ring_maps(self, modulus):
        # ring_maps whose generator images have several terms, into Stiefel
        # and Tate targets, on every piece up to the top weight + 1
        pytest.importorskip("sympy")
        from stiefel.coefficients import CoeffRing

        from random_maps import random_total_maps

        for f in random_total_maps((CoeffRing(modulus),), count=None):
            top = sum(f.source.generators)
            for q in range(top + 2):
                for deg in range(q, 2 * q + 1):
                    _assert_matches_cone(*_piece_map(f, (deg, q)))


# --------------------------------------------------------------------------
# Independent oracle for solve_integer: a rational solve in sympy, followed
# by an integrality check.  The basis has full column rank once it passes
# the rank check, so a target t lies in its rational span exactly when the
# least-squares solution x = (B^T B)^{-1} B^T t satisfies B x = t.

_OUTSIDE = "vector outside the lattice"


def _rational_solve(basis, targets):
    """solve_integer's outcome from sympy: the coordinates, or the same
    ValueError, every "outside the lattice" refusal before any fractional
    one."""
    pytest.importorskip("sympy")
    from sympy import Matrix

    if not basis:
        if any(any(t) for t in targets):
            raise ValueError(f"{_OUTSIDE} (empty basis)")
        return []
    dim, nb = len(basis[0]), len(basis)
    b = Matrix(dim, nb, lambda r, c: basis[c][r])
    if b.rank() < nb:
        raise ValueError("basis vectors are not independent")
    project = (b.T * b).inv() * b.T
    solutions = [project * Matrix(dim, 1, t) for t in targets]
    if any(b * x != Matrix(dim, 1, t) for x, t in zip(solutions, targets)):
        raise ValueError(_OUTSIDE)
    if any(not v.is_integer for x in solutions for v in x):
        raise ValueError(f"{_OUTSIDE} (fractional coordinates)")
    return [[int(x[i]) for x in solutions] for i in range(nb)]


def _outcome(solve, basis, targets):
    try:
        return solve(basis, targets)
    except ValueError as exc:
        return str(exc)


def _solve_cases(rng):
    """Empty, dependent and independent bases, with targets that are lattice
    members, rational but fractional combinations, or random vectors (mostly
    outside the span), alone and mixed."""
    yield [], []
    yield [], [[0, 0], [0, 0]]
    yield [], [[0, 0], [0, 1]]
    yield [[]], []
    yield [[0, 0]], [[0, 0]]
    # a fractional target, then one off the span: the second refusal wins
    yield [[2, 0, 0]], [[1, 0, 0], [0, 1, 0]]
    yield [[2, 0, 0]], [[0, 1, 0], [1, 0, 0]]
    yield [[1, 2], [3, 4]], []
    for _ in range(400):
        dim = rng.randint(1, 4)
        gens = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(1, dim))]
        basis = [[rng.choice([1, 1, 2, 3]) * v for v in g] for g in gens]
        if rng.random() < 0.2:
            basis.insert(rng.randint(0, len(basis)),
                         [sum(rng.randint(-2, 2) * b[r] for b in basis) for r in range(dim)])
        targets = []
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice([basis, gens, None])
            if kind is None:
                targets.append([rng.randint(-4, 4) for _ in range(dim)])
            else:
                coeffs = [rng.randint(-3, 3) for _ in kind]
                targets.append([sum(c * v[r] for c, v in zip(coeffs, kind)) for r in range(dim)])
        yield basis, targets


class TestSolveInteger:
    def test_against_rational_solve(self):
        pytest.importorskip("sympy")
        seen = set()
        for basis, targets in _solve_cases(random.Random(8)):
            expected = _outcome(_rational_solve, basis, targets)
            assert _outcome(solve_integer, basis, targets) == expected, (basis, targets)
            seen.add(expected if isinstance(expected, str) else "solved")
        assert seen == {"solved", "basis vectors are not independent", _OUTSIDE,
                        f"{_OUTSIDE} (empty basis)", f"{_OUTSIDE} (fractional coordinates)"}

    @pytest.mark.parametrize("target", [[5], [5, 0, 0]], ids=["short", "long"])
    def test_target_of_the_wrong_length(self, target):
        with pytest.raises(ValueError):
            solve_integer([[1, 0], [0, 1]], [target])


# --------------------------------------------------------------------------
# diagonalize against sympy: the nonzero diagonal entries come first, there
# are rank(mat) of them, and they carry the elementary divisors of mat.  The
# columns of R . mat then lie in the lattice of the diagonal matrix, and the
# equal elementary divisors make the two lattices equal.

def _assert_diagonalizes(mat):
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    nr, nc = len(mat), len(mat[0]) if mat else 0
    diag, rinv = diagonalize(mat)
    rank = sum(1 for d in diag if d)
    assert len(diag) == min(nr, nc) and all(d > 0 for d in diag[:rank]) and not any(diag[rank:])
    assert len(rinv) == nr and all(len(row) == nr for row in rinv)
    if nr:
        assert abs(Matrix(rinv).det()) == 1
        rmat = Matrix(rinv).inv() * Matrix(nr, nc, lambda i, j: mat[i][j])
        assert all(rmat[i, j] % diag[i] == 0 if i < rank else rmat[i, j] == 0
                   for i in range(nr) for j in range(nc)), mat
    m = DomainMatrix([[ZZ(v) for v in row] for row in mat], (nr, nc), ZZ)
    assert rank == (m.rank() if nr and nc else 0)
    factors = invariant_factors(m) if nr and nc else ()
    assert (_elementary_divisors(d for d in diag if d)
            == _elementary_divisors(int(d) for d in factors if d)), mat


class TestDiagonalizeAgainstSmithForm:
    def test_random_matrices(self):
        rng = random.Random(9)
        for _ in range(300):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            _assert_diagonalizes([[rng.choice([0, rng.randint(-6, 6)]) for _ in range(nc)]
                                  for _ in range(nr)])

    @pytest.mark.parametrize("mat", [[], [[], []], [[0, 0, 0], [0, 0, 0]], [[1, 1]]],
                             ids=["empty", "no-columns", "zero", "one-row"])
    def test_shapes(self, mat):
        _assert_diagonalizes(mat)
