"""Exact integer linear algebra for graded-piece kernels.

A graded piece of one of the computed rings is a direct sum of cyclic
groups: one copy of R per basis line with k = 0 and one copy of R/2R per
line with k >= 1.  A ring map restricted to a graded piece is a map of
such sums, and its kernel is computed here by lifting everything to Z:

    kernel = L / D,
    L = { x in Z^a : row j of M x lies in t_j Z for every j },
    D = the lattice spanned by the s_i e_i,

with s_i, t_j the annihilators of the source and target lines (0 for a
free line).  module_kernel finds both in one exact-integer elimination
over sparse vectors: M comes in as one {column: value} dict per target
line, and each kernel vector goes out as one with no zero entry, so the
work follows the nonzero entries of the map.  It refines a basis of L one
target row at a time, carrying the coordinates of the D generators in
that basis along, and then diagonalizes those coordinates, so that L/D
splits into cyclic summands.  There is no division over Q and no change
of basis back to Z^a at the end.  integer_kernel is the same elimination
with every modulus 0.

solve_integer and diagonalize are public helpers off the kernel path,
kept with their names and signatures: the first solves a lattice
membership problem over the rationals, the second diagonalizes a dense
integer matrix while tracking the inverse row transform.
"""

from __future__ import annotations

import math


def integer_kernel(rows: list[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    """Basis of the lattice {v in Z^ncols : rows . v = 0}, with rows and
    vectors in the sparse forms of module_kernel.

    The free generators of module_kernel with every modulus 0.  They span
    the full kernel lattice, not a finite-index sublattice: each row changes
    the basis unimodularly, then drops the one vector it does not vanish on.
    """
    return [v for v, _ in module_kernel(rows, [0] * ncols, [0] * len(rows))]


def diagonalize(mat: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Unimodular R, S with R . mat . S diagonal; returns (diagonal, R^{-1}).

    Only the inverse of the row transform is tracked: for a matrix of
    lattice generators, column operations do not change the lattice the
    columns generate.
    """
    a = [list(r) for r in mat]
    nr = len(a)
    nc = len(a[0]) if a else 0
    rinv = [[int(i == j) for j in range(nr)] for i in range(nr)]

    def row_addmul(dst: int, src: int, q: int) -> None:
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        for row in rinv:  # right-multiply rinv by the inverse row operation
            row[src] -= q * row[dst]

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        for row in rinv:
            row[i], row[j] = row[j], row[i]

    def row_neg(i: int) -> None:
        a[i] = [-x for x in a[i]]
        for row in rinv:
            row[i] = -row[i]

    def col_addmul(dst: int, src: int, q: int) -> None:
        for row in a:
            row[dst] += q * row[src]

    def col_swap(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < nr and t < nc:
        entries = [(i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
        if not entries:
            break
        i0, j0 = min(entries, key=lambda ij: abs(a[ij[0]][ij[1]]))
        if i0 != t:
            row_swap(t, i0)
        if j0 != t:
            col_swap(t, j0)
        if a[t][t] < 0:
            row_neg(t)
        dirty = False
        for i in range(t + 1, nr):
            q = a[i][t] // a[t][t]
            if q:
                row_addmul(i, t, -q)
            if a[i][t]:
                dirty = True
        for j in range(t + 1, nc):
            q = a[t][j] // a[t][t]
            if q:
                col_addmul(j, t, -q)
            if a[t][j]:
                dirty = True
        if dirty:
            continue  # residues are smaller than the pivot; repeat at the same t
        t += 1
    diag = [a[i][i] for i in range(min(nr, nc))]
    return diag, rinv


def solve_integer(basis: list[list[int]], targets: list[list[int]]) -> list[list[int]]:
    """Integer coordinates of each target vector in the given lattice basis.

    Returns the coefficient matrix C (len(basis) rows, one column per
    target) with basis . C = targets; raises ValueError when a target is
    not in the lattice.
    """
    from fractions import Fraction
    nb = len(basis)
    if nb == 0:
        if any(any(t) for t in targets):
            raise ValueError("vector outside the lattice (empty basis)")
        return []
    dim = len(basis[0])
    nt = len(targets)
    # solve the dim x nb system with exact fractions, all targets at once
    aug = [[Fraction(basis[b][r]) for b in range(nb)] + [Fraction(t[r]) for t in targets]
           for r in range(dim)]
    pivots = []
    row = 0
    for col in range(nb):
        sel = next((r for r in range(row, dim) if aug[r][col]), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(dim):
            if r != row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    # basis vectors are independent, so every column must have a pivot
    if len(pivots) != nb:
        raise ValueError("basis vectors are not independent")
    for r in range(row, dim):
        if any(aug[r][nb + t] for t in range(nt)):
            raise ValueError("vector outside the lattice")
    coeffs = [[Fraction(0)] * nt for _ in range(nb)]
    for r, col in enumerate(pivots):
        for t in range(nt):
            coeffs[col][t] = aug[r][nb + t]
    out = []
    for r in range(nb):
        line = []
        for t in range(nt):
            v = coeffs[r][t]
            if v.denominator != 1:
                raise ValueError("vector outside the lattice (fractional coordinates)")
            line.append(int(v))
        out.append(line)
    return out


_NOT_A_MAP = "matrix does not send the source relations into the target relations"


def _addmul(dst: dict[int, int], src: dict[int, int], q: int, owner: int,
            index: list[set[int]]) -> None:
    """dst += q * src on sparse vectors; index[c] holds the owners of the
    vectors whose coordinate c is nonzero."""
    for c, v in src.items():
        w = dst.get(c, 0) + q * v
        if w:
            if c not in dst:
                index[c].add(owner)
            dst[c] = w
        else:
            del dst[c]
            index[c].discard(owner)


def module_kernel(rows: list[dict[int, int]], src_moduli: list[int],
                  tgt_moduli: list[int]) -> list[tuple[dict[int, int], int]]:
    """Generators of the kernel of a map between direct sums of cyclic groups.

    rows holds one {source column: value} dict per target line, possibly
    empty, whose zero values are ignored (modulus 0 marks a copy of Z).
    Returns (vector, order) pairs giving independent generators of the
    kernel subgroup, order 0 marking a free generator; each vector is a
    {source column: value} dict reduced modulo the line moduli, with no
    zero entry.

    The elimination keeps a basis b_i of L, starting from the unit vectors,
    and the coordinates c_i of the D generators in it (s_k e_k is the sum
    of c_i[k] b_i), starting from the s_i.  Every basis operation
    b_i += q b_j is mirrored as c_j -= q c_i, so the c_i never have to be
    solved for.

    1. Each target row (modulus t) is evaluated on the basis vectors that
       meet its nonzero columns, and the values are reduced mod t.  Euclid
       steps between those vectors leave one survivor of value g.  For
       t = 0 the survivor leaves the basis; for t > 0 it is multiplied by
       the order of g in Z/t, and its c entries are divided by it.
    2. The c_i are diagonalized.  Operations among the D generators are
       free; operations among the c_i are mirrored back on the basis.
       A basis vector then carries a single D generator d b_i, or none,
       and it spans a summand Z/d (Z for none) of L/D.

    Raises ValueError when the matrix does not define a map, that is, when
    some s_i e_i is not sent into the target relations.
    """
    a = len(src_moduli)
    basis = {j: {j: 1} for j in range(a)}
    coords = {j: ({j: s} if s else {}) for j, s in enumerate(src_moduli)}
    owners = [{j} for j in range(a)]   # source coordinate -> basis vectors using it
    users = [{j} if s else set() for j, s in enumerate(src_moduli)]   # D generator -> c_i

    def combine(i: int, j: int, q: int) -> None:
        # b_i += q b_j, mirrored as c_j -= q c_i
        _addmul(basis[i], basis[j], q, i, owners)
        _addmul(coords[j], coords[i], -q, j, users)

    for row, t in zip(rows, tgt_moduli):
        cols = [(c, v) for c, v in row.items() if v]
        values = {}
        for i in set().union(*(owners[c] for c, _ in cols)):
            value = sum(v * basis[i].get(c, 0) for c, v in cols)
            value = value % t if t else value
            if value:
                values[i] = value
        while len(values) > 1:
            j = min(values, key=lambda i: abs(values[i]))
            for i in [i for i in values if i != j]:
                q = values[i] // values[j]
                combine(i, j, -q)
                values[i] -= q * values[j]
                if not values[i]:
                    del values[i]
        for j, g in values.items():
            if t:
                scale = t // math.gcd(g, t)
                if any(v % scale for v in coords[j].values()):
                    raise ValueError(_NOT_A_MAP)
                basis[j] = {c: v * scale for c, v in basis[j].items()}
                coords[j] = {k: v // scale for k, v in coords[j].items()}
            else:
                if coords[j]:
                    raise ValueError(_NOT_A_MAP)
                for c in basis.pop(j):
                    owners[c].discard(j)
                del coords[j]

    orders = {}
    pending = {k for k in range(a) if users[k]}
    while pending:
        k = pending.pop()
        while True:
            i = min(users[k], key=lambda h: abs(coords[h][k]))
            p = coords[i][k]
            for h in [h for h in users[k] if h != i]:
                combine(i, h, coords[h][k] // p)
            if len(users[k]) > 1:
                continue  # remainders smaller than the pivot; pivot again in column k
            # column k is {i}: operations among the D generators on column k
            # now change c_i alone
            ci = coords[i]
            for col in [col for col in ci if col != k]:
                ci[col] %= p
                if not ci[col]:
                    del ci[col]
                    users[col].discard(i)
            if len(ci) == 1:
                orders[i] = abs(p)
                del ci[k]
                users[k].discard(i)
                break
            # a remainder smaller than the pivot: pivot again in its column
            pending.add(k)
            k = min((col for col in ci if col != k), key=lambda col: abs(ci[col]))
            pending.discard(k)

    out = []
    for i, vec in basis.items():
        order = orders.get(i, 0)
        vec = {c: v % src_moduli[c] if src_moduli[c] else v for c, v in vec.items()}
        vec = {c: v for c, v in vec.items() if v}
        if vec and order != 1:
            out.append((vec, order))
    return out
