"""Exact integer linear algebra for graded-piece kernels.

A graded piece of one of the computed rings is a direct sum of cyclic
groups: one copy of R per basis line with k = 0 and one copy of R/2R per
line with k >= 1.  A ring map restricted to a graded piece is a map of
such sums, and its kernel is computed here by lifting everything to Z:

    kernel = L / D,
    L = { x in Z^a : row j of M x lies in t_j Z for every j },
    D = the lattice spanned by the s_i e_i,

with s_i, t_j the annihilators of the source and target lines (0 for a
free line).

One exact-integer elimination over sparse vectors, _eliminate, does all
the work: it refines a basis of L one target row at a time, carrying the
coordinates of the D generators in that basis along, then diagonalizes
those coordinates so that L/D splits into cyclic summands, with no
division over Q.  It has three entry points:

- module_kernel runs both steps on a map given as one {column: value}
  dict per target line, so the work follows the nonzero entries of the
  map; integer_kernel is module_kernel with every modulus 0;
- solve_integer reads lattice coordinates off integer kernels;
- diagonalize runs the second step alone, on the columns of a matrix.

Only module_kernel is on the kernel path.  integer_kernel, solve_integer
and diagonalize stay as thin wrappers, with their names and signatures,
because the benchmark tracer (bench/tracing.py) looks all four up by name.
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
    columns generate.  The columns of mat are the D generators of the
    elimination, written in the unit vectors of Z^len(mat).  The basis it
    ends with gives the columns of R^{-1}, the rows that carry a pivot
    first, and their orders the nonzero diagonal entries.
    """
    nr, nc = len(mat), len(mat[0]) if mat else 0
    basis, orders = _eliminate([{k: v for k, v in enumerate(row) if v} for row in mat], nc)
    cols = sorted(basis, key=lambda i: i not in orders)
    diag = [orders[i] for i in cols[:len(orders)]] + [0] * (min(nr, nc) - len(orders))
    return diag, [[basis[i].get(r, 0) for i in cols] for r in range(nr)]


def solve_integer(basis: list[list[int]], targets: list[list[int]]) -> list[list[int]]:
    """Integer coordinates of each target vector in the given lattice basis.

    Returns the coefficient matrix C (len(basis) rows, one column per
    target) with basis . C = targets; raises ValueError when a target is
    not in the lattice.  For an independent basis, the kernel of
    [basis | -t] is spanned by one primitive vector (c, l) when t lies in
    the rational span of the basis, and is 0 otherwise; t lies in the
    lattice exactly when l = +-1, and then its coordinates are l c.
    """
    nb = len(basis)
    if nb == 0:
        if any(any(t) for t in targets):
            raise ValueError("vector outside the lattice (empty basis)")
        return []
    rows = [dict(enumerate(row)) for row in zip(*basis)]
    if integer_kernel(rows, nb):
        raise ValueError("basis vectors are not independent")
    lines = [integer_kernel([{**row, nb: -v} for row, v in zip(rows, t, strict=True)], nb + 1)
             for t in targets]
    # every target off the rational span is refused before any fractional one
    if not all(lines):
        raise ValueError("vector outside the lattice")
    if any(abs(v[nb]) != 1 for (v,) in lines):
        raise ValueError("vector outside the lattice (fractional coordinates)")
    return [[v.get(b, 0) * v[nb] for (v,) in lines] for b in range(nb)]


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


def _eliminate(coords: list[dict[int, int]], ngens: int, rows: list[dict[int, int]] = (),
               tgt_moduli: list[int] = ()) -> tuple[dict[int, dict[int, int]], dict[int, int]]:
    """The one elimination behind module_kernel, solve_integer and diagonalize.

    The ngens D generators lie in Z^n, n = len(coords): generator k is the
    sum of coords[i][k] e_i.  rows and tgt_moduli are module_kernel's target
    rows and their moduli; without them only step 2 below runs.  Returns
    (basis, orders): basis maps i to b_i, as a {coordinate: value} dict, for
    each b_i that no row of modulus 0 dropped, and orders maps i to d > 0
    when b_i carries the D generator d b_i.  L/D is then the sum of one Z/d
    per order and one Z per b_i without one.

    The elimination keeps a basis b_i of L, starting from the unit vectors,
    and the coordinates c_i of the D generators in it (generator k is the
    sum of c_i[k] b_i), starting from coords.  Every basis operation
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

    Raises ValueError when some D generator is not sent into the target
    relations.
    """
    basis = {j: {j: 1} for j in range(len(coords))}
    coords = dict(enumerate(coords))
    owners = [{j} for j in basis]   # coordinate -> basis vectors using it
    users = [set() for _ in range(ngens)]   # D generator -> c_i
    for i, ci in coords.items():
        for k in ci:
            users[k].add(i)

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
    pending = {k for k in range(ngens) if users[k]}
    while pending:
        k = pending.pop()
        while users[k]:   # empty when a later pivot has cleared column k
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
            else:   # a remainder smaller than the pivot: pivot again in its column
                pending.add(k)
                k = min((col for col in ci if col != k), key=lambda col: abs(ci[col]))
                pending.discard(k)

    return basis, orders


def module_kernel(rows: list[dict[int, int]], src_moduli: list[int],
                  tgt_moduli: list[int]) -> list[tuple[dict[int, int], int]]:
    """Generators of the kernel of a map between direct sums of cyclic groups.

    rows holds one {source column: value} dict per target line, possibly
    empty, whose zero values are ignored (modulus 0 marks a copy of Z).
    Returns (vector, order) pairs giving independent generators of the
    kernel subgroup, order 0 marking a free generator; each vector is a
    {source column: value} dict reduced modulo the line moduli, with no
    zero entry.  These are the b_i of _eliminate, started from the s_i e_i,
    reduced modulo the source moduli, less those of order 1 or now zero.

    Raises ValueError when the matrix does not define a map, that is, when
    some s_i e_i is not sent into the target relations.
    """
    basis, orders = _eliminate([{j: s} if s else {} for j, s in enumerate(src_moduli)],
                               len(src_moduli), rows, tgt_moduli)
    out = []
    for i, vec in basis.items():
        order = orders.get(i, 0)
        vec = {c: v % src_moduli[c] if src_moduli[c] else v for c, v in vec.items()}
        vec = {c: v for c, v in vec.items() if v}
        if vec and order != 1:
            out.append((vec, order))
    return out
