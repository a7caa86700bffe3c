"""Matrix arithmetic on lists of rows over a Field, for the test references.

The library reads traces off the scaled table, tests nilpotency by image
chains and solves its linear systems on scaled integer rows; these textbook
loops on field elements are kept independent of all three.
"""

from fractions import Fraction


def identity(F, n):
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def transpose(A, ncols):
    """The rows of the transpose of A, whose rows have length ncols."""
    return [[row[j] for row in A] for j in range(ncols)]


def matmul(F, A, B):
    """A B by the triple loop; B has as many rows as A has columns."""
    ncols = len(B[0]) if B else 0
    return [[_reduce(F, sum((a * B[k][j] for k, a in enumerate(row)), F.zero))
             for j in range(ncols)] for row in A]


def matvec(F, A, v):
    return [_reduce(F, sum((a * b for a, b in zip(row, v)), F.zero)) for row in A]


def trace(F, A):
    return _reduce(F, sum((row[i] for i, row in enumerate(A)), F.zero))


def trace_of_product(F, A, B):
    return trace(F, matmul(F, A, B))


def is_nilpotent(F, A):
    """A^n = 0 for n = len(A), by n successive products."""
    P = identity(F, len(A))
    for _ in range(len(A)):
        P = matmul(F, P, A)
    return not any(any(row) for row in P)


def right_mult(L, x):
    """The matrix of R_x : y -> [y, x] from the table: column i is
    [e_i, x] = sum_j x_j table[i][j]."""
    F, n = L.field, L.dim
    return transpose([comb(F, n, x, L.table[i]) for i in range(n)], n)


def left_mult(L, x):
    """The matrix of L_x : y -> [x, y] from the table: column i is
    [x, e_i] = sum_j x_j table[j][i]."""
    F, n = L.field, L.dim
    return transpose([comb(F, n, x, [L.table[j][i] for j in range(n)]) for i in range(n)], n)


def rref(F, rows, ncols):
    """The nonzero rows of the reduced row echelon form of rows, each of
    length ncols, by Gauss-Jordan with exact division."""
    p = F.modulus
    rows = [list(r) for r in rows]
    nrows = len(rows)
    piv_r = 0
    for piv_c in range(ncols):
        pr = next((r for r in range(piv_r, nrows) if rows[r][piv_c]), None)
        if pr is None:
            continue
        rows[piv_r], rows[pr] = rows[pr], rows[piv_r]
        a0 = rows[piv_r][piv_c]
        inv = 1 / Fraction(a0) if p is None else pow(a0, -1, p)
        rows[piv_r] = [_reduce(F, inv * a) for a in rows[piv_r]]
        nz = [(j, b) for j, b in enumerate(rows[piv_r]) if b]
        for r in range(nrows):
            row = rows[r]
            c0 = row[piv_c]
            if r == piv_r or not c0:
                continue
            if p is None:
                for j, b in nz:
                    row[j] -= c0 * b
            else:
                for j, b in nz:
                    row[j] = (row[j] - c0 * b) % p
        piv_r += 1
        if piv_r == nrows:
            break
    return [r for r in rows if any(r)]


def nullspace(F, rows, ncols):
    """Basis of { x : A x = 0 } for the rows of A: one vector per free
    column of rref, 1 there and minus the row entries at the pivots."""
    r = rref(F, rows, ncols)
    pivots = [next(c for c, a in enumerate(row) if a) for row in r]
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F.zero] * ncols
        v[fc] = F.one
        for prow, pc in zip(r, pivots):
            v[pc] = _reduce(F, -prow[fc])
        basis.append(tuple(v))
    return basis


def comb(F, n, coeffs, vectors):
    """sum_i coeffs[i] * vectors[i] in F^n."""
    out = [F.zero] * n
    for c, v in zip(coeffs, vectors):
        for k, b in enumerate(v):
            out[k] += c * b
    return [_reduce(F, a) for a in out]


def _reduce(F, a):
    return a if F.modulus is None else a % F.modulus


def scaled_bracket(L, U, V):
    """d [U, V] for integer vectors U, V (residues over F_p), d as in
    L.scaled_table: the double sum over the nonzero U_i, V_j and the table
    entries, as the library formed each product before it formed them by
    linearity; kept as the reference for the library's products."""
    T, p = L.scaled_table()[1], L.field.modulus
    V_nz = [(j, b) for j, b in enumerate(V) if b]
    out = [0] * L.dim
    for a, row in zip(U, T):
        if a:
            for j, b in V_nz:
                for k, t in row[j]:
                    out[k] += a * b * t
    return out if p is None else [a % p for a in out]


def dense(n, entries):
    """The integer vector of length n with the sparse entries (k, c)."""
    v = [0] * n
    for k, c in entries:
        v[k] = c
    return v
