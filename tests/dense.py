"""Dense changes of basis shared by the tests."""

from leibnizalg.core import LeibnizAlgebra
from leibnizalg.exactlin import QQ, Matrix, rref


def dense_basis(L, rng):
    """L in the basis f_a = sum_i P[a][i] e_i, where P = lower * upper
    unitriangular with entries in {-1, 0, 1}: det P = 1, so the table stays
    integral, and most of its entries are nonzero."""
    n = L.dim

    def unitriangular():
        return [[1 if i == j else rng.choice((-1, 0, 1)) if j < i else 0 for j in range(n)]
                for i in range(n)]

    lo, up = unitriangular(), unitriangular()
    P = [[sum(lo[i][k] * up[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    Pinv = [r[n:] for r in rref(Matrix(QQ, [P[a] + [int(a == b) for b in range(n)]
                                            for a in range(n)])).rows]
    table = [[[sum(v[k] * Pinv[k][c] for k in range(n)) for c in range(n)]
              for v in (L.bracket(P[a], P[b]) for b in range(n))] for a in range(n)]
    return LeibnizAlgebra(QQ, n, table)
