"""Dense changes of basis shared by the tests."""

from leibnizalg.core import LeibnizAlgebra
from leibnizalg.exactlin import QQ, Subspace


def dense_basis(L, rng):
    """L in the basis f_a = sum_i P[a][i] e_i, where P = lower * upper
    unitriangular with entries in {-1, 0, 1}: det P = 1, so P^-1 is integral,
    the table stays integral over Q and maps into F_p, and most of its
    entries are nonzero.  The result is over L's field."""
    n, p = L.dim, L.field.modulus

    def unitriangular():
        return [[1 if i == j else rng.choice((-1, 0, 1)) if j < i else 0 for j in range(n)]
                for i in range(n)]

    lo, up = unitriangular(), unitriangular()
    P = [[sum(lo[i][k] * up[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    Pinv = [[int(a) for a in r[n:]]
            for r in Subspace.span(QQ, 2 * n, [P[a] + [int(a == b) for b in range(n)]
                                                for a in range(n)]).rows]

    def in_f_basis(v):
        w = [sum(v[k] * Pinv[k][c] for k in range(n)) for c in range(n)]
        return w if p is None else [a % p for a in w]

    table = [[in_f_basis(L.bracket(P[a], P[b])) for b in range(n)] for a in range(n)]
    return LeibnizAlgebra(L.field, n, table)
