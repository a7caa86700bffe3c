"""Matrix arithmetic on lists of rows over a Field, for the test references.

The library reads traces off the scaled table and tests nilpotency by image
chains; these textbook loops are kept independent of both.
"""


def identity(F, n):
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def matmul(F, A, B):
    """A B by the triple loop; B has as many rows as A has columns."""
    ncols = len(B[0]) if B else 0
    return [[_reduce(F, sum((a * B[k][j] for k, a in enumerate(row)), F.zero))
             for j in range(ncols)] for row in A]


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


def _reduce(F, a):
    return a if F.modulus is None else a % F.modulus
