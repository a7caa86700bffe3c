"""Exact linear algebra over Q and F_p.

Scalars are `fractions.Fraction` over the rationals and plain residues in
[0, p) over a prime field; arithmetic is always exact.  Subspaces are kept in
reduced row echelon form, which makes equality testing a tuple comparison and
gives deterministic output everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import AmbientMismatch, FieldMismatch


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (modulus None) or the prime field F_p."""

    modulus: Optional[int] = None

    def __post_init__(self):
        if self.modulus is not None and not _is_prime(self.modulus):
            raise ValueError(f"modulus must be prime, got {self.modulus}")

    @property
    def kind(self) -> str:
        return "rationals" if self.modulus is None else "prime-field"

    @property
    def char(self) -> int:
        return 0 if self.modulus is None else self.modulus

    def scalar(self, num: int, den: int = 1):
        """Exact field element num/den; den must be a unit mod p."""
        if self.modulus is None:
            return Fraction(num, den)
        p = self.modulus
        if den % p == 0:
            raise ZeroDivisionError(f"denominator {den} is not a unit mod {p}")
        return num * pow(den, -1, p) % p

    @property
    def zero(self):
        return Fraction(0) if self.modulus is None else 0

    @property
    def one(self):
        return Fraction(1) if self.modulus is None else 1

    def add(self, a, b):
        return a + b if self.modulus is None else (a + b) % self.modulus

    def sub(self, a, b):
        return a - b if self.modulus is None else (a - b) % self.modulus

    def mul(self, a, b):
        return a * b if self.modulus is None else (a * b) % self.modulus

    def neg(self, a):
        return -a if self.modulus is None else (-a) % self.modulus

    def inv(self, a):
        if self.modulus is None:
            return 1 / a
        return pow(a, -1, self.modulus)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def format(self, a) -> str:
        return str(a)

    def __str__(self):
        return "Q" if self.modulus is None else f"F{self.modulus}"


QQ = Field()

Vector = tuple


def vec_add(field: Field, u: Sequence, v: Sequence) -> Vector:
    return tuple(field.add(a, b) for a, b in zip(u, v))

def vec_sub(field: Field, u: Sequence, v: Sequence) -> Vector:
    return tuple(field.sub(a, b) for a, b in zip(u, v))

def vec_scale(field: Field, c, u: Sequence) -> Vector:
    return tuple(field.mul(c, a) for a in u)

def zero_vec(field: Field, n: int) -> Vector:
    return (field.zero,) * n

def unit_vec(field: Field, n: int, i: int) -> Vector:
    return tuple(field.one if j == i else field.zero for j in range(n))

def lin_comb(field: Field, n: int, coeffs: Iterable, vectors: Iterable[Sequence]) -> Vector:
    """sum_i coeffs[i] * vectors[i] in F^n; zero coefficients are skipped."""
    z = field.zero
    out = zero_vec(field, n)
    for c, v in zip(coeffs, vectors):
        if c != z:
            out = tuple(field.add(a, field.mul(c, b)) for a, b in zip(out, v))
    return out


class Matrix:
    """Dense exact matrix; all entries share one field."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows: Iterable[Iterable]):
        self.field = field
        self.rows = [list(r) for r in rows]
        if self.rows:
            ncols = len(self.rows[0])
            if any(len(r) != ncols for r in self.rows):
                raise ValueError("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [[field.one if i == j else field.zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, [[field.zero] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, field: Field, cols: Sequence[Sequence]) -> "Matrix":
        n = len(cols[0]) if cols else 0
        return cls(field, [[c[i] for c in cols] for i in range(n)])

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def matvec(self, v: Sequence) -> Vector:
        F = self.field
        if len(v) != self.ncols:
            raise AmbientMismatch(f"matvec: {self.ncols} cols vs vector of length {len(v)}")
        out = []
        for row in self.rows:
            s = F.zero
            for a, x in zip(row, v):
                s = F.add(s, F.mul(a, x))
            out.append(s)
        return tuple(out)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch("matmul over different fields")
        if self.ncols != other.nrows:
            raise AmbientMismatch("matmul shape mismatch")
        F = self.field
        ot = list(zip(*other.rows)) if other.rows else []
        out = []
        for row in self.rows:
            out_row = []
            for col in ot:
                s = F.zero
                for a, b in zip(row, col):
                    s = F.add(s, F.mul(a, b))
                out_row.append(s)
            out.append(out_row)
        return Matrix(F, out)

    def power(self, k: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("power of non-square matrix")
        result = Matrix.identity(self.field, self.nrows)
        for _ in range(k):
            result = result.matmul(self)
        return result

    def add(self, other: "Matrix") -> "Matrix":
        F = self.field
        return Matrix(F, [[F.add(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, c) -> "Matrix":
        F = self.field
        return Matrix(F, [[F.mul(c, a) for a in r] for r in self.rows])

    def trace(self):
        F = self.field
        s = F.zero
        for i in range(min(self.nrows, self.ncols)):
            s = F.add(s, self.rows[i][i])
        return s

    def transpose(self) -> "Matrix":
        return Matrix(self.field, zip(*self.rows)) if self.rows else Matrix(self.field, [])

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(a == z for r in self.rows for a in r)

    def is_nilpotent(self) -> bool:
        """Exact over any field: M nilpotent iff M^n = 0 for n = dim."""
        return self.power(self.nrows).is_zero()

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows)

    def __repr__(self):
        body = "; ".join("[" + ", ".join(self.field.format(a) for a in r) + "]"
                         for r in self.rows)
        return f"Matrix({self.field}, {body})"


def rref(m: Matrix) -> Matrix:
    """Unique reduced row echelon form; Gauss-Jordan with exact division."""
    F = m.field
    rows = [list(r) for r in m.rows]
    nrows, ncols = len(rows), m.ncols
    piv_r = 0
    for piv_c in range(ncols):
        pr = None
        for r in range(piv_r, nrows):
            if rows[r][piv_c] != F.zero:
                pr = r
                break
        if pr is None:
            continue
        rows[piv_r], rows[pr] = rows[pr], rows[piv_r]
        inv = F.inv(rows[piv_r][piv_c])
        rows[piv_r] = [F.mul(inv, a) for a in rows[piv_r]]
        for r in range(nrows):
            if r != piv_r and rows[r][piv_c] != F.zero:
                c0 = rows[r][piv_c]
                rows[r] = [F.sub(a, F.mul(c0, b)) for a, b in zip(rows[r], rows[piv_r])]
        piv_r += 1
        if piv_r == nrows:
            break
    kept = [r for r in rows if any(a != F.zero for a in r)]
    return Matrix(F, kept) if kept else Matrix.zeros(F, 0, ncols)


def nullspace(m: Matrix) -> list:
    """Basis of { x : M x = 0 }, one vector per free column of rref(M)."""
    F = m.field
    r = rref(m)
    ncols = m.ncols
    pivots = []
    for row in r.rows:
        for c, a in enumerate(row):
            if a != F.zero:
                pivots.append(c)
                break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [F.zero] * ncols
        v[fc] = F.one
        for prow, pc in zip(r.rows, pivots):
            v[pc] = F.neg(prow[fc])
        basis.append(tuple(v))
    return basis


class Subspace:
    """A subspace of F^n held as its canonical RREF row basis (no zero rows)."""

    __slots__ = ("field", "ambient_dim", "rows")

    def __init__(self, field: Field, ambient_dim: int, rref_rows: Iterable[Iterable]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = tuple(tuple(r) for r in rref_rows)

    @classmethod
    def span(cls, field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise AmbientMismatch("vector length != ambient dim")
        if not vectors:
            return cls(field, ambient_dim, [])
        return cls(field, ambient_dim, rref(Matrix(field, vectors)).rows)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, [])

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim).rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple:
        z = self.field.zero
        return tuple(next(c for c, a in enumerate(row) if a != z) for row in self.rows)

    def basis_matrix(self) -> Matrix:
        return Matrix(self.field, self.rows) if self.rows else Matrix.zeros(self.field, 0, self.ambient_dim)

    def _check_compat(self, other: "Subspace"):
        if self.field != other.field:
            raise FieldMismatch("subspaces over different fields")
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("ambient dimension mismatch")

    def reduce(self, v: Sequence) -> Vector:
        """Residual of v against the RREF rows: zero at every pivot column,
        and zero everywhere exactly when v lies in the subspace."""
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length != ambient dim")
        F = self.field
        z = F.zero
        res = list(v)
        for row, pc in zip(self.rows, self.pivots):
            c = res[pc]
            if c != z:
                res = [F.sub(a, F.mul(c, b)) for a, b in zip(res, row)]
        return tuple(res)

    def combine(self, w: Sequence) -> Vector:
        """sum_i w[i] * rows[i]: the vector with coordinates w in the RREF basis."""
        return lin_comb(self.field, self.ambient_dim, w, self.rows)

    def contains(self, v: Sequence) -> bool:
        return not any(self.reduce(v))

    def coords(self, v: Sequence) -> Optional[Vector]:
        """Coefficients of v in the RREF basis, or None if v is outside.

        Every other row is zero at a row's pivot column, so the coefficients
        are v's own entries at the pivot columns.
        """
        if any(self.reduce(v)):
            return None
        return tuple(v[pc] for pc in self.pivots)

    def leq(self, other: "Subspace") -> bool:
        self._check_compat(other)
        return all(other.contains(r) for r in self.rows)

    def __le__(self, other):
        return self.leq(other)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compat(other)
        return Subspace.span(self.field, self.ambient_dim, list(self.rows) + list(other.rows))

    def __add__(self, other):
        return self.sum(other)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Kernel method: x = U^T a = V^T b; solve [U^T | -V^T] (a;b) = 0."""
        self._check_compat(other)
        F = self.field
        if not self.rows or not other.rows:
            return Subspace.zero(F, self.ambient_dim)
        cols = [list(r) for r in self.rows] + [[F.neg(a) for a in r] for r in other.rows]
        ker = nullspace(Matrix.from_columns(F, cols))
        return Subspace.span(F, self.ambient_dim, [self.combine(k[: self.dim]) for k in ker])

    def __and__(self, other):
        return self.intersect(other)

    def complement_basis(self) -> list:
        """Standard basis vectors at the non-pivot columns, ascending.

        Deterministic and always a complement: pivot rows plus these units
        form a triangular basis of the ambient space.
        """
        piv = set(self.pivots)
        return [unit_vec(self.field, self.ambient_dim, c)
                for c in range(self.ambient_dim) if c not in piv]

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.rows))

    def __repr__(self):
        body = ", ".join("(" + ", ".join(self.field.format(a) for a in r) + ")"
                         for r in self.rows)
        return f"Subspace(dim {self.dim} of {self.field}^{self.ambient_dim}: {body})"


def gaussian_binomial(n: int, k: int, p: int) -> int:
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def subspace_count(n: int, p: int) -> int:
    """Total number of subspaces of F_p^n (sum of Gaussian binomials)."""
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))
