"""Exact linear algebra over Q and F_p.

Scalars are `fractions.Fraction` over the rationals and plain residues in
[0, p) over a prime field; arithmetic is always exact.  Subspaces are kept in
reduced row echelon form, which makes equality testing a tuple comparison and
gives deterministic output everywhere downstream.

All elimination is one routine, Subspace._insert: it inserts vectors one at a
time into an RREF basis.  A span starts it from the zero space, a sum S + T
extends S's basis by T's rows, and it stops reducing once the span is full.
Nullspaces, intersections and every other cut of a subspace by a linear map
(Subspace.where_zero) are spans of this kind.  Every linear system is a list
of integer rows: nullspace takes the rows of a system and returns integer
kernel vectors, and where_zero takes the images of a subspace's scaled rows.
All closure is one routine too, Subspace.spin: it grows a subspace under
linear maps, inserting each image it lacks, until no image is new.

Over Q the elimination runs on scaled integers, not on Fractions.  A vector
v in scaled form is (ints, den) with v = ints / den (to_scaled and
from_scaled convert).  A subspace holds each RREF row as a primitive integer
row over its pivot entry (scaled_rows), its only form of the rows (rows is
a view), and a reduction plan for them: the
lcm D of the pivot entries, and for each row its pivot column, D over its
pivot entry and its nonzero off-pivot entries.  Reducing a vector against
the rows is one pass over the off-pivot entries of the rows it meets
(_reduce), with the result over D (scaled_residual), and a zero test
(contains) needs no denominator at all.  _insert keeps the plan from one
vector to the next, updating only the rows an insertion changes, and only
when the next vector is reduced; it hands the plan to the subspace it
builds, which completes it on first use, as a subspace built otherwise
makes its whole plan.  Spans and membership do not depend on a vector's scale, so
integer vectors, such as the products LeibnizAlgebra.products reads off the
scaled table, go in as they are, with no scaling pass; zero vectors are
dropped before any work.  Over F_p the scaled form of a vector
is its residues, so the same routine runs on residues mod p; ints outside
[0, p) are reduced on the way in.

Field elements are built only at the edges of the library: from the input
(Field.scalar, for the file loader and the CLI's vectors, and for the
products c / scale that from_products takes where core builds an algebra
from another's scaled table), and where values go back to a caller, as
Subspace.rows, LeibnizAlgebra.table and LeibnizAlgebra.bracket, and in the
witnesses and payloads of the reports.  The JSON writers print a subspace
from its scaled rows and an algebra from its scaled table, so equal objects
are written alike however they were built.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .errors import AmbientMismatch, FieldMismatch


# Miller-Rabin with the prime bases 2..41 is exact for every n below this
# bound (Sorenson and Webster, 2015); larger moduli are refused.
PRIME_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_BOUND."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (modulus None) or the prime field F_p."""

    modulus: Optional[int] = None

    def __post_init__(self):
        if self.modulus is not None and self.modulus >= PRIME_BOUND:
            raise ValueError(f"modulus must be below {PRIME_BOUND}, where the primality "
                             f"test is exact; got {self.modulus}")
        if self.modulus is not None and not _is_prime(self.modulus):
            raise ValueError(f"modulus must be prime, got {self.modulus}")

    def scalar(self, num: int, den: int = 1):
        """Exact field element num/den; den must be a unit mod p.  Bools are
        not integers here."""
        # plain ints pass the first test, other int subclasses but bool the second
        if not (type(num) is int and type(den) is int or _is_int(num) and _is_int(den)):
            raise TypeError(f"scalar needs integer num and den, got {num!r}/{den!r}")
        if self.modulus is None:
            return Fraction(num, den)
        p = self.modulus
        if den % p == 0:
            raise ZeroDivisionError(f"denominator {den} is not a unit mod {p}")
        return num * pow(den, -1, p) % p

    def is_element(self, a) -> bool:
        """An int or a Fraction over Q; an int in [0, p) over F_p.  Bools are not."""
        if type(a) is bool:
            return False
        if self.modulus is None:
            return isinstance(a, (int, Fraction))
        return isinstance(a, int) and 0 <= a < self.modulus

    @property
    def zero(self):
        return Fraction(0) if self.modulus is None else 0

    @property
    def one(self):
        return Fraction(1) if self.modulus is None else 1

    def __str__(self):
        return "Q" if self.modulus is None else f"F{self.modulus}"


QQ = Field()


def _is_int(x) -> bool:
    return isinstance(x, int) and type(x) is not bool


Vector = tuple


def zero_vec(field: Field, n: int) -> Vector:
    return (field.zero,) * n

def unit_vec(field: Field, n: int, i: int) -> Vector:
    return tuple(field.one if j == i else field.zero for j in range(n))

def scaled_comb(field: Field, n: int, coeffs: Iterable[int],
                vectors: Iterable[Sequence[int]]) -> list:
    """sum_i coeffs[i] * vectors[i] for integer coefficients and vectors of
    length n (residues over F_p); zero coefficients and entries are skipped."""
    out = [0] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for k, b in enumerate(v):
                if b:
                    out[k] += c * b
    p = field.modulus
    return out if p is None else [a % p for a in out]


_INT = {int}


def to_scaled(field: Field, v: Sequence) -> tuple:
    """The scaled form (ints, den) of v, with v = ints / den and den > 0.

    Over Q, den is the lcm of the entries' denominators; for an RREF row
    this makes ints primitive with den at the pivot, and an integer vector
    is its own scaled form.  Over F_p ints are reduced to their residues,
    which stand for themselves, and den is 1."""
    p = field.modulus
    if p is not None:
        return [a % p for a in v], 1
    if {*map(type, v)} <= _INT:
        return v, 1
    den = lcm(*[a.denominator for a in v])
    if den == 1:
        return [a.numerator for a in v], 1
    return [a.numerator * (den // a.denominator) for a in v], den


_Q_ZERO = Fraction(0)


def from_scaled(field: Field, ints: Sequence[int], den: int = 1) -> Vector:
    """The vector ints / den, with every zero entry field.zero."""
    p = field.modulus
    if p is None:
        return tuple(Fraction(a, den) if a else _Q_ZERO for a in ints)
    if den != 1:
        inv = pow(den, -1, p)
        return tuple(a * inv % p for a in ints)
    return tuple(a % p for a in ints)


def _reduce(w: Sequence, D: int, terms, p: Optional[int]) -> list:
    """r with r / D = w - sum_i w[pc_i] rows[i] / rows[i][pc_i]: the residual
    of w against scaled RREF rows, given by their reduction plan (D, terms)
    (Subspace._reduction_plan), zero at every pivot column.  Every other row
    is zero at a row's pivot column, so w's own entries there are the
    multipliers, and one pass over each row's off-pivot entries suffices.
    Over F_p the entries are reduced once, at the end, so w may hold any
    ints."""
    r = [D * a for a in w] if D != 1 else list(w)
    for pc, m, off in terms:
        c = w[pc]
        if c:
            r[pc] = 0
            c *= m
            for j, b in off:
                r[j] -= c * b
    return r if p is None else [a % p for a in r]


_entry = itemgetter(1)      # (column, entry) is kept when entry != 0


def _off(row, pc: int) -> tuple:
    """The nonzero entries (column, entry) of a row right of its pivot
    column pc; an RREF row is zero left of it and at every other pivot."""
    return tuple(filter(_entry, enumerate(row[pc + 1:], pc + 1)))


def _completed(rows, pivots, terms, p: Optional[int]) -> tuple:
    """The reduction plan (D, terms) of scaled RREF rows, made from terms
    that may hold None for the rows whose off-pivot entries are still to be
    read: D is the lcm of the pivot entries, and each term is (pivot column,
    D / pivot entry, off-pivot entries).  Over F_p the rows are monic, and
    D and every multiplier are 1."""
    terms = [t or (pc, 1, _off(r, pc)) for t, r, pc in zip(terms, rows, pivots)]
    if p is not None:
        return 1, terms
    heads = [r[pc] for r, pc in zip(rows, pivots)]
    D = lcm(*heads)
    return D, [(pc, D // h, off) for (pc, _, off), h in zip(terms, heads)]


def _normalize(r: list, pc: int, p: Optional[int]) -> tuple:
    """The scaled RREF row through r, whose leading entry is at pc: over Q
    primitive with a positive pivot entry, over F_p monic."""
    if p is None:
        g = gcd(*r)
        return tuple([a // (g if r[pc] > 0 else -g) for a in r])
    inv = pow(r[pc], -1, p)
    return tuple(a * inv % p for a in r) if inv != 1 else tuple(r)


class Subspace:
    """A subspace of F^n held as its canonical RREF row basis (no zero rows),
    with the pivot column of each row.

    Its one state is that basis in scaled form, row i being
    scaled_rows[i] / scaled_rows[i][pivots[i]]: over Q a primitive integer
    row, over F_p the row itself.  The constructor builds it as the span of
    the rows it is given, which need not be in RREF.  All of the linear
    algebra runs on the scaled rows; rows is a view of them, built on first
    read.
    """

    __slots__ = ("field", "ambient_dim", "pivots", "scaled_rows", "_rows", "_plan")

    def __init__(self, field: Field, ambient_dim: int, rows: Iterable[Iterable]):
        S = Subspace.span(field, ambient_dim, [tuple(r) for r in rows])
        self.field, self.ambient_dim = field, ambient_dim
        self.pivots, self.scaled_rows = S.pivots, S.scaled_rows
        self._rows, self._plan = S._rows, S._plan

    @classmethod
    def _from_scaled(cls, field: Field, ambient_dim: int, scaled, pivots, plan=None) -> "Subspace":
        S = cls.__new__(cls)
        S.field, S.ambient_dim = field, ambient_dim
        S.scaled_rows, S.pivots = tuple(scaled), tuple(pivots)
        S._rows = S.scaled_rows if field.modulus is not None else None
        S._plan = plan
        return S

    def _reduction_plan(self) -> tuple:
        """The plan (D, terms) that reduces a vector against the rows
        (_reduce), made on first use, in part from the terms the _insert that
        made the rows kept (a plan (None, terms) is such a part)."""
        plan = self._plan
        if plan is None or plan[0] is None:
            terms = plan[1] if plan is not None else [None] * self.dim
            self._plan = plan = _completed(self.scaled_rows, self.pivots, terms,
                                           self.field.modulus)
        return plan

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            F = self.field
            self._rows = tuple(from_scaled(F, r, r[pc])
                               for r, pc in zip(self.scaled_rows, self.pivots))
        return self._rows

    @classmethod
    def span(cls, field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        return cls.zero(field, ambient_dim)._insert(vectors)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls._from_scaled(field, ambient_dim, (), (), (1, ()))

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        n = ambient_dim
        return cls._from_scaled(field, n, [(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)],
                                range(n))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def _check_compat(self, other: "Subspace"):
        if self.field != other.field:
            raise FieldMismatch("subspaces over different fields")
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("ambient dimension mismatch")

    def scaled_residual(self, v: Sequence) -> tuple:
        """(r, D) with r / D the residual of v against the RREF rows, zero at
        every pivot column and zero everywhere exactly when v lies in the
        subspace; r is an integer vector (residues over F_p).  For an integer
        vector v, D is the lcm of the pivot entries of scaled_rows over Q and
        1 over F_p: one scale for every integer vector."""
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length != ambient dim")
        w, den = to_scaled(self.field, v)
        D, terms = self._reduction_plan()
        return _reduce(w, D, terms, self.field.modulus), den * D

    def _insert(self, vectors: Iterable[Sequence]) -> "Subspace":
        """The span of these rows and the vectors, the only elimination here.

        Each vector is reduced against the rows so far (_reduce); a nonzero
        residual is normalised, its pivot column is cleared from the other
        rows, and it is inserted in pivot order, so the rows stay in RREF
        throughout.  The reduction plan is kept between vectors: an
        insertion marks the rows it changes, and only when the next nonzero
        vector is to be reduced are their off-pivot entries read again and,
        over Q, the lcm of the pivot entries and the multipliers recomputed.
        The subspace built gets the plan as it stands, and completes it on
        first use.  Zero vectors are dropped before any work, an integer
        vector goes in as it is, and once the span is full the remaining
        vectors are only length-checked.  All of it runs on the scaled form:
        a vector's scale does not change its span.
        """
        F, n, p = self.field, self.ambient_dim, self.field.modulus
        D, terms = self._reduction_plan()
        rows, dim = None, self.dim      # the rows are copied on the first insertion
        for v in vectors:
            if len(v) != n:
                raise AmbientMismatch("vector length != ambient dim")
            if dim == n or not any(v):
                continue
            if D is None:
                D, terms = _completed(rows, pivots, terms, p)
            # over F_p _reduce takes any ints
            res = _reduce(v if p is not None else to_scaled(F, v)[0], D, terms, p)
            lead = next(filter(None, res), 0)       # the first nonzero entry
            if not lead:
                continue
            if rows is None:
                rows, pivots, terms = list(self.scaled_rows), list(self.pivots), list(terms)
            pc = res.index(lead)
            res = _normalize(res, pc, p)
            a = res[pc]
            for i, row in enumerate(rows):
                b = row[pc]
                if b:
                    # res is zero at the pivot of row, which keeps its pivot entry
                    rows[i] = row = (_normalize([a * x - b * y for x, y in zip(row, res)],
                                                pivots[i], p) if p is None
                                     else tuple([(x - b * y) % p for x, y in zip(row, res)]))
                    terms[i] = None
            k = bisect(pivots, pc)
            rows.insert(k, res)
            pivots.insert(k, pc)
            terms.insert(k, None)
            D = None            # the plan is completed before it is next used
            dim += 1
        if rows is None:
            return self
        return Subspace._from_scaled(F, n, rows, pivots, (D, tuple(terms)))

    def contains(self, v: Sequence) -> bool:
        """Is v in the subspace?  v is reduced as it is, with no scaled form
        to build: its scale does not change whether the residual is zero."""
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length != ambient dim")
        return not any(v) or not any(_reduce(v, *self._reduction_plan(), self.field.modulus))

    def leq(self, other: "Subspace") -> bool:
        """Is self inside other?  Each pivot column of a subspace of other
        leads one of its vectors, so it is a pivot column of other: a larger
        dimension or a pivot column outside other's decides before any row
        is reduced."""
        self._check_compat(other)
        if self.dim > other.dim or not set(self.pivots).issubset(other.pivots):
            return False
        return all(other.contains(r) for r in self.scaled_rows)

    def __le__(self, other):
        return self.leq(other)

    def sum(self, other: "Subspace") -> "Subspace":
        """Extends this RREF basis by the rows of other."""
        self._check_compat(other)
        return self._insert(other.scaled_rows)

    def __add__(self, other):
        return self.sum(other)

    def spin(self, images: Callable[[Sequence], Iterable[Sequence]]) -> "Subspace":
        """The smallest subspace containing this one that is closed under the
        linear maps whose images of a vector v images(v) yields.  Each round
        maps only the vectors the last round added, first the scaled rows,
        and the closure stops as soon as it is the whole space, also in the
        middle of a round: images(v) may be a generator, read no further."""
        V, new, n = self, self.scaled_rows, self.ambient_dim
        while new and V.dim < n:
            grown = []
            for u in new:
                for w in images(u):
                    if not V.contains(w):
                        V = V._insert((w,))
                        if V.dim == n:
                            return V
                        grown.append(w)
            new = grown
        return V

    def where_zero(self, images: Sequence[Sequence[int]]) -> "Subspace":
        """{ sum_i c_i scaled_rows[i] : sum_i c_i images[i] = 0 }: the subspace
        on which the linear map sending scaled_rows[i] to images[i] vanishes.
        The images are integer vectors (residues over F_p) on one common
        scale, and the kernel vectors combine the scaled rows in integers.  On
        the full space the scaled rows are the unit vectors, so the kernel
        vectors are spanned as they are, with no combination formed."""
        if len(images) != self.dim:
            raise AmbientMismatch("need one image per basis row")
        F, n, rows = self.field, self.ambient_dim, self.scaled_rows
        ker = nullspace(F, self.dim, list(zip(*images)))
        if self.dim == n:
            return Subspace.span(F, n, ker)
        return Subspace.span(F, n, [scaled_comb(F, n, k, rows) for k in ker])

    def intersect(self, other: "Subspace") -> "Subspace":
        """x in self lies in other iff other's residual of x is 0, and the
        residual is linear: those of the scaled rows share one scale."""
        self._check_compat(other)
        return self.where_zero([other.scaled_residual(u)[0] for u in self.scaled_rows])

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
                and self.ambient_dim == other.ambient_dim
                and self.pivots == other.pivots and self.scaled_rows == other.scaled_rows)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.scaled_rows))

    def __repr__(self):
        body = ", ".join("(" + ", ".join(str(a) for a in r) + ")"
                         for r in self.rows)
        return f"Subspace(dim {self.dim} of {self.field}^{self.ambient_dim}: {body})"


def nullspace(field: Field, ncols: int, rows: Iterable[Sequence[int]]) -> list:
    """Basis of { x : sum_j row[j] x_j = 0 for every row }, for integer rows
    (residues over F_p) of length ncols: one integer vector per free column
    fc of their RREF.  Over Q the vector holds the lcm D of the pivot
    entries of the scaled RREF rows at fc, and -D r[fc] / r[pc] at the pivot
    column pc of each row r; over F_p it holds 1 at fc and -r[fc] at pc."""
    R = Subspace.span(field, ncols, rows)
    p, scaled, pivots = field.modulus, R.scaled_rows, R.pivots
    D = R._reduction_plan()[0]
    piv, basis = set(pivots), []
    for fc in (c for c in range(ncols) if c not in piv):
        v = [0] * ncols
        v[fc] = D
        for r, pc in zip(scaled, pivots):
            if r[fc]:
                v[pc] = -(D // r[pc]) * r[fc] if p is None else -r[fc] % p
        basis.append(v)
    return basis


def gaussian_binomial(n: int, k: int, p: int) -> int:
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def subspace_count(n: int, p: int) -> int:
    """Total number of subspaces of F_p^n (sum of Gaussian binomials)."""
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))
