"""Leibniz algebras given by structure constants, and everything computable
directly from the table: identity checking, subspace products, ideals, series,
quotients, the kernel of squares, liesation, the centre.

An algebra's state is its scaled table (d, T): the table times the lcm d of
its denominators (d = 1 over F_p), with T[i][j] the nonzero entries (k, c)
of d [e_i, e_j] by increasing k.  Every constructor (the dense one,
from_products and the file loader) builds (d, T) at once and keeps nothing
else; the dense table is a cached view, built when LeibnizAlgebra.table is
read.  quotient, restrict and direct_sum build with from_products, from
products read off the scaled table as integers over a known scale.  Field
elements are made only for what goes back to a caller: the dense table,
LeibnizAlgebra.bracket, project_vector and the sides of a failing triple.

Every product goes through one operator, LeibnizAlgebra.products: the
products of a vector U with the basis on one side, d [U, e_j] or d [e_j, U]
for all j, as sparse integer vectors.  For a unit vector they are read
straight off T (its row, or its column from the transposed table built once
per algebra); for any other U they are formed in one pass over T and kept in
a memo of the algebra bounded by MEMO_CAP integers.  Any other product is
formed from them by linearity (LeibnizAlgebra.by_linearity):
[a, b] = sum_j b_j [a, e_j] = sum_i a_i [e_i, b], and bracket_span takes
the side with fewer rows, so each row's products are formed once.  The
ideal tests, the ideal closure, the centre and the largest contained ideal
read the products of a row directly, and the kernel of squares sums four
table entries per pair.  No operator matrix is built.  [L, L] is the span
of the table's nonzero products, built once per algebra
(LeibnizAlgebra.derived_space): bracket_span returns it for L with L, so
every series of L starts from it, and is_ideal and is_subalgebra answer L
itself with no product formed.

The Leibniz identity is checked on packed ints (_leibniz_failures): each
pair (j, k) is one int with a B-bit digit per left factor i and component
l, B large enough that the digits are unique, so n^2 ints hold the
identity at all n^3 basis triples, with no loop over the triples.  Over
F_p one divisibility test and one mask per int decide whether every digit
is 0 mod p, and only the ints that fail are unpacked into triples.

Convention is right Leibniz throughout: [x,[y,z]] = [[x,y],z] - [[x,z],y],
i.e. every y -> [y,x] is a derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import lcm
from operator import itemgetter
from typing import Optional, Sequence

from .errors import (
    AmbientMismatch,
    FieldMismatch,
    InternalInconsistency,
    NotAnIdeal,
    NotASubalgebra,
)
from .exactlin import (
    Field,
    Subspace,
    _is_int,
    from_scaled,
    scaled_comb,
    to_scaled,
    unit_vec,
    zero_vec,
)
from .reports import VerificationReport

# the sides of LeibnizAlgebra.products: [U, e_j] and [e_j, U]
RIGHT, LEFT = 0, 1

# the most integers one algebra keeps in its memo (LeibnizAlgebra.products),
# counting each vector's n components and each product entry (k, c) once
# (_cost); the products of the unit vectors are the table itself
MEMO_CAP = 1 << 14

_entry = itemgetter(1)      # (k, c) is kept when c != 0


class LeibnizAlgebra:
    """Finite-dimensional algebra with bracket [e_i, e_j] = sum_k c[i][j][k] e_k.

    Its one state is the scaled table (d, T) of scaled_table, which every
    algorithm reads.  The constructor builds it from a dense table,
    table[i][j] = component vector of [e_i, e_j], each entry checked with
    Field.is_element, and from_products from a sparse map; neither keeps
    what it was given.  table is a cached view of (d, T), Fractions over Q
    and residues over F_p.  Whether the Leibniz identity holds is checked
    by check_leibniz, not assumed at construction.  Equality and hashing look
    at the field and (d, T), which is canonical for a table, not at the labels.
    """

    __slots__ = ("field", "dim", "labels", "_table", "_scaled", "_full", "_derived", "_columns",
                 "_memo", "_stored")

    def __init__(self, field: Field, dim: int, table, labels: Optional[Sequence[str]] = None):
        table = [[tuple(v) for v in row] for row in table]
        if len(table) != dim or any(len(row) != dim for row in table):
            raise ValueError("table must be dim x dim")
        for i, row in enumerate(table):
            for j, v in enumerate(row):
                if len(v) != dim:
                    raise ValueError("product vectors must have length dim")
                for c in v:
                    if not field.is_element(c):
                        raise TypeError(_not_an_element(field, c, i, j))
        ints, d = to_scaled(field, [c for row in table for v in row for c in v])
        # the vectors, and then the rows, as consecutive runs of dim
        T = [tuple(compress(enumerate(v), v)) for v in zip(*[iter(ints)] * dim)]
        self._init(field, dim, d, zip(*[iter(T)] * dim), labels)

    @classmethod
    def from_products(cls, field: Field, dim: int, products: dict,
                      labels: Optional[Sequence[str]] = None) -> "LeibnizAlgebra":
        """Build from a sparse {(i, j): {k: scalar}} map; omitted products are 0.
        An int scalar is mapped into the field; any other, a bool too, must be
        an element.  An index i, j or k outside [0, dim) raises ValueError."""
        for (i, j), comps in products.items():
            if not all(0 <= x < dim for x in (i, j, *comps)):
                raise ValueError(f"index outside [0, {dim}) in entry ({i}, {j}): {comps}")
        p = field.modulus
        entries = []
        for (i, j), comps in products.items():
            for k, c in comps.items():
                if type(c) is int or _is_int(c):
                    c = c if p is None else c % p
                elif not field.is_element(c):
                    raise TypeError(_not_an_element(field, c, i, j))
                if c:
                    entries.append((i, j, k, c))
        # an int is its own numerator over denominator 1
        d = lcm(*[c.denominator for *_, c in entries])
        T = [[[] for _ in range(dim)] for _ in range(dim)]
        for i, j, k, c in entries:
            T[i][j].append((k, c.numerator * (d // c.denominator)))
        return cls._from_scaled(field, dim, d, T, labels)

    @classmethod
    def _from_scaled(cls, field: Field, dim: int, d: int, T,
                     labels: Optional[Sequence[str]] = None) -> "LeibnizAlgebra":
        """The algebra with scaled table (d, T), T[i][j] the nonzero entries
        (k, c) of d [e_i, e_j] with distinct k, in any order; no entry is
        checked."""
        L = cls.__new__(cls)
        L._init(field, dim, d, [[tuple(sorted(v)) if v else () for v in row] for row in T], labels)
        return L

    def _init(self, field: Field, dim: int, d: int, T, labels):
        """Set the state to (d, T), T[i][j] in increasing k, and the caches empty."""
        self.field, self.dim = field, dim
        self._scaled = d, tuple(map(tuple, T))
        self.labels = _labels(labels, dim)
        self._table = self._full = self._derived = self._columns = None
        self._memo, self._stored = {}, 0

    @property
    def table(self) -> tuple:
        """The dense table, table[i][j] = component vector of [e_i, e_j]:
        a view of (d, T), built on first read."""
        if self._table is None:
            F, n = self.field, self.dim
            d, T = self._scaled
            zero = zero_vec(F, n)
            self._table = tuple(tuple(from_scaled(F, _dense(n, v), d) if v else zero
                                      for v in row) for row in T)
        return self._table

    def basis_vector(self, i: int):
        return unit_vec(self.field, self.dim, i)

    def scaled_table(self) -> tuple:
        """(d, T): the table times the lcm d of its denominators (1 over F_p),
        with T[i][j] the nonzero entries (k, c) of d [e_i, e_j] by increasing
        k, all held in tuples."""
        return self._scaled

    def bracket(self, u: Sequence, v: Sequence):
        """Bilinear extension of the table: [u, v] = sum_ijk u_i v_j c[i][j][k] e_k."""
        if len(u) != self.dim or len(v) != self.dim:
            raise AmbientMismatch("vector length != algebra dim")
        U, du = to_scaled(self.field, u)
        V, dv = to_scaled(self.field, v)
        return from_scaled(self.field, self.by_linearity(V, self.products(U, RIGHT)),
                           du * dv * self.scaled_table()[0])

    def products(self, U: Sequence[int], side: int) -> tuple:
        """The products of U with the basis on one side: (d [U, e_j])_j for
        side RIGHT and (d [e_j, U])_j for side LEFT, for an integer vector U
        (residues over F_p), d as in scaled_table.  Each product is its
        nonzero entries (k, c) by increasing k.

        The products of a unit vector e_i are read straight off the table:
        row i of T on the right, column i on the left, the columns built once
        per algebra.  Those of any other U are sum_i U_i times those of e_i,
        kept in a memo of the algebra that holds at most MEMO_CAP integers
        and drops its oldest products first.  The tuples returned are
        shared: callers only read them."""
        units = self._units(side)
        n = self.dim
        if U.count(0) == n - 1 and 1 in U:
            return units[U.index(1)]
        key = (side, U if type(U) is tuple else tuple(U))
        out = self._memo.get(key)
        if out is None:
            acc = [[0] * n for _ in range(n)]
            for a, unit_products in zip(U, units):
                if a:
                    for entries, w in zip(unit_products, acc):
                        for k, c in entries:
                            w[k] += a * c
            p = self.field.modulus
            if p is not None:
                acc = [[c % p for c in w] for w in acc]
            out = tuple(tuple(filter(_entry, enumerate(w))) for w in acc)
            self._remember(key, out)
        return out

    def by_linearity(self, coeffs: Sequence[int], prods) -> list:
        """sum_j coeffs[j] prods[j] as a dense integer vector (residues over
        F_p), for prods as products returns them: [a, b] is
        by_linearity(b, products(a, RIGHT)) = by_linearity(a, products(b, LEFT))."""
        out = [0] * self.dim
        for c, w in compress(zip(coeffs, prods), coeffs):
            for k, x in w:
                out[k] += c * x
        p = self.field.modulus
        return out if p is None else [a % p for a in out]

    def _units(self, side: int) -> tuple:
        T = self.scaled_table()[1]
        if side == RIGHT:
            return T
        if self._columns is None:
            self._columns = tuple(zip(*T))
        return self._columns

    def _remember(self, key, out: tuple):
        memo = self._memo
        memo[key] = out
        self._stored += _cost(key, out)
        while self._stored > MEMO_CAP:
            key = next(iter(memo))
            self._stored -= _cost(key, memo.pop(key))

    def full_space(self) -> Subspace:
        """L itself, built once: a Subspace never changes."""
        if self._full is None:
            self._full = Subspace.full(self.field, self.dim)
        return self._full

    def derived_space(self) -> Subspace:
        """[L, L], built once: the span of the nonzero products d [e_i, e_j]
        of the scaled table."""
        if self._derived is None:
            n, T = self.dim, self.scaled_table()[1]
            self._derived = Subspace.span(self.field, n,
                                          [_dense(n, v) for row in T for v in row if v])
        return self._derived

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.field, self.dim)

    def __eq__(self, other):
        return (isinstance(other, LeibnizAlgebra) and self.field == other.field
                and self.dim == other.dim and self.scaled_table() == other.scaled_table())

    def __hash__(self):
        return hash((self.field, self.dim, self.scaled_table()))

    def __repr__(self):
        return f"LeibnizAlgebra(dim {self.dim} over {self.field}, basis {list(self.labels)})"


def _cost(key, out: tuple) -> int:
    """What a memo item holds against MEMO_CAP: the n components of its
    vector and the entries of its products, so an item whose products are
    all zero costs n too."""
    return len(key[1]) + sum(map(len, out))


def _labels(labels: Optional[Sequence[str]], dim: int) -> tuple:
    labels = tuple(labels) if labels is not None else tuple(f"e{i+1}" for i in range(dim))
    if len(labels) != dim:
        raise ValueError("need one label per basis vector")
    return labels


def _not_an_element(field: Field, c, i: int, j: int) -> str:
    return f"coefficient {c!r} of [e{i+1}, e{j+1}] is not an element of {field}"


def _dense(n: int, entries) -> list:
    """The integer vector of length n with the sparse entries (k, c)."""
    v = [0] * n
    for k, c in entries:
        v[k] = c
    return v


def _over(F: Field, entries, scale: int) -> dict:
    """{k: c / scale} for the (k, c) entries with c != 0, as field elements:
    the components of one product for from_products, read off integers over
    a known scale (a unit mod p over F_p)."""
    return {k: F.scalar(c, scale) for k, c in entries if c}


def check_leibniz(L: LeibnizAlgebra) -> VerificationReport:
    """Verify [x,[y,z]] = [[x,y],z] - [[x,z],y] on all basis triples.

    Sufficient by trilinearity.  Every failing triple is reported with both
    sides, not just the first, in the order _leibniz_failures finds them.
    """
    failures = list(_leibniz_failures(L))
    return VerificationReport(
        name="leibniz-identity",
        passed=not failures,
        details={"triples_checked": L.dim ** 3, "failures": len(failures)},
        witnesses=failures,
    )


def _leibniz_failures(L: LeibnizAlgebra):
    """The triples where the identity fails, in (i, j, k) order, lazily, each
    with both sides.

    The test runs in ints on L.scaled_table: over F_p on the residues, over
    Q on the table times the lcm d of its denominators (the identity is
    homogeneous of degree 2, so the same triples fail).  Each (j, k) is one
    int S[j][k] whose base-2^B digit n i + l is d^2 times the e_l-component
    of [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j], for every i at
    once (Kronecker substitution).  With Q[i][m] = sum_l T[i][m][l] 2^(B l)
    the product d [e_i, e_m] packed over l, Qc[m] = sum_i Q[i][m] 2^(B n i)
    column m of the table packed over (i, l), and P_i[j][k] =
    sum_m c_ij^m Q[m][k], which packs d^2 [[e_i, e_j], e_k] over l,
        S[j][k] = sum_m c_jk^m Qc[m] + U[k][j] - U[j][k],
        U[j][k] = sum_i P_i[j][k] 2^(B n i)        (_shifted_products).
    U is formed a column of the table at a time: in a sparse column from
    the P_i[j] as lists over k, in a dense one from each P_i[j] packed over
    (k, l), a sum of at most n multiply-adds, whose blocks are moved into
    place as byte strings.  So no loop runs over basis triples: on a dense
    table 2 n^2 sums of at most n multiply-adds cover all n^3 of them.

    Each digit is a sum of at most 3n products of two scaled entries, so with
    M the largest |entry| it is at most bound = 3n M^2 < 2^(B-1) in absolute
    value.  Balanced base-2^B digits in (-2^(B-1), 2^(B-1)) are unique, and
    an int s of N such digits has |s| < 2^(B N - 1).  Over Q the triples at
    (j, k) hold iff S[j][k] == 0.  Over F_p they hold iff every digit is
    0 mod p, which one test decides (_packed_test):
        s % p == 0 and not (s // p + K) & HIGH,
    with c the bit length of bound // p, so that bound / p < 2^c, K = 2^c at
    every digit, HIGH the bits c+1..B-1 of every digit, and B chosen with
    p 2^c < 2^(B-1).  (Over either field B is then rounded up to whole
    bytes, which keeps every bound.)  If every digit of s is 0 mod p, s // p
    has the balanced digits e_t / p of the digits e_t of s, each in
    (-2^c, 2^c), so adding K puts every digit in (0, 2^(c+1)) with no carry,
    and no HIGH bit is set.  Conversely, let s = p q with no HIGH bit set in q + K.  Since
    |q| < 2^(B N - 2) and 0 <= K < 2^(B N - 1), q + K lies in
    (-2^(B N - 1), 2^(B N)); a negative value there has bit B N - 1 set in
    two's complement, a HIGH bit, so q + K >= 0, and its digits f_t lie in
    [0, 2^(c+1)).  Then q has the balanced digits f_t - 2^c, and s = p q the
    digits p (f_t - 2^c), within p 2^c < 2^(B-1): by uniqueness these are
    the digits of s, and each is 0 mod p.

    Only the (j, k) that fail are unpacked, a block of n digits per i, each
    block tested as S[j][k] is; both sides are bracketed for failing triples
    only.
    """
    F, n, p = L.field, L.dim, L.field.modulus
    d, T = L.scaled_table()
    M = max((abs(c) for row in T for v in row for _, c in v), default=0)
    bound = 3 * n * M * M
    B = bound.bit_length() + 1 if p is None else (p << (bound // p).bit_length()).bit_length() + 1
    B += -B % 8             # whole bytes, so that a block of n digits is a byte string
    nB = n * B
    Q = [[sum(c << B * l for l, c in v) if v else 0 for v in row] for row in T]
    Qc = [sum(q << nB * i for i, q in enumerate(col) if q) for col in zip(*Q)]
    Qr = [sum(q << nB * k for k, q in enumerate(row) if q) for row in Q]
    K = _digits(1 << B - 1, n * n, B)       # makes every digit nonnegative
    holds, failing = _packed_test(n * n, B, bound, p), []
    # U is made a row at a time, and S[j][k] and S[k][j] are formed once rows
    # j and k are made; an entry of U is dropped once used, so at most about
    # n^2 / 4 of them are held at once
    rows = []
    for j, col in enumerate(zip(*T)):
        Uj = _shifted_products(col, Q, Qr, K, nB)
        formed = [(j, j, 0)]        # (j, k, U[k][j] - U[j][k])
        for k, Uk in enumerate(rows):
            u = Uk[j] - Uj[k]
            Uk[j] = Uj[k] = None
            formed += (j, k, u), (k, j, -u)
        rows.append(Uj)
        for a, b, s in formed:
            for m, c in T[a][b]:
                s += c * Qc[m]
            if s and not holds(s):
                failing.append((a, b, s))
    if not failing:
        return
    block, mask = _packed_test(n, B, bound, p), (1 << nB) - 1
    Kn = K & mask
    triples = sorted((i, j, k) for j, k, s in failing
                     for i, u in enumerate(_blocks(s + K, n, nB, mask)) if not block(u - Kn))
    lin, units = L.by_linearity, L.full_space().scaled_rows
    for i, j, k in triples:
        # both sides times d^2, by linearity from the scaled table:
        # [e_i, [e_j, e_k]] from the right products of e_i, and
        # [[e_i, e_j], e_k] from the left products of e_k
        ei, ej = L.products(units[i], RIGHT), L.products(units[j], RIGHT)
        lhs = lin(_dense(n, ej[k]), ei)
        rhs = [a - b for a, b in zip(lin(_dense(n, ei[j]), L.products(units[k], LEFT)),
                                     lin(_dense(n, ei[k]), L.products(units[j], LEFT)))]
        yield {
            "triple": (L.labels[i], L.labels[j], L.labels[k]),
            "indices": (i, j, k),
            "lhs": from_scaled(F, lhs, d * d),
            "rhs": from_scaled(F, rhs, d * d),
        }


def _shifted_products(col, Q, Qr, K: int, nB: int) -> list:
    """U[j] of _leibniz_failures for column j of the table, col[i] = T[i][j]:
    the list over k of U[j][k] = sum_i P_i[j][k] 2^(nB i), P_i[j][k] =
    sum_m c_ij^m Q[m][k], with nB a whole number of bytes.

    In a column where T[i][j] is nonzero for at most half of the i, each
    such P_i[j] is a list over k, summed by Horner's rule over those i.  In
    a denser column each P_i[j] is formed packed over (k, l), with digit
    n k + l, as sum_m c_ij^m Qr[m], Qr[m] row m of the table packed over
    (k, l), and moved into place as bytes: K, the offset 2^(B-1) at every
    digit, makes each digit nonnegative with no carry, so block k of the
    bytes of P_i[j] + K is P_i[j][k] plus the offset of one block, and
    joining block k of every i gives the bytes of U[j][k] + K."""
    n = len(col)
    nonzero = [i for i, Tij in enumerate(col) if Tij]
    if not nonzero:
        return [0] * n
    if 2 * len(nonzero) <= n:
        acc, last = None, 0
        for i in reversed(nonzero):
            (m, c), *rest = col[i]
            P = [c * b for b in Q[m]]
            for m, c in rest:
                P = [a + c * b for a, b in zip(P, Q[m])]
            acc = P if acc is None else [(a << nB * (last - i)) + b for a, b in zip(acc, P)]
            last = i
        return [a << nB * last for a in acc] if last else acc
    w = nB // 8
    packed, unset = [], K.to_bytes(n * w, "little")
    for Tij in col:
        X = K
        for m, c in Tij:
            X += c * Qr[m]
        packed.append(X.to_bytes(n * w, "little") if Tij else unset)
    return [int.from_bytes(b"".join([X[a:a + w] for X in packed]), "little") - K
            for a in range(0, n * w, w)]


def _digits(x: int, N: int, B: int) -> int:
    """x at each of N base-2^B digits."""
    return x * (((1 << N * B) - 1) // ((1 << B) - 1))


def _blocks(u: int, n: int, nB: int, mask: int):
    """The n blocks of nB bits of u >= 0, lowest first."""
    for _ in range(n):
        yield u & mask
        u >>= nB


def _packed_test(N: int, B: int, bound: int, p):
    """The test of _leibniz_failures for an int s of N balanced base-2^B
    digits, each at most bound in absolute value: is every digit 0 (over Q)
    or 0 mod p?"""
    if p is None:
        return lambda s: not s
    c = (bound // p).bit_length()
    K, HIGH = _digits(1 << c, N, B), _digits((1 << B) - (2 << c), N, B)
    return lambda s: s % p == 0 and not (s // p + K) & HIGH


def bracket_span(L: LeibnizAlgebra, A: Subspace, B: Subspace) -> Subspace:
    """span{ [a,b] : a in basis(A), b in basis(B) } -- one-sided product.
    [L, L] is L.derived_space(), read off the table once per algebra.  Any
    other product is formed by linearity from the products with the basis
    of the side with fewer rows: [a, b] = sum_j b_j [a, e_j], or
    sum_i a_i [e_i, b]."""
    _check_ambient(L, A)
    _check_ambient(L, B)
    if A.dim == B.dim == L.dim:
        return L.derived_space()
    # scaled rows and products: a vector's scale does not change the span
    lin, rows_a, rows_b = L.by_linearity, A.scaled_rows, B.scaled_rows
    if A.dim <= B.dim:
        prods = (lin(b, R) for R in (L.products(a, RIGHT) for a in rows_a) for b in rows_b)
    else:
        prods = (lin(a, R) for R in (L.products(b, LEFT) for b in rows_b) for a in rows_a)
    return Subspace.span(L.field, L.dim, prods)


def is_subalgebra(L: LeibnizAlgebra, A: Subspace) -> bool:
    """[a, b] in A for all basis rows a, b, by linearity from the right
    products of a; stops at the first product outside A.  L itself is one
    with no product formed."""
    _check_ambient(L, A)
    if A.dim == L.dim:
        return True
    rows, lin = A.scaled_rows, L.by_linearity
    return all(A.contains(lin(b, R)) for R in (L.products(a, RIGHT) for a in rows) for b in rows)


def is_ideal(L: LeibnizAlgebra, A: Subspace) -> bool:
    """[a, e_j] and [e_j, a] in A for all basis rows a and all j; stops at the
    first product outside A.  Rows and products are in scaled form, the 2n
    products of a row those of LeibnizAlgebra.products.  L itself is one
    with no product formed."""
    _check_ambient(L, A)
    n = L.dim
    if A.dim == n:
        return True
    return all(not w or A.contains(_dense(n, w)) for a in A.scaled_rows
               for side in (RIGHT, LEFT) for w in L.products(a, side))


def ideal_closure(L: LeibnizAlgebra, S: Subspace) -> Subspace:
    """Smallest ideal containing S: the fixed point of V -> V + [V,L] + [L,V],
    a spin of S (Subspace.spin) under the brackets with every basis vector
    on both sides, in scaled form."""
    _check_ambient(L, S)
    return S.spin(lambda u: _basis_products(L, u))


def leibniz_kernel(L: LeibnizAlgebra) -> Subspace:
    """span{x^2 : x in L}, computed by polarization.

    Squares of the e_i together with squares of all e_i + e_j span every
    square, since [x+y,x+y] = x^2 + y^2 + [x,y] + [y,x].  The result is
    verified to be an ideal; a failure can only mean the table is not Leibniz.
    """
    n = L.dim
    right = [L.products(e, RIGHT) for e in L.full_space().scaled_rows]
    gens = [_dense(n, R[i]) for i, R in enumerate(right)]
    # (e_i + e_j)^2 = e_i^2 + [e_i, e_j] + [e_j, e_i] + e_j^2: four table entries
    for i in range(n):
        for j in range(i + 1, n):
            gens.append(L.by_linearity((1, 1, 1, 1), (right[i][i], right[i][j],
                                                      right[j][i], right[j][j])))
    I = Subspace.span(L.field, n, gens)
    if not is_ideal(L, I):
        raise InternalInconsistency(
            "span of squares is not an ideal; the table violates the Leibniz identity")
    return I


@dataclass
class QuotientPresentation:
    """A quotient L/J with a fixed section and its projection.

    Section representatives are the standard basis vectors at the non-pivot
    columns of J's canonical basis, so the presentation is deterministic.
    The projection of v is read off J's residual of v (_coset_scaled).
    """

    parent: LeibnizAlgebra
    ideal: Subspace
    quotient: LeibnizAlgebra

    @property
    def section(self) -> list:
        """The quotient basis as parent vectors, built on each read."""
        return self.ideal.complement_basis()

    def project_vector(self, v: Sequence):
        return from_scaled(self.quotient.field, *_coset_scaled(self.ideal, v))

    def project_subspace(self, S: Subspace) -> Subspace:
        # the scaled rows, projected: a vector's scale does not change the span
        return Subspace.span(self.quotient.field, self.quotient.dim,
                             [_coset_scaled(self.ideal, r)[0] for r in S.scaled_rows])


def _coset_scaled(J: Subspace, v: Sequence) -> tuple:
    """(w, D) with w / D the coordinates of v + J on the section: J's
    residual of v is zero at J's pivot columns, and its entries at the other
    columns are them."""
    res, D = J.scaled_residual(v)
    piv = set(J.pivots)
    return [a for c, a in enumerate(res) if c not in piv], D


def quotient(L: LeibnizAlgebra, J: Subspace) -> QuotientPresentation:
    """Quotient algebra L/J on deterministic coset representatives: for s, t
    at J's non-pivot columns, with w / D the coordinates of d [e_s, e_t] + J,
    those of [e_s, e_t] + J are w / (D d)."""
    _check_ambient(L, J)
    if not is_ideal(L, J):
        raise NotAnIdeal("quotient by a subspace that is not an ideal")
    F, n, piv = L.field, L.dim, set(J.pivots)
    d, T = L.scaled_table()
    npc = [c for c in range(n) if c not in piv]
    products = {}
    for a, s in enumerate(npc):
        for b, t in enumerate(npc):
            if T[s][t]:
                w, D = _coset_scaled(J, _dense(n, T[s][t]))
                products[a, b] = _over(F, enumerate(w), D * d)
    Q = LeibnizAlgebra.from_products(F, len(npc), products, [L.labels[c] + "~" for c in npc])
    return QuotientPresentation(L, J, Q)


def liesation(L: LeibnizAlgebra) -> QuotientPresentation:
    """Quotient by the kernel of squares; the result is a Lie algebra."""
    qp = quotient(L, leibniz_kernel(L))
    if not is_lie(qp.quotient):
        raise InternalInconsistency("quotient by the span of squares is not Lie")
    return qp


def is_lie(L: LeibnizAlgebra) -> bool:
    """[x,x] = 0 for all x; on the scaled table this is c_ii = 0 and
    c_ij + c_ji = 0, the sum taken mod p over F_p: T[j][i] holds the
    negated entries of T[i][j], both in increasing k."""
    p = L.field.modulus
    T = L.scaled_table()[1]
    for i, row in enumerate(T):
        if row[i]:
            return False
        for j in range(i + 1, L.dim):
            if T[j][i] != tuple((k, -c if p is None else -c % p) for k, c in row[j]):
                return False
    return True


def _series(L: LeibnizAlgebra, A: Optional[Subspace], step) -> list:
    """A, [A, A] = step(A, A), step([A, A], A), ... as subspaces of L, ending at
    0 or at the first repeated term; NotASubalgebra if [A, A] is not in A."""
    if A is None:
        A = L.full_space()
    _check_ambient(L, A)
    terms = [A, step(A, A)] if A.dim else [A]
    if not terms[-1] <= A:
        raise NotASubalgebra("series of a subspace that is not a subalgebra")
    while terms[-1].dim and terms[-1] != terms[-2]:
        terms.append(step(terms[-1], A))
    return terms


def lower_central_series(L: LeibnizAlgebra, A: Optional[Subspace] = None) -> list:
    """A^1 = A, A^{k+1} = [A^k, A] for a subalgebra A of L (default L), each
    term a subspace of L; ends at 0 or at the first repeated term."""
    return _series(L, A, lambda V, A: bracket_span(L, V, A))


def derived_series(L: LeibnizAlgebra, A: Optional[Subspace] = None) -> list:
    """A^(1) = A, A^(k+1) = [A^(k), A^(k)] for a subalgebra A of L (default L),
    each term a subspace of L."""
    return _series(L, A, lambda V, _: bracket_span(L, V, V))


def is_nilpotent(L: LeibnizAlgebra, A: Optional[Subspace] = None) -> bool:
    """Is the subalgebra A of L (default L) nilpotent?"""
    return lower_central_series(L, A)[-1].dim == 0


def is_solvable(L: LeibnizAlgebra, A: Optional[Subspace] = None) -> bool:
    """Is the subalgebra A of L (default L) solvable?"""
    return derived_series(L, A)[-1].dim == 0


def direct_sum(A: LeibnizAlgebra, B: LeibnizAlgebra) -> LeibnizAlgebra:
    """Block-diagonal table, from the two scaled tables; all cross products zero."""
    if A.field != B.field:
        raise FieldMismatch("direct sum over different fields")
    products = {}
    for M, off in ((A, 0), (B, A.dim)):
        d, T = M.scaled_table()
        for i, row in enumerate(T):
            for j, v in enumerate(row):
                products[i + off, j + off] = _over(M.field, ((k + off, c) for k, c in v), d)
    return LeibnizAlgebra.from_products(A.field, A.dim + B.dim, products,
                                        list(A.labels) + list(B.labels))


def restrict(L: LeibnizAlgebra, A: Subspace) -> LeibnizAlgebra:
    """The bracket of a subalgebra in A's canonical basis, from the coordinates
    in A of each product of basis rows; one outside A raises NotASubalgebra.
    For scaled rows u, v that product is d [u, v], formed by linearity from
    the right products of u, over d u[pc_u] v[pc_v], and its coordinates
    are its entries at A's pivots.

    Subspaces of the restricted algebra live in restricted coordinates; use
    embed_subspace / A.rows to map them back into L.  Needed only for N(B) in
    theorem 2 and for scanning a non-nilpotent B over F_p (frattini_ideal).
    """
    _check_ambient(L, A)
    F, d = L.field, L.scaled_table()[0]
    rows = list(zip(A.scaled_rows, A.pivots))
    products = {}
    for a, (u, pu) in enumerate(rows):
        right = L.products(u, RIGHT)
        for b, (v, pv) in enumerate(rows):
            w = L.by_linearity(v, right)
            if not A.contains(w):
                raise NotASubalgebra("restriction to a non-subalgebra")
            products[a, b] = _over(F, ((k, w[pc]) for k, pc in enumerate(A.pivots)),
                                   d * u[pu] * v[pv])
    return LeibnizAlgebra.from_products(F, A.dim, products, [f"b{i+1}" for i in range(A.dim)])


def embed_subspace(A: Subspace, S: Subspace) -> Subspace:
    """Embed a subspace of the restricted algebra on A, given in A's
    coordinates, as a subspace of L.  Basis row i of A is A.scaled_rows[i]
    over its pivot entry s_i: a scaled row c of S maps to the combination
    with coefficients c_i D // s_i, D the lcm of the s_i."""
    if S.ambient_dim != A.dim:
        raise AmbientMismatch("subspace does not live in the restricted coordinates")
    F, n, rows = A.field, A.ambient_dim, A.scaled_rows
    heads = [r[pc] for r, pc in zip(rows, A.pivots)]
    D = lcm(*heads)
    return Subspace.span(F, n, [scaled_comb(F, n, [c * (D // s) for c, s in zip(r, heads)], rows)
                                for r in S.scaled_rows])


def center(L: LeibnizAlgebra) -> Subspace:
    """{ x : [x, L] = [L, x] = 0 }: where e_i -> (d [e_i, e_j], d [e_j, e_i])_j
    vanishes, with the integer products read off the table (products)."""
    full = L.full_space()
    return full.where_zero([[a for w in _basis_products(L, u) for a in w]
                            for u in full.scaled_rows])


def largest_contained_ideal(L: LeibnizAlgebra, K: Subspace) -> Subspace:
    """Largest ideal of L inside K: fixed point of
    K -> { x in K : [x, e_j], [e_j, x] in K for all j }, a linear computation.
    """
    _check_ambient(L, K)
    V = K
    while True:
        # each scaled row u maps to the integer residuals against V of
        # d [u, e_j] and d [e_j, u], all on V's one scale
        W = V.where_zero([[a for w in _basis_products(L, u) for a in V.scaled_residual(w)[0]]
                          for u in V.scaled_rows])
        if W.dim == V.dim:
            return W
        V = W


def _basis_products(L: LeibnizAlgebra, u: Sequence[int]):
    """d [u, e_j] and d [e_j, u] for j = 0..n-1, in that order, as dense
    integer vectors (residues over F_p)."""
    n = L.dim
    for pair in zip(L.products(u, RIGHT), L.products(u, LEFT)):
        for w in pair:
            yield _dense(n, w)


def _check_ambient(L: LeibnizAlgebra, A: Subspace):
    if A.field != L.field:
        raise FieldMismatch("subspace over a different field than the algebra")
    if A.ambient_dim != L.dim:
        raise AmbientMismatch("subspace ambient dim != algebra dim")
