from fractions import Fraction

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizalg.errors import AmbientMismatch
from leibnizalg.exactlin import (
    PRIME_BOUND,
    QQ,
    Field,
    Matrix,
    Subspace,
    gaussian_binomial,
    nullspace,
    rref,
    subspace_count,
    unit_vec,
    vec_add,
    vec_sub,
)


def vec_scale(F, c, u):
    return tuple(F.mul(c, a) for a in u)


F5 = Field(5)


def qmat(rows):
    return Matrix(QQ, [[Fraction(a) for a in r] for r in rows])


# ---------------------------------------------------------------- rref

def test_rref_dependent_rows_collapse():
    assert rref(qmat([[0, 1], [0, 2]])).rows == [[0, 1]]


def test_rref_identity_fixed():
    assert rref(Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 3)


def test_rref_pivot_normalization():
    assert rref(qmat([[2, 4]])).rows == [[1, 2]]


def test_rref_of_int_entries_stays_exact():
    # Field.inv over Q returns a Fraction for an int, never a float
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    r = rref(Matrix(QQ, [[2, 4], [3, 1]]))
    assert r.rows == [[1, 0], [0, 1]] and all(type(a) is Fraction for row in r.rows for a in row)
    r = rref(Matrix(QQ, [[2, 4]]))
    assert r.rows == [[1, 2]] and all(type(a) is Fraction for a in r.rows[0])


def test_rref_over_prime_field():
    m = Matrix(F5, [[2, 4], [1, 3]])
    r = rref(m)
    assert r.rows == [[1, 0], [0, 1]]


# ---------------------------------------------------------------- subspaces

def test_sum_of_axes_is_full():
    a = Subspace.span(QQ, 2, [unit_vec(QQ, 2, 0)])
    b = Subspace.span(QQ, 2, [unit_vec(QQ, 2, 1)])
    assert a.sum(b) == Subspace.full(QQ, 2)


def test_sum_idempotent():
    v = Subspace.span(QQ, 3, [(Fraction(1), Fraction(2), Fraction(0))])
    assert v.sum(v) == v


def test_sum_with_skew_line():
    a = Subspace.span(QQ, 2, [(Fraction(1), Fraction(0))])
    b = Subspace.span(QQ, 2, [(Fraction(1), Fraction(1))])
    assert a.sum(b) == Subspace.full(QQ, 2)


def test_intersection_of_planes():
    e = [unit_vec(QQ, 3, i) for i in range(3)]
    a = Subspace.span(QQ, 3, [e[0], e[1]])
    b = Subspace.span(QQ, 3, [e[1], e[2]])
    assert a.intersect(b) == Subspace.span(QQ, 3, [e[1]])


def test_intersection_with_zero():
    v = Subspace.full(QQ, 3)
    z = Subspace.zero(QQ, 3)
    assert v.intersect(z) == z


def test_membership():
    e = [unit_vec(QQ, 3, i) for i in range(3)]
    a = Subspace.span(QQ, 3, [e[0], e[1]])
    assert a.contains((Fraction(1), Fraction(1), Fraction(0)))
    assert not a.contains(e[2])
    assert Subspace.zero(QQ, 3).leq(a)


def test_ambient_mismatch_raises():
    a = Subspace.full(QQ, 2)
    b = Subspace.full(QQ, 3)
    with pytest.raises(AmbientMismatch):
        a.sum(b)
    with pytest.raises(AmbientMismatch):
        a.contains((QQ.zero,) * 3)


def test_complement_of_axis():
    a = Subspace.span(QQ, 2, [unit_vec(QQ, 2, 0)])
    assert a.complement_basis() == [unit_vec(QQ, 2, 1)]


def test_complement_of_full_space_empty():
    assert Subspace.full(QQ, 4).complement_basis() == []


def test_complement_of_diagonal_line():
    # pivot of span{e1+e2} is column 0, so the complement is e2
    a = Subspace.span(QQ, 2, [(Fraction(1), Fraction(1))])
    assert a.complement_basis() == [unit_vec(QQ, 2, 1)]


def test_complement_always_completes_basis():
    a = Subspace.span(QQ, 4, [(Fraction(1), Fraction(2), Fraction(0), Fraction(1)),
                              (Fraction(0), Fraction(0), Fraction(1), Fraction(3))])
    total = Subspace.span(QQ, 4, list(a.rows) + a.complement_basis())
    assert total == Subspace.full(QQ, 4)


# ---------------------------------------------------------------- nullspace

def test_nullspace_orthogonal_to_rows():
    m = qmat([[1, 2, 3], [0, 1, 1]])
    for v in nullspace(m):
        assert all(x == QQ.zero for x in m.matvec(v))
    assert len(nullspace(m)) == 1


# ---------------------------------------------------------------- properties

fractions_st = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7))


@st.composite
def q_matrices(draw, max_dim=4):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(fractions_st, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return Matrix(QQ, rows)


@st.composite
def fp_matrices(draw, p=5, max_dim=4):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return Matrix(Field(p), rows)


@given(q_matrices())
def test_rref_idempotent_q(m):
    r = rref(m)
    assert rref(r) == r


@given(fp_matrices())
def test_rref_idempotent_fp(m):
    r = rref(m)
    assert rref(r) == r


@given(q_matrices())
def test_rref_preserves_row_space(m):
    r = rref(m)
    s1 = Subspace.span(QQ, m.ncols, m.rows)
    s2 = Subspace.span(QQ, m.ncols, r.rows)
    assert s1 == s2


@given(q_matrices(max_dim=4), q_matrices(max_dim=4))
@settings(max_examples=60)
def test_dimension_formula(ma, mb):
    n = 4
    pad = lambda rows: [list(r) + [Fraction(0)] * (n - len(r)) for r in rows]
    a = Subspace.span(QQ, n, pad(ma.rows))
    b = Subspace.span(QQ, n, pad(mb.rows))
    assert (a + b).dim + (a & b).dim == a.dim + b.dim


def _scalars(F):
    return fractions_st if F.modulus is None else st.integers(0, F.modulus - 1)


@st.composite
def subspace_case(draw, n=4):
    """(S, gens, v): S spanned by the random generators gens, v a random vector."""
    F = draw(st.sampled_from([QQ, Field(2), Field(3), F5]))
    vec = st.tuples(*[_scalars(F)] * n)
    gens = draw(st.lists(vec, max_size=n))
    return Subspace.span(F, n, gens), gens, draw(vec)


def _in_span(S, v):
    # membership without reduce: adding v to the rows keeps the rank
    return Subspace.span(S.field, S.ambient_dim, list(S.rows) + [v]).dim == S.dim


@given(subspace_case())
def test_reduce_residual(case):
    S, _, v = case
    F = S.field
    r = S.reduce(v)
    assert _in_span(S, vec_sub(F, v, r))
    assert all(r[pc] == F.zero for pc in S.pivots)
    assert all(a == F.zero for a in r) == _in_span(S, v) == S.contains(v)


@given(subspace_case(), st.data())
def test_combine_inverts_coords(case, data):
    S, gens, _ = case
    F = S.field
    v = tuple(F.zero for _ in range(S.ambient_dim))
    for g in gens:
        v = vec_add(F, v, vec_scale(F, data.draw(_scalars(F)), g))
    w = S.coords(v)
    assert w is not None
    assert S.combine(w) == v


def _ref_matmul(A, B):
    # the textbook triple loop, kept independent of Matrix.matmul
    F = A.field
    out = []
    for row in A.rows:
        out_row = []
        for j in range(B.ncols):
            s = F.zero
            for k, a in enumerate(row):
                s = F.add(s, F.mul(a, B.rows[k][j]))
            out_row.append(s)
        out.append(out_row)
    return Matrix(F, out)


def _ref_is_nilpotent(M):
    # M^n = 0 by n successive products
    P = Matrix.identity(M.field, M.nrows)
    for _ in range(M.nrows):
        P = _ref_matmul(P, M)
    return all(a == M.field.zero for r in P.rows for a in r)


@st.composite
def square_pair(draw, max_dim=5):
    """(A, B): two random n x n matrices over one of Q, F_2, F_3, F_5."""
    F = draw(st.sampled_from([QQ, Field(2), Field(3), F5]))
    n = draw(st.integers(1, max_dim))
    mat = st.lists(st.lists(_scalars(F), min_size=n, max_size=n), min_size=n, max_size=n)
    return Matrix(F, draw(mat)), Matrix(F, draw(mat))


@st.composite
def nilpotent_conjugate(draw, max_dim=6):
    """P N P^-1 for strictly upper-triangular N; P is a product of elementary
    matrices E = I + c e_ij, whose inverses are I - c e_ij."""
    F = draw(st.sampled_from([QQ, Field(2), Field(3), F5]))
    n = draw(st.integers(1, max_dim))
    M = Matrix(F, [[draw(_scalars(F)) if j > i else F.zero for j in range(n)]
                   for i in range(n)])
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(_scalars(F))
        if i == j:
            continue
        E, E_inv = Matrix.identity(F, n), Matrix.identity(F, n)
        E.rows[i][j], E_inv.rows[i][j] = c, F.neg(c)
        M = _ref_matmul(_ref_matmul(E, M), E_inv)
    return M


@given(square_pair())
def test_matmul_matches_reference(pair):
    A, B = pair
    assert A.matmul(B) == _ref_matmul(A, B)


@given(square_pair())
def test_trace_of_product(pair):
    A, B = pair
    assert A.trace_of_product(B) == A.matmul(B).trace()


@given(square_pair())
def test_is_nilpotent_random(pair):
    A, _ = pair
    assert A.is_nilpotent() == _ref_is_nilpotent(A)


@given(nilpotent_conjugate())
def test_is_nilpotent_conjugate_of_strictly_upper(M):
    assert _ref_is_nilpotent(M)
    assert M.is_nilpotent()
    # adding the identity makes it invertible, hence not nilpotent
    F, n = M.field, M.nrows
    shifted = [[F.add(a, F.one if i == j else F.zero) for j, a in enumerate(r)]
               for i, r in enumerate(M.rows)]
    assert not Matrix(F, shifted, n).is_nilpotent()


@given(fractions_st, fractions_st, fractions_st)
def test_field_axioms_q(a, b, c):
    F = QQ
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == F.zero
    if a != F.zero:
        assert F.mul(a, F.inv(a)) == F.one


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_field_axioms_f7(x, y, z):
    F = Field(7)
    assert F.add(x, y) == F.add(y, x)
    assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
    assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
    assert F.add(x, F.neg(x)) == F.zero
    if x != 0:
        assert F.mul(x, F.inv(x)) == F.one


def test_field_requires_prime_modulus():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(1)


def test_field_accepts_large_mersenne_prime_quickly():
    t0 = time.perf_counter()
    assert Field(2**61 - 1).modulus == 2**61 - 1
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("n", [561, 41041, 56052361, 3215031751, 318665857834031151167461])
def test_field_rejects_pseudoprimes(n):
    # Carmichael numbers (56052361 = 211 * 421 * 631 has no factor the bases
    # divide), a strong pseudoprime to the bases 2, 3, 5, 7, and the least
    # strong pseudoprime to every prime base up to 37, which only 41 exposes
    with pytest.raises(ValueError):
        Field(n)


def test_field_rejects_modulus_beyond_exact_primality_bound():
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        Field(2**89 - 1)      # prime, but above the bound


def test_scalar_rejects_non_integers():
    with pytest.raises(TypeError):
        Field(3).scalar(1.5)
    with pytest.raises(TypeError):
        QQ.scalar(1, 2.0)
    assert Field(3).scalar(5, 2) == 1


# ---------------------------------------------------------------- counting

def test_gaussian_binomials():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert subspace_count(2, 2) == 5
    assert subspace_count(3, 2) == 16
    assert subspace_count(1, 5) == 2


def test_matrix_without_rows_keeps_its_columns():
    M = Matrix.from_columns(QQ, [(), (), ()])
    assert (M.nrows, M.ncols) == (0, 3)
    assert (M.transpose().nrows, M.transpose().ncols) == (3, 0)
    assert rref(M).ncols == 3
    assert M.matvec((1, 2, 3)) == ()
