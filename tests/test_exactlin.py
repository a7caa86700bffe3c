from fractions import Fraction

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matrices
from leibnizalg.errors import AmbientMismatch, FieldMismatch
from leibnizalg.exactlin import (
    PRIME_BOUND,
    QQ,
    Field,
    Subspace,
    from_scaled,
    gaussian_binomial,
    nullspace,
    subspace_count,
    unit_vec,
)


F5 = Field(5)


def qmat(rows):
    return [[Fraction(a) for a in r] for r in rows]


# ---------------------------------------------------------------- rref

def rref_rows(F, n, vectors):
    """The RREF rows of a span, as Subspace.span computes them."""
    return [list(r) for r in Subspace.span(F, n, vectors).rows]


def test_rref_dependent_rows_collapse():
    assert rref_rows(QQ, 2, qmat([[0, 1], [0, 2]])) == [[0, 1]]


def test_rref_identity_fixed():
    assert Subspace.span(QQ, 3, [unit_vec(QQ, 3, i) for i in range(3)]) == Subspace.full(QQ, 3)


def test_rref_pivot_normalization():
    assert rref_rows(QQ, 2, qmat([[2, 4]])) == [[1, 2]]


def test_rref_of_int_entries_stays_exact():
    r = rref_rows(QQ, 2, [[2, 4], [3, 1]])
    assert r == [[1, 0], [0, 1]] and all(type(a) is Fraction for row in r for a in row)
    r = rref_rows(QQ, 2, [[2, 4]])
    assert r == [[1, 2]] and all(type(a) is Fraction for a in r[0])


def test_rref_over_prime_field():
    assert rref_rows(F5, 2, [[2, 4], [1, 3]]) == [[1, 0], [0, 1]]


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


def test_ints_outside_the_residues_are_reduced_mod_p():
    F3 = Field(3)
    # (3, 1) is (0, 1) mod 3: its span is the second axis, not an error
    assert Subspace.span(F3, 2, [(3, 1)]) == Subspace.span(F3, 2, [(0, 1)])
    assert Subspace.span(F3, 2, [(-1, 4)]) == Subspace.span(F3, 2, [(2, 1)])
    assert Subspace.span(F3, 2, [(3, 6), (0, -3)]) == Subspace.zero(F3, 2)
    # (0, 3) is the zero vector mod 3, so every subspace holds it
    assert Subspace.zero(F3, 2).contains([0, 3])
    assert not Subspace.zero(F3, 2).contains([0, 4])
    line = Subspace.span(F3, 2, [(1, 1)])
    assert line.contains([4, -2]) and not line.contains([3, 1])
    r, D = line.scaled_residual([7, 3])
    assert (r, D) == ([0, 2], 1) == line.scaled_residual([1, 0])


def test_ambient_mismatch_raises():
    a = Subspace.full(QQ, 2)
    b = Subspace.full(QQ, 3)
    with pytest.raises(AmbientMismatch):
        a.sum(b)
    with pytest.raises(AmbientMismatch):
        a.contains((QQ.zero,) * 3)
    with pytest.raises(AmbientMismatch):
        a.scaled_residual((1, 2, 3))
    with pytest.raises(AmbientMismatch):
        a.where_zero([(1,)])
    with pytest.raises(FieldMismatch):
        a.sum(Subspace.full(F5, 2))


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
    m = [[1, 2, 3], [0, 1, 1]]
    for v in nullspace(QQ, 3, m):
        assert all(type(a) is int for a in v)
        assert matrices.matvec(QQ, m, v) == [0, 0]
    assert nullspace(QQ, 3, m) == [[-1, -1, 1]]


# ---------------------------------------------------------------- properties

fractions_st = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7))


@st.composite
def q_matrices(draw, max_dim=4):
    """The rows of a random matrix over Q, at least one row and one column."""
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    return draw(st.lists(st.lists(fractions_st, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


@st.composite
def fp_matrices(draw, max_dim=4):
    """The rows of a random matrix over F_5, at least one row and one column."""
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    return draw(st.lists(st.lists(st.integers(0, 4), min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


@given(q_matrices())
def test_rref_idempotent_q(m):
    r = Subspace.span(QQ, len(m[0]), m)
    assert Subspace.span(QQ, len(m[0]), r.rows) == r


@given(fp_matrices())
def test_rref_idempotent_fp(m):
    r = Subspace.span(F5, len(m[0]), m)
    assert Subspace.span(F5, len(m[0]), r.rows) == r


@given(q_matrices())
def test_rref_preserves_row_space(m):
    assert rref_rows(QQ, len(m[0]), m) == matrices.rref(QQ, m, len(m[0]))


@given(q_matrices(max_dim=4), q_matrices(max_dim=4))
@settings(max_examples=60)
def test_dimension_formula(ma, mb):
    n = 4
    pad = lambda rows: [list(r) + [Fraction(0)] * (n - len(r)) for r in rows]
    a = Subspace.span(QQ, n, pad(ma))
    b = Subspace.span(QQ, n, pad(mb))
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
    r = from_scaled(F, *S.scaled_residual(v))
    assert _in_span(S, [matrices._reduce(F, a - b) for a, b in zip(v, r)])
    assert all(r[pc] == F.zero for pc in S.pivots)
    assert all(a == F.zero for a in r) == _in_span(S, v) == S.contains(v)


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
    # a bool is an int to isinstance, but no field element
    for F in (QQ, Field(3)):
        for args in ((True,), (False,), (1, True)):
            with pytest.raises(TypeError):
                F.scalar(*args)
    assert Field(3).scalar(5, 2) == 1


# ---------------------------------------------------------------- counting

def test_gaussian_binomials():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert subspace_count(2, 2) == 5
    assert subspace_count(3, 2) == 16
    assert subspace_count(1, 5) == 2


def test_matrix_without_rows_keeps_its_columns():
    # a system with no rows leaves every column free; one with no columns
    # has only the empty solution
    assert nullspace(QQ, 3, []) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace(Field(2), 2, []) == [[1, 0], [0, 1]]
    assert nullspace(QQ, 0, []) == nullspace(QQ, 0, [(), ()]) == []
    # a map into the zero space vanishes everywhere
    full = Subspace.full(QQ, 3)
    assert full.where_zero([(), (), ()]) == full
    assert Subspace.zero(QQ, 3).where_zero([]) == Subspace.zero(QQ, 3)


# ---------------------------------------------------------------- the insertion routine

def _ref_span(F, n, vectors):
    """RREF rows of a span by the reference Gauss-Jordan, as Subspace.rows."""
    return tuple(tuple(r) for r in matrices.rref(F, vectors, n))


def _ref_nullspace_of_columns(F, cols):
    """The reference kernel of the matrix with these columns."""
    return matrices.nullspace(F, matrices.transpose(cols, len(cols[0]) if cols else 0), len(cols))


def _ref_intersect(S, T):
    # x = U^T a = V^T b: solve [U^T | -V^T] (a; b) = 0
    F = S.field
    if not S.rows or not T.rows:
        return _ref_span(F, S.ambient_dim, [])
    cols = [list(r) for r in S.rows] + [[matrices._reduce(F, -a) for a in r] for r in T.rows]
    ker = _ref_nullspace_of_columns(F, cols)
    return _ref_span(F, S.ambient_dim, [matrices.comb(F, S.ambient_dim, k[:S.dim], S.rows)
                                        for k in ker])


def _ref_center(L):
    # the kernel of the 2n stacked multiplication matrices
    rows = []
    for j in range(L.dim):
        rows.extend(matrices.right_mult(L, L.basis_vector(j)))
        rows.extend(matrices.left_mult(L, L.basis_vector(j)))
    return _ref_span(L.field, L.dim, matrices.nullspace(L.field, rows, L.dim))


def _ref_largest_contained_ideal(L, K):
    V = K
    while V.dim:
        cond_cols = []
        for u in V.rows:
            col = []
            for j in range(L.dim):
                ej = L.basis_vector(j)
                col.extend(from_scaled(L.field, *V.scaled_residual(L.bracket(u, ej))))
                col.extend(from_scaled(L.field, *V.scaled_residual(L.bracket(ej, u))))
            cond_cols.append(col)
        ker = _ref_nullspace_of_columns(L.field, cond_cols)
        ref = _ref_span(L.field, L.dim, [matrices.comb(L.field, L.dim, k, V.rows) for k in ker])
        W = Subspace(L.field, L.dim, ref)
        if W.dim == V.dim:
            break
        V = W
    return _ref_span(L.field, L.dim, V.rows)


def _types(rows):
    return [[type(a) for a in r] for r in rows]


def _scalars_mixed(F):
    # over Q, ints as well as Fractions: the RREF must still be all Fractions
    return st.one_of(st.integers(-4, 4), fractions_st) if F.modulus is None else _scalars(F)


@st.composite
def vector_lists(draw, F, n, max_size=7):
    """Vectors in F^n, with zero rows, duplicate rows and combinations of
    earlier rows mixed in; possibly empty, possibly more rows than columns."""
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        kind = draw(st.sampled_from(["random", "zero", "copy", "combination"]))
        if kind == "zero" or (kind != "random" and not out):
            v = [0 if F.modulus is not None or draw(st.booleans()) else Fraction(0)] * n
        elif kind == "copy":
            v = list(draw(st.sampled_from(out)))
        elif kind == "combination":
            u, w = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            a, b = draw(_scalars(F)), draw(_scalars(F))
            v = [matrices._reduce(F, a * x + b * y) for x, y in zip(u, w)]
        else:
            v = [draw(_scalars_mixed(F)) for _ in range(n)]
        out.append(v)
    return out


fields_st = st.sampled_from([QQ, Field(2), Field(3), F5])


@st.composite
def span_case(draw, max_n=5):
    F = draw(fields_st)
    n = draw(st.integers(0, max_n))
    return F, n, draw(vector_lists(F, n))


@given(span_case())
def test_span_matches_gauss_jordan(case):
    F, n, vecs = case
    S = Subspace.span(F, n, vecs)
    ref = _ref_span(F, n, vecs)
    assert S.rows == ref and _types(S.rows) == _types(ref)
    assert all(F.is_element(a) and (F.modulus is not None or type(a) is Fraction)
               for r in S.rows for a in r)
    assert S.pivots == tuple(next(c for c, a in enumerate(r) if a) for r in ref)


@given(span_case(), st.data())
def test_sum_extends_the_left_basis(case, data):
    F, n, vecs = case
    left = data.draw(st.sampled_from(["span", "zero", "full"]))
    if left == "span":
        more = data.draw(vector_lists(F, n))
        S = Subspace.span(F, n, more)
    else:
        S = Subspace.zero(F, n) if left == "zero" else Subspace.full(F, n)
        more = list(S.rows)
    T = Subspace.span(F, n, vecs)
    total = S + T
    ref = _ref_span(F, n, list(more) + vecs)
    assert total == Subspace.span(F, n, list(more) + vecs)
    assert total.rows == ref and _types(total.rows) == _types(ref)


def _integers(F):
    return st.integers(-30, 30) if F.modulus is None else st.integers(0, F.modulus - 1)


@given(span_case(), st.data())
def test_where_zero_matches_the_old_cut(case, data):
    # images[i] is the image of the scaled row i, an integer vector
    F, n, vecs = case
    S = Subspace.span(F, n, vecs)
    m = data.draw(st.integers(0, 4))
    images = [data.draw(st.lists(_integers(F), min_size=m, max_size=m)) for _ in S.rows]
    W = S.where_zero(images)
    ker = matrices.nullspace(F, matrices.transpose(images, m), S.dim)
    ref = _ref_span(F, n, [matrices.comb(F, n, k, S.scaled_rows) for k in ker])
    assert W.rows == ref and _types(W.rows) == _types(ref)


@st.composite
def integer_systems(draw, max_n=5):
    """(F, rows, ncols): integer rows over Q (residues over F_2 and F_5),
    with zero rows, copies and combinations of earlier rows mixed in;
    possibly no rows, possibly no columns."""
    F = draw(st.sampled_from([QQ, Field(2), F5]))
    ncols = draw(st.integers(0, max_n))
    entry = _integers(F)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["random", "random", "zero", "copy", "combination"]))
        if kind == "zero" or (kind != "random" and not rows):
            v = [0] * ncols
        elif kind == "copy":
            v = list(draw(st.sampled_from(rows)))
        elif kind == "combination":
            u, w = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(entry), draw(entry)
            v = [a * x + b * y for x, y in zip(u, w)]
            if F.modulus is not None:
                v = [c % F.modulus for c in v]
        else:
            v = [draw(entry) for _ in range(ncols)]
        rows.append(v)
    return F, rows, ncols


@given(integer_systems())
def test_nullspace_matches_the_reference(case):
    F, rows, ncols = case
    ker = nullspace(F, ncols, rows)
    ref = matrices.nullspace(F, rows, ncols)
    pivots = [next(c for c, a in enumerate(r) if a) for r in matrices.rref(F, rows, ncols)]
    free = [c for c in range(ncols) if c not in pivots]
    # integer vectors (residues over F_p) with the reference's span
    assert all(type(a) is int and (F.modulus is None or F.is_element(a)) for v in ker for a in v)
    assert _ref_span(F, ncols, ker) == _ref_span(F, ncols, ref)
    assert all(not any(matrices.matvec(F, rows, v)) for v in ker)
    assert len(ker) == ncols - len(pivots) == len(ref)
    # one vector per free column, nonzero there and zero at the other free
    # columns; so the last (constant) column's entry is nonzero exactly when
    # that column is free
    assert [[bool(v[c]) for c in free] for v in ker] == [[c == fc for c in free] for fc in free]
    if ncols:
        assert bool(ker and ker[-1][-1]) == (ncols - 1 in free)


@given(span_case(), st.data())
def test_intersect_matches_the_kernel_method(case, data):
    F, n, vecs = case
    S = Subspace.span(F, n, vecs)
    T = Subspace.span(F, n, data.draw(vector_lists(F, n)))
    ref = _ref_intersect(S, T)
    assert (S & T).rows == ref and _types((S & T).rows) == _types(ref)


@st.composite
def sparse_algebras(draw, max_n=4):
    """A random bilinear table, mostly zero, over Q or F_2, F_3, F_5; the
    centre and the contained ideals need no Leibniz identity."""
    from leibnizalg.core import LeibnizAlgebra

    F = draw(fields_st)
    n = draw(st.integers(0, max_n))
    entry = st.one_of(st.just(F.zero), st.just(F.zero), _scalars(F))
    table = [[[draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return LeibnizAlgebra(F, n, table)


@given(sparse_algebras())
@settings(max_examples=60)
def test_center_matches_the_stacked_multiplications(L):
    from leibnizalg.core import center

    Z = center(L)
    ref = _ref_center(L)
    assert Z.rows == ref and _types(Z.rows) == _types(ref)


@given(sparse_algebras(), st.data())
@settings(max_examples=60)
def test_largest_contained_ideal_matches_the_condition_columns(L, data):
    from leibnizalg.core import is_ideal, largest_contained_ideal

    K = Subspace.span(L.field, L.dim, data.draw(vector_lists(L.field, L.dim)))
    J = largest_contained_ideal(L, K)
    ref = _ref_largest_contained_ideal(L, K)
    assert J.rows == ref and _types(J.rows) == _types(ref)
    assert J <= K and is_ideal(L, J)


@st.composite
def containment_cases(draw):
    """(S, T) over Q, F_2 or F_3.  Half the time S is spanned by rows of T
    with entries added at T's non-pivot columns right of each row's pivot:
    every pivot column of S is then one of T's, and S lies in T only if all
    the added entries are 0."""
    F = draw(st.sampled_from([QQ, Field(2), Field(3)]))
    n = draw(st.integers(1, 5))
    T = Subspace.span(F, n, draw(vector_lists(F, n)))
    if draw(st.booleans()):
        return Subspace.span(F, n, draw(vector_lists(F, n))), T
    free = [c for c in range(n) if c not in T.pivots]
    vecs = []
    for row, pc in zip(T.rows, T.pivots):
        if draw(st.booleans()):
            v = list(row)
            for c in free:
                if c > pc:
                    v[c] = matrices._reduce(F, v[c] + draw(_scalars(F)))
            vecs.append(v)
    return Subspace.span(F, n, vecs), T


@given(containment_cases())
@example((Subspace.span(QQ, 2, [(1, 1)]), Subspace.span(QQ, 2, [(1, 0)])))
@example((Subspace.span(Field(2), 3, [(1, 0, 1)]), Subspace.span(Field(2), 3, [(1, 0, 0), (0, 1, 0)])))
@settings(max_examples=200)
def test_leq_is_containment_in_the_sum(case):
    # the pivot-column guard of leq decides some pairs before any row is reduced
    S, T = case
    assert S.leq(T) == (S + T == T)
    assert (S <= T) == S.leq(T)


# ---------------------------------------------------------------- spin

spin_fields = [QQ, Field(2), F5]


def units(n, *indices):
    return [tuple(int(j == i) for j in range(n)) for i in indices]


@pytest.mark.parametrize("F", spin_fields, ids=str)
@pytest.mark.parametrize("n", range(1, 6))
def test_spin_under_the_cyclic_shift_takes_n_minus_1_rounds(F, n):
    # from e_1 each round adds the next unit vector, and the last one fills
    # the space: the shift is applied to e_1 .. e_(n-1), one per round
    mapped = []

    def shift(v):
        mapped.append(tuple(v))
        return [tuple(v[-1:]) + tuple(v[:-1])]

    assert Subspace.span(F, n, units(n, 0)).spin(shift) == Subspace.full(F, n)
    assert mapped == units(n, *range(n - 1))


@pytest.mark.parametrize("F", spin_fields, ids=str)
@pytest.mark.parametrize("n", range(2, 6))
def test_spin_under_a_nilpotent_shift_stops_short_of_the_space(F, n):
    # e_i -> e_(i+1), e_n -> 0: from e_2 the closure is span(e_2 .. e_n)
    def shift(v):
        return [(0,) + tuple(v[:-1])]

    V = Subspace.span(F, n, units(n, 1)).spin(shift)
    assert V == Subspace.span(F, n, units(n, *range(1, n))) and V.dim == n - 1


@pytest.mark.parametrize("F", spin_fields, ids=str)
def test_spin_stops_in_the_middle_of_a_round_once_the_space_is_full(F):
    n = 4

    def every_unit(v):
        # a generator resumed after its last unit vector filled the space raises
        yield from units(n, *range(n))
        raise AssertionError("images read after the span was full")

    assert Subspace.span(F, n, units(n, 0)).spin(every_unit) == Subspace.full(F, n)

    # two starting rows: the image of the first fills the space, and the
    # second is never mapped
    calls = []

    def to_the_rest(v):
        if calls:
            raise AssertionError("images called after the span was full")
        calls.append(v)
        return units(n, 2, 3)

    assert Subspace.span(F, n, units(n, 0, 1)).spin(to_the_rest) == Subspace.full(F, n)
    assert calls == units(n, 0)


@given(span_case())
def test_spin_under_maps_with_no_new_images_is_the_subspace(case):
    F, n, vecs = case
    S = Subspace.span(F, n, vecs)
    assert S.spin(lambda v: ()) == S
    assert S.spin(lambda v: [(0,) * n, v]) == S


def test_spin_refuses_an_image_of_the_wrong_length():
    S = Subspace.span(QQ, 3, units(3, 0))
    for image in [(1, 0), (0, 0), (0, 0, 0, 1)]:
        with pytest.raises(AmbientMismatch):
            S.spin(lambda v: [image])


@given(span_case(max_n=4), st.data())
@settings(max_examples=60)
def test_spin_is_the_fixed_point_of_the_maps(case, data):
    # the reference adds every image of the whole basis until the span stops
    # growing, by Gauss-Jordan on field elements
    F, n, vecs = case
    maps = [[[data.draw(_scalars(F)) for _ in range(n)] for _ in range(n)]
            for _ in range(data.draw(st.integers(0, 2)))]
    ref = _ref_span(F, n, vecs)
    while True:
        grown = _ref_span(F, n, [*ref, *[matrices.matvec(F, M, v) for M in maps for v in ref]])
        if len(grown) == len(ref):
            break
        ref = grown
    V = Subspace.span(F, n, vecs).spin(lambda v: [matrices.matvec(F, M, v) for M in maps])
    assert V == Subspace.span(F, n, ref)
