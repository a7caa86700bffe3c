"""The scaled-integer kernel against the field-element algorithms it replaced.

Brackets, spans, sums, residuals, membership, coordinates, bracket spans and
the ideal and subalgebra tests run on integer numerators over a common
denominator.  The references below are the earlier Fraction versions of the
same algorithms, kept verbatim in spirit: one vector at a time, Fraction
arithmetic throughout.  The char-0 radicals read their trace functionals off
the scaled table and test nilpotency by image chains; these are compared with
traces and powers of operator matrices (tests/matrices.py).  The algebras
that quotient, restrict, direct_sum and reduce_mod_p build from the scaled
table, and the subspaces and witnesses read off it, are compared with their
earlier constructions on field elements, over Q and over F_p.
"""

import random
from bisect import bisect
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matrices
from dense import dense_basis
from leibnizalg import corpus
from leibnizalg.core import (
    LeibnizAlgebra,
    bracket_span,
    check_leibniz,
    derived_series,
    direct_sum,
    embed_subspace,
    ideal_closure,
    is_ideal,
    is_subalgebra,
    leibniz_kernel,
    quotient,
    restrict,
)
from leibnizalg.errors import AmbientMismatch, BudgetExceeded
from leibnizalg.exactlin import QQ, Field, Subspace, from_scaled, to_scaled
from leibnizalg.oracle import reduce_mod_p
from leibnizalg.radicals import (
    _complement_B,
    _complement_subalgebra,
    _right_action_on_kernel_nilpotent,
    _stable_image,
    _traces,
    nilradical,
    radical,
)


# ---------------------------------------------------------------- Fraction references

def ref_lin_comb(n, coeffs, vectors):
    out = [Fraction(0)] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for k, b in enumerate(v):
                if b:
                    out[k] += c * b
    return tuple(out)


def ref_bracket(L, u, v):
    v_nz = [(j, b) for j, b in enumerate(v) if b]
    coeffs, products = [], []
    for a, row in zip(u, L.table):
        if a:
            for j, b in v_nz:
                coeffs.append(a * b)
                products.append(row[j])
    return ref_lin_comb(L.dim, coeffs, products)


def ref_eliminate(res, rows, pivots):
    for row, pc in zip(rows, pivots):
        c = res[pc]
        if c:
            for j, b in enumerate(row):
                if b:
                    res[j] = res[j] - c * b


def ref_insert(n, rows, vectors):
    """RREF rows of span(rows + vectors) by one-at-a-time Fraction insertion."""
    rows = [list(r) for r in rows]
    pivots = [next(c for c, a in enumerate(r) if a) for r in rows]
    for v in vectors:
        if len(rows) == n:
            continue
        res = list(v)
        ref_eliminate(res, rows, pivots)
        pc = next((j for j, a in enumerate(res) if a), None)
        if pc is None:
            continue
        inv = 1 / Fraction(res[pc])
        res = [inv * a for a in res]
        for row in rows:
            if row[pc]:
                ref_eliminate(row, (res,), (pc,))
        k = bisect(pivots, pc)
        rows.insert(k, res)
        pivots.insert(k, pc)
    return tuple(tuple(r) for r in rows)


def ref_reduce(rows, v):
    res = list(v)
    ref_eliminate(res, rows, [next(c for c, a in enumerate(r) if a) for r in rows])
    return tuple(res)


def ref_contains(rows, v):
    return not any(ref_reduce(rows, v))


def ref_coords(rows, v):
    if not ref_contains(rows, v):
        return None
    return tuple(v[next(c for c, a in enumerate(r) if a)] for r in rows)


def ref_bracket_span(L, A_rows, B_rows):
    return ref_insert(L.dim, (), [ref_bracket(L, a, b) for a in A_rows for b in B_rows])


def ref_is_subalgebra(L, A_rows):
    return all(ref_contains(A_rows, ref_bracket(L, a, b)) for a in A_rows for b in A_rows)


def ref_is_ideal(L, A_rows):
    units = [tuple(Fraction(int(i == j)) for i in range(L.dim)) for j in range(L.dim)]
    return all(ref_contains(A_rows, ref_bracket(L, a, e))
               and ref_contains(A_rows, ref_bracket(L, e, a))
               for a in A_rows for e in units)


def ref_ideal_closure(L, rows):
    L_rows = ref_insert(L.dim, (), [[int(i == j) for i in range(L.dim)] for j in range(L.dim)])
    while True:
        products = [ref_bracket(L, a, b) for a in rows for b in L_rows]
        products += [ref_bracket(L, b, a) for a in rows for b in L_rows]
        grown = ref_insert(L.dim, rows, products)
        if len(grown) == len(rows):
            return rows
        rows = grown


# ---------------------------------------------------------------- inputs

# denominators 2, 3 and 6 as well as integers, of either sign
scalars = st.one_of(st.just(Fraction(0)), st.just(0),
                    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 6])),
                    st.integers(-3, 3))


@st.composite
def vectors(draw, n):
    kind = draw(st.sampled_from(["random", "random", "zero", "sparse", "ints"]))
    if kind == "zero":
        return [Fraction(0)] * n if draw(st.booleans()) else [0] * n
    if kind == "ints":
        return [draw(st.integers(-3, 3)) for _ in range(n)]
    if kind == "sparse" and n:
        v = [Fraction(0)] * n
        v[draw(st.integers(0, n - 1))] = draw(scalars.filter(bool))
        return v
    return [draw(scalars) for _ in range(n)]


@st.composite
def vector_lists(draw, n, max_size=7):
    """Vectors in Q^n, possibly empty; sometimes an independent triangular
    set first, so that the span is full before the list ends."""
    out = []
    if n and draw(st.booleans()):
        for i in range(n):
            v = [Fraction(0)] * i + [draw(scalars.filter(bool))]
            out.append(v + [draw(scalars) for _ in range(n - i - 1)])
        out = draw(st.permutations(out))
    out += draw(st.lists(vectors(n), max_size=max_size))
    return out


@st.composite
def algebras(draw, max_n=4):
    """A random bilinear table over Q, about half of its entries zero; the
    kernel under test does not need the Leibniz identity."""
    n = draw(st.integers(0, max_n))
    entry = st.one_of(st.just(Fraction(0)), scalars)
    table = [[[draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return LeibnizAlgebra(QQ, n, [[[Fraction(c) for c in v] for v in row] for row in table])


@st.composite
def algebra_subspaces(draw, L):
    """Rows of a random span, of an ideal closure (an ideal, so also a
    subalgebra), of 0 or of L."""
    n = L.dim
    kind = draw(st.sampled_from(["span", "ideal", "zero", "full"]))
    if kind == "zero":
        return ()
    if kind == "full":
        return ref_insert(n, (), [[int(i == j) for i in range(n)] for j in range(n)])
    rows = ref_insert(n, (), draw(vector_lists(n, max_size=3)))
    return ref_ideal_closure(L, rows) if kind == "ideal" else rows


def all_fractions(v):
    return all(type(a) is Fraction for a in v)


# ---------------------------------------------------------------- comparisons

@given(algebras(), st.data())
def test_bracket_matches_the_fraction_bracket(L, data):
    u, v = data.draw(vectors(L.dim)), data.draw(vectors(L.dim))
    w = L.bracket(u, v)
    assert w == ref_bracket(L, u, v) and all_fractions(w)


@given(st.integers(0, 5).flatmap(lambda n: st.tuples(st.just(n), vector_lists(n),
                                                     vector_lists(n), vectors(n))))
def test_span_and_sum_match_the_fraction_insertion(case):
    # zero vectors, integer, Fraction and mixed vectors, and vectors after
    # the span is full; then membership and residuals through the reduction
    # plan that the sum kept from its insertions
    n, vecs, more, v = case
    S, T = Subspace.span(QQ, n, vecs), Subspace.span(QQ, n, more)
    ref = ref_insert(n, (), vecs)
    assert S.rows == ref and all(all_fractions(r) for r in S.rows)
    # the scaled form is canonical: equal to the one built from the RREF rows
    assert S == Subspace(QQ, n, ref) and S.scaled_rows == Subspace(QQ, n, ref).scaled_rows
    assert hash(S) == hash(Subspace(QQ, n, ref))
    ref_sum = ref_insert(n, ref, more)
    assert (S + T).rows == ref_sum and S + T == Subspace(QQ, n, ref_sum)
    assert (S + T).rows == Subspace.span(QQ, n, vecs + more).rows
    U = S + T
    assert all(U.contains(w) for w in vecs + more)
    assert U.contains(v) == ref_contains(ref_sum, v)
    assert from_scaled(QQ, *U.scaled_residual(v)) == ref_reduce(ref_sum, v)
    # the same answers from a subspace that builds its plan from its rows
    fresh = Subspace(QQ, n, ref_sum)
    assert fresh.contains(v) == U.contains(v) and fresh.scaled_residual(v) == U.scaled_residual(v)


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(vector_lists(n), vectors(n))),
       st.booleans())
def test_reduce_contains_and_coords_match_the_fraction_elimination(case, inside):
    vecs, v = case
    n = len(v)
    S = Subspace.span(QQ, n, vecs)
    ref = ref_insert(n, (), vecs)
    if inside and ref:
        v = list(ref_lin_comb(n, v[:len(ref)], ref))
    r = from_scaled(QQ, *S.scaled_residual(v))
    assert r == ref_reduce(ref, v) and all_fractions(r)
    assert S.contains(v) == ref_contains(ref, v)
    if S.contains(v):
        # a member's coordinates in the RREF basis are its entries at the
        # pivot columns, which restrict and theorem 2's witness read
        assert tuple(v) == ref_lin_comb(n, ref_coords(ref, v), ref)


@given(algebras(), st.data())
@settings(max_examples=60)
def test_bracket_span_and_closure_tests_match_the_fraction_algorithms(L, data):
    A_rows = data.draw(algebra_subspaces(L))
    B_rows = data.draw(algebra_subspaces(L))
    A, B = Subspace(QQ, L.dim, A_rows), Subspace(QQ, L.dim, B_rows)
    P = bracket_span(L, A, B)
    ref = ref_bracket_span(L, A_rows, B_rows)
    assert P.rows == ref and P == Subspace(QQ, L.dim, ref)
    assert is_ideal(L, A) == ref_is_ideal(L, A_rows)
    assert is_subalgebra(L, A) == ref_is_subalgebra(L, A_rows)


def test_scaled_form_round_trip_keeps_zero_a_fraction():
    v = (Fraction(1, 2), Fraction(0), Fraction(-5, 6), Fraction(1, 3))
    assert to_scaled(QQ, v) == ([3, 0, -5, 2], 6)
    w = from_scaled(QQ, *to_scaled(QQ, v))
    assert w == v and all_fractions(w)


def test_a_full_span_still_length_checks_the_remaining_vectors():
    with pytest.raises(AmbientMismatch):
        Subspace.span(QQ, 2, [(1, 0), (Fraction(1, 2), 1), (1, 2, 3)])


# ---------------------------------------------------------------- trace functionals and image chains

@given(algebras(), st.data())
def test_traces_match_the_trace_of_the_product(L, data):
    # _traces(L, cols) is d (tr(R_{e_i} M))_i, M the integer matrix with columns cols
    n = L.dim
    cols = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                              min_size=n, max_size=n))
    M = [[c[r] for c in cols] for r in range(n)]
    # R_{e_i} has column l equal to [e_l, e_i]
    R = [[[L.table[l][i][m] for l in range(n)] for m in range(n)] for i in range(n)]
    d = L.scaled_table()[0]
    assert _traces(L, cols) == [d * matrices.trace_of_product(QQ, Ri, M) for Ri in R]


def _restricted_operator(L, V, x):
    """The matrix of R_x on the R_x-invariant V, in V's RREF basis: the
    coordinates of a vector of V are its entries at the pivot columns."""
    cols = [L.bracket(u, x) for u in V.rows]
    assert all(V.contains(c) for c in cols)
    return [[c[pc] for c in cols] for pc in V.pivots]


@st.composite
def algebras_over_small_fields(draw, max_n=4):
    """A random bilinear table over Q, F_2, F_3 or F_5, about half zero."""
    F = draw(st.sampled_from([QQ, Field(2), Field(3), Field(5)]))
    if F.modulus is None:
        return draw(algebras(max_n))
    n = draw(st.integers(0, max_n))
    entry = st.one_of(st.just(0), st.integers(0, F.modulus - 1))
    return LeibnizAlgebra(F, n, [[[draw(entry) for _ in range(n)] for _ in range(n)]
                                 for _ in range(n)])


@given(algebras_over_small_fields(), st.data())
@settings(max_examples=150)
def test_stable_image_vanishes_exactly_when_R_x_is_nilpotent(L, data):
    F, n = L.field, L.dim
    scalar = scalars if F.modulus is None else st.integers(0, F.modulus - 1)
    # ints stand for themselves over Q and are residues over F_p
    x = data.draw(st.lists(scalar, min_size=n, max_size=n))
    if data.draw(st.booleans()):
        V = L.full_space()
    else:
        gens = data.draw(st.lists(st.lists(scalar, min_size=n, max_size=n), max_size=2))
        V = ideal_closure(L, Subspace.span(F, n, gens))
    W = _stable_image(L, V, x)
    assert W <= V
    assert (W.dim == 0) == matrices.is_nilpotent(F, _restricted_operator(L, V, x))


def _acting_by(F, M):
    """F^n + span(x) with [v, x] = M v and every other product zero; V = F^n
    is an ideal, and R_x is M on V and 0 on x."""
    n = len(M)
    return LeibnizAlgebra.from_products(F, n + 1, {(i, n): {k: M[k][i] for k in range(n)}
                                                   for i in range(n)})


@st.composite
def nilpotent_conjugate(draw, max_dim=6):
    """P N P^-1 for strictly upper-triangular N, as a list of rows; P is a
    product of elementary matrices E = I + c e_ij, whose inverses are I - c e_ij."""
    F = draw(st.sampled_from([QQ, Field(2), Field(3), Field(5)]))
    n = draw(st.integers(1, max_dim))
    scalar = (st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 6]))
              if F.modulus is None else st.integers(0, F.modulus - 1))
    M = [[draw(scalar) if j > i else F.zero for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(scalar)
        if i == j:
            continue
        E, E_inv = matrices.identity(F, n), matrices.identity(F, n)
        E[i][j], E_inv[i][j] = c, matrices._reduce(F, -c)
        M = matrices.matmul(F, matrices.matmul(F, E, M), E_inv)
    return F, M


@given(nilpotent_conjugate())
@example((QQ, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]))
def test_stable_image_of_a_conjugate_of_strictly_upper(case):
    F, M = case
    n = len(M)
    assert matrices.is_nilpotent(F, M)
    L = _acting_by(F, M)
    x, V = L.basis_vector(n), Subspace.span(F, n + 1, [L.basis_vector(i) for i in range(n)])
    assert _stable_image(L, L.full_space(), x).dim == 0
    assert _stable_image(L, V, x).dim == 0
    # adding the identity makes M invertible: the chain stops at V at once
    shifted = [[matrices._reduce(F, a + int(i == j)) for j, a in enumerate(r)]
               for i, r in enumerate(M)]
    L = _acting_by(F, shifted)
    assert _stable_image(L, L.full_space(), x) == V
    assert _stable_image(L, V, x) == V


# ---------------------------------------------------------------- algebras built from the scaled table

def ref_residual(F, rows, v):
    """v less its entry at each pivot column times that RREF row, in F."""
    res = list(v)
    for row in rows:
        c = res[next(j for j, a in enumerate(row) if a)]
        res = [matrices._reduce(F, a - c * b) for a, b in zip(res, row)]
    return res


def ref_coords_in(F, A, v):
    assert not any(ref_residual(F, A.rows, v))
    return tuple(v[pc] for pc in A.pivots)


def ref_quotient(L, J):
    """L/J on the units at J's non-pivot columns, from the residuals of the
    brackets of the section; returns the algebra and the projection."""
    F, piv = L.field, set(J.pivots)

    def coset(v):
        return tuple(a for c, a in enumerate(ref_residual(F, J.rows, v)) if c not in piv)

    section = J.complement_basis()
    table = [[coset(L.bracket(s, t)) for t in section] for s in section]
    labels = [label + "~" for c, label in enumerate(L.labels) if c not in piv]
    return LeibnizAlgebra(F, len(section), table, labels), coset


def ref_restrict(L, A):
    table = [[ref_coords_in(L.field, A, L.bracket(u, v)) for v in A.rows] for u in A.rows]
    return LeibnizAlgebra(L.field, A.dim, table, [f"b{i+1}" for i in range(A.dim)])


def ref_direct_sum(A, B):
    F, n = A.field, A.dim + B.dim
    table = [[[F.zero] * n for _ in range(n)] for _ in range(n)]
    for M, off in ((A, 0), (B, A.dim)):
        for i in range(M.dim):
            for j in range(M.dim):
                for k in range(M.dim):
                    table[off + i][off + j][off + k] = M.table[i][j][k]
    return LeibnizAlgebra(F, n, table, list(A.labels) + list(B.labels))


def ref_reduce_mod_p(L, p):
    F = Field(p)
    try:
        table = [[[F.scalar(c.numerator, c.denominator) for c in v] for v in row]
                 for row in L.table]
    except ZeroDivisionError:
        return None
    Lp = LeibnizAlgebra(F, L.dim, table, L.labels)
    return Lp if check_leibniz(Lp).passed else None


def ref_embed(A, S):
    F, n = A.field, A.ambient_dim
    return Subspace.span(F, n, [matrices.comb(F, n, r, A.rows) for r in S.rows])


def ref_witnesses(L, I, X):
    """(n, matrix of R_n on I) for each RREF row n of X with R_n|_I not
    nilpotent, the matrix from I-coordinates of the brackets."""
    F, out = L.field, []
    for n in X.rows:
        cols = [ref_coords_in(F, I, L.bracket(u, n)) for u in I.rows]
        M = [[c[r] for c in cols] for r in range(I.dim)]
        if not matrices.is_nilpotent(F, M):
            out.append({"n": n, "restricted_matrix": tuple(zip(*cols))})
    return out


def _types(x):
    if isinstance(x, (tuple, list)):
        return [_types(a) for a in x]
    return type(x)


def assert_same_algebra(M, R, name):
    assert M.field == R.field and M.dim == R.dim, name
    assert M.scaled_table() == R.scaled_table(), name
    assert M.labels == R.labels, name
    assert M.table == R.table and _types(M.table) == _types(R.table), name


BUDGET = 3000       # subspaces for the scan of verify's B search


def reference_cases():
    """Every corpus entry in its sparse basis and in two dense bases, over Q
    and in its admissible reductions mod 2, 3 and 5; the reductions are
    checked against the entrywise reference on the way."""
    for e in corpus.standard_entries():
        for L in (e.algebra, *(dense_basis(e.algebra, random.Random(s)) for s in (1, 2))):
            yield e.name, L
            for p in (2, 3, 5):
                Lp = reduce_mod_p(L, p)
                ref = ref_reduce_mod_p(L, p)
                assert (Lp is None) == (ref is None), (e.name, p)
                if Lp is not None:
                    assert_same_algebra(Lp, ref, (e.name, p))
                    yield f"{e.name} mod {p}", Lp


def _verify_B(L, I):
    """The B that verify runs theorem 2 on, or None."""
    try:
        return _complement_B(quotient(L, I), _complement_subalgebra(L, I), BUDGET)
    except BudgetExceeded:
        return None


def test_algebras_from_the_scaled_table_match_the_field_element_constructions():
    count = 0
    for name, L in reference_cases():
        F = L.field
        I = leibniz_kernel(L)
        N = nilradical(L).subspace
        R = radical(L).subspace
        B = _verify_B(L, I)
        spaces = [S for S in (I, N, R, B, L.full_space()) if S is not None]
        for J in (I, N, R):
            qp = quotient(L, J)
            ref, coset = ref_quotient(L, J)
            assert_same_algebra(qp.quotient, ref, (name, J))
            for v in [L.basis_vector(i) for i in range(L.dim)] + [r for S in spaces for r in S.rows]:
                w = qp.project_vector(v)
                assert w == coset(v) and _types(w) == _types(coset(v)), (name, v)
            for S in spaces:
                assert qp.project_subspace(S) == Subspace.span(F, ref.dim,
                                                               [coset(r) for r in S.rows]), name
        for A in spaces:
            LA = restrict(L, A)
            assert_same_algebra(LA, ref_restrict(L, A), (name, A))
            ones = Subspace.span(F, A.dim, [[1] * A.dim])
            for S in (LA.full_space(), leibniz_kernel(LA), derived_series(LA)[:2][-1], ones):
                assert embed_subspace(A, S) == ref_embed(A, S), (name, A, S)
        for X in spaces:
            holds, witnesses = _right_action_on_kernel_nilpotent(L, I, X)
            ref = ref_witnesses(L, I, X)
            assert witnesses == ref and _types(witnesses[:1]) == _types(ref[:1]), (name, X)
            assert holds == (not ref)
        Q = quotient(L, I).quotient
        assert_same_algebra(direct_sum(L, Q), ref_direct_sum(L, Q), name)
        assert_same_algebra(direct_sum(Q, L), ref_direct_sum(Q, L), name)
        count += 1
    assert count > 80


@pytest.mark.parametrize("entry, p, expect", [
    (Fraction(1, 6), 2, None), (Fraction(1, 6), 3, None), (Fraction(1, 6), 5, 1),
    (Fraction(2, 4), 2, None), (Fraction(2, 4), 3, 2), (Fraction(2, 4), 5, 3),
    (Fraction(5, 3), 2, 1), (Fraction(5, 3), 3, None), (Fraction(5, 3), 5, 0),
])
def test_reduce_mod_p_reads_the_denominators_off_d(entry, p, expect):
    # [x, x] = entry y: nilpotent, so Leibniz mod every p; a reduction
    # exists iff p divides no denominator, that is, not d
    L = LeibnizAlgebra.from_products(QQ, 2, {(0, 0): {1: entry}})
    Lp = reduce_mod_p(L, p)
    assert (Lp is None) == (expect is None) == (ref_reduce_mod_p(L, p) is None)
    if Lp is not None:
        assert Lp.table[0][0] == (0, expect) and Lp == ref_reduce_mod_p(L, p)
