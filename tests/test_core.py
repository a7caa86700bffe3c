import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import matrices
from dense import dense_basis
from leibnizalg import corpus
from leibnizalg.core import (
    LEFT,
    RIGHT,
    LeibnizAlgebra,
    bracket_span,
    center,
    check_leibniz,
    derived_series,
    direct_sum,
    embed_subspace,
    ideal_closure,
    is_ideal,
    is_lie,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    leibniz_kernel,
    liesation,
    lower_central_series,
    quotient,
    restrict,
)
from leibnizalg.errors import (
    AmbientMismatch,
    FieldMismatch,
    InternalInconsistency,
    NotAnIdeal,
    NotASubalgebra,
)
from leibnizalg.exactlin import QQ, Field, Subspace, unit_vec, zero_vec
from leibnizalg.fileformat import dumps_algebra, loads_algebra
from leibnizalg.oracle import reduce_mod_p
from leibnizalg.reports import VerificationReport


def ex1():
    return corpus.example1().algebra


def sl2():
    return corpus.sl2().algebra


def span_of(L, *vecs):
    return Subspace.span(L.field, L.dim, vecs)


# ---------------------------------------------------------------- identity

def test_example1_is_leibniz():
    assert check_leibniz(ex1()).passed


def test_abelian_is_leibniz():
    assert check_leibniz(corpus.abelian(4).algebra).passed


def test_broken_table_reported_with_both_sides():
    # [e1,e1] = e2, [e1,e2] = e1 violates the identity at (e1, e1, e1):
    # lhs [e1,[e1,e1]] = [e1,e2] = e1, rhs [[e1,e1],e1] - [[e1,e1],e1] = 0
    L = LeibnizAlgebra.from_products(QQ, 2, {(0, 0): {1: 1}, (0, 1): {0: 1}})
    rep = check_leibniz(L)
    assert not rep.passed
    bad = [w for w in rep.witnesses if w["indices"] == (0, 0, 0)]
    assert bad and bad[0]["lhs"] == unit_vec(QQ, 2, 0)
    assert bad[0]["rhs"] == zero_vec(QQ, 2)


def _check_leibniz_reference(L):
    """check_leibniz as four bracket calls per basis triple, in the field."""
    F = L.field
    failures = []
    for i in range(L.dim):
        ei = L.basis_vector(i)
        for j in range(L.dim):
            ej = L.basis_vector(j)
            for k in range(L.dim):
                ek = L.basis_vector(k)
                lhs = L.bracket(ei, L.bracket(ej, ek))
                rhs = tuple(matrices._reduce(F, a - b) for a, b in
                            zip(L.bracket(L.bracket(ei, ej), ek),
                                L.bracket(L.bracket(ei, ek), ej)))
                if lhs != rhs:
                    failures.append({
                        "triple": (L.labels[i], L.labels[j], L.labels[k]),
                        "indices": (i, j, k),
                        "lhs": lhs,
                        "rhs": rhs,
                    })
    return VerificationReport(
        name="leibniz-identity",
        passed=not failures,
        details={"triples_checked": L.dim ** 3, "failures": len(failures)},
        witnesses=failures,
    )


@st.composite
def sparse_table(draw, n_max=4):
    """A random table, mostly zeros so that some are Leibniz; over Q with
    denominators 1..4 and negative numerators."""
    F = draw(st.sampled_from([QQ, Field(2), Field(3), Field(5)]))
    n = draw(st.integers(0, n_max))
    nonzero = (st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
               if F.modulus is None else st.integers(1, F.modulus - 1))
    entry = st.one_of(st.just(F.zero), st.just(F.zero), nonzero)
    return LeibnizAlgebra(F, n, [[draw(st.lists(entry, min_size=n, max_size=n))
                                  for _ in range(n)] for _ in range(n)])


@given(sparse_table())
def test_check_leibniz_matches_reference_on_random_tables(L):
    assert check_leibniz(L) == _check_leibniz_reference(L)


def test_check_leibniz_matches_reference_on_corpus():
    # the gate packs every left factor i of a (j, k) into one int: tables
    # perturbed in 3 entries, in a dense basis, fail at triples spread over
    # several i and several (j, k), and the full report, in (i, j, k) order,
    # must match the reference
    rng = random.Random(11)
    spread = 0
    for e in corpus.standard_entries():
        algebras = [e.algebra] + [reduce_mod_p(e.algebra, p) for p in (2, 3)]
        for L in filter(None, algebras):
            assert check_leibniz(L) == _check_leibniz_reference(L), (e.name, L.field)
        D = dense_basis(e.algebra, rng)
        for L in filter(None, [D] + [reduce_mod_p(D, p) for p in (2, 3, 5)]):
            p = L.field.modulus
            shifts = [Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2))) if p is None
                      else rng.randrange(1, p) for _ in range(3)]
            broken = _perturbed(L, rng, shifts)
            rep = check_leibniz(broken)
            assert rep == _check_leibniz_reference(broken), (e.name, L.field)
            triples = [w["indices"] for w in rep.witnesses]
            assert triples == sorted(triples)
            spread += (len({i for i, _, _ in triples}) > 1
                       and len({(j, k) for _, j, k in triples}) > 1)
    assert spread >= 30


def test_check_leibniz_sees_a_failing_digit_of_an_int_divisible_by_p():
    # [e1,e1] = e1, [e1,e2] = e1 + e2, [e2,e2] = e1 + e2 over F_2.  At
    # (j, k) = (e1, e2) the identity holds for i = e1 and fails for i = e2.
    # The packed int of (e1, e2) is 0 mod 2 whatever the digit width, since
    # its lowest digit, the e1-component of the identity at (e1, e1, e2)
    # over Z, is 2: only the digit test of the quotient by p (the HIGH bits)
    # sees the odd digit of i = e2.
    L = LeibnizAlgebra.from_products(Field(2), 2, {(0, 0): {0: 1}, (0, 1): {0: 1, 1: 1},
                                                   (1, 1): {0: 1, 1: 1}})
    T = L.scaled_table()[1]

    def over_z(u, v):
        out = [0, 0]
        for a, ua in enumerate(u):
            for b, vb in enumerate(v):
                for k, c in T[a][b]:
                    out[k] += ua * vb * c
        return out

    e1, e2 = (1, 0), (0, 1)
    lowest = (over_z(e1, over_z(e1, e2))[0] - over_z(over_z(e1, e1), e2)[0]
              + over_z(over_z(e1, e2), e1)[0])
    assert lowest == 2
    rep = check_leibniz(L)
    assert rep == _check_leibniz_reference(L)
    failing = [w["indices"] for w in rep.witnesses]
    assert (1, 0, 1) in failing and (0, 0, 1) not in failing


# check_leibniz packs each scaled product d [e_i, e_m] into one int of B-bit
# digits, with B chosen so that every digit of a triple's sum stays below
# 2^(B-1) in absolute value.  These tables put the scaled entries, and so the
# digits, at that bound.

P61 = (1 << 61) - 1     # a prime just below 2^61


def _rescaled(L, scales):
    """L in the basis f_i = scales[i] e_i, where c_ij^k becomes
    c_ij^k s_i s_j / s_k: still Leibniz, with large entries."""
    F, n, p = L.field, L.dim, L.field.modulus
    inv = [1 / s if p is None else pow(s, -1, p) for s in scales]
    return LeibnizAlgebra(F, n, [[[matrices._reduce(F, L.table[i][j][k] * scales[i] * scales[j]
                                                    * inv[k])
                                   for k in range(n)] for j in range(n)] for i in range(n)],
                          L.labels)


def _perturbed(L, rng, shifts):
    """L with each shift added to a random entry of its table."""
    table = [[list(v) for v in row] for row in L.table]
    for c in shifts:
        i, j, k = (rng.randrange(L.dim) for _ in range(3))
        table[i][j][k] = matrices._reduce(L.field, table[i][j][k] + c)
    return LeibnizAlgebra(L.field, L.dim, table, L.labels)


def _largest_scaled_entry(L):
    return max(abs(c) for row in L.scaled_table()[1] for v in row for _, c in v)


def _packing_cases(F, rng, scale, shift):
    """Leibniz tables over F rescaled by scale(), each followed by two copies
    with entries shifted by shift()."""
    for L0 in (corpus.example2(6, 3).algebra, corpus.build("example1+sl2").algebra,
               dense_basis(corpus.example2(4, 2).algebra, random.Random(13))):
        L0 = L0 if F.modulus is None else reduce_mod_p(L0, F.modulus)
        L = _rescaled(L0, [scale() for _ in range(L0.dim)])
        yield L
        for count in (1, 3):
            yield _perturbed(L, rng, [shift() for _ in range(count)])


def test_check_leibniz_at_the_packing_bound_over_q():
    # large numerators over mixed denominators: d c, the lcm of the
    # denominators times an entry, reaches 2^63 to 2^649 here
    rng = random.Random(3)

    def big():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 2 ** 64), rng.randint(1, 10 ** 9))

    for L in _packing_cases(QQ, rng, big, big):
        assert _largest_scaled_entry(L) > 2 ** 62
        assert check_leibniz(L) == _check_leibniz_reference(L)


def test_check_leibniz_at_the_packing_bound_over_f_p61():
    # residues up to p - 1 ~ 2^61: products near 2^122 before reduction
    F, rng = Field(P61), random.Random(5)
    cases = list(_packing_cases(F, rng, lambda: rng.randrange(P61 - 2 ** 20, P61),
                                lambda: rng.randrange(1, P61)))
    cases.append(dense_basis(reduce_mod_p(corpus.example2(6, 3).algebra, P61), random.Random(7)))
    for L in cases:
        assert _largest_scaled_entry(L) > P61 - 2 ** 20
        assert check_leibniz(L) == _check_leibniz_reference(L)


def test_check_leibniz_digit_at_the_carry_bound():
    # [e1,e2] = e1, [e2,e1] = e1 + e2, [e2,e2] = e1 over F_2: M = 1 and
    # 3 n M^2 = 6, so B = 4.  At (e2, e2, e1) the e1-digit of the packed sum
    # is 4 (0 mod 2) and the e2-digit 1: the identity fails.  With one bit
    # fewer, 4 is no balanced 3-bit digit; it would be read as -4 with a
    # carry that makes the e2-digit 2, and the failure would be missed.
    L = LeibnizAlgebra.from_products(Field(2), 2, {(0, 1): {0: 1}, (1, 0): {0: 1, 1: 1},
                                                   (1, 1): {0: 1}})
    rep = check_leibniz(L)
    assert rep == _check_leibniz_reference(L)
    assert (1, 1, 0) in [w["indices"] for w in rep.witnesses]


def test_from_products_rejects_non_field_coefficients():
    with pytest.raises(TypeError):
        LeibnizAlgebra.from_products(QQ, 2, {(0, 0): {1: 1.5}})
    with pytest.raises(TypeError):
        LeibnizAlgebra.from_products(Field(3), 2, {(0, 0): {1: Fraction(1, 2)}})
    # False would otherwise be dropped as a zero, True taken as 1
    for F in (QQ, Field(3)):
        for b in (True, False):
            with pytest.raises(TypeError):
                LeibnizAlgebra.from_products(F, 1, {(0, 0): {0: b}})
    L = LeibnizAlgebra.from_products(QQ, 2, {(0, 0): {1: Fraction(1, 2)}, (1, 0): {1: 2}})
    assert L.table[0][0] == (0, Fraction(1, 2)) and L.table[1][0] == (0, 2)


def _typed(table):
    return [[[(type(c), c) for c in v] for v in row] for row in table]


def _rebuilds(L):
    """L built again from its dense table of field elements: by from_products
    with every component, zeros too, in decreasing k; by the constructor on
    ints where an entry is integral; by loading its file; and by loading a
    file whose components are in decreasing k and unreduced (over F_p also
    unreduced mod p), with an explicit zero at k = 0."""
    F, n, p = L.field, L.dim, L.field.modulus
    products = {(i, j): {k: v[k] for k in reversed(range(n))}
                for i, row in enumerate(L.table) for j, v in enumerate(row)}
    dense = [[[c.numerator if c.denominator == 1 else c for c in v] for v in row]
             for row in L.table]
    comps = lambda v: [[k, 3 * c.numerator, 3 * c.denominator] if p is None else
                       [k, (c + p) * (p + 1), p + 1]        # (c + p) (p + 1) / (p + 1) = c
                       for k, c in reversed([*enumerate(v)]) if c or k == 0]
    entries = [[i, j, *comps(v)] for i, row in enumerate(L.table) for j, v in enumerate(row)
               if any(v)]
    unreduced = json.dumps({"field": str(F), "dim": n, "basis": list(L.labels), "table": entries})
    return (LeibnizAlgebra.from_products(F, n, products, L.labels),
            LeibnizAlgebra(F, n, dense, L.labels),
            loads_algebra(dumps_algebra(L)), loads_algebra(unreduced))


def test_three_ways_to_build_an_algebra_agree():
    # from_products, the dense constructor and the loader all keep only the
    # scaled table: they give equal algebras with equal hashes, identical
    # (d, T) and files, and the same table view, Fractions over Q and
    # residues over F_p
    algebras = []
    for name in sorted(corpus.BUILDERS):
        L = corpus.build(name).algebra
        for M in [L] + [reduce_mod_p(L, p) for p in (2, 3, 5)]:
            if M is not None:
                algebras += [M, dense_basis(M, random.Random(f"{name} {M.field}"))]
    assert {str(L.field) for L in algebras} == {"Q", "F2", "F3", "F5"}
    # a non-reduced negative denominator, an explicit zero, components out of
    # order and, over F_3, 3 = 0
    hand = {
        "Q": ([[0, 0, [1, 2, -4], [2, 0, 1]], [2, 1, [2, 1, 1], [0, 3, 1]]], 2,
              [[((1, -1),), (), ()], [(), (), ()], [(), ((0, 6), (2, 2)), ()]]),
        "F3": ([[0, 0, [1, 2, -4], [2, 3, 1]], [2, 1, [0, 0, 1], [1, 4, 1]]], 1,
               [[((1, 1),), (), ()], [(), (), ()], [(), ((1, 1),), ()]]),
    }
    for field, (entries, d, T) in hand.items():
        L = loads_algebra(json.dumps({"field": field, "dim": 3, "basis": ["a", "b", "c"],
                                      "table": entries}))
        assert L.scaled_table() == (d, tuple(map(tuple, T)))
        algebras.append(L)
    for L in algebras:
        d, T = L.scaled_table()
        assert all(c for row in T for v in row for _, c in v)
        assert all([k for k, _ in v] == sorted({k for k, _ in v}) for row in T for v in row)
        text = dumps_algebra(L)
        element = Fraction if L.field.modulus is None else int
        assert {type(c) for row in L.table for v in row for c in v} <= {element}, L
        for M in _rebuilds(L):
            assert M == L and hash(M) == hash(L), (L, M)
            assert M.scaled_table() == (d, T) and _typed(M.table) == _typed(L.table)
            assert dumps_algebra(M) == text, (L, M)


def test_from_products_rejects_indices_outside_the_basis():
    # a negative index would wrap: (-1, 0) -> 1 would set [e2, e1] = e2
    for products, entry in (({(-1, 0): {1: 1}}, r"\(-1, 0\)"),
                            ({(0, 0): {2: 1}}, r"\(0, 0\): \{2: 1\}")):
        with pytest.raises(ValueError, match=entry):
            LeibnizAlgebra.from_products(QQ, 2, products)


def test_constructor_rejects_entries_outside_the_field():
    with pytest.raises(TypeError):
        LeibnizAlgebra(QQ, 1, [[[0.5]]])
    with pytest.raises(TypeError):
        LeibnizAlgebra(QQ, 1, [[[True]]])
    with pytest.raises(TypeError):
        LeibnizAlgebra(Field(3), 1, [[[Fraction(1)]]])
    for out_of_range in (3, -1):
        with pytest.raises(TypeError):
            LeibnizAlgebra(Field(3), 1, [[[out_of_range]]])
    # dim^3 entries in all, but one vector too long and one too short
    with pytest.raises(ValueError, match="length dim"):
        LeibnizAlgebra(QQ, 2, [[[1, 0, 1], [1]], [[0, 0], [0, 0]]])
    # the first failing vector decides: an entry outside the field before a short vector
    with pytest.raises(TypeError, match=r"\[e1, e1\]"):
        LeibnizAlgebra(Field(3), 2, [[[0, 5], [1]], [[0, 0], [0, 0]]])
    assert LeibnizAlgebra(QQ, 1, [[[Fraction(1, 2)]]]).table == (((Fraction(1, 2),),),)
    assert LeibnizAlgebra(QQ, 1, [[[2]]]).table == (((2,),),)
    assert LeibnizAlgebra(Field(3), 1, [[[2]]]).table == (((2,),),)


@st.composite
def table_and_vectors(draw, n_max=4):
    """A random bilinear table (not necessarily Leibniz) and two vectors."""
    F = draw(st.sampled_from([QQ, Field(2), Field(3), Field(5)]))
    n = draw(st.integers(1, n_max))
    scal = (st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
            if F.modulus is None else st.integers(0, F.modulus - 1))
    vec = st.lists(scal, min_size=n, max_size=n)
    table = [[draw(vec) for _ in range(n)] for _ in range(n)]
    return LeibnizAlgebra(F, n, table), tuple(draw(vec)), tuple(draw(vec))


@given(table_and_vectors())
def test_bracket_is_bilinear_extension_of_table(case):
    L, u, v = case
    F = L.field
    pairs = [(i, j) for i in range(L.dim) for j in range(L.dim)]
    expect = matrices.comb(F, L.dim, [u[i] * v[j] for i, j in pairs],
                           [L.table[i][j] for i, j in pairs])
    assert L.bracket(u, v) == tuple(expect)


@st.composite
def table_and_subspace(draw, n_max=4):
    """A random table (not necessarily Leibniz) over Q, F_2 or F_3 and a proper
    subspace A.  Half the time A = span(e_1..e_k) and the table is made to keep
    [A, L], [L, A], both or neither inside A, so that one-sided and two-sided
    ideals occur about as often as subspaces that are not closed."""
    F = draw(st.sampled_from([QQ, Field(2), Field(3)]))
    n = draw(st.integers(2, n_max))
    nonzero = (st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
               if F.modulus is None else st.integers(1, F.modulus - 1))
    vec = st.lists(st.one_of(st.just(F.zero), nonzero), min_size=n, max_size=n)
    table = [[draw(vec) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        keep_AL, keep_LA = draw(st.booleans()), draw(st.booleans())
        for i in range(n):
            for j in range(n):
                if (keep_AL and i < k) or (keep_LA and j < k):
                    table[i][j][k:] = [F.zero] * (n - k)
        A = Subspace.span(F, n, [unit_vec(F, n, i) for i in range(k)])
    else:
        A = Subspace.span(F, n, draw(st.lists(vec, min_size=1, max_size=n - 1)))
    return LeibnizAlgebra(F, n, table), A


@given(table_and_subspace())
def test_closure_tests_match_product_spans(case):
    L, A = case
    assert is_subalgebra(L, A) == (bracket_span(L, A, A) <= A)
    full = L.full_space()
    assert is_ideal(L, A) == (bracket_span(L, A, full) + bracket_span(L, full, A) <= A)
    # the series and restrict test closure on the products they form
    for f in (restrict, lower_central_series, derived_series, is_nilpotent, is_solvable):
        try:
            f(L, A)
            closed = True
        except NotASubalgebra:
            closed = False
        assert closed == is_subalgebra(L, A), f.__name__


# ---------------------------------------------------------------- operators
# the library builds no operator matrix; these pin the reference R_x and L_x
# of tests/matrices.py, read from the table, that the test references use

def test_right_mult_example1():
    L = ex1()
    R = matrices.right_mult(L, L.basis_vector(0))
    assert matrices.matvec(QQ, R, L.basis_vector(0)) == list(L.basis_vector(1))
    assert matrices.matvec(QQ, R, L.basis_vector(1)) == list(L.basis_vector(1))


def test_right_mult_zero_vector():
    L = ex1()
    assert matrices.right_mult(L, zero_vec(QQ, 2)) == [[0, 0], [0, 0]]


def test_right_mult_by_square_is_zero():
    # both products with x2 on the right vanish
    L = ex1()
    assert matrices.right_mult(L, L.basis_vector(1)) == [[0, 0], [0, 0]]


def test_right_mult_linear_in_x():
    L = sl2()
    x = (Fraction(2), Fraction(-1), Fraction(3))
    R = [matrices.right_mult(L, L.basis_vector(i)) for i in range(3)]
    expect = [[sum(c * Ri[r][s] for c, Ri in zip(x, R)) for s in range(3)] for r in range(3)]
    assert matrices.right_mult(L, x) == expect


def _corpus_over_q_and_small_primes():
    for e in corpus.standard_entries():
        yield e.name, e.algebra
        for p in (2, 3):
            Lp = reduce_mod_p(e.algebra, p)
            if Lp is not None:
                yield f"{e.name} mod {p}", Lp


def test_mult_operators_match_bracket_columns():
    rng = random.Random(7)
    for name, L in _corpus_over_q_and_small_primes():
        F = L.field
        for _ in range(4):
            x = tuple(F.scalar(rng.randint(-3, 3), rng.randint(1, 3) if F.modulus is None else 1)
                      for _ in range(L.dim))
            cols_r = [L.bracket(L.basis_vector(i), x) for i in range(L.dim)]
            cols_l = [L.bracket(x, L.basis_vector(i)) for i in range(L.dim)]
            for op, cols in ((matrices.right_mult, cols_r), (matrices.left_mult, cols_l)):
                assert [tuple(c) for c in matrices.transpose(op(L, x), L.dim)] == cols, name


# ---------------------------------------------------------------- spans

def test_bracket_span_example1():
    L = ex1()
    assert bracket_span(L, L.full_space(), L.full_space()) == span_of(L, L.basis_vector(1))


def test_bracket_span_with_zero():
    L = ex1()
    assert bracket_span(L, L.full_space(), L.zero_space()).dim == 0


def test_bracket_span_sl2_is_full():
    L = sl2()
    assert bracket_span(L, L.full_space(), L.full_space()) == L.full_space()


# ---------------------------------------------------------------- ideals

def test_kernel_is_ideal_example1():
    L = ex1()
    assert is_ideal(L, span_of(L, L.basis_vector(1)))


def test_span_e1_not_subalgebra_example1():
    L = ex1()
    assert not is_subalgebra(L, span_of(L, L.basis_vector(0)))


def test_trivial_ideals():
    L = sl2()
    assert is_ideal(L, L.zero_space())
    assert is_ideal(L, L.full_space())


def test_ideal_closure_sl2_from_h():
    L = sl2()
    assert ideal_closure(L, span_of(L, L.basis_vector(2))) == L.full_space()


def test_ideal_closure_fixed_on_ideals():
    L = ex1()
    I = span_of(L, L.basis_vector(1))
    assert ideal_closure(L, I) == I


def test_ideal_closure_example2():
    L = corpus.example2(2, 1).algebra
    # [x2, y] = x2 drags x2 into any ideal containing y
    got = ideal_closure(L, span_of(L, L.basis_vector(2)))
    assert got == span_of(L, L.basis_vector(1), L.basis_vector(2))


def test_products_match_the_reference_brackets_with_each_basis_vector():
    # every corpus algebra in a dense basis, over Q and mod 2, 3 and 5, with
    # u = 0, each unit vector and random integer (residue) vectors
    rng = random.Random(41)
    checked = 0
    for e in corpus.standard_entries():
        for p in (None, 2, 3, 5):
            L = e.algebra if p is None else reduce_mod_p(e.algebra, p)
            if L is None:
                continue
            L = dense_basis(L, rng)
            n = L.dim
            units = [[int(i == j) for j in range(n)] for i in range(n)]
            draw = (lambda: rng.randint(-3, 3)) if p is None else (lambda: rng.randrange(p))
            for u in [[0] * n, *units] + [[draw() for _ in range(n)] for _ in range(4)]:
                right, left = L.products(u, RIGHT), L.products(u, LEFT)
                # each product is its nonzero entries by increasing index, residues over F_p
                for w in right + left:
                    assert [k for k, _ in w] == sorted({k for k, _ in w})
                    assert all(c and (p is None or 0 < c < p) for _, c in w)
                assert [matrices.dense(n, w) for w in right] == [
                    matrices.scaled_bracket(L, u, e_j) for e_j in units], (e.name, p, u)
                assert [matrices.dense(n, w) for w in left] == [
                    matrices.scaled_bracket(L, e_j, u) for e_j in units], (e.name, p, u)
                # [u, v] by linearity from either side, as residues over F_p
                v = [draw() for _ in range(n)]
                assert (L.by_linearity(v, right) == matrices.scaled_bracket(L, u, v)
                        == L.by_linearity(u, L.products(v, LEFT))), (e.name, p, u, v)
                checked += 1
    assert checked > 300


# ---------------------------------------------------------------- kernel

def test_kernel_example1():
    L = ex1()
    assert leibniz_kernel(L) == span_of(L, L.basis_vector(1))


def test_kernel_example2():
    for n, r in [(2, 1), (3, 1), (4, 2)]:
        L = corpus.example2(n, r).algebra
        expect = Subspace.span(QQ, n + 1, [L.basis_vector(i) for i in range(r, n)])
        assert leibniz_kernel(L) == expect


def test_kernel_of_lie_algebra_is_zero():
    assert leibniz_kernel(sl2()).dim == 0
    assert leibniz_kernel(corpus.heisenberg().algebra).dim == 0


def test_kernel_killed_by_left_products():
    # [x, y^2] = 0 is forced by the identity with equal last arguments
    for e in corpus.standard_entries():
        L = e.algebra
        I = leibniz_kernel(L)
        for i in range(L.dim):
            for g in I.rows:
                assert L.bracket(L.basis_vector(i), g) == zero_vec(QQ, L.dim)


# ---------------------------------------------------------------- quotients

def test_quotient_example1_by_kernel():
    L = ex1()
    qp = quotient(L, leibniz_kernel(L))
    assert qp.quotient.dim == 1
    assert all(v == zero_vec(QQ, 1) for row in qp.quotient.table for v in row)


def test_quotient_by_zero_is_isomorphic_copy():
    L = sl2()
    qp = quotient(L, L.zero_space())
    assert qp.quotient.table == L.table


def test_quotient_by_full_space():
    L = sl2()
    qp = quotient(L, L.full_space())
    assert qp.quotient.dim == 0


def test_quotient_by_full_space_projects_onto_zero():
    L = corpus.heisenberg().algebra
    qp = quotient(L, L.full_space())
    assert [qp.project_vector(L.basis_vector(i)) for i in range(3)] == [()] * 3
    assert qp.project_subspace(L.full_space()) == Subspace.zero(QQ, 0)


def test_quotient_requires_ideal():
    L = ex1()
    with pytest.raises(NotAnIdeal):
        quotient(L, span_of(L, L.basis_vector(0)))


def test_quotient_projection_section_identity():
    L = corpus.example2(3, 1).algebra
    qp = quotient(L, leibniz_kernel(L))
    for t, rep in enumerate(qp.section):
        assert qp.project_vector(rep) == unit_vec(QQ, qp.quotient.dim, t)


def test_quotient_well_defined_under_section_shifts():
    rng = random.Random(7)
    for e in corpus.standard_entries():
        L = e.algebra
        I = leibniz_kernel(L)
        if I.dim == 0:
            continue
        qp = quotient(L, I)
        for _ in range(5):
            reps = []
            for s in qp.section:
                shift = matrices.comb(QQ, L.dim, [rng.randint(-3, 3) for _ in I.rows], I.rows)
                reps.append([a + b for a, b in zip(s, shift)])
            table = [[qp.project_vector(L.bracket(a, b)) for b in reps] for a in reps]
            assert tuple(tuple(v for v in row) for row in table) == qp.quotient.table


def test_liesation_is_lie_everywhere():
    for e in corpus.standard_entries():
        assert is_lie(liesation(e.algebra).quotient)


def test_liesation_example2_abelian_of_dim_r_plus_1():
    qp = liesation(corpus.example2(3, 1).algebra)
    assert qp.quotient.dim == 2
    assert all(v == zero_vec(QQ, 2) for row in qp.quotient.table for v in row)


# ---------------------------------------------------------------- is_lie

def test_is_lie():
    assert is_lie(sl2())
    assert is_lie(corpus.abelian(2).algebra)
    assert not is_lie(ex1())
    # [x, x] = x2 is antisymmetric mod 2 but not alternating
    assert not is_lie(reduce_mod_p(corpus.nilcyclic2().algebra, 2))


def test_is_lie_sums_mod_p_and_over_scaled_entries():
    F3 = Field(3)
    # c_12 + c_21 = 1 + 2 = 0 mod 3, but not as integers
    assert is_lie(LeibnizAlgebra.from_products(F3, 3, {(0, 1): {2: 1}, (1, 0): {2: 2}}))
    assert not is_lie(LeibnizAlgebra.from_products(F3, 3, {(0, 1): {2: 1}, (1, 0): {2: 1}}))
    half = Fraction(1, 2)
    assert is_lie(LeibnizAlgebra.from_products(QQ, 3, {(0, 1): {2: half}, (1, 0): {2: -half}}))
    assert not is_lie(LeibnizAlgebra.from_products(QQ, 3, {(0, 1): {2: half},
                                                           (1, 0): {2: half}}))
    assert not is_lie(LeibnizAlgebra.from_products(QQ, 3, {(0, 1): {2: half},
                                                           (1, 0): {2: -1}}))


# ---------------------------------------------------------------- series

def test_series_example1():
    L = ex1()
    lcs = lower_central_series(L)
    assert [s.dim for s in lcs] == [2, 1, 1]
    ds = derived_series(L)
    assert [s.dim for s in ds] == [2, 1, 0]


def test_series_abelian():
    L = corpus.abelian(3).algebra
    assert [s.dim for s in lower_central_series(L)] == [3, 0]
    assert [s.dim for s in derived_series(L)] == [3, 0]


def test_series_terms_are_ideals():
    for e in corpus.standard_entries():
        L = e.algebra
        for term in lower_central_series(L):
            assert is_ideal(L, term)


def test_series_monotone():
    for e in corpus.standard_entries():
        L = e.algebra
        for seq in (lower_central_series(L), derived_series(L)):
            for a, b in zip(seq, seq[1:]):
                assert b <= a


def test_nilpotent_solvable_flags():
    assert not is_nilpotent(ex1()) and is_solvable(ex1())
    assert not is_nilpotent(sl2()) and not is_solvable(sl2())
    assert is_nilpotent(corpus.heisenberg().algebra)


def test_engel_cross_check():
    # nilpotency iff every basis right multiplication is nilpotent,
    # computed independently of the series
    for e in corpus.standard_entries():
        L = e.algebra
        by_series = is_nilpotent(L)
        by_engel = all(matrices.is_nilpotent(QQ, matrices.right_mult(L, L.basis_vector(i)))
                       for i in range(L.dim))
        assert by_series == by_engel, e.name


# ---------------------------------------------------------------- direct sums

def test_direct_sum_kernel_distributes():
    L = direct_sum(ex1(), sl2())
    assert L.dim == 5
    assert leibniz_kernel(L) == Subspace.span(QQ, 5, [unit_vec(QQ, 5, 1)])


def test_direct_sum_with_zero_dim():
    A = ex1()
    Z = LeibnizAlgebra(QQ, 0, [])
    assert direct_sum(A, Z).table == A.table


def test_direct_sum_abelian():
    L = direct_sum(corpus.abelian(2).algebra, corpus.abelian(3).algebra)
    assert is_nilpotent(L) and leibniz_kernel(L).dim == 0


def test_direct_sum_series_distribute():
    A, B = ex1(), corpus.heisenberg().algebra
    L = direct_sum(A, B)
    la = lower_central_series(A)
    lb = lower_central_series(B)
    ll = lower_central_series(L)
    for k in range(max(len(la), len(lb))):
        da = la[min(k, len(la) - 1)].dim
        db = lb[min(k, len(lb) - 1)].dim
        assert ll[min(k, len(ll) - 1)].dim == da + db


# ---------------------------------------------------------------- restriction

def test_restrict_diagonal_line_is_abelian():
    L = ex1()
    B = span_of(L, (Fraction(1), Fraction(-1)))
    LB = restrict(L, B)
    assert LB.dim == 1 and LB.table[0][0] == zero_vec(QQ, 1)


def test_restrict_full_space_is_same_table():
    L = sl2()
    assert restrict(L, L.full_space()).table == L.table


def test_restrict_borel_of_sl2():
    L = sl2()
    B = span_of(L, L.basis_vector(0), L.basis_vector(2))  # span{e, h}
    LB = restrict(L, B)
    assert is_solvable(LB) and not is_nilpotent(LB)
    assert LB.table[0][0] == zero_vec(QQ, 2)


def test_restrict_requires_subalgebra():
    # and so do the series of a subspace of L
    L = ex1()
    A = span_of(L, L.basis_vector(0))
    for f in (restrict, lower_central_series, derived_series, is_nilpotent, is_solvable):
        with pytest.raises(NotASubalgebra):
            f(L, A)


def test_restrict_and_series_check_the_ambient_of_a_zero_subspace():
    # a zero subspace has no products to test, so only the ambient check rejects it
    L = corpus.heisenberg().algebra
    for f in (restrict, lower_central_series, derived_series, is_nilpotent, is_solvable):
        with pytest.raises(AmbientMismatch):
            f(L, Subspace.zero(QQ, L.dim + 1))
        with pytest.raises(FieldMismatch):
            f(L, Subspace.zero(Field(3), L.dim))


def test_tables_vectors_and_operands_of_the_wrong_shape_or_field_are_rejected():
    L = ex1()
    with pytest.raises(ValueError, match="dim x dim"):
        LeibnizAlgebra(QQ, 2, [[(0, 0)]])
    with pytest.raises(ValueError, match="one label per basis vector"):
        LeibnizAlgebra.from_products(QQ, 2, {}, ["a"])
    with pytest.raises(AmbientMismatch):
        L.bracket((1, 0, 0), (1, 0))
    with pytest.raises(FieldMismatch):
        direct_sum(L, reduce_mod_p(L, 3))
    with pytest.raises(AmbientMismatch):
        embed_subspace(L.full_space(), Subspace.zero(QQ, 3))


def test_leibniz_kernel_of_a_table_breaking_the_identity_is_no_ideal():
    # [e1, e3] = -e2, [e3, e1] = -e1, [e3, e3] = -e3: the squares span
    # span(e3, e1 + e2), and [e1, e3] = -e2 lies outside it
    L = LeibnizAlgebra.from_products(QQ, 3, {(0, 2): {1: -1}, (2, 0): {0: -1},
                                             (2, 2): {2: -1}})
    assert not check_leibniz(L).passed
    with pytest.raises(InternalInconsistency, match="span of squares is not an ideal"):
        leibniz_kernel(L)


def test_embed_roundtrip():
    L = sl2()
    B = span_of(L, L.basis_vector(0), L.basis_vector(2))
    S = Subspace.span(QQ, 2, [(Fraction(1), Fraction(2))])
    back = embed_subspace(B, S)
    assert back.dim == 1 and back <= B


# ---------------------------------------------------------------- center

def test_center_heisenberg():
    L = corpus.heisenberg().algebra
    assert center(L) == span_of(L, L.basis_vector(2))


def test_center_abelian():
    L = corpus.abelian(3).algebra
    assert center(L) == L.full_space()


def test_center_example1_trivial():
    assert center(ex1()).dim == 0
