import json
import random
import sys
from dataclasses import fields
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

import matrices
from dense import dense_basis
from lattice_reference import theorem2_premises_hold
from leibnizalg import corpus
from leibnizalg.core import (
    LeibnizAlgebra,
    bracket_span,
    check_leibniz,
    derived_series,
    direct_sum,
    embed_subspace,
    is_ideal,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    leibniz_kernel,
    liesation,
    lower_central_series,
    quotient,
    restrict,
)
from leibnizalg.errors import InternalInconsistency, Unsupported
from leibnizalg.exactlin import QQ, Field, Subspace, nullspace, scaled_comb, unit_vec
from leibnizalg.radicals import (
    _cut,
    _right_mult_algebra,
    find_complement_B,
    frattini_ideal,
    nilradical,
    radical,
    verify,
)
from leibnizalg.reports import VerificationReport, _jsonable, dumps_json


def span_of(L, *vecs):
    return Subspace.span(L.field, L.dim, vecs)


def small_reductions():
    """(name, algebra) for every admissible F_2 and F_3 reduction of the corpus
    with at most 374 subspaces (F_2^5)."""
    from leibnizalg.exactlin import subspace_count
    from leibnizalg.oracle import reduce_mod_p

    out = []
    for e in corpus.standard_entries():
        for p in (2, 3):
            if subspace_count(e.algebra.dim, p) > 374:
                continue
            Lp = reduce_mod_p(e.algebra, p)
            if Lp is not None:
                out.append((f"{e.name} mod {p}", Lp))
    return out


# ---------------------------------------------------------------- radical

def test_radical_example1_is_whole_algebra():
    L = corpus.example1().algebra
    res = radical(L)
    assert res.subspace == L.full_space()
    assert res.method == "trace-form-char0"
    assert all(res.certificates.values())


def test_radical_sl2_is_zero():
    assert radical(corpus.sl2().algebra).subspace.dim == 0


def test_radical_of_direct_sum_is_solvable_summand():
    e2 = corpus.example2(2, 1)
    L = direct_sum(e2.algebra, corpus.sl2().algebra)
    expect = Subspace.span(QQ, 6, [unit_vec(QQ, 6, i) for i in range(3)])
    assert radical(L).subspace == expect


def test_radical_contains_nilradical_everywhere():
    for e in corpus.standard_entries():
        L = e.algebra
        assert nilradical(L).subspace <= radical(L).subspace


def test_semisimple_quotient_has_nondegenerate_killing_form():
    for e in corpus.standard_entries():
        L = e.algebra
        R = radical(L).subspace
        qp = quotient(L, R)
        lam = qp.quotient
        m = lam.dim
        if m == 0:
            continue
        ads = [matrices.left_mult(lam, lam.basis_vector(i)) for i in range(m)]
        gram = [[matrices.trace_of_product(QQ, ads[i], ads[j]) for j in range(m)]
                for i in range(m)]
        assert len(Subspace.span(QQ, m, gram).rows) == m, e.name


def test_radical_pullback_property():
    # R(L/I) = R(L)/I on every char-0 corpus entry
    for e in corpus.standard_entries():
        L = e.algebra
        qp = liesation(L)
        lhs = radical(qp.quotient).subspace
        rhs = qp.project_subspace(radical(L).subspace)
        assert lhs == rhs, e.name


# ---------------------------------------------------------------- nilradical

def test_nilradical_example1():
    L = corpus.example1().algebra
    assert nilradical(L).subspace == span_of(L, L.basis_vector(1))


def test_nilradical_example2():
    for n, r in [(2, 1), (3, 1), (3, 2), (4, 0)]:
        L = corpus.example2(n, r).algebra
        expect = Subspace.span(QQ, n + 1, [L.basis_vector(i) for i in range(n)])
        assert nilradical(L).subspace == expect


def test_nilradical_sl2_zero_and_abelian_full():
    assert nilradical(corpus.sl2().algebra).subspace.dim == 0
    L = corpus.abelian(4).algebra
    assert nilradical(L).subspace == L.full_space()


def _dot_product_cut(C, functionals):
    """The cut of C as where_zero formed it before the whole-space path: the
    images f . r of every scaled row r, and the kernel vectors combining the
    scaled rows."""
    F, n, rows = C.field, C.ambient_dim, C.scaled_rows
    images = [[sum(a * b for a, b in zip(f, r)) for f in functionals] for r in rows]
    ker = nullspace(F, C.dim, list(zip(*images)))
    return Subspace.span(F, n, [scaled_comb(F, n, k, rows) for k in ker])


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=n + 2),
    st.sampled_from(["random", "empty", "zeros"]))))
def test_whole_space_cut_matches_the_dot_product_cut(case):
    n, functionals, kind = case
    if kind == "empty":
        functionals = []
    elif kind == "zeros":
        functionals = [[0] * n for _ in functionals]
    L = LeibnizAlgebra.from_products(QQ, n, {})
    cut = _cut(L, functionals)
    assert cut == _dot_product_cut(L.full_space(), functionals)
    if kind != "random":
        assert cut == L.full_space()


def test_radical_of_an_abelian_algebra_cuts_with_no_functionals():
    # [L, L] = 0, so the cut has no functionals and keeps all of L
    L = corpus.abelian(3).algebra
    assert L.derived_space().dim == 0
    res = radical(L)
    assert res.subspace == L.full_space()
    assert res.method == "trace-form-char0"
    assert res.certificates and all(res.certificates.values())


def four_cycle(lie):
    """V = Q^4 with x acting by the 4-cycle permutation A: [v, x] = Av, and
    [x, v] = -Av in the Lie case."""
    products = {(i, 4): {(i + 1) % 4: 1} for i in range(4)}
    if lie:
        products.update({(4, i): {(i + 1) % 4: -1} for i in range(4)})
    return LeibnizAlgebra.from_products(QQ, 5, products)


def hemisemidirect():
    """span(E11, E12) in gl_2 acting on the right of M = F^2 (see test_oracle)."""
    return LeibnizAlgebra.from_products(QQ, 4, {
        (0, 1): {1: 1}, (1, 0): {1: -1}, (2, 0): {2: 1}, (2, 1): {3: 1}})


@pytest.mark.parametrize("lie", [False, True])
def test_nilradical_refinement_cuts_what_trace_forms_miss(lie):
    # tr(A) = tr(A^2) = 0 although A is invertible, so the trace-form cut
    # keeps x; the radical of the right multiplications, taken on all of L,
    # removes it.  The nilradical is V.
    L = four_cycle(lie)
    res = nilradical(L)
    assert res.subspace == span_of(L, *[L.basis_vector(i) for i in range(4)])
    assert res.method == "right-mult-radical" and all(res.certificates.values())


def test_q_nilradical_falls_back_to_the_right_mult_radical(monkeypatch):
    # were the image chain of the trace-form cut to stall, N is taken from all
    # of L as { x : R_x in Rad(A) }, which over Q is its first level alone;
    # the first cut of example1 is N, so only the patch sends it there
    from leibnizalg import radicals

    L = corpus.example1().algebra
    first = nilradical(L)
    assert first.method == "trace-form"
    N = first.subspace
    failed, real = [], radicals._stable_image

    def stall_once(L, V, *xs):
        if failed:
            return real(L, V, *xs)
        failed.append(True)
        return V

    monkeypatch.setattr(radicals, "_stable_image", stall_once)
    res = nilradical(L)
    assert failed and res.subspace == N
    assert res.method == "right-mult-radical" and all(res.certificates.values())


@pytest.mark.parametrize("lie", [False, True])
def test_nilradical_refinement_decides_a_dense_sum_with_simple_summands(monkeypatch, lie):
    # the cut of C4 + example1 + 3 sl2 in a dense basis keeps a vector whose
    # R_v is not nilpotent, and the radical of the right multiplications,
    # taken once on all of L, is N
    from leibnizalg import radicals

    L = direct_sum(four_cycle(lie), corpus.example1().algebra)
    for _ in range(3):
        L = direct_sum(L, corpus.sl2().algebra)
    L = dense_basis(L, random.Random(0))
    calls = []
    monkeypatch.setattr(radicals, "_radical_cut", counting(calls, radicals._radical_cut))
    res = nilradical(L)
    assert calls == ["_radical_cut"] and res.subspace.dim == 5
    assert res.method == "right-mult-radical" and all(res.certificates.values())


def test_radical_cut_runs_on_the_four_cycles_and_on_no_corpus_entry(monkeypatch):
    # the trace-form cut is N on every Q corpus entry, in its own basis and
    # in three dense ones, and on the hemisemidirect cases; on both 4-cycles
    # it keeps x, and the radical of the right multiplications is taken once
    from leibnizalg import radicals

    calls = []
    monkeypatch.setattr(radicals, "_radical_cut", counting(calls, radicals._radical_cut))
    for name, L in nilradical_reference_cases():
        calls.clear()
        res = nilradical(L)
        expect = ["_radical_cut"] if name.startswith("4-cycle") else []
        assert calls == expect and all(res.certificates.values()), name
        assert res.method == ("right-mult-radical" if expect else "trace-form"), name


def test_first_nilradical_cut_is_an_ideal(monkeypatch):
    # tr(R_[x,z] R_y) = tr(R_x R_[z,y]), R_[z,x] = -R_[x,z], and tr vanishes
    # on [L, L]: in every characteristic the cut is an ideal, and only its
    # nilpotency decides whether it is N
    from leibnizalg import radicals

    cases = nilradical_reference_cases() + small_reductions() + [
        (f"{family.__name__}({p})", family(p))
        for family in (stalled_cut_algebra, witt_algebra) for p in (2, 3, 5, 7)]
    cuts, real = [], radicals._cut
    monkeypatch.setattr(radicals, "_cut", lambda *args: cuts.append(real(*args)) or cuts[-1])
    for name, L in cases:
        cuts.clear()
        nilradical(L)
        assert is_ideal(L, cuts[0]), name


@pytest.mark.parametrize("lie", [None, False, True])
def test_nilradical_raises_on_a_basis_vector_with_non_nilpotent_right_mult(monkeypatch, lie):
    # the check ends both methods: example1 is decided by its cut, the
    # 4-cycles by the radical of the right multiplications
    from leibnizalg import radicals

    L = corpus.example1().algebra if lie is None else four_cycle(lie)
    monkeypatch.setattr(radicals, "_stable_image", lambda L, V, *xs: V)
    with pytest.raises(InternalInconsistency, match="image chain of L under N does not reach zero"):
        nilradical(L)


def _nilradical_reference(L):
    """The radical-first trace-form cut, uncertified: the candidate starts as
    { x in R(L) : tr(R_x) = 0 and tr(R_x R_y) = 0 for the basis y of R(L) }
    and is cut by tr(R_x R_v^k) = 0 (k = 1..dim L) while some basis vector v
    of it has non-nilpotent R_v."""
    F, n = L.field, L.dim

    def cut(space, conds):
        if space.dim == 0:
            return space
        cols = [[cond(matrices.right_mult(L, u)) for cond in conds] for u in space.rows]
        ker = matrices.nullspace(F, matrices.transpose(cols, len(conds)), space.dim)
        return Subspace.span(F, n, [matrices.comb(F, n, k, space.rows) for k in ker])

    R = radical(L).subspace
    C = cut(R, [partial(matrices.trace, F)]
            + [partial(matrices.trace_of_product, F, matrices.right_mult(L, y)) for y in R.rows])
    while True:
        bad = next((v for v in C.rows if not matrices.is_nilpotent(F, matrices.right_mult(L, v))),
                   None)
        if bad is None:
            return C
        powers = [matrices.right_mult(L, bad)]
        while len(powers) < n:
            powers.append(matrices.matmul(F, powers[-1], powers[0]))
        shrunk = cut(C, [partial(matrices.trace_of_product, F, Pk) for Pk in powers])
        assert shrunk.dim < C.dim
        C = shrunk


def nilradical_reference_cases():
    """Every Q corpus entry, also in three seeded dense bases, both 4-cycle
    algebras, the hemisemidirect product and its direct sum with sl2."""
    cases = []
    for e in corpus.standard_entries():
        cases.append((e.name, e.algebra))
        cases += [(f"{e.name} seed {seed}", dense_basis(e.algebra, random.Random(seed)))
                  for seed in range(3)]
    cases += [(f"4-cycle lie={lie}", four_cycle(lie)) for lie in (False, True)]
    H = hemisemidirect()
    return cases + [("hemisemidirect", H),
                    ("hemisemidirect+sl2", direct_sum(H, corpus.sl2().algebra))]


def test_nilradical_equals_the_radical_first_reference_without_the_radical(monkeypatch):
    from leibnizalg import radicals

    cases = [(name, L, _nilradical_reference(L)) for name, L in nilradical_reference_cases()]
    assert len(cases) == 48 and all(L.field == QQ for _, L, _ in cases)

    def unreachable(*args):
        raise AssertionError("nilradical over Q must not compute the radical")

    monkeypatch.setattr(radicals, "radical", unreachable)
    assert not hasattr(radicals, "liesation")
    for name, L, expect in cases:
        res = nilradical(L)
        assert res.subspace == expect and all(res.certificates.values()), name


def test_q_radical_cut_from_the_whole_space_is_the_nilradical():
    # over Q, Rad(A) = { a in A : tr(a b) = 0 for all b in A } (Dickson), so
    # the first level of the right-multiplication radical, taken in all of
    # L, is N(L)
    from leibnizalg import radicals

    for name, L in nilradical_reference_cases():
        assert radicals._radical_cut(L) == nilradical(L).subspace, name


def _radical_reference(L):
    """The Killing-form radical, uncertified: the preimage in L of
    { x in L/I : kappa(x, d) = 0 for every d in [L/I, L/I] }, where L/I is
    the Lie quotient and kappa(x, y) = tr(ad_x ad_y) its Killing form."""
    qp = liesation(L)
    lam = qp.quotient
    D = bracket_span(lam, lam.full_space(), lam.full_space())
    if D.dim == 0:
        return L.full_space()
    ads = [matrices.left_mult(lam, lam.basis_vector(i)) for i in range(lam.dim)]
    G = [[matrices.trace_of_product(QQ, a, b) for b in ads] for a in ads]
    rad = matrices.nullspace(QQ, [matrices.matvec(QQ, G, d) for d in D.rows], lam.dim)
    # the preimage of span(rad): I plus the section lifts of its rows
    return Subspace.span(QQ, L.dim, list(qp.ideal.rows)
                         + [matrices.comb(QQ, L.dim, r, qp.section) for r in rad])


def test_radical_equals_the_killing_pullback_reference(monkeypatch):
    from leibnizalg import radicals

    cases = [(name, L, _radical_reference(L)) for name, L in nilradical_reference_cases()]
    assert len(cases) == 48

    def unreachable(*args):
        raise AssertionError("radical over Q must not compute the kernel or a quotient")

    monkeypatch.setattr(radicals, "leibniz_kernel", unreachable)
    monkeypatch.setattr(radicals, "quotient", unreachable)
    for name, L, expect in cases:
        res = radical(L)
        assert res.subspace == expect and all(res.certificates.values()), name


def test_q_radicals_and_verify_build_no_multiplication_operator():
    # over Q the traces are read off the scaled table, nilpotency is tested
    # by image chains and every system is solved on integer rows: the
    # library has no operator or matrix type to build
    import leibnizalg

    for name, module in list(sys.modules.items()):
        if name == "leibnizalg" or name.startswith("leibnizalg."):
            assert not {"right_mult", "left_mult", "Matrix"} & set(vars(module)), name
    assert "projection" not in {f.name for f in fields(leibnizalg.QuotientPresentation)}
    for name, L in nilradical_reference_cases():
        assert all(nilradical(L).certificates.values()), name
        assert all(radical(L).certificates.values()), name
        assert verify(L)["verdict"] == "pass", name


def series_cases():
    """(name, L, A), lazily: every subalgebra A of the F_2 and F_3
    reductions with at most 374 subspaces, then I, N(L), R(L), [L,L] and L
    of the 48 Q reference cases."""
    from leibnizalg import oracle

    for name, Lp in small_reductions():
        for S in oracle.scan(Lp).subalgebras:
            yield name, Lp, S
    for name, L in nilradical_reference_cases():
        full = L.full_space()
        for A in (leibniz_kernel(L), nilradical(L).subspace, radical(L).subspace,
                  bracket_span(L, full, full), full):
            yield name, L, A


def _restricted_series(L, A, derived):
    """The series of A by the restricted route: the lower central (or, if
    derived, the derived) series of restrict(L, A), computed there, each
    term embedded back into L."""
    LA = restrict(L, A)
    full = LA.full_space()
    terms = [full]
    while terms[-1].dim and (len(terms) == 1 or terms[-1] != terms[-2]):
        V = terms[-1]
        terms.append(bracket_span(LA, V, V if derived else full))
    return [embed_subspace(A, T) for T in terms]


def test_series_inside_L_match_the_restricted_reference():
    cases = 0
    for name, L, A in series_cases():
        cases += 1
        for series, holds, derived in ((lower_central_series, is_nilpotent, False),
                                       (derived_series, is_solvable, True)):
            expect = _restricted_series(L, A, derived)
            assert series(L, A) == expect, (name, A, series.__name__)
            assert holds(L, A) == (expect[-1].dim == 0), (name, A, holds.__name__)
    assert cases == 592


@pytest.mark.parametrize("p", [None, 3])
def test_certificate_keys_in_order(p):
    from leibnizalg.oracle import reduce_mod_p

    L = corpus.example1().algebra
    if p is not None:
        L = reduce_mod_p(L, p)
    assert list(nilradical(L).certificates) == [
        "is_ideal", "lower_central_series_reaches_zero",
        "right_mult_nilpotent_per_basis_vector"]
    # over F_p the radical also records that N(L/R) = 0, where its loop ended
    assert list(radical(L).certificates) == ["is_ideal", "derived_series_reaches_zero"] + (
        [] if p is None else ["quotient_nilradical_zero"])


def test_nilradical_certificates_always_pass():
    for e in corpus.standard_entries():
        res = nilradical(e.algebra)
        assert all(res.certificates.values()), e.name
        res_r = radical(e.algebra)
        assert all(res_r.certificates.values()), e.name


def test_nilradical_distributes_over_direct_sums():
    pairs = [(corpus.example1().algebra, corpus.heisenberg().algebra),
             (corpus.affine2().algebra, corpus.sl2().algebra)]
    for A, B in pairs:
        L = direct_sum(A, B)
        NA = nilradical(A).subspace
        NB = nilradical(B).subspace
        z = lambda n: (Fraction(0),) * n
        vecs = [tuple(r) + z(B.dim) for r in NA.rows] + \
               [z(A.dim) + tuple(r) for r in NB.rows]
        assert nilradical(L).subspace == Subspace.span(QQ, L.dim, vecs)


def test_injected_fault_raises_internal_inconsistency():
    # corrupt one structure constant of example1 post-construction:
    # [x2, x] becomes x instead of x2.  The trace-form cut is then not an
    # ideal and the pulled-back radical is not solvable: each certificate
    # must abort, never return silently.
    L = LeibnizAlgebra.from_products(QQ, 2, {(0, 0): {1: 1}, (1, 0): {0: 1}},
                                     labels=["x", "x2"])
    with pytest.raises(InternalInconsistency):
        nilradical(L)
    with pytest.raises(InternalInconsistency):
        radical(L)


# ---------------------------------------------------------------- frattini

def test_frattini_one_dim_abelian_is_zero():
    assert frattini_ideal(corpus.abelian(1).algebra).dim == 0


def test_frattini_nilcyclic2():
    L = corpus.nilcyclic2().algebra
    assert frattini_ideal(L) == span_of(L, L.basis_vector(1))


def test_frattini_heisenberg():
    L = corpus.heisenberg().algebra
    assert frattini_ideal(L) == span_of(L, L.basis_vector(2))


def test_frattini_unsupported_over_q_non_nilpotent():
    with pytest.raises(Unsupported):
        frattini_ideal(corpus.example1().algebra)


# ---------------------------------------------------------------- complement B

def test_find_b_example1():
    L = corpus.example1().algebra
    B = find_complement_B(L)
    assert B == span_of(L, (Fraction(1), Fraction(-1)))


def test_find_b_example2():
    L = corpus.example2(2, 1).algebra
    B = find_complement_B(L)
    assert B == span_of(L, L.basis_vector(0), L.basis_vector(2))


def test_find_b_lie_algebra_returns_subspace_with_trivial_overlap():
    L = corpus.sl2().algebra
    B = find_complement_B(L)
    assert B is not None
    I = leibniz_kernel(L)
    assert (I + B) == L.full_space()
    assert (I & B).dim == 0


def test_find_b_conditions_hold_across_corpus():
    for e in corpus.standard_entries():
        L = e.algebra
        B = find_complement_B(L)
        assert B is not None, e.name
        I = leibniz_kernel(L)
        assert (I + B) == L.full_space(), e.name


def dense_cases():
    """Every Q corpus entry and example2(4,2), each in three seeded dense bases."""
    entries = corpus.standard_entries() + [corpus.example2(4, 2)]
    return [(f"{e.name} seed {seed}", dense_basis(e.algebra, random.Random(seed)))
            for e in entries for seed in range(3)]


def test_find_b_is_a_certified_complement_in_dense_bases():
    for name, L in dense_cases():
        B = find_complement_B(L)
        assert B is not None, name
        I = leibniz_kernel(L)
        assert is_subalgebra(L, B) and (I + B) == L.full_space(), name
        if B != L.full_space():
            assert (I & B).dim == 0, name
        assert verify(L, B)["theorem2"].passed, name


def test_find_b_falls_back_to_L_only_when_it_is_certified():
    # no complement subalgebra: x + a x2 squares to x2.  nilcyclic2 is
    # nilpotent, so I <= phi(L) and B = L; with an sl2 summand L/I is not
    # nilpotent, no B meeting I is nilpotent, and there is no B
    L = corpus.nilcyclic2().algebra
    assert find_complement_B(L) == L.full_space()
    assert find_complement_B(direct_sum(L, corpus.sl2().algebra)) is None


def test_find_b_hemisemidirect_product_over_q():
    # I = M, complemented by the subalgebra span(E11, E12)
    L = hemisemidirect()
    I = leibniz_kernel(L)
    B = find_complement_B(L)
    assert B is not None and is_subalgebra(L, B)
    assert (I + B) == L.full_space() and (I & B).dim == 0


def test_find_b_meets_the_kernel_in_its_fitting_null_component():
    # basis x, i1, i2 with [x,x] = i1 and [i2,x] = i2: I = span(i1, i2) has no
    # complement subalgebra (x + a i1 + b i2 squares to i1 + b i2), L is not
    # nilpotent, and B = span(x, i1) meets I in span(i1) = [B,B] = phi(B)
    L = LeibnizAlgebra.from_products(QQ, 3, {(0, 0): {1: 1}, (2, 0): {2: 1}})
    B = find_complement_B(L)
    assert B == span_of(L, L.basis_vector(0), L.basis_vector(1))
    assert verify(L, B)["theorem2"].passed
    for seed in range(3):
        D = dense_basis(L, random.Random(seed))
        I = leibniz_kernel(D)
        B = find_complement_B(D)
        assert B is not None and is_subalgebra(D, B), seed
        assert (I + B) == D.full_space() and (I & B).dim == 1, seed
        assert verify(D, B)["theorem2"].passed, seed


def test_find_b_aborts_when_the_supplement_fails_theorem2(monkeypatch):
    # the complement of I_1 meets I and is checked against theorem 2's
    # premises, over Q and F_p, and a failing check aborts; a complement of I
    # meets them by construction and is not checked
    from leibnizalg import radicals

    monkeypatch.setattr(radicals, "_theorem2_failure", lambda *args: "forced")
    for L in (direct_sum(corpus.nilcyclic2().algebra, corpus.example1().algebra),
              fp_direct_sum("nilcyclic2", "example1", p=2)):
        with pytest.raises(InternalInconsistency, match="supplement of the kernel"):
            find_complement_B(L)
    L = corpus.example1().algebra
    assert find_complement_B(L) == span_of(L, (1, -1))


def test_find_b_builds_the_quotient_by_the_kernel_once(monkeypatch):
    # the L of the test above: one quotient by I = span(i1, i2) for the
    # nilpotency of L/I; the complements of I and of I_1 = span(i2) are
    # solved on the ideals
    from leibnizalg import radicals

    L = LeibnizAlgebra.from_products(QQ, 3, {(0, 0): {1: 1}, (2, 0): {2: 1}})
    calls = []

    def counted(M, J):
        calls.append(J)
        return quotient(M, J)

    monkeypatch.setattr(radicals, "quotient", counted)
    assert find_complement_B(L) == span_of(L, L.basis_vector(0), L.basis_vector(1))
    assert calls == [leibniz_kernel(L)]


def h3_on_dual_numbers():
    """h3 + F_2[t]/(t^2) over F_2, basis D, T, W = Z + D + T, m0, m1: L/I is
    h3, and on I = span(m0, m1) R_D, R_T and R_W are nilpotent while
    R_Z = R_D + R_T + R_W is the identity."""
    D, T, W, m0, m1 = range(5)
    products = {(m1, D): {m0: 1}, (m0, T): {m1: 1},
                (m0, W): {m0: 1, m1: 1}, (m1, W): {m0: 1, m1: 1}}
    for a, b in ((D, T), (D, W), (T, W)):
        products[a, b] = products[b, a] = {D: 1, T: 1, W: 1}
    return LeibnizAlgebra.from_products(Field(2), 5, products)


def test_fitting_one_over_f2_is_the_stable_image_and_no_sum_over_a_basis():
    # on h3_on_dual_numbers(), I_1 = I is the stable image of I under all of
    # L, but every single-vector stable image is 0
    from leibnizalg.radicals import _stable_image

    m0, m1 = 3, 4
    L = h3_on_dual_numbers()
    assert check_leibniz(L).passed
    qp = quotient(L, leibniz_kernel(L))
    I, basis = qp.ideal, L.full_space().scaled_rows
    assert I == span_of(L, L.basis_vector(m0), L.basis_vector(m1))
    assert is_nilpotent(qp.quotient)
    assert _stable_image(L, I, *basis) == I
    assert all(_stable_image(L, I, y).dim == 0 for y in basis)
    assert _stable_image(L, I, [1, 1, 1, 0, 0]) == I


def fp_cases_under_the_oracle_caps():
    """(name, L) for the F_p inputs of dim at most 5 over F_2 and 4 over F_3
    among the small corpus reductions, the sums of a corpus entry and
    nilcyclic2 in either order, the x, i1, i2 algebra and
    h3_on_dual_numbers()."""
    from leibnizalg.oracle import reduce_mod_p

    xi = LeibnizAlgebra.from_products(QQ, 3, {(0, 0): {1: 1}, (2, 0): {2: 1}})
    cases = small_reductions() + [("h3 on F_2[t]/(t^2)", h3_on_dual_numbers())]
    for p, cap in ((2, 5), (3, 4)):
        cases.append((f"x, i1, i2 mod {p}", reduce_mod_p(xi, p)))
        for name in corpus.BUILDERS:
            if corpus.build(name).algebra.dim + 2 > cap:
                continue
            for names in dict.fromkeys([(name, "nilcyclic2"), ("nilcyclic2", name)]):
                L = fp_direct_sum(*names, p=p)
                if L is not None:
                    cases.append((f"{' + '.join(names)} mod {p}", L))
    return cases


def supplemented_fp_cases():
    """The inputs of fp_cases_under_the_oracle_caps() with no complement of I
    and a nilpotent L/I."""
    from leibnizalg.radicals import _complement_subalgebra

    out = []
    for name, L in fp_cases_under_the_oracle_caps():
        qp = quotient(L, leibniz_kernel(L))
        if _complement_subalgebra(L, qp.ideal) is None and is_nilpotent(qp.quotient):
            out.append((name, L))
    return out


def supplement_cases():
    """The inputs of fp_cases_under_the_oracle_caps() and the sums
    nilcyclic2 + sl2, nilcyclic2 + affine2 and example1 + nilcyclic2 +
    affine2 mod 2 and 3, each once."""
    cases = dict(fp_cases_under_the_oracle_caps())
    for names in (("nilcyclic2", "sl2"), ("nilcyclic2", "affine2"),
                  ("example1", "nilcyclic2", "affine2")):
        for p in (2, 3):
            cases.setdefault(f"{' + '.join(names)} mod {p}", fp_direct_sum(*names, p=p))
    return list(cases.items())


def test_fp_supplement_is_the_smallest_B_of_the_scan():
    # with no complement of I and a nilpotent L/I, the supplement (the
    # complement of I_1) is the first qualifying B of the sorted scan
    from leibnizalg import oracle
    from leibnizalg.radicals import _supplement

    cases = supplemented_fp_cases()
    for name, L in cases:
        qp = quotient(L, leibniz_kernel(L))
        scanned = sorted(oracle.scan(L).subalgebras, key=lambda S: (S.dim, S.rows))
        reference = next(B for B in scanned if theorem2_premises_hold(L, qp.ideal, B))
        assert _supplement(L, qp, oracle.DEFAULT_BUDGET) == reference, name
        assert find_complement_B(L) == reference, name
    assert len(cases) == 22
    assert sum(find_complement_B(L) != L.full_space() for _, L in cases) == 12


def test_supplement_is_minimal_and_as_small_as_the_reference():
    # the minimal supplement B of I: a subalgebra with B + I = L, no scanned
    # subalgebra strictly inside it also supplements I, and its dimension is
    # that of the first scanned B by (dim, rows) that meets theorem 2's
    # premises by their definition; that B is it where I has no complement
    from leibnizalg import oracle
    from leibnizalg.radicals import _complement_subalgebra, _supplement

    for name, L in supplement_cases():
        full, qp = L.full_space(), quotient(L, leibniz_kernel(L))
        I, B = qp.ideal, _supplement(L, qp, oracle.DEFAULT_BUDGET)
        assert is_subalgebra(L, B) and B + I == full, name
        scanned = sorted(oracle.scan(L).subalgebras, key=lambda S: (S.dim, S.rows))
        assert not any(S + I == full for S in scanned if S <= B and S != B), name
        reference = next(S for S in scanned if theorem2_premises_hold(L, I, S))
        assert B.dim == reference.dim, name
        if _complement_subalgebra(L, I) is None:
            assert B == reference, name


def test_lemma1_and_the_supplement_read_phi_at_most_once(monkeypatch):
    # lemma 1 reads the supplement and computes no Frattini ideal; verify
    # and find_complement_B scan for phi only in the self-check of the
    # supplement B, on restrict(L, B)
    from leibnizalg import oracle, radicals
    from leibnizalg.oracle import frattini_oracle

    calls = []

    def counted(M, *args):
        calls.append(M)
        return frattini_oracle(M, *args)

    monkeypatch.setattr(oracle, "frattini_oracle", counted)
    N_of = lambda M: nilradical(M).subspace
    for name, L in supplement_cases():
        qp = quotient(L, leibniz_kernel(L))
        B = radicals._supplement(L, qp, oracle.DEFAULT_BUDGET)
        del calls[:]
        radicals.verify_lemma1(L, qp, N_of, B)
        assert calls == [], name
        for run in (verify, find_complement_B):
            run(L)
            assert calls in ([], [restrict(L, B)]), name
            del calls[:]


def test_verify_and_find_b_scan_nothing_where_there_is_a_supplement(monkeypatch):
    # the corpus, its admissible reductions mod 2, 3 and 5, and the inputs
    # above: lemma 1 and theorem 2 read the supplement, and no scan starts
    from leibnizalg import oracle
    from leibnizalg.oracle import reduce_mod_p

    oracle._scan_cached.cache_clear()
    scans = []
    monkeypatch.setattr(oracle, "_pivot_patterns", counting(scans, oracle._pivot_patterns))
    cases = [(e.name, e.algebra) for e in corpus.standard_entries()]
    cases += [(f"{name} mod {p}", reduce_mod_p(L, p)) for name, L in cases for p in (2, 3, 5)]
    cases = [(name, L) for name, L in cases if L is not None] + supplemented_fp_cases()
    for name, L in cases:
        assert verify(L)["verdict"] == "pass", name
        assert find_complement_B(L) is not None, name
    assert scans == [] and len(cases) == 66


def test_fitting_one_over_q_is_the_sum_of_the_basis_powers():
    # over Q, wherever L/I is nilpotent, the stable image of I under all of
    # L is sum_y R_y^d(I) over the basis y of L, d = dim I, with each R_y a
    # matrix formed from the table
    from leibnizalg.radicals import _stable_image

    seen = []
    for name, L in nilradical_reference_cases():
        qp = quotient(L, leibniz_kernel(L))
        if not is_nilpotent(qp.quotient):
            continue
        F, I, images = L.field, qp.ideal, []
        for y in L.full_space().rows:
            R = matrices.right_mult(L, y)
            for v in I.rows:
                for _ in range(I.dim):
                    v = matrices.matvec(F, R, v)
                images.append(v)
        I1 = span_of(L, *images)
        assert _stable_image(L, I, *L.full_space().scaled_rows) == I1, name
        seen.append(I1.dim > 0)
    assert (len(seen), sum(seen)) == (29, 17)


def theorem2_meeting_cases():
    """Inputs whose B meets I and is nilpotent: the Fitting example above, the
    table with denominators [x, x] = 1/2 y + 1/3 z, [y, x] = 5/6 y, and
    nilcyclic2 over Q and mod 3."""
    from leibnizalg.oracle import reduce_mod_p

    nil = corpus.nilcyclic2().algebra
    return [LeibnizAlgebra.from_products(QQ, 3, {(0, 0): {1: 1}, (2, 0): {2: 1}}),
            LeibnizAlgebra.from_products(QQ, 3, {(0, 0): {1: Fraction(1, 2), 2: Fraction(1, 3)},
                                                 (1, 0): {1: Fraction(5, 6)}}),
            nil, reduce_mod_p(nil, 3)]


@pytest.mark.parametrize("case", range(4))
def test_theorem2_restricts_only_for_the_nilradical_of_B(monkeypatch, case):
    # phi(B) = [B, B] of a nilpotent B is taken inside L, and the complement
    # of I_1 is solved on the ideal: find_complement_B restricts nothing and
    # quotients only by I, and verify restricts once, for N(B)
    from leibnizalg import core, radicals

    L = theorem2_meeting_cases()[case]
    calls = []
    for module in (core, radicals):
        monkeypatch.setattr(module, "restrict", counting(calls, restrict))
        monkeypatch.setattr(module, "quotient", counting(calls, quotient))
    B = find_complement_B(L)
    assert B is not None and (leibniz_kernel(L) & B).dim
    assert sorted(calls) == ["quotient"]
    calls.clear()
    assert verify(L)["verdict"] == "pass"
    assert sorted(calls) == ["quotient", "restrict"]


def test_verify_checks_theorem2_premises_once_for_the_searched_B(monkeypatch):
    # nilcyclic2 + sl2 mod 3: I = span(x2) has no complement, and the search
    # finds B = L, which is not nilpotent and meets I.  The search checks
    # I cap B <= phi(B) on B's restriction, and verify_theorem2 assumes the
    # premises: B's table is restricted once there and once for N(B)
    from leibnizalg import radicals
    from leibnizalg.oracle import reduce_mod_p

    L = reduce_mod_p(direct_sum(corpus.nilcyclic2().algebra, corpus.sl2().algebra), 3)
    tables = []

    def counted(M, A):
        tables.append(restrict(M, A).table)
        return restrict(M, A)

    assert find_complement_B(L) == L.full_space()
    expected = json.dumps(_jsonable(verify(L)))
    monkeypatch.setattr(radicals, "restrict", counted)
    report = verify(L)
    assert json.dumps(_jsonable(report)) == expected
    assert report["theorem2"].details["B"] == L.full_space()
    assert tables.count(restrict(L, L.full_space()).table) == 2


def test_frattini_of_a_subalgebra_matches_the_restricted_reference():
    # phi(A) taken inside L against phi(restrict(L, A)) embedded back into L:
    # every subalgebra of the F_2 and F_3 corpus reductions with at most
    # 3,000 subspaces, and every coordinate subalgebra of the corpus over Q,
    # where a non-nilpotent A is Unsupported both ways
    from itertools import combinations

    from leibnizalg import oracle
    from leibnizalg.exactlin import subspace_count
    from leibnizalg.oracle import reduce_mod_p

    def phi(L, A=None):
        try:
            return frattini_ideal(L, oracle.DEFAULT_BUDGET, A)
        except Unsupported:
            return Unsupported

    def reference(L, A):
        phi_A = phi(restrict(L, A))
        return phi_A if phi_A is Unsupported else embed_subspace(A, phi_A)

    fp, q = [], []
    for e in corpus.standard_entries():
        for p in (2, 3):
            Lp = reduce_mod_p(e.algebra, p)
            if Lp is not None and subspace_count(Lp.dim, p) <= 3000:
                fp += [(f"{e.name} mod {p}", Lp, A) for A in oracle.scan(Lp).subalgebras]
        L = e.algebra
        for k in range(L.dim + 1):
            for cols in combinations(range(L.dim), k):
                A = span_of(L, *(L.basis_vector(c) for c in cols))
                if is_subalgebra(L, A):
                    q.append((e.name, L, A))
    for name, L, A in fp + q:
        assert phi(L, A) == reference(L, A), (name, A)
    assert (len(fp), len(q), sum(phi(L, A) is Unsupported for _, L, A in q)) == (1038, 137, 59)


def test_find_b_tries_the_fitting_component_only_over_a_nilpotent_quotient():
    # basis a, b, u, v: affine [a,b] = b = -[b,a], [a,a] = v, [u,a] = u,
    # [u,b] = v.  No complement of I = span(u, v) (a + phi squares to
    # v + [phi, a], and [I, a] = span(u)); L/I is not nilpotent, and the sum
    # of the R_y^2(I), span(u), is not even an ideal
    L = LeibnizAlgebra.from_products(QQ, 4, {
        (0, 1): {1: 1}, (1, 0): {1: -1}, (0, 0): {3: 1}, (2, 0): {2: 1}, (2, 1): {3: 1}})
    assert check_leibniz(L).passed
    assert find_complement_B(L) is None


def test_find_b_keeps_a_standard_complement_that_is_a_subalgebra():
    # the solve sets every free unknown to 0, so phi = 0 when it can be
    # (holds on 9 of the 11 corpus entries, 4 of them with I nonzero)
    for e in corpus.standard_entries():
        L = e.algebra
        S = Subspace.span(QQ, L.dim, leibniz_kernel(L).complement_basis())
        if is_subalgebra(L, S):
            assert find_complement_B(L) == S, e.name


def _complement_reference(L, qp):
    """The complement subalgebra of I = qp.ideal by the dense solve on field
    elements: b_s = c_s + sum_r a_sr g_r for the section c and the RREF rows
    g of I, the closure conditions i_st + sum_r a_sr [g_r, c_t]
    - sum_u lam_stu phi_u = 0 read in I's coordinates, and the kernel of
    the system by the reference Gauss-Jordan, its constant column last."""
    F, I = L.field, qp.ideal
    if not I.dim:
        return L.full_space()
    red = partial(matrices._reduce, F)

    def coords(v):
        # the RREF rows of I are 1 at their pivot columns and 0 at the others'
        assert I.contains(v)
        return [v[pc] for pc in I.pivots]

    comp, lam = qp.section, qp.quotient.table
    m, d = len(comp), I.dim
    acts = [[coords(L.bracket(g, c)) for c in comp] for g in I.rows]  # [g_r, c_t]
    rows = []
    for s in range(m):
        for t in range(m):
            lift = matrices.comb(F, L.dim, lam[s][t], comp)
            i_st = coords([red(a - b) for a, b in zip(L.bracket(comp[s], comp[t]), lift)])
            for k in range(d):
                row = [F.zero] * (m * d) + [i_st[k]]
                for r in range(d):
                    row[s * d + r] = red(row[s * d + r] + acts[r][t][k])
                for u in range(m):
                    row[u * d + k] = red(row[u * d + k] - lam[s][t][u])
                rows.append(row)
    ker = matrices.nullspace(F, rows, m * d + 1)
    if not ker or not ker[-1][-1]:
        return None
    a = ker[-1]
    return Subspace.span(F, L.dim, [[red(x + y) for x, y in
                                     zip(comp[s], matrices.comb(F, L.dim, a[s * d:(s + 1) * d],
                                                                I.rows))]
                                    for s in range(m)])


def test_complement_solve_matches_the_dense_reference():
    # the 48 Q reference cases, by the kernel and, where the solve is asked
    # for it, by its Fitting one component; then every corpus reduction mod
    # 2, 3 and 5 within the oracle budget, by the kernel
    from leibnizalg import oracle, radicals
    from leibnizalg.exactlin import subspace_count
    from leibnizalg.oracle import reduce_mod_p

    cases = []
    for name, L in nilradical_reference_cases():
        qp = quotient(L, leibniz_kernel(L))
        cases.append((name, L, qp))
        if is_nilpotent(qp.quotient):
            I1 = radicals._stable_image(L, qp.ideal, *L.full_space().scaled_rows)
            cases.append((f"{name} by I_1", L, quotient(L, I1)))
    for e in corpus.standard_entries():
        for p in (2, 3, 5):
            Lp = reduce_mod_p(e.algebra, p)
            if Lp is not None and subspace_count(Lp.dim, p) <= oracle.DEFAULT_BUDGET:
                cases.append((f"{e.name} mod {p}", Lp, quotient(Lp, leibniz_kernel(Lp))))
    found = 0
    for name, L, qp in cases:
        B = radicals._complement_subalgebra(L, qp.ideal)
        assert B == _complement_reference(L, qp), name
        found += B is not None
    assert (len(cases), found) == (109, 102)


# ---------------------------------------------------------------- quotient nilradical formula

def test_theorem2_example1():
    L = corpus.example1().algebra
    B = span_of(L, (Fraction(1), Fraction(-1)))
    rep = verify(L, B)["theorem2"]
    assert rep.applicable and rep.details["B"] == B
    assert rep.details["formula_equal"]
    assert rep.details["lhs"].dim == 1  # both sides are all of L/I
    assert not rep.details["nilpotency_condition"]
    assert not rep.details["kernel_quotient_equal"]


def test_theorem2_example2():
    L = corpus.example2(2, 1).algebra
    B = span_of(L, L.basis_vector(0), L.basis_vector(2))
    rep = verify(L, B)["theorem2"]
    assert rep.details["formula_equal"]
    assert rep.details["lhs"] == Subspace.full(QQ, 2)  # N(L/I) = L/I
    assert not rep.details["nilpotency_condition"]
    assert not rep.details["kernel_quotient_equal"]


def test_theorem2_lie_algebra_all_true():
    L = corpus.sl2().algebra
    rep = verify(L, L.full_space())["theorem2"]
    assert rep.details["formula_equal"] and rep.details["nilpotency_condition"]
    assert rep.details["kernel_quotient_equal"]


def premise_case(name):
    """(L, B) for each premise of theorem 2 that a given B can fail, in order."""
    from leibnizalg.oracle import reduce_mod_p

    L = corpus.example1().algebra
    if name == "not-a-subalgebra":          # [x, x] = x2 lies outside span(x)
        return L, span_of(L, L.basis_vector(0))
    if name == "I+B-not-L":                 # B = I = span(x2)
        return L, span_of(L, L.basis_vector(1))
    if name == "frattini-of-B-over-Q":      # B = L is not nilpotent over Q
        L = corpus.with_simple_summand(corpus.example1()).algebra
        return L, L.full_space()
    L = reduce_mod_p(L, 3)                  # B = L, whose Frattini ideal is 0
    return L, L.full_space()


PREMISE_MESSAGES = {
    "not-a-subalgebra": "B is not a subalgebra",
    "I+B-not-L": "I + B is not all of L",
    "frattini-of-B-over-Q": "cannot verify I cap B <= phi(B): Frattini ideal of B not computable",
    "not-in-frattini-of-B": "I cap B is not inside the Frattini ideal of B",
}


@pytest.mark.parametrize("name", list(PREMISE_MESSAGES))
def test_theorem2_premise_violation(name):
    # a B the caller gives is checked before theorem 2 runs; the other
    # checks still run and pass
    L, B = premise_case(name)
    rep = verify(L, B)
    assert rep["theorem2"] == {"skipped": PREMISE_MESSAGES[name]}
    assert rep["verdict"] == "pass"


def test_theorem2_condition_matches_quotient_equality_everywhere():
    # over F_p, theorem 2 is skipped unless the B that the exhaustive search
    # returns satisfies every premise
    for name, L in [(e.name, e.algebra) for e in corpus.standard_entries()] + small_reductions():
        B = find_complement_B(L)
        assert B is not None
        t = verify(L, B)["theorem2"].details
        assert t["formula_equal"], name
        assert t["nilpotency_condition"] == t["kernel_quotient_equal"], name


def heisenberg_on_a_plane(rebased):
    """h = span(x, y, z) acting on M = span(m1, m2) over F_2: [x, y] = [y, x] = z,
    [m2, x] = m1, [m1, y] = m2, [m1, z] = m1 and [m2, z] = m2.  With rebased,
    the same algebra in the basis (x, y, x + y + z, m1, m2)."""
    F2 = Field(2)
    L = LeibnizAlgebra.from_products(F2, 5, {(0, 1): {2: 1}, (1, 0): {2: 1}, (4, 0): {3: 1},
                                            (3, 1): {4: 1}, (3, 2): {3: 1}, (4, 2): {4: 1}})
    if not rebased:
        return L
    # f_3 = x + y + z, and z = f_1 + f_2 + f_3 over F_2
    P = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (1, 1, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]

    def in_f_basis(v):
        return [(v[c] + (v[2] if c < 2 else 0)) % 2 for c in range(5)]

    return LeibnizAlgebra(F2, 5, [[in_f_basis(L.bracket(P[a], P[b])) for b in range(5)]
                                  for a in range(5)])


@pytest.mark.parametrize("rebased", [False, True])
def test_theorem2_condition_does_not_depend_on_the_basis(rebased):
    # N(B) = h, and R_z is the identity on I = M.  In the basis (x, y, z) the
    # basis vector z fails; in (x, y, x + y + z) each of R_x, R_y and
    # R_{x+y+z} is nilpotent on M, but the series M, [M, h], ... stalls at M
    L = heisenberg_on_a_plane(rebased)
    assert check_leibniz(L).passed
    rep = verify(L)
    t = rep["theorem2"]
    assert rep["verdict"] == "pass" and isinstance(t, VerificationReport)
    assert t.details["formula_equal"] and not t.details["nilpotency_condition"]
    assert not t.details["kernel_quotient_equal"]
    assert t.details["N_of_B_in_L"] == span_of(L, *L.full_space().scaled_rows[:3])
    M = span_of(L, *L.full_space().scaled_rows[3:])
    if rebased:
        assert t.witnesses == [{"stalled_term": M}]
    else:
        assert t.witnesses == [{"n": (0, 0, 1, 0, 0), "restricted_matrix": ((1, 0), (0, 1))}]


def test_theorem2_verdict_agrees_across_dense_bases():
    # every admissible corpus reduction mod 2, 3 and 5 with at most 60,000
    # subspaces, in three dense bases: the verdict and theorem 2's booleans
    # are those of its own basis
    from leibnizalg.exactlin import subspace_count
    from leibnizalg.oracle import reduce_mod_p

    def booleans(L):
        rep = verify(L)
        t = rep["theorem2"]
        return rep["verdict"], (t if isinstance(t, dict) else
                                tuple(t.details[k] for k in ("formula_equal", "nilpotency_condition",
                                                             "kernel_quotient_equal")))

    cases = 0
    for p in (2, 3, 5):
        for e in corpus.standard_entries():
            Lp = reduce_mod_p(e.algebra, p)
            if Lp is None or subspace_count(Lp.dim, p) > 60_000:
                continue
            expect = booleans(Lp)
            for seed in (1, 2, 3):
                assert booleans(dense_basis(Lp, random.Random(seed))) == expect, (e.name, p, seed)
            cases += 1
    assert cases == 32


# ---------------------------------------------------------------- frattini premise case

def test_lemma1_nilcyclic2():
    rep = verify(corpus.nilcyclic2().algebra)["lemma1"]
    assert rep.applicable and rep.passed


def test_lemma1_abelian_trivially_passes():
    rep = verify(corpus.abelian(3).algebra)["lemma1"]
    assert rep.applicable and rep.passed


def test_lemma1_example1_decided_by_the_complement_witness():
    # example1 is not nilpotent, so phi(L) is not computable over Q; the
    # complement S = span(x - x2) of I = span(x2) is a proper subalgebra with
    # S + I = L, so I is not inside phi(L)
    L = corpus.example1().algebra
    rep = verify(L)["lemma1"]
    assert not rep.applicable and rep.passed
    assert rep.details["complement"] == span_of(L, (1, -1))
    assert "frattini" not in rep.details


def test_lemma1_runs_everywhere_and_its_witness_supplements_the_kernel():
    # lemma 1 is skipped on no corpus entry, no small reduction and none of
    # the sums of example1 and nilcyclic2, whose I has no complement and
    # whose L/I is nilpotent; a witness S is a proper subalgebra with
    # S + I = L, and over F_p the decision is the one the exhaustive Frattini
    # ideal gives
    from leibnizalg.oracle import frattini_oracle

    cases = [(e.name, e.algebra) for e in corpus.standard_entries()] + small_reductions()
    cases += [(f"example1 + nilcyclic2 mod {p}", fp_direct_sum("example1", "nilcyclic2", p=p))
              for p in (2, 3)]
    cases.append(("nilcyclic2 + example1", direct_sum(corpus.nilcyclic2().algebra,
                                                      corpus.example1().algebra)))
    witnesses = 0
    for name, L in cases:
        rep = verify(L)["lemma1"]
        assert isinstance(rep, VerificationReport) and rep.passed, name
        I, S = rep.details["kernel"], rep.details.get("complement")
        if S is not None:
            witnesses += 1
            assert not rep.applicable, name
            assert is_subalgebra(L, S) and S + I == L.full_space() and S != L.full_space(), name
        if L.field.modulus is not None:
            assert rep.applicable == (I <= frattini_oracle(L)), name
    assert witnesses >= 15


def test_lemma1_example1_premise_fails_over_fp():
    from leibnizalg.oracle import reduce_mod_p

    Lp = reduce_mod_p(corpus.example1().algebra, 3)
    rep = verify(Lp)["lemma1"]
    assert not rep.applicable and rep.passed


def test_lemma1_is_decided_by_the_minimal_supplement():
    # the premise I <= phi(L) holds exactly when the minimal supplement S of
    # I is L, as the exhaustive Frattini ideal confirms; a proper S is the
    # witness that it fails, and theorem 2 runs on the same B.  On
    # example1 + nilcyclic2 + affine2 mod p, I = span(e2, e4) has no
    # complement and L/I is not nilpotent, so S comes from the scan
    from leibnizalg.oracle import frattini_oracle

    failing = []
    for name, L in supplement_cases():
        full = L.full_space()
        report = verify(L)
        rep, I = report["lemma1"], leibniz_kernel(L)
        assert report["verdict"] == "pass" and rep.passed, name
        assert rep.applicable == (I <= frattini_oracle(L)), name
        if rep.applicable:
            assert "complement" not in rep.details, name
            continue
        failing.append(name)
        S = rep.details["complement"]
        assert is_subalgebra(L, S) and S != full and S + I == full, name
        assert report["theorem2"].details["B"] == S, name
    assert {"example1 + nilcyclic2 + affine2 mod 2",
            "example1 + nilcyclic2 + affine2 mod 3"} <= set(failing)


# ---------------------------------------------------------------- prop 3 / corollary

def test_prop3_example2():
    rep = verify(corpus.example2(2, 1).algebra)["prop3"]
    assert rep.passed
    assert rep.details["one_sided"] and rep.details["two_sided"]


def test_prop3_sl2_trivial():
    assert verify(corpus.sl2().algebra)["prop3"].passed


def test_prop3_direct_sum():
    L = direct_sum(corpus.example1().algebra, corpus.sl2().algebra)
    assert verify(L)["prop3"].passed


def test_corollary_examples():
    for name in ("example1", "sl2", "abelian-3", "affine2", "example2-2-1"):
        rep = verify(corpus.build(name).algebra)["corollary"]
        assert rep.passed, name


def test_corollary_reads_solvability_from_the_radical():
    # the reference is the derived series of L reaching zero, and [L, L] its
    # second term, on every Q corpus entry in its basis and two dense ones
    from leibnizalg.radicals import verify_corollary

    for e in corpus.standard_entries():
        for L in (e.algebra, *(dense_basis(e.algebra, random.Random(s)) for s in (1, 2))):
            derived = derived_series(L)
            solvable = derived[-1].dim == 0
            R, N = radical(L).subspace, nilradical(L).subspace
            assert (R == L.full_space()) == solvable, e.name
            rep = verify_corollary(L, R, N)
            reference = solvable == is_nilpotent(L, derived[:2][-1])
            assert rep.details["solvable_iff_derived_nilpotent"] == reference, e.name
            assert rep.passed, e.name


def test_prop3_and_corollary_across_corpus():
    for e in corpus.standard_entries():
        rep = verify(e.algebra)
        assert rep["prop3"].passed, e.name
        assert rep["corollary"].passed, e.name


# ---------------------------------------------------------------- theorem-2 verdict

@pytest.mark.parametrize("formula_equal,condition,kernel_quotient_equal,passed", [
    (True, True, True, True),       # condition holds and N(L/I) = N(L)/I
    (True, False, False, True),     # condition fails and N(L/I) != N(L)/I
    (False, True, True, False),     # formula fails
    (True, True, False, False),     # condition holds but the quotients differ
    (True, False, True, False),     # condition fails but the quotients agree
])
def test_theorem2_report_verdict(monkeypatch, formula_equal, condition, kernel_quotient_equal,
                                 passed):
    # example1, I = span(x2), B = span(x - x2): L/I, B and I + B are one
    # dimensional, so the stub nilradicals set each side to 0 or all of L/I,
    # and the patched condition is taken as given
    from leibnizalg import radicals

    L = corpus.example1().algebra
    qp, B = quotient(L, leibniz_kernel(L)), span_of(L, (1, -1))
    NB = Subspace.full(QQ, 1) if formula_equal else Subspace.zero(QQ, 1)
    NL = L.full_space() if kernel_quotient_equal else L.zero_space()

    def N_of(M):
        return NL if M is L else qp.quotient.full_space() if M is qp.quotient else NB

    monkeypatch.setattr(radicals, "_right_action_on_kernel_nilpotent",
                        lambda *args: (condition, []))
    rep = radicals.verify_theorem2(L, qp, N_of, B)
    assert isinstance(rep, VerificationReport) and rep.applicable
    assert [rep.details[k] for k in ("formula_equal", "nilpotency_condition",
                                     "kernel_quotient_equal")] == [formula_equal, condition,
                                                                   kernel_quotient_equal]
    assert rep.passed is passed
    assert _jsonable(rep)["passed"] is passed


# ---------------------------------------------------------------- the verify verdict

def test_reports_render_their_fields_in_order():
    rep = VerificationReport(name="n", passed=True)
    assert list(_jsonable(rep)) == ["name", "passed", "applicable", "details", "witnesses"]
    t2 = verify(corpus.example1().algebra)["theorem2"]
    assert list(t2.details) == ["kernel", "B", "N_of_L", "N_of_B_in_L", "lhs", "rhs",
                                "formula_equal", "nilpotency_condition",
                                "kernel_quotient_equal"]
    assert _jsonable(t2)["details"]["lhs"] == {"ambient_dim": 1, "basis": [[[1, 1]]]}


def test_theorem2_reports_the_B_it_read():
    # the B that find_complement_B finds when none is given, else the given one
    cases = [(e.name, e.algebra) for e in corpus.standard_entries()] + small_reductions()
    for name, L in cases:
        B = find_complement_B(L)
        assert verify(L)["theorem2"].details["B"] == B, name
    ex1, nil = corpus.example1().algebra, corpus.nilcyclic2().algebra
    for L, B in [(ex1, span_of(ex1, (1, -1))), (nil, nil.full_space())]:
        assert verify(L, B)["theorem2"].details["B"] == B


def test_every_section_that_ran_reports_a_bool_verdict():
    cases = [(e.name, e.algebra) for e in corpus.standard_entries()] + small_reductions()
    for name, L in cases:
        rep = verify(L)
        payload = json.loads(dumps_json(rep))
        for key in ("lemma1", "theorem2", "prop3", "corollary"):
            if isinstance(rep[key], dict):
                assert list(rep[key]) == ["skipped"], (name, key)
            else:
                assert isinstance(rep[key], VerificationReport), (name, key)
                assert type(payload[key]["passed"]) is bool, (name, key)
                assert payload[key]["passed"] is rep[key].passed, (name, key)


def test_verify_passes_on_corpus_and_small_reductions():
    cases = [(e.name, e.algebra) for e in corpus.standard_entries()] + small_reductions()
    assert sum(L.field.modulus is not None for _, L in cases) >= 10
    for name, L in cases:
        rep = verify(L)
        assert list(rep) == ["lemma1", "theorem2", "prop3", "corollary", "verdict"], name
        assert rep["verdict"] == "pass", name
        if L.field.modulus is not None:
            skipped = {"skipped": "stated for characteristic zero"}
            assert rep["prop3"] == rep["corollary"] == skipped, name


def test_small_reductions_keep_their_invariants_in_dense_bases():
    # the dense basis stays over F_p and keeps every basis-invariant number
    from leibnizalg import oracle
    from leibnizalg.core import center

    def invariants(L):
        s = oracle.scan(L)
        return (leibniz_kernel(L).dim, center(L).dim, nilradical(L).subspace.dim,
                radical(L).subspace.dim, frattini_ideal(L).dim,
                len(s.subalgebras), len(s.ideals), len(s.nilpotent_ideals),
                len(s.solvable_ideals), len(s.maximal_subalgebras), verify(L)["verdict"])

    for name, L in small_reductions():
        expect = invariants(L)
        for seed in (1, 2):
            D = dense_basis(L, random.Random(seed))
            assert D.field == L.field and check_leibniz(D).passed, (name, seed)
            assert invariants(D) == expect, (name, seed)


def test_verify_passes_when_lemma1_premise_fails():
    from leibnizalg.oracle import reduce_mod_p

    rep = verify(reduce_mod_p(corpus.example1().algebra, 3))
    assert not rep["lemma1"].applicable
    assert rep["verdict"] == "pass"


def fp_direct_sum(*names, p=2):
    """The direct sum of corpus entries, reduced mod p."""
    from leibnizalg.oracle import reduce_mod_p

    L = corpus.build(names[0]).algebra
    for name in names[1:]:
        L = direct_sum(L, corpus.build(name).algebra)
    return reduce_mod_p(L, p)


def test_fp_radicals_and_verify_beyond_the_scan():
    # F_2^8 has 417,199 subspaces and F_2^10 229,755,605, but 255 and 1,023
    # projective points: both answer under the default budget.  The
    # nilradical of a direct sum is the sum of the summands' nilradicals,
    # which the scan finds
    import time

    from leibnizalg.oracle import nilradical_oracle

    L8 = fp_direct_sum("example2-2-1+sl2", "example1")
    t0 = time.time()
    res = nilradical(L8)
    assert time.time() - t0 < 5.0
    assert res.method == "trace-form" and all(res.certificates.values())
    N6, N2 = (nilradical_oracle(fp_direct_sum(name)) for name in ("example2-2-1+sl2", "example1"))
    assert res.subspace == span_of(L8, *[r + (0, 0) for r in N6.rows],
                                   *[(0,) * 6 + r for r in N2.rows])
    L10 = fp_direct_sum("example2-2-1+sl2", "example2-3-1")
    assert L10.dim == 10
    t0 = time.time()
    rep = verify(L10)
    assert time.time() - t0 < 5.0
    assert rep["verdict"] == "pass" and isinstance(rep["theorem2"], VerificationReport)


def test_fp_radicals_and_verify_agree_with_the_oracle_on_the_summands_mod_3():
    # F_3^8 has 3,280 projective points, and neither radical searches them:
    # each verb answers in well under a second.  Both radicals of a direct
    # sum are the sums of the summands' radicals, which the scan finds
    import time

    from leibnizalg.oracle import nilradical_oracle, radical_oracle

    L8 = fp_direct_sum("example2-2-1+sl2", "example1", p=3)
    for compute, oracle_of, method in ((nilradical, nilradical_oracle, "trace-form"),
                                       (radical, radical_oracle, "nilradicals")):
        t0 = time.time()
        res = compute(L8)
        assert time.time() - t0 < 1.0, compute.__name__
        assert res.method == method and all(res.certificates.values())
        A6, A2 = (oracle_of(fp_direct_sum(name, p=3)) for name in ("example2-2-1+sl2", "example1"))
        assert res.subspace == span_of(L8, *[r + (0, 0) for r in A6.rows],
                                       *[(0,) * 6 + r for r in A2.rows])
    t0 = time.time()
    assert verify(L8)["verdict"] == "pass"
    assert time.time() - t0 < 1.0


def stalled_cut_algebra(p):
    """span(x, v_1..v_p) over F_p with [v_i, x] = v_i and [x, v_i] = -v_i, a Lie
    algebra: R_x is the identity on span(v), so tr(R_x^k) = p = 0 for every
    k, and no trace-form cut removes x, while N = span(v)."""
    products = {}
    for i in range(1, p + 1):
        products[i, 0], products[0, i] = {i: 1}, {i: -1}
    return LeibnizAlgebra.from_products(Field(p), p + 1, products)


def witt_algebra(p):
    """W(1) over F_p: basis e_-1..e_{p-2} at 0..p-1, [e_i, e_j] = (j - i) e_{i+j}.
    For p = 5 it is simple, and tr(R_x) and the trace form vanish on it, so
    the trace-form cut keeps all of W(1), which is not nilpotent."""
    products = {}
    for a in range(p):
        for b in range(p):
            if a + b - 1 < p and (b - a) % p:
                products[a, b] = {a + b - 1: (b - a) % p}
    return LeibnizAlgebra.from_products(Field(p), p, products)


# (names, p) of the inputs on which nilradical summed principal ideals before
# its trace-form cut was taken over F_p; the cut decides each of them now
CUT_DECIDED = [(("example2-2-1+sl2",), 5), (("example1+sl2",), 5),
               (("example2-2-1+sl2", "example1"), 5), (("example1",), 3),
               (("example1+sl2",), 3), (("example2-2-1",), 3), (("example2-2-1+sl2",), 2)]


def test_the_cut_decides_the_inputs_the_principal_ideal_tests_used(monkeypatch):
    from leibnizalg import radicals

    calls = []
    monkeypatch.setattr(radicals, "_radical_cut", counting(calls, radicals._radical_cut))
    for names, p in CUT_DECIDED:
        res = nilradical(fp_direct_sum(*names, p=p))
        assert res.method == "trace-form" and all(res.certificates.values()), (names, p)
    assert calls == []


def stalled_cut_plus_affine2():
    return direct_sum(stalled_cut_algebra(3), fp_direct_sum("affine2", p=3))


@pytest.mark.parametrize("names", [("example2-2-1+sl2",), ("example2-2-1+sl2", "example1")])
def test_fp_radical_forms_no_closure(monkeypatch, names):
    # the radical closed up to 50 and 200 principal ideals of these mod 5
    # when it summed the solvable ones; from nilradicals, whose cuts decide
    # them, it takes no radical of the right multiplications
    from leibnizalg import radicals

    calls = []
    monkeypatch.setattr(radicals, "_radical_cut", counting(calls, radicals._radical_cut))
    res = radical(fp_direct_sum(*names, p=5))
    assert res.method == "nilradicals" and all(res.certificates.values())
    assert calls == []


@pytest.mark.parametrize("build", [partial(fp_direct_sum, "example2-3-1", p=2),
                                   partial(witt_algebra, 5)],
                         ids=["example2-3-1-mod-2", "W(1)-mod-5"])
def test_fp_nilradical_keeping_the_cut_is_caught(monkeypatch, build):
    # the cuts of example2-3-1 mod 2 and W(1) mod 5 keep all of L, which is
    # not nilpotent; were the radical of the right multiplications to keep
    # the cut, a certificate must abort
    from leibnizalg import radicals

    L = build()
    assert nilradical(L).method == "right-mult-radical"
    monkeypatch.setattr(radicals, "_radical_cut", lambda L: L.full_space())
    with pytest.raises(InternalInconsistency):
        nilradical(L)


def _right_mult_algebra_reference(L):
    """A^1 by textbook matrices: span(1) in F^(n^2), a matrix by its columns
    in turn, with R_{e_i} a added for every i until the span stops growing.
    Each round multiplies the RREF rows at the pivot columns the last round
    added: they span a complement of the span before it, and the products
    of the rest lie in the span already."""
    F, n = L.field, L.dim
    Rs = [matrices.right_mult(L, L.basis_vector(i)) for i in range(n)]

    def flat(M):
        return [M[k][m] for m in range(n) for k in range(n)]

    def square(a):
        return [[a[m * n + k] for m in range(n)] for k in range(n)]

    def lead(a):
        return next(c for c, x in enumerate(a) if x)

    basis, old = matrices.rref(F, [flat(matrices.identity(F, n))], n * n), set()
    while len(basis) > len(old):
        fresh = [a for a in basis if lead(a) not in old]
        old = {lead(a) for a in basis}
        basis = matrices.rref(F, basis + [flat(matrices.matmul(F, R, square(a)))
                                          for R in Rs for a in fresh], n * n)
    return Subspace.span(F, n * n, basis)


def dense_c4_example1_sl2():
    L = direct_sum(direct_sum(four_cycle(False), corpus.example1().algebra),
                   corpus.sl2().algebra)
    return dense_basis(L, random.Random(0))


RIGHT_MULT_ALGEBRA_CASES = {
    "4-cycle": partial(four_cycle, False), "4-cycle lie": partial(four_cycle, True),
    "sl2": lambda: corpus.sl2().algebra, "example1": lambda: corpus.example1().algebra,
    "L_3": partial(stalled_cut_algebra, 3), "L_5": partial(stalled_cut_algebra, 5),
    "W(1) mod 3": partial(witt_algebra, 3), "W(1) mod 5": partial(witt_algebra, 5),
    "example2-3-1 mod 2": partial(fp_direct_sum, "example2-3-1", p=2),
    "C4+example1+sl2 dense": dense_c4_example1_sl2,
}


@pytest.mark.parametrize("name", list(RIGHT_MULT_ALGEBRA_CASES))
def test_right_mult_algebra_matches_the_matrix_reference(name):
    # sl2 has A^1 = M_3, and the spin stops as soon as it is full
    L = RIGHT_MULT_ALGEBRA_CASES[name]()
    A = _right_mult_algebra(L)
    assert A == _right_mult_algebra_reference(L)
    if name == "sl2":
        assert A.dim == 9


def test_fp_radical_aborts_when_a_quotient_nilradical_is_all_of_it(monkeypatch):
    # example1 + sl2 mod 3 is not solvable: were N(L/K_0) reported as all of
    # L/K_0, the loop would end at R = L, whose derived series stalls at sl2
    from leibnizalg import radicals

    Lp = fp_direct_sum("example1", "sl2", p=3)
    assert radical(Lp).subspace.dim == 2
    real = radicals.nilradical
    monkeypatch.setattr(radicals, "nilradical", lambda M: real(M) if M is Lp
                        else radicals.CertifiedIdeal(M.full_space(), "corrupted"))
    with pytest.raises(InternalInconsistency, match="derived_series_reaches_zero"):
        radical(Lp)


def test_g_aborts_on_a_trace_not_divisible_by_q():
    # tr([[1]]^2) = 1 mod 4 is not divisible by q = 2
    from leibnizalg import radicals

    with pytest.raises(InternalInconsistency, match="not divisible by 2"):
        radicals._g([[1]], 2, 2)


def test_theorem2_condition_aborts_on_a_subspace_that_is_not_invariant():
    # span(x) of example1 is no ideal: R_x maps x to [x, x] = x2, outside it
    from leibnizalg import radicals

    L = corpus.example1().algebra
    X = span_of(L, L.basis_vector(0))
    with pytest.raises(InternalInconsistency, match="not invariant"):
        radicals._right_action_on_kernel_nilpotent(L, X, X)


def test_complement_solve_aborts_when_its_answer_is_not_a_subalgebra(monkeypatch):
    # example1's kernel span(x2) has the complement span(x - x2); were its
    # closure check to fail, the solve must abort rather than return it
    from leibnizalg import radicals

    L = corpus.example1().algebra
    I = leibniz_kernel(L)
    assert radicals._complement_subalgebra(L, I) == span_of(L, (1, -1))
    monkeypatch.setattr(radicals, "is_subalgebra", lambda *args: False)
    with pytest.raises(InternalInconsistency, match="not a subalgebra"):
        radicals._complement_subalgebra(L, I)


PAIRED = ("sl2", "example1", "nilcyclic2", "heisenberg", "affine2", "example2-2-1",
          "example2-1-0")


def fp_nilradical_cases(p):
    """(name, L, N, stalls) over F_p: every admissible corpus reduction with
    at most 60,000 subspaces, in its own basis and a dense one, the sums of
    two of PAIRED under the same cap, and L_p, with N = N(L) and stalls
    whether nilradical's cut fails to decide L.  The cut decides all but
    example2(3, 1) mod 2, where tr(R_y^k) = 2 = 0, and L_p.  N(A + B) =
    N(A) + N(B): the projections of a nilpotent ideal of a direct sum are
    nilpotent ideals of the summands, so N of a sum is read off the oracle
    of each summand."""
    from itertools import combinations_with_replacement

    from leibnizalg.exactlin import subspace_count
    from leibnizalg.oracle import nilradical_oracle, reduce_mod_p

    for e in corpus.standard_entries():
        Lp = reduce_mod_p(e.algebra, p)
        if Lp is None or subspace_count(Lp.dim, p) > 60_000:
            continue
        for basis, M in (("own", Lp), ("dense", dense_basis(Lp, random.Random(1)))):
            yield ((e.name, basis), M, nilradical_oracle(M),
                   (e.name, p) == ("example2(n=3,r=1)", 2))
    for a, b in combinations_with_replacement(PAIRED, 2):
        L = fp_direct_sum(a, b, p=p)
        if L is None or subspace_count(L.dim, p) > 60_000:
            continue
        Na, Nb = (nilradical_oracle(fp_direct_sum(name, p=p)) for name in (a, b))
        da = Na.ambient_dim
        N = span_of(L, *[r + (0,) * (L.dim - da) for r in Na.rows],
                    *[(0,) * da + r for r in Nb.rows])
        yield (a, b), L, N, False
    # span(v) is N(L_p); the oracle confirms it up to L_3 (F_5^6 has more
    # subspaces than its budget)
    L = stalled_cut_algebra(p)
    N = span_of(L, *L.full_space().scaled_rows[1:])
    if p < 5:
        assert nilradical_oracle(L) == N
    yield "L_p", L, N, True


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fp_nilradical_equals_the_oracle(p):
    # the cut decides every input of fp_nilradical_cases but those whose cut
    # stalls, where the radical of the right multiplications is taken
    for name, L, N, stalls in fp_nilradical_cases(p):
        res = nilradical(L)
        assert res.subspace == N and all(res.certificates.values()), name
        assert res.method == ("right-mult-radical" if stalls else "trace-form"), name


@pytest.mark.parametrize("p", [2, 3, 5])
def test_radical_cut_from_the_whole_space_equals_the_oracle(p):
    # { x in L : R_x in Rad(A) } is N(L), taken in all of L with no first
    # cut, so it equals the oracle on every input of
    # fp_nilradical_cases, on h + M over F_2 in both bases, and on W(1) mod
    # 5 and 7, which is simple, so N = 0 (the oracle confirms it mod 5)
    from leibnizalg import radicals
    from leibnizalg.oracle import nilradical_oracle

    cases = [(name, L, N) for name, L, N, _ in fp_nilradical_cases(p)]
    if p == 2:
        cases += [(("h + M", rebased), L, nilradical_oracle(L)) for rebased in (False, True)
                  for L in [heisenberg_on_a_plane(rebased)]]
    if p == 5:
        cases += [("W(1) mod 5", witt_algebra(5), nilradical_oracle(witt_algebra(5))),
                  ("W(1) mod 7", witt_algebra(7), witt_algebra(7).zero_space())]
    for name, L, N in cases:
        assert radicals._radical_cut(L) == N, name


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p, dim_N", [(2, 8), (3, 5)])
def test_fp_dense_nilradical_runs_the_right_mult_levels(p, dim_N, seed):
    # C4 + example1 + sl2 mod p in a dense basis (dim 10): N is the sum of the
    # summands' nilradicals, V + span(x2), and sl2 too mod 2, where it is
    # nilpotent.  The trace-form cut keeps more, and the levels g_i of the
    # radical of the right multiplications (q up to 8 mod 2, 9 mod 3) run on
    # a dense table.  dim N does not depend on the basis, and a certified
    # nilpotent ideal of that dim is N
    from leibnizalg import radicals
    from leibnizalg.oracle import reduce_mod_p

    sparse = reduce_mod_p(direct_sum(direct_sum(four_cycle(False), corpus.example1().algebra),
                                     corpus.sl2().algebra), p)
    assert nilradical(sparse).subspace.dim == dim_N
    L = dense_basis(sparse, random.Random(seed))
    res = nilradical(L)
    assert res.method == "right-mult-radical" and all(res.certificates.values())
    assert res.subspace.dim == dim_N
    assert radicals._radical_cut(L) == res.subspace


def found_semidirect():
    """L_3 + (F_3^3)^3 over F_3 (dim 13, a Lie algebra), L_3 = span(x, v_1,
    v_2, v_3) acting on the right of three copies of F_3^3: x by diag(0, 1,
    2) on each, v_i by the cyclic shift on copy i and by 0 on the others.
    The first cut is all of L; N is the 9 module vectors, as each R_(v_i)
    is invertible on copy i."""
    products = {}
    for i in range(1, 4):
        products[i, 0], products[0, i] = {i: 1}, {i: -1}
        for j in range(3):
            w = 1 + 3 * i + j
            if j:
                products[w, 0], products[0, w] = {w: j}, {w: -j}
            shifted = 1 + 3 * i + (j + 1) % 3
            products[w, i], products[i, w] = {shifted: 1}, {shifted: -1}
    return LeibnizAlgebra.from_products(Field(3), 13, products)


@pytest.mark.parametrize("build, dim_n", [
    *[pytest.param(partial(stalled_cut_algebra, p), p, id=f"L_{p}") for p in (2, 3, 5, 7)],
    pytest.param(found_semidirect, 9, id="L_3+(F_3^3)^3")])
def test_fp_nilradical_of_a_stalled_cut_is_the_right_mult_radical(build, dim_n):
    # on L_p the cut stalls at L; the enumeration of its points that this
    # replaced took 150 s on L_7 and ran past 100 s on L_3 + (F_3^3)^3
    import time

    L = build()
    assert check_leibniz(L).passed
    t0 = time.time()
    res = nilradical(L)
    assert time.time() - t0 < 5.0
    assert res.method == "right-mult-radical" and all(res.certificates.values())
    assert res.subspace == span_of(L, *L.full_space().scaled_rows[L.dim - dim_n:])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fp_radical_equals_the_oracle(p):
    # the inputs of test_fp_nilradical_equals_the_oracle.  R(A + B) =
    # R(A) + R(B): the projections of a solvable ideal of a direct sum are
    # solvable ideals of the summands, so the sums are checked against the
    # oracle of each summand
    from itertools import combinations_with_replacement

    from leibnizalg.exactlin import subspace_count
    from leibnizalg.oracle import radical_oracle, reduce_mod_p

    def check(name, L, R):
        res = radical(L)
        assert res.subspace == R and all(res.certificates.values()), name
        assert res.method == "nilradicals", name

    for e in corpus.standard_entries():
        Lp = reduce_mod_p(e.algebra, p)
        if Lp is None or subspace_count(Lp.dim, p) > 60_000:
            continue
        for basis, M in (("own", Lp), ("dense", dense_basis(Lp, random.Random(1)))):
            check((e.name, basis), M, radical_oracle(M))
    for a, b in combinations_with_replacement(PAIRED, 2):
        L = fp_direct_sum(a, b, p=p)
        if L is None or subspace_count(L.dim, p) > 60_000:
            continue
        Ra, Rb = (radical_oracle(fp_direct_sum(name, p=p)) for name in (a, b))
        da = Ra.ambient_dim
        R = span_of(L, *[r + (0,) * (L.dim - da) for r in Ra.rows],
                    *[(0,) * da + r for r in Rb.rows])
        check((a, b), L, R)
    # L_p is solvable: [L_p, L_p] = span(v) is abelian
    L = stalled_cut_algebra(p)
    if p < 5:
        assert radical_oracle(L) == L.full_space()
    check("L_p", L, L.full_space())


def test_fp_radical_with_a_stalled_first_cut_takes_no_budget(monkeypatch):
    # L_3 + sl2 mod 3 is not solvable, and the first cut, of N(L), stalls at
    # span(x, v): its 40 points were searched under a budget.  radical takes
    # none and hands none to the nilradicals it takes
    from leibnizalg import radicals

    L = direct_sum(stalled_cut_algebra(3), fp_direct_sum("sl2", p=3))
    assert not is_solvable(L) and nilradical(L).method == "right-mult-radical"
    real, seen = radicals.nilradical, []
    monkeypatch.setattr(radicals, "nilradical", lambda M: seen.append(M.dim) or real(M))
    res = radical(L)
    assert res.subspace == span_of(L, *L.full_space().scaled_rows[:4])
    assert res.method == "nilradicals" and all(res.certificates.values())
    # N(L) = span(v), N(L/K_0) = span(x) and N(L/K_1) = N(sl2) = 0
    assert seen == [7, 4, 3]


def test_fp_nilradical_falls_back_when_the_cut_is_not_nilpotent(monkeypatch):
    # W(1) mod 5 is simple, so N = 0, but the trace-form cut keeps all of
    # W(1), an ideal that is not nilpotent
    from leibnizalg import radicals
    from leibnizalg.oracle import nilradical_oracle

    L = witt_algebra(5)
    assert check_leibniz(L).passed
    cuts, real = [], radicals._cut
    monkeypatch.setattr(radicals, "_cut", lambda *args: cuts.append(real(*args)) or cuts[-1])
    res = nilradical(L)
    assert cuts[0] == L.full_space() and not is_nilpotent(L)
    assert res.subspace == nilradical_oracle(L) == L.zero_space()
    assert res.method == "right-mult-radical" and all(res.certificates.values())


def test_fp_first_cut_reads_the_trace_of_each_right_multiplication(monkeypatch):
    # span(x, v_1, v_2) mod 5 with [v_1, x] = v_1, [v_2, x] = 2 v_2 (a Lie
    # algebra): beta vanishes, as tr(R_x^2) = 1 + 4 = 0, and tr(R_x) = 3
    # alone cuts x, so the first cut is N = span(v), with no second cut inside
    # it by the radical of the right multiplications
    from leibnizalg import radicals

    products = {(1, 0): {1: 1}, (0, 1): {1: -1}, (2, 0): {2: 2}, (0, 2): {2: -2}}
    L = LeibnizAlgebra.from_products(Field(5), 3, products)
    assert all(a % 5 == 0 for row in radicals._gram(L) for a in row)
    cuts = []
    monkeypatch.setattr(radicals, "_cut", counting(cuts, radicals._cut))
    res = nilradical(L)
    assert res.subspace == span_of(L, (0, 1, 0), (0, 0, 1)) and res.method == "trace-form"
    assert len(cuts) == 1


def test_fp_budget_bounds_the_projective_points():
    from leibnizalg.oracle import nilradical_oracle, reduce_mod_p

    # example2(2, 1) mod 3 is solvable: its radical searches none of the 13
    # points of F_3^3
    Lp = reduce_mod_p(corpus.example2(2, 1).algebra, 3)
    assert radical(Lp).method == "nilradicals"
    # the cut of L_3 + affine2 mod 3 removes one vector of affine2 and stalls
    # at dim 5, and N is taken from all of L with no point searched
    L = stalled_cut_plus_affine2()
    res = nilradical(L)
    assert res.method == "right-mult-radical" and all(res.certificates.values())
    assert res.subspace == nilradical_oracle(L)


def test_verify_verdict_is_the_one_the_cli_reports(monkeypatch, capsys):
    from leibnizalg import cli, radicals

    failing = VerificationReport(name="bracket-of-radical-inside-nilradical", passed=False)
    monkeypatch.setattr(radicals, "verify_prop3", lambda L, R, N: failing)
    assert verify(corpus.example1().algebra)["verdict"] == "fail"
    assert cli.run(["verify", "example1"]) == 1
    assert "verdict: fail" in capsys.readouterr().out


def counting_case(name):
    from leibnizalg.oracle import reduce_mod_p

    if name == "example2-6-3 dense":
        return dense_basis(corpus.example2(6, 3).algebra, random.Random(13))
    if name == "example1+sl2 dense":
        return dense_basis(corpus.with_simple_summand(corpus.example1()).algebra,
                           random.Random(1))
    if name == "sl2 mod 3":
        return reduce_mod_p(corpus.sl2().algebra, 3)
    return corpus.build(name).algebra


def counting(calls, f):
    """f, appending its name to calls on every call."""
    def counted(*args):
        calls.append(f.__name__)
        return f(*args)
    return counted


# distinct tables among L, L/I and B: L/I has L's table when I = 0; the B of
# nilcyclic2, whose I has no complement, is L; the complement of I has the
# table of L/I in its canonical basis on example1 and dense example2-6-3, but
# not on dense example1+sl2, where the nilradicals differ in coordinates
DISTINCT_TABLES = {"heisenberg": 1, "sl2 mod 3": 1, "nilcyclic2": 2, "example1": 2,
                   "example2-6-3 dense": 2, "example1+sl2 dense": 3}


@pytest.mark.parametrize("name", list(DISTINCT_TABLES))
def test_verify_computes_each_nilradical_once(monkeypatch, name):
    # one call per distinct table, N(L) first
    from leibnizalg import radicals

    L = counting_case(name)
    calls = []

    def counted(M, *args):
        calls.append(M)
        return nilradical(M, *args)

    monkeypatch.setattr(radicals, "nilradical", counted)
    report = verify(L)
    assert report["verdict"] == "pass"
    qp, B = quotient(L, leibniz_kernel(L)), find_complement_B(L)
    assert calls == list(dict.fromkeys([L, qp.quotient, restrict(L, B)]))
    assert len(calls) == DISTINCT_TABLES[name]
    NB = nilradical(restrict(L, B)).subspace
    assert report["theorem2"].details["N_of_B_in_L"] == embed_subspace(B, NB)
    assert report["theorem2"].details["lhs"] == nilradical(qp.quotient).subspace


@pytest.mark.parametrize("name", ["example2-6-3 dense", "heisenberg", "example1+sl2"])
def test_verify_computes_the_kernel_and_its_quotient_once(monkeypatch, name):
    # the search for B reads verify's quotient by I
    from leibnizalg import radicals

    L = counting_case(name)
    calls = []
    monkeypatch.setattr(radicals, "leibniz_kernel", counting(calls, leibniz_kernel))
    monkeypatch.setattr(radicals, "quotient", counting(calls, quotient))
    assert verify(L)["verdict"] == "pass"
    assert calls == ["leibniz_kernel", "quotient"]


@pytest.mark.parametrize("name", ["example2-6-3 dense", "heisenberg", "example1+sl2"])
def test_verify_tests_closure_with_the_products_it_forms(monkeypatch, name):
    # the series and restrict(L, B) read closure from [A, A] and from the
    # coordinates of the products; only the certificate of the solved
    # complement of I tests it separately
    from leibnizalg import core, radicals

    L = counting_case(name)
    calls = []
    for module in (core, radicals):
        monkeypatch.setattr(module, "is_subalgebra", counting(calls, is_subalgebra))
        monkeypatch.setattr(module, "restrict", counting(calls, restrict))
    assert verify(L)["verdict"] == "pass"
    assert calls.count("is_subalgebra") <= 1
    assert calls.count("restrict") == 1


@pytest.mark.parametrize("name", ["example2-6-3 dense", "heisenberg"])
def test_verify_computes_the_radical_once(monkeypatch, name):
    # for prop 3 and the corollary; the nilradicals do not need it
    from leibnizalg import radicals

    L = counting_case(name)
    calls = []

    def counted(M, *args):
        calls.append(M.dim)
        return radical(M, *args)

    monkeypatch.setattr(radicals, "radical", counted)
    assert verify(L)["verdict"] == "pass"
    assert calls == [L.dim]


def test_verify_restricts_a_given_B_once(monkeypatch, capsys):
    # B = L on nilcyclic2 meets I = span(x2), so the premise I cap B <= phi(B)
    # needs the Frattini ideal of B, [B, B] of the nilpotent B taken inside
    # L; the one restriction is theorem 2's, for N(B)
    from leibnizalg import cli, core, radicals

    calls = []
    for module in (core, radicals):
        monkeypatch.setattr(module, "restrict", counting(calls, restrict))
    assert cli.run(["--format", "json", "verify", "--b", "1,0;0,1", "nilcyclic2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["theorem2"]["passed"] is True
    assert rep["theorem2"]["details"]["B"] == {"ambient_dim": 2,
                                               "basis": [[[1, 1], [0, 1]], [[0, 1], [1, 1]]]}
    assert rep["verdict"] == "pass"
    assert calls.count("restrict") == 1
