"""Every product path of the library against the reference product.

The library forms each product by linearity from the products of one vector
with the basis (LeibnizAlgebra.products).  The reference is the double sum
over the nonzero entries of both vectors and the scaled table
(matrices.scaled_bracket), as every product was formed before.  Each path is
compared with the same computation on reference products: bracket spans in
both orientations, the subalgebra and ideal tests, restriction, the kernel
of squares, ideal closures, stable images and the lattice scan's lists of
subalgebras and ideals.  [L, L], read off the table, and the Gram matrix of
the trace form are compared with the span of the reference products and with
traces of products of the field matrices of tests/matrices.py.  The
algebras are the corpus entries in their sparse basis and in a dense one,
over Q and in their reductions mod 2, 3 and 5.
"""

import random

import pytest

import matrices
from dense import dense_basis
from leibnizalg import core, corpus
from leibnizalg.core import (
    LEFT,
    RIGHT,
    LeibnizAlgebra,
    bracket_span,
    ideal_closure,
    is_ideal,
    is_subalgebra,
    leibniz_kernel,
    restrict,
)
from leibnizalg.exactlin import Subspace, subspace_count
from leibnizalg.oracle import _subalgebras_and_ideals, enumerate_subspaces, reduce_mod_p
from leibnizalg.radicals import _gram, _stable_image, nilradical, radical


def sb(L, u, v):
    return matrices.scaled_bracket(L, u, v)


def units(L):
    return L.full_space().scaled_rows


def ref_bracket_span(L, A, B):
    return Subspace.span(L.field, L.dim, [sb(L, a, b) for a in A.scaled_rows
                                          for b in B.scaled_rows])


def ref_is_subalgebra(L, A):
    return all(A.contains(sb(L, a, b)) for a in A.scaled_rows for b in A.scaled_rows)


def ref_is_ideal(L, A):
    return all(A.contains(sb(L, a, e)) and A.contains(sb(L, e, a))
               for a in A.scaled_rows for e in units(L))


def ref_restrict(L, A):
    F, d = L.field, L.scaled_table()[0]
    rows = list(zip(A.scaled_rows, A.pivots))
    products = {}
    for a, (u, pu) in enumerate(rows):
        for b, (v, pv) in enumerate(rows):
            w = sb(L, u, v)
            assert A.contains(w)
            products[a, b] = {k: F.scalar(w[pc], d * u[pu] * v[pv])
                              for k, pc in enumerate(A.pivots) if w[pc]}
    return LeibnizAlgebra.from_products(F, A.dim, products, [f"b{i+1}" for i in range(A.dim)])


def ref_kernel(L):
    e = units(L)
    squares = [sb(L, u, u) for u in e]
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            v = [a + b for a, b in zip(e[i], e[j])]
            squares.append(sb(L, v, v))
    return Subspace.span(L.field, L.dim, squares)


def ref_ideal_closure(L, S):
    V = S
    while True:
        prods = [w for a in V.scaled_rows for e in units(L) for w in (sb(L, a, e), sb(L, e, a))]
        W = V + Subspace.span(L.field, L.dim, prods)
        if W == V:
            return V
        V = W


def ref_stable_image(L, V, x):
    X = Subspace.span(L.field, L.dim, [x])
    while True:
        W = ref_bracket_span(L, V, X)
        if W.dim == V.dim:
            return V
        V = W


def cases():
    """(name, L) for every corpus entry in its sparse basis and in a dense
    one, over Q and in its admissible reductions mod 2, 3 and 5."""
    rng = random.Random(7)
    for e in corpus.standard_entries():
        for basis, L in (("sparse", e.algebra), ("dense", dense_basis(e.algebra, rng))):
            yield f"{e.name} {basis}", L
            for p in (2, 3, 5):
                Lp = reduce_mod_p(L, p)
                if Lp is not None:
                    yield f"{e.name} {basis} mod {p}", Lp


CASES = list(cases())


def draw_vector(L, rng):
    p = L.field.modulus
    return [rng.randint(-2, 2) if p is None else rng.randrange(p) for _ in range(L.dim)]


def spaces(L, rng):
    """Subspaces of L: 0, L, the kernel and both radicals, spans of one and
    of two random vectors, and the ideal closure of a random vector."""
    F, n = L.field, L.dim
    out = [L.zero_space(), L.full_space(), leibniz_kernel(L), nilradical(L).subspace,
           radical(L).subspace]
    out += [Subspace.span(F, n, [draw_vector(L, rng) for _ in range(k)]) for k in (1, 1, 2)]
    out.append(ideal_closure(L, Subspace.span(F, n, [draw_vector(L, rng)])))
    return out


@pytest.mark.parametrize("name, L", CASES, ids=[name for name, _ in CASES])
def test_every_product_path_matches_the_reference_products(name, L):
    rng = random.Random(name)
    S = spaces(L, rng)
    # A has fewer rows than B, as many, or more: both orientations of bracket_span
    for A in S:
        for B in S:
            assert bracket_span(L, A, B) == ref_bracket_span(L, A, B), (A, B)
    for A in S:
        assert is_ideal(L, A) == ref_is_ideal(L, A), A
        assert is_subalgebra(L, A) == ref_is_subalgebra(L, A), A
        if ref_is_subalgebra(L, A):
            R, ref = restrict(L, A), ref_restrict(L, A)
            assert R == ref and R.labels == ref.labels, A
    assert leibniz_kernel(L) == ref_kernel(L)
    for A in S:
        assert ideal_closure(L, A) == ref_ideal_closure(L, A), A
    for V in S:
        if ref_is_ideal(L, V):
            for x in [draw_vector(L, rng) for _ in range(3)] + list(units(L))[:3]:
                assert _stable_image(L, V, x) == ref_stable_image(L, V, x), (V, x)
    # [L, L] is read off the table once per algebra, and L itself is an
    # ideal and a subalgebra with no product formed
    F, n, full = L.field, L.dim, Subspace.full(L.field, L.dim)
    assert bracket_span(L, full, full) is L.derived_space() == ref_bracket_span(L, full, full)
    assert is_ideal(L, full) and is_subalgebra(L, full)
    # _gram(L)[x][y] is d^2 tr(R_x R_y), from the field matrices of R_x and R_y
    d, R = L.scaled_table()[0], [matrices.right_mult(L, e) for e in full.rows]
    G = _gram(L)
    for x in range(n):
        for y in range(n):
            t = matrices.trace_of_product(F, R[x], R[y]) * d * d
            assert G[x][y] == t if F.modulus is None else G[x][y] % F.modulus == t, (x, y)


SCAN_CASES = [(name, L) for name, L in CASES
              if L.field.modulus is not None and subspace_count(L.dim, L.field.modulus) <= 400]


@pytest.mark.parametrize("name, L", SCAN_CASES, ids=[name for name, _ in SCAN_CASES])
def test_scan_lists_match_the_reference_products(name, L):
    subalgebras, ideals = _subalgebras_and_ideals(L)
    ref = [S for S in enumerate_subspaces(L.dim, L.field.modulus) if ref_is_subalgebra(L, S)]
    assert subalgebras == ref
    assert ideals == [S for S in ref if ref_is_ideal(L, S)]


def test_cases_cover_every_field_and_both_bases():
    names = [name for name, _ in CASES]
    for suffix in ("sparse", "dense", "mod 2", "mod 3", "mod 5"):
        assert any(name.endswith(suffix) for name in names), suffix
    assert len(SCAN_CASES) > 20


@pytest.mark.parametrize("cap", [0, 7, 60, core.MEMO_CAP])
def test_the_product_memo_never_holds_more_than_its_cap(monkeypatch, cap):
    monkeypatch.setattr(core, "MEMO_CAP", cap)
    rng = random.Random(cap)
    # fresh algebras, with empty memos: dim 5 over Q and mod 3, and an
    # abelian one, where every product is zero
    L = dense_basis(corpus.example2(4, 2).algebra, rng)
    for L in (L, reduce_mod_p(L, 3), corpus.abelian(5).algebra):
        n = L.dim
        # [e_j, k] = 0 for k in the kernel of squares: all its left products are zero
        kernel = [list(r) for r in leibniz_kernel(L).scaled_rows]
        assert all(not any(L.products(k, LEFT)) for k in kernel)
        vecs = [draw_vector(L, rng) for _ in range(40)] + kernel
        for u in vecs + vecs[::-1]:
            for side in (RIGHT, LEFT):
                got = [matrices.dense(n, w) for w in L.products(u, side)]
                assert got == [sb(L, u, e) if side == RIGHT else sb(L, e, u) for e in units(L)]
                # each item holds its vector's n components and its products' entries
                held = sum(n + sum(map(len, prods)) for prods in L._memo.values())
                assert L._stored == held <= cap
                assert len(L._memo) <= cap // n
        if cap >= 60:
            assert held > 0     # the memo is used once an item fits
