"""Solvable radical, nilradical, Frattini ideal, complements, and machine
verification of the structural statements about the nilradical of a quotient
by the span of squares.

Every computed radical carries certificates (ideal witness, series reaching
zero, operator nilpotency witnesses).  A failing certificate raises
InternalInconsistency: no result is ever returned uncertified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from operator import mul

from . import oracle
from .core import (
    LEFT,
    RIGHT,
    LeibnizAlgebra,
    QuotientPresentation,
    bracket_span,
    derived_series,
    embed_subspace,
    is_ideal,
    is_nilpotent,
    is_subalgebra,
    leibniz_kernel,
    lower_central_series,
    quotient,
    restrict,
    _dense,
)
from .errors import InternalInconsistency, Unsupported
from .exactlin import Subspace, from_scaled, nullspace, scaled_comb
from .reports import VerificationReport


@dataclass
class CertifiedIdeal:
    """A radical or nilradical with the certificates that were checked on it."""

    subspace: Subspace
    # "trace-form" or "right-mult-radical" for the nilradical over either
    # field; "trace-form-char0" over Q and "nilradicals" over F_p for the radical
    method: str
    certificates: dict = field(default_factory=dict)


def radical(L: LeibnizAlgebra) -> CertifiedIdeal:
    """Largest solvable ideal.

    Char 0: R(L) = { x in L : beta(x, d) = 0 for every d in [L,L] }, with the
    trace form beta(x, y) = tr(R_x R_y) of the right multiplications on L.
    The kernel I satisfies [L, I] = 0, so R_i = 0 for i in I, and
    R_[y,z] = R_z R_y - R_y R_z makes x -> -R_x a representation of the Lie
    algebra g = L/I on L; its kernel is central in g, since [y, x] = 0 for
    every y puts [x, y] in I.  beta is the trace form of this representation,
    so it is invariant and the orthogonal A of [g,g] is an ideal.  By
    Cartan's criterion the image of A is solvable, and the kernel is
    abelian, so A is solvable: A lies in rad g.  Conversely [g, rad g] acts
    as zero on every composition factor of L, so for r in rad g
    beta(r, [a,b]) = beta([r,a], b) = 0: rad g lies in A.  I is abelian, so
    R(L) is the preimage of rad g = A.  The functional x -> beta(x, d) of
    each scaled basis row d of [L,L] is G d, for the Gram matrix G of beta
    on the basis of L (_gram), and R(L) is cut from L by these
    functionals.

    Over F_p, R(L) is built from nilradicals, the method "nilradicals".  If
    the derived series of L reaches 0, R = L, and that series is the
    certificate.  Otherwise K_0 = N(L), and K_{j+1} is the preimage in L of
    N(L/K_j), its rows lifted through the section of quotient(L, K_j) at
    K_j's non-pivot columns and added to K_j; when N(L/K_j) = 0, R = K_j.
    Each K_j is a solvable ideal: K_0 is nilpotent, and K_{j+1}/K_j is
    nilpotent.  A product of two ideals of a Leibniz algebra is an ideal, so
    the derived series of R(L)/K_j is a series of ideals of L/K_j; if
    R(L)/K_j != 0, its last nonzero term is an abelian ideal of L/K_j, which
    lies in N(L/K_j).  So when N(L/K_j) = 0, R(L) lies in K_j, and K_j,
    being solvable, is R(L).  The proof holds in every characteristic, and
    the dimension grows at every step, so the loop ends.  Besides the
    certificates of _certify, quotient_nilradical_zero records the
    N(L/K_j) = 0 the loop ended on.
    """
    if L.field.modulus is None:
        G = _gram(L)
        R = _cut(L, [[sum(map(mul, g, d)) for g in G] for d in L.derived_space().scaled_rows])
        return _certify(L, R, "trace-form-char0", derived_series)
    series = derived_series(L)
    if series[-1].dim == 0:
        R, NQ = L.full_space(), L.zero_space()      # L/L = 0 has nilradical 0
    else:
        # M = L/R on the section S of the quotient, starting at R = 0
        series, R, M, S = None, L.zero_space(), L, L.full_space()
        while (NQ := nilradical(M).subspace).dim:
            R = R + embed_subspace(S, NQ)       # K_j, the preimage of N(M)
            qp = quotient(L, R)
            M, S = qp.quotient, Subspace.span(L.field, L.dim, qp.section)
    res = _certify(L, R, "nilradicals", derived_series, series)
    res.certificates["quotient_nilradical_zero"] = NQ.dim == 0
    return res


def _gram(L: LeibnizAlgebra) -> list:
    """G[x][y] = d^2 tr(R_x R_y) over Q for the basis of L, d as in
    L.scaled_table, and an int congruent to tr(R_x R_y) mod p over F_p: the
    Gram matrix of the trace form, which is symmetric.

    Column m of R_x is [e_m, e_x] = sum_l c_mx^l e_l, so
    tr(R_x R_y) = sum_{l, m} c_lx^m c_my^l: one self-join of the scaled
    table on (row, component), the entry at row l and component m of
    d [e_l, e_x] meeting the entry at row m and component l of d [e_m, e_y]."""
    n, T = L.dim, L.scaled_table()[1]
    by_key = {}             # (row, component) -> [(column, entry)]
    for l, row in enumerate(T):
        for x, entries in enumerate(row):
            for m, a in entries:
                by_key.setdefault((l, m), []).append((x, a))
    G = [[0] * n for _ in range(n)]
    for (l, m), xs in by_key.items():
        ys = by_key.get((m, l))
        if ys:
            for x, a in xs:
                Gx = G[x]
                for y, b in ys:
                    Gx[y] += a * b
    return G


def _traces(L: LeibnizAlgebra, cols) -> list:
    """d (tr(R_{e_i} M))_i over Q, for the integer matrix M with columns cols
    and d as in L.scaled_table, and ints congruent to the traces mod p over
    F_p: the functional x -> tr(R_x M), up to scale.

    The m-th entry of R_{e_i} M e_m = [M e_m, e_i] is sum_l M_lm [e_l, e_i]_m,
    so the traces are read off the nonzero entries of the scaled table."""
    T = L.scaled_table()[1]
    f = [0] * L.dim
    for l, row in enumerate(T):
        for i, entries in enumerate(row):
            for m, c in entries:
                f[i] += c * cols[m][l]
    return f


def _cut(L: LeibnizAlgebra, functionals) -> Subspace:
    """{ x in L : f . x = 0 for every functional f } over Q and F_p, each f an
    integer vector of coefficients on the basis of L, known up to scale: the
    nullspace of the functionals themselves, so no dot product is formed.
    The scale of a functional does not change where it vanishes, and over F_p
    the nullspace reduces the functionals mod p, so f may hold any ints."""
    return Subspace.span(L.field, L.dim, nullspace(L.field, L.dim, functionals))


def _stable_image(L: LeibnizAlgebra, V: Subspace, *xs) -> Subspace:
    """The stable image of the right multiplications by xs on V: the last
    term of V, [V, X], [[V, X], X], ..., X = span(xs), which stops once a
    term keeps its dimension.  V must be invariant under each R_x, so each
    term lies in the one before.  The k-th term is V A^k, A the algebra the
    R_x generate, so the result is zero exactly when A acts nilpotently on
    V; over F_p that is more than each R_x being nilpotent."""
    lefts, lin = [L.products(x, LEFT) for x in xs], L.by_linearity
    while True:
        # [v, x] = sum_i v_i [e_i, x], from the left products of x
        W = Subspace.span(L.field, L.dim, [lin(v, left) for left in lefts for v in V.scaled_rows])
        if W.dim == V.dim:
            return V
        V = W


def _right_mult_algebra(L: LeibnizAlgebra) -> Subspace:
    """The unital associative algebra A^1 that the R_{e_i} generate, over Q
    or F_p, in F^(n^2), a matrix by its columns in turn: span(1) spun
    (Subspace.spin) under a -> R_{e_i} a (column m is [a e_m, e_i]).  The
    products are formed lazily, so none is formed once A^1 is all of M_n."""
    n, lin = L.dim, L.by_linearity
    lefts = [L.products(e, LEFT) for e in L.full_space().scaled_rows]
    one = Subspace.span(L.field, n * n, [[int(k == m) for m in range(n) for k in range(n)]])
    return one.spin(lambda a: ([c for m in range(0, n * n, n) for c in lin(a[m:m + n], left)]
                               for left in lefts))


def _g(M, q: int, p: int) -> int:
    """g(M) = (tr(M^q) mod q p) / q, for M a list of integer rows and q a power
    of p, by squaring; a trace not divisible by q raises InternalInconsistency."""
    def times(X, Y):
        cols = list(zip(*Y))
        return [[sum(map(mul, r, c)) % (q * p) for c in cols] for r in X]

    def power(k):
        if k == 1:
            return M
        H = power(k // 2)
        H = times(H, H)
        return times(H, M) if k % 2 else H

    t = sum(r[i] for i, r in enumerate(power(q))) % (q * p)
    if t % q:
        raise InternalInconsistency(f"tr(M^{q}) = {t} mod {q * p} is not divisible by {q}")
    return t // q


def _radical_cut(L: LeibnizAlgebra) -> Subspace:
    """N(L) = { x in L : R_x in Rad(A) } (nilradical()), over Q or F_p:
    Rad(A) = Rad(A^1) (_right_mult_algebra) is I_l of I_-1 = A^1,
    I_i = { a in I_(i-1) : g_i(a b) = 0 for all b in A^1 }.  Over Q, l = 0
    and g_0 = tr (Dickson's criterion: each a in the ideal I_0 has
    tr(a^k) = 0 for k >= 1, so it is nilpotent).  Over F_p (Cohen, Ivanyos
    and Wales 1997, "Finding the radical of an algebra of linear
    transformations", J. Pure Appl. Algebra 117/118) l is the last with
    p^l <= n, and g_i(M) = (tr(M'^(p^i)) mod p^(i+1)) / p^i for the lift M'
    of M to [0, p) (_g); g_i is linear on I_(i-1).  So level 0 cuts L to
    { x : R_x in I_0 } by the functionals tr(R_x b) for A^1's scaled rows b
    (_traces), and level i cuts that to { x : R_x in I_i } by g_i(R_x b) on
    its scaled rows x.  R_x b lies in I_(i-1), and its coordinates on A^1's
    monic RREF rows are its entries at their pivot columns, so g_i is taken
    once per RREF row of the span of the R_x b and read off on each by
    linearity.

    Level 0 lies in nilradical()'s first cut C, so it needs no C to start
    from: b -> tr(R_x b) is linear, and A^1 holds 1 and R_{e_y} = R_{e_y} 1,
    so C's functionals tr(R_x) and tr(R_x R_{e_y}) lie in the span of level
    0's, and the level-0 cut of L is the level-0 cut of C."""
    F, n, p, lin = L.field, L.dim, L.field.modulus, L.by_linearity
    A = _right_mult_algebra(L)
    rows, cols, held = A.scaled_rows, range(0, n * n, n), {pc - pc % n for pc in A.pivots}
    X, q = _cut(L, [_traces(L, [b[m:m + n] for m in cols]) for b in rows]), p
    while p is not None and q <= n and X.dim:
        lefts = [L.products(x, LEFT) for x in X.scaled_rows]
        # each R_x b's entries at A^1's pivot columns, from the columns holding them
        coords = [[col[pc - pc % n][pc % n] for pc in A.pivots]
                  for col in ({m: lin(b[m:m + n], left) for m in held}
                              for left in lefts for b in rows)]
        W = Subspace.span(F, A.dim, coords)
        # tr(M^q) = tr((M^T)^q), and the rows of M^T are the columns of M
        values = [_g([a[m:m + n] for m in cols], q, p)
                  for a in (scaled_comb(F, n * n, u, rows) for u in W.scaled_rows)]
        g = [sum(c[pc] * v for pc, v in zip(W.pivots, values)) % p for c in coords]
        X, q = X.where_zero([g[r:r + len(rows)] for r in range(0, len(g), len(rows))]), q * p
    return X


def _certify(L: LeibnizAlgebra, S: Subspace, method: str, series, terms=None) -> CertifiedIdeal:
    """S as a CertifiedIdeal once it passes, in order, is_ideal and `series`
    (derived_series for the radical, lower_central_series for the
    nilradical, the certificate named after it) reaching zero on S inside L;
    terms, when given, are that series of S, already taken.  A failing check
    raises InternalInconsistency, so every returned certificate is true."""
    if not is_ideal(L, S):
        raise InternalInconsistency(f"{method}: the computed subspace is not an ideal")
    key = f"{series.__name__}_reaches_zero"
    if (series(L, S) if terms is None else terms)[-1].dim:
        raise InternalInconsistency(f"{method}: certificate {key} failed")
    return CertifiedIdeal(S, method, {"is_ideal": True, key: True})


def nilradical(L: LeibnizAlgebra) -> CertifiedIdeal:
    """Largest nilpotent ideal.

    Over Q and F_p, N(L) is found in two steps with the trace form
    beta(x, y) = tr(R_x R_y) of radical().  The first is the cut
        C = { x in L : tr(R_x) = 0 and beta(x, y) = 0 for all basis y of L }:
    the functionals x -> beta(x, y) are the columns of the Gram matrix G of
    beta (_gram), and tr(R_x) is read off the scaled table (_traces).

    N lies in C, in every characteristic.  The terms N^k of N's lower
    central series are right ideals of L: from
    [[a, b], c] = [a, [b, c]] + [[a, c], b], [N^{k+1}, L] <= N^{k+1} by
    induction.  So for x in N, R_y(N^k) <= N^k, R_x(L) <= N and
    R_x(N^k) <= N^{k+1}: R_x and R_x R_y map L into N and N^k into N^{k+1}.
    They are nilpotent, so their traces vanish over any field.

    C is an ideal, in every characteristic.  For the kernel I of L,
    [L, I] = 0 (as in radical()), so R_i = 0 for i in I, and
    [z, x] + [x, z] lies in I, so R_[z,x] = -R_[x,z].  From
    R_[y,z] = R_z R_y - R_y R_z and the cyclic invariance of the trace,
        tr(R_[x,z] R_y) = tr(R_x R_y R_z - R_x R_z R_y) = tr(R_x R_[z,y]),
    so beta([x, z], y) = beta(x, [z, y]) = -beta([z, x], y): the kernel of
    beta is an ideal.  tr vanishes on every R_[y,z], a commutator, so on
    [L, L], which holds [L, C] and [C, L].  So only nilpotency decides
    whether C is N: when C is an ideal whose lower central series reaches
    zero, C is N, as a nilpotent ideal lies in N.  That is the method
    "trace-form".

    The first cut can keep vectors outside N: on the 4-cycle algebra, where
    x acts on Q^4 by a cyclic permutation, tr(R_x) = tr(R_x^2) = 0; on
    span(x, v_1..v_p) over F_p with [v_i, x] = v_i and [x, v_i] = -v_i,
    R_x is the identity on span(v) and every tr(R_x^k) is p = 0.  Then the
    second step takes N = J = { x in L : R_x in Rad(A) } (_radical_cut), the
    method "right-mult-radical", for the associative algebra A that the right
    multiplications generate.  In every characteristic J is an ideal, as
    R_[x,y] = R_y R_x - R_x R_y, and nilpotent, as J^(k+1) = R_J(J^k) lies
    in Rad(A)^k(L).  By the above, the ideal of A that R_N generates lowers
    the filtration L >= N >= N^2 >= ... by one step, so it lies in Rad(A).

    One image chain L, [L, N], [[L, N], N], ... (_stable_image) decides:
    for an ideal N and the algebra A_N the R_n (n in N) generate,
    N^(k+1) <= L A_N^k <= N^k, so it reaches zero exactly when N is
    nilpotent, and then each R_v (v in N) is nilpotent.  The checks run in
    order: C's chain; if it is not zero, N = _radical_cut(L), whose chain
    must be zero; then _certify; the zero chain is recorded last, as
    right_mult_nilpotent_per_basis_vector.
    """
    full = L.full_space()
    # tr(R_x), and tr(R_x R_y) for the basis y of L: the columns of G
    N, method = _cut(L, [_traces(L, full.scaled_rows), *zip(*_gram(L))]), "trace-form"
    if _stable_image(L, full, *N.scaled_rows).dim:
        N, method = _radical_cut(L), "right-mult-radical"
        if _stable_image(L, full, *N.scaled_rows).dim:
            raise InternalInconsistency(
                "computed nilradical: the image chain of L under N does not reach zero")
    res = _certify(L, N, method, lower_central_series)
    res.certificates["right_mult_nilpotent_per_basis_vector"] = True
    return res


def frattini_ideal(L: LeibnizAlgebra, budget: int = oracle.DEFAULT_BUDGET,
                   A: Subspace | None = None) -> Subspace:
    """Largest ideal of the subalgebra A of L (default L) contained in every
    maximal subalgebra of A, as a subspace of L.

    Nilpotent A: every maximal subalgebra contains [A,A], the second term of
    the lower central series taken inside L, so it is the Frattini ideal
    (checked against the exhaustive scan on nilpotent F_p instances by the
    tests).  Otherwise only prime fields under the oracle budget are
    supported, by the scan of L, or of restrict(L, A) embedded back into L.
    """
    series = lower_central_series(L, A)
    if series[-1].dim == 0:
        return series[:2][-1]       # [A,A] is series[1], or 0 = series[0] when A = 0
    if L.field.modulus is None:
        raise Unsupported("Frattini ideal over Q is only computed for nilpotent algebras")
    if A is None:
        return oracle.frattini_oracle(L, budget)
    return embed_subspace(A, oracle.frattini_oracle(restrict(L, A), budget))


def find_complement_B(L: LeibnizAlgebra, budget: int = oracle.DEFAULT_BUDGET):
    """A subalgebra B with L = I + B and I cap B inside the Frattini ideal of
    B: the minimal supplement of I (_supplement), or None over Q when only
    the lattice scan would find one.
    """
    return _supplement(L, quotient(L, leibniz_kernel(L)), budget)


def _supplement(L: LeibnizAlgebra, qp: QuotientPresentation, budget: int):
    """A minimal supplement of the kernel I = qp.ideal (a subalgebra B with
    B + I = L and no smaller subalgebra B' < B with B' + I = L), else None:
    the first found of the complement subalgebra of I; when Q = L/I is
    nilpotent, the complement of the Fitting one component I_1 of I (the
    sum of its nonzero generalized weight spaces under the R_y); over F_p,
    the first subalgebra of the lattice scan of L by (dim, rows) with
    B + I = L; over Q, None.  A B that meets I is checked by
    _theorem2_failure.

    A minimal B meets theorem 2's premises: I cap B is an ideal of B, so
    it lies in phi(B) unless a maximal subalgebra M of B misses it, and
    then M + (I cap B) = B gives M + I = L with M < B.  It decides lemma 1:
    I <= phi(L) exactly when B = L.  A proper B lies in a maximal M, and
    I <= M would give M >= B + I = L; a maximal M missing the ideal I has
    M + I = L, and a minimal supplement inside M is proper.  Each B found
    is minimal.  A complement of I is, as B' + I = L needs
    dim B' >= dim L - dim I = dim B; so is the scan's first, as a B' < B
    comes before it.  With Q nilpotent, some minimal B exists (descend from
    L), and each is the unique complement of I_1:

    B/(I cap B) = Q is nilpotent and I cap B lies in phi(B), so B/phi(B)
    is nilpotent, and so is B (Barnes 1967; Batten Ray et al. 2013, "A
    Frattini theory for Leibniz algebras", Comm. Algebra).  Then
    I = I_0 + I_1 into the Fitting components of B's right action,
    I cap B lies in I_0, and I = span{[v,v]} = (I cap B) + [I,B] forces
    I cap B = I_0, as B acts nilpotently on I_0: B complements I_1.  A
    complement of I_1 is unique: two differ by a linear
    psi: L/I_1 -> I_1 with [psi(s), t] = psi([s,t]), so long products of
    right multiplications kill psi(s) (long brackets vanish in the
    nilpotent L/I_1), and psi(s) lies in I_0 cap I_1 = 0.

    I_1 is the stable image W of I under all of L (_stable_image), in every
    characteristic.  W is an ideal, as [L, I] = 0 and [W, L] = W.  The R_y
    act on I through the nilpotent Lie algebra Q (R_i = 0 for i in I), so
    I = I_0 + I_1, both invariant, with every R_y nilpotent on I_0; by
    Jacobson's theorem on weakly closed sets they generate a nilpotent
    algebra there, and the chain kills I_0.  On each nonzero weight space
    some R_y, not always a basis vector, acts invertibly, so W = I_1 (over
    F_2 every basis vector's stable image can be 0 when I_1 = I).
    """
    I, full = qp.ideal, L.full_space()
    B = _complement_subalgebra(L, I)
    if B is None and is_nilpotent(qp.quotient):
        B = _complement_subalgebra(L, _stable_image(L, I, *full.scaled_rows))
    if B is None and L.field.modulus is not None:
        B = min((S for S in oracle.scan(L, budget).subalgebras if S + I == full),
                key=lambda S: (S.dim, S.scaled_rows))
    if B is not None and B.dim + I.dim > L.dim and _theorem2_failure(L, I, B, budget):
        raise InternalInconsistency("the supplement of the kernel fails theorem 2's premises")
    return B


def _complement_subalgebra(L: LeibnizAlgebra, I: Subspace):
    """A subalgebra B with B cap I = 0 and B + I = L, or None if there is none.
    I is the kernel or an ideal of L inside it.

    Putting y = z in the identity gives [x, y^2] = 0, so [L, I] = 0.  Let
    c_1..c_m be the units at I's non-pivot columns npc_1..npc_m, g_1..g_d
    the scaled rows of I with pivot columns pc_1..pc_d, and
    b_s = c_s + sum_r a_sr g_r.  Then
    [b_s, b_t] = [c_s, c_t] + sum_r a_sr [g_r, c_t], and with lam the table
    of L/I, span(b) is a subalgebra iff for all s, t the vector
        [b_s, b_t] - sum_u lam_stu b_u
            = [c_s, c_t] - sum_u lam_stu c_u + sum_r a_sr [g_r, c_t]
              - sum_u lam_stu sum_r a_ur g_r,
    which lies in I, is zero.  It is zero iff its entries at the pivot
    columns pc_k are, where c_u and every g_r but g_k vanish.  With
    d[x, y] the scaled product (read off the right products of x) and
    (res_st, D) I's integer residual of
    d[c_s, c_t], lam_stu = res_st[npc_u] / (D d), so times D d the entry at
    pc_k is the integer equation
        D d[c_s, c_t][pc_k] + sum_r a_sr D d[g_r, c_t][pc_k]
            - sum_u res_st[npc_u] g_k[pc_k] a_uk = 0,
    m^2 d equations (zero ones skipped) for the m d unknowns a_sr, with
    the constant term in the last column.  The equations are yielded to
    nullspace one at a time, so only their RREF is held.  When I = 0 the
    complement is L, with nothing to solve.
    """
    F, p = L.field, L.field.modulus
    if not I.dim:
        return L.full_space()
    n, units, piv = L.dim, L.full_space().scaled_rows, set(I.pivots)
    npc = [c for c in range(n) if c not in piv]
    comp, gens = [units[c] for c in npc], I.scaled_rows
    m, d = len(comp), I.dim
    # at [t][k], the nonzero entries d[g_r, c_t][pc_k] as (r, entry)
    gens_right = [L.products(g, RIGHT) for g in gens]
    acts = [[[(r, a[pc]) for r, a in enumerate(at) if a[pc]] for pc in I.pivots]
            for at in ([_dense(n, R[c]) for R in gens_right] for c in npc)]

    def system():
        for s in range(m):
            comp_right = L.products(comp[s], RIGHT)
            for t in range(m):
                w = _dense(n, comp_right[npc[t]])
                res, D = I.scaled_residual(w)
                lam = [res[c] for c in npc]
                lam_nz = any(lam)
                for k, pc in enumerate(I.pivots):
                    if not (w[pc] or acts[t][k] or lam_nz):
                        continue        # every entry of the row would be 0
                    row = [0] * (m * d) + [D * w[pc]]
                    for r, a in acts[t][k]:
                        row[s * d + r] = D * a
                    for u in range(m):
                        row[u * d + k] -= lam[u] * gens[k][pc]
                    yield row if p is None else [a % p for a in row]

    # the constant column is last: a solution exists iff it is a free column,
    # and its kernel vector sets every other free unknown to 0
    ker = nullspace(F, m * d + 1, system())
    if not ker or not ker[-1][-1]:
        return None
    v = ker[-1]
    B = Subspace.span(F, L.dim, [scaled_comb(F, L.dim, [v[-1], *v[s * d:(s + 1) * d]],
                                             [comp[s], *gens]) for s in range(m)])
    if not is_subalgebra(L, B):
        raise InternalInconsistency("the solved complement of the kernel is not a subalgebra")
    return B


def _theorem2_failure(L: LeibnizAlgebra, I: Subspace, B: Subspace, budget: int):
    """The message of the first of theorem 2's premises after the first that
    fails on the subalgebra B of L, in order: I + B = L, and I cap B lies in
    phi(B); None when both hold.  verify runs it on a B it is given, after
    checking that B is a subalgebra, and _supplement on the B it found."""
    if I + B != L.full_space():
        return "I + B is not all of L"
    IB = I & B
    if not IB.dim:
        return None         # 0 is in any phi(B)
    try:
        phi = frattini_ideal(L, budget, B)
    except Unsupported:
        return "cannot verify I cap B <= phi(B): Frattini ideal of B not computable"
    return None if IB <= phi else "I cap B is not inside the Frattini ideal of B"


def verify_theorem2(L: LeibnizAlgebra, qp: QuotientPresentation, N_of,
                    B: Subspace) -> VerificationReport:
    """Check N(L/I) = (I + N(B))/I, and that it equals N(L)/I exactly when
    every n in N(B) has nilpotent right multiplication on I.
    qp is the quotient by I, N_of maps an algebra to its nilradical
    (verify's table), and B meets theorem 2's premises (_theorem2_failure),
    so the report is applicable.  It passes when the formula holds and the
    condition holds iff N(L/I) = N(L)/I.  Its details name I, B, N(L),
    N(B) in L's coordinates, both sides (lhs = N(L/I), rhs = (I + N(B))/I,
    in quotient coordinates) and the three verdicts; its witnesses are the
    condition's (_right_action_on_kernel_nilpotent).
    """
    I, NQ, NL = qp.ideal, N_of(qp.quotient), N_of(L)
    NB_in_L = embed_subspace(B, N_of(restrict(L, B)))
    rhs = qp.project_subspace(I + NB_in_L)
    condition, witnesses = _right_action_on_kernel_nilpotent(L, I, NB_in_L)
    formula_equal, quotients_equal = NQ == rhs, NQ == qp.project_subspace(NL)
    return VerificationReport(
        name="nilradical-of-quotient-from-B",
        passed=formula_equal and condition == quotients_equal,
        details={"kernel": I, "B": B, "N_of_L": NL, "N_of_B_in_L": NB_in_L,
                 "lhs": NQ, "rhs": rhs, "formula_equal": formula_equal,
                 "nilpotency_condition": condition,
                 "kernel_quotient_equal": quotients_equal},
        witnesses=witnesses,
    )


def _right_action_on_kernel_nilpotent(L, I: Subspace, NB_in_L: Subspace):
    """Is R_n|_I nilpotent for every n in N(B)?

    I is an ideal, so R_n maps I into I, and the terms I_0 = I,
    I_{k+1} = [I_k, N(B)] decrease to a stable term V (_stable_image over
    the basis of N(B)).  If I_k = 0, every product of k of the
    R_n vanishes on I, so each R_n|_I is nilpotent.  Conversely
    R_[a,b] = R_b R_a - R_a R_b, so the R_n|_I form a Lie algebra of
    operators; when each of them is nilpotent, the associative algebra they
    generate is nilpotent (Jacobson's theorem on weakly closed sets), its
    products of dim I factors vanish on I, and the terms reach 0.  The
    condition is so decided on all of N(B), whatever its basis; over F_p a
    basis of nilpotent R_n can span a non-nilpotent one.  When the terms
    stall, the witnesses name each canonical basis vector n of N(B) with
    R_n|_I not nilpotent (its stable image there is not zero), with the
    matrix of R_n|_I in I's basis, as a tuple of rows, read off the scaled
    products of the rows as restrict reads them; when there is none, the
    witness is the stalled term V != 0, with [V, N(B)] = V.
    """
    V = _stable_image(L, I, *NB_in_L.scaled_rows)
    if not V.dim:
        return True, []
    F, d = L.field, L.scaled_table()[0]
    witnesses = []
    for x, px, nvec in zip(NB_in_L.scaled_rows, NB_in_L.pivots, NB_in_L.rows):
        if _stable_image(L, I, x).dim == 0:
            continue
        cols, left = [], L.products(x, LEFT)
        for u, pu in zip(I.scaled_rows, I.pivots):
            w = L.by_linearity(u, left)
            if not I.contains(w):
                raise InternalInconsistency("kernel is not invariant under right multiplication")
            cols.append(from_scaled(F, [w[pc] for pc in I.pivots], d * u[pu] * x[px]))
        witnesses.append({"n": nvec, "restricted_matrix": tuple(zip(*cols))})
    return False, witnesses or [{"stalled_term": V}]


def verify_lemma1(L: LeibnizAlgebra, qp: QuotientPresentation, N_of, S):
    """If I is inside the Frattini ideal, then N(L/I) = N(L)/I.  qp is the
    quotient by I, N_of maps an algebra to its nilradical (verify's table)
    and S is the minimal supplement of I (_supplement) or None.  The
    premise holds exactly when S = L; a proper S is the witness that it
    fails.  Returns {"skipped": message} without S, over Q with L/I not
    nilpotent.  N(L/I) is computed only when the premise holds.
    """
    I = qp.ideal
    name = "nilradical-of-quotient-under-frattini-premise"
    details = {"kernel": I}
    if S is None:
        return {"skipped": "Frattini ideal of L not computable"}
    if S != L.full_space():
        details["complement"] = S
        details["notice"] = ("the complement S is a proper subalgebra with S + I = L, "
                             "so premise I <= phi(L) fails; statement not applicable")
        return VerificationReport(name=name, passed=True, applicable=False, details=details)
    NQ, rhs = N_of(qp.quotient), qp.project_subspace(N_of(L))
    return VerificationReport(
        name=name,
        passed=NQ == rhs,
        details={**details, "lhs": NQ, "rhs": rhs},
        witnesses=[] if NQ == rhs else [{"lhs": NQ, "rhs": rhs}],
    )


def verify_prop3(L: LeibnizAlgebra, R: Subspace, N: Subspace) -> VerificationReport:
    """[L, R] is inside N, for the radical R and the nilradical N in char 0;
    both product orientations are checked and reported separately since the
    one-sided/two-sided reading is ambiguous.
    """
    one_sided = bracket_span(L, L.full_space(), R) <= N
    two_sided = one_sided and bracket_span(L, R, L.full_space()) <= N
    return VerificationReport(
        name="bracket-of-radical-inside-nilradical",
        passed=one_sided and two_sided,
        details={"one_sided": one_sided, "two_sided": two_sided,
                 "radical": R, "nilradical": N},
    )


def verify_corollary(L: LeibnizAlgebra, R: Subspace, N: Subspace) -> VerificationReport:
    """[R,R] inside N and nilpotent; L solvable iff [L,L] nilpotent (char 0).
    L is solvable exactly when its certified radical R is all of L."""
    full = L.full_space()
    RR = bracket_span(L, R, R)
    # spans of all products of a subalgebra are closed under the bracket
    contained = RR <= N
    rr_nilpotent = is_nilpotent(L, RR)
    equivalence = (R == full) == is_nilpotent(L, L.derived_space())
    return VerificationReport(
        name="derived-radical-nilpotency-corollary",
        passed=contained and rr_nilpotent and equivalence,
        details={"RR_inside_N": contained, "RR_nilpotent": rr_nilpotent,
                 "solvable_iff_derived_nilpotent": equivalence},
    )


def verify(L: LeibnizAlgebra, B: Subspace | None = None,
           budget: int = oracle.DEFAULT_BUDGET) -> dict:
    """The paper's checks on L combined into one verdict.

    I, L/I and the minimal supplement S of I (_supplement), and over Q the
    radical R(L), are computed once.  Nilradicals are kept in one table for
    the call, keyed by the algebra (its field and scaled table), so N(L),
    N(L/I) and N(B) are computed once per distinct table, N(L) first and
    the others when a step reads them.  Lemma 1 (decided by S), theorem 2
    (for B, else for S), proposition 3 and the corollary then run in that
    order.  A B given here is checked against theorem 2's premises first.
    A step whose premise fails or that cannot be computed is reported as
    {"skipped": message}, and so are proposition 3 and the corollary over
    F_p; every step that ran as its VerificationReport.  The verdict is
    "fail" when a check that ran did not pass, else "pass".
    """
    N_of = cache(lambda M: nilradical(M).subspace)
    qp = quotient(L, leibniz_kernel(L))
    NL = N_of(L)
    S = _supplement(L, qp, budget)
    report = {"lemma1": verify_lemma1(L, qp, N_of, S)}
    if B is None:
        B = S
        failure = None if B is not None else "no complement subalgebra B found"
    else:
        failure = ("B is not a subalgebra" if not is_subalgebra(L, B)
                   else _theorem2_failure(L, qp.ideal, B, budget))
    report["theorem2"] = {"skipped": failure} if failure else verify_theorem2(L, qp, N_of, B)
    if L.field.modulus is None:
        R = radical(L).subspace
        report["prop3"] = verify_prop3(L, R, NL)
        report["corollary"] = verify_corollary(L, R, NL)
    else:
        report["prop3"] = report["corollary"] = {"skipped": "stated for characteristic zero"}
    failed = any(not r.passed for r in report.values() if not isinstance(r, dict))
    report["verdict"] = "fail" if failed else "pass"
    return report
