import random
import sys

import pytest

from dense import dense_basis
from lattice_reference import reference_scan
from leibnizalg import corpus, direct_sum, exactlin, oracle
from leibnizalg.core import (
    LeibnizAlgebra,
    bracket_span,
    check_leibniz,
    embed_subspace,
    is_ideal,
    is_nilpotent,
    leibniz_kernel,
    restrict,
)
from leibnizalg.errors import BudgetExceeded, TheoremViolation, Unsupported, UnsupportedField
from leibnizalg.exactlin import QQ, Field, Subspace, subspace_count
from leibnizalg.oracle import (
    enumerate_subspaces,
    frattini_oracle,
    nilradical_oracle,
    radical_oracle,
    reduce_mod_p,
    scan,
)
from leibnizalg.radicals import find_complement_B, frattini_ideal, nilradical, radical


def reducible_corpus(p, cap):
    out = []
    for e in corpus.standard_entries():
        if e.algebra.dim > cap:
            continue
        Lp = reduce_mod_p(e.algebra, p)
        if Lp is not None:
            out.append((e.name, Lp))
    return out


# ---------------------------------------------------------------- enumeration

def test_subspace_counts_match_gaussian_binomials():
    for n, p in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (1, 5)]:
        subs = list(enumerate_subspaces(n, p))
        assert len(subs) == subspace_count(n, p)
        assert len(set(subs)) == len(subs)  # canonical forms, no duplicates


def test_enumerated_subspaces_are_canonical():
    for S in enumerate_subspaces(3, 2):
        assert S == Subspace.span(Field(2), 3, S.rows)


def test_budget_enforced():
    with pytest.raises(BudgetExceeded):
        list(enumerate_subspaces(10, 7, budget=1000))


def test_oracle_rejects_rational_algebras():
    with pytest.raises(UnsupportedField):
        nilradical_oracle(corpus.example1().algebra)


def test_reduce_mod_p_takes_rational_tables_that_stay_leibniz():
    with pytest.raises(UnsupportedField):
        reduce_mod_p(reduce_mod_p(corpus.example1().algebra, 3), 3)
    # [e1, e3] = -e2, [e3, e1] = -e1, [e3, e3] = -e3 breaks the identity over
    # Q, and mod 2, 3 and 5 alike
    L = LeibnizAlgebra.from_products(QQ, 3, {(0, 2): {1: -1}, (2, 0): {0: -1},
                                             (2, 2): {2: -1}})
    assert [reduce_mod_p(L, p) for p in (2, 3, 5)] == [None] * 3


def _subalgebras_by_span(Lp):
    """Every subalgebra, in enumeration order, tested by the product span."""
    return [S for S in enumerate_subspaces(Lp.dim, Lp.field.modulus)
            if bracket_span(Lp, S, S) <= S]


def test_maximal_subalgebras_match_pairwise_reference():
    for p, cap in [(2, 5), (3, 4)]:
        for name, Lp in reducible_corpus(p, cap):
            proper = [S for S in _subalgebras_by_span(Lp) if S.dim < Lp.dim]
            reference = [S for S in proper
                         if not any(S.leq(T) and S.dim < T.dim for T in proper)]
            assert list(scan(Lp).maximal_subalgebras) == reference, (name, p)


def test_scan_matches_the_brute_force_reference():
    # every field of the scan, in order, against subspaces built from their
    # rows and a series run on every ideal: inherited nilpotency and
    # solvability verdicts must agree with the series
    cases = [(name, p, Lp) for p in (2, 3, 5)
             for name, Lp in reducible_corpus(p, 6) if subspace_count(Lp.dim, p) <= 3_000]
    nsl = direct_sum(corpus.nilcyclic2().algebra, corpus.sl2().algebra)
    cases.append(("nilcyclic2+sl2", 3, reduce_mod_p(nsl, 3)))
    assert len(cases) == 31
    # the same reductions in dense bases, whose tables fill most products
    dense = [(f"{name} dense {seed}", p, dense_basis(Lp, random.Random(seed)))
             for name, p, Lp in cases[:-1] for seed in (1, 2)]
    for name, p, Lp in cases + dense:
        oracle._scan_cached.cache_clear()
        assert scan(Lp) == reference_scan(Lp), (name, p)


def test_scan_runs_once_per_algebra(monkeypatch):
    oracle._scan_cached.cache_clear()
    enumerations = []
    real = oracle._pivot_patterns
    monkeypatch.setattr(oracle, "_pivot_patterns",
                        lambda *a: enumerations.append(a) or real(*a))
    L = reduce_mod_p(corpus.heisenberg().algebra, 2)
    relabelled = LeibnizAlgebra(L.field, L.dim, L.table, ["x", "y", "z"])
    assert relabelled == L and hash(relabelled) == hash(L)
    first = scan(L)
    assert scan(relabelled) is first and len(enumerations) == 1
    assert isinstance(first.ideals, tuple) and isinstance(first.subalgebras, tuple)
    # the budget is checked on every call, cached or not
    with pytest.raises(BudgetExceeded):
        scan(L, budget=subspace_count(L.dim, 2) - 1)
    assert len(enumerations) == 1


def test_the_scan_containment_test_is_leq():
    # every ordered pair of subspaces of F_2^4 and F_3^3
    for n, p in [(4, 2), (3, 3)]:
        subspaces = list(enumerate_subspaces(n, p))
        for M in subspaces:
            inside = oracle._within(M)
            assert [inside(T) for T in subspaces] == [T.leq(M) for T in subspaces], M


def test_the_largest_ideal_must_contain_every_other():
    # span(e1) and span(e2) are both largest and neither contains the other
    F = Field(2)
    Lp = reduce_mod_p(corpus.abelian(2).algebra, 2)
    zero, e1, e2 = (Subspace.span(F, 2, rows) for rows in ([], [(1, 0)], [(0, 1)]))
    with pytest.raises(TheoremViolation):
        oracle.nilradical_from_scan(oracle.LatticeScan(Lp, 5, nilpotent_ideals=(zero, e1, e2)))
    with pytest.raises(TheoremViolation):
        oracle._largest([zero, e1, e2], "solvable")
    assert oracle._largest([zero, e1, e1 + e2], "solvable") == Lp.full_space()


def test_the_scan_makes_no_leq_call(monkeypatch):
    # Subspace.leq raises when the scan's own code calls it; the series of the
    # ideals (core) still call it, and are counted: to_dict runs none
    real, from_core = Subspace.leq, []

    def leq(self, other):
        frame = sys._getframe(1)
        while frame.f_code.co_filename == exactlin.__file__:
            frame = frame.f_back
        if frame.f_code.co_filename == oracle.__file__:
            raise AssertionError("the scan called Subspace.leq")
        from_core.append(frame.f_code.co_name)
        return real(self, other)

    cases = [(name, p, Lp) for p in (2, 3)
             for name, Lp in reducible_corpus(p, 6) if subspace_count(Lp.dim, p) <= 3_000]
    expected = {(name, p): (nilradical(Lp).subspace, radical(Lp).subspace)
                for name, p, Lp in cases}
    oracle._scan_cached.cache_clear()
    monkeypatch.setattr(Subspace, "leq", leq)
    for name, p, Lp in cases:
        s = scan(Lp)
        series = len(from_core)
        answer = s.to_dict()
        assert len(from_core) == series, (name, p)
        N, R = expected[name, p]
        assert answer["nilradical"].subspace == N == nilradical_oracle(Lp), (name, p)
        assert radical_oracle(Lp) == R, (name, p)
    assert "_series" in from_core
    oracle._scan_cached.cache_clear()


def test_find_complement_b_matches_enumeration_reference():
    def conditions_hold(Lp, I, B):
        if I + B != Lp.full_space():
            return False
        IB = I & B
        if IB.dim == 0:
            return True
        try:
            phi = frattini_ideal(restrict(Lp, B))
        except Unsupported:
            return False
        return IB <= embed_subspace(B, phi)

    # g = span(E11, E12) in gl_2 acting on the right of M = F^2, as g + M with
    # [x + m, y + n] = [x, y] + m y: I = M, and over F_2 and F_3 several
    # 2-dim subalgebras complement it, so the search order decides B
    hemisemidirect = LeibnizAlgebra.from_products(QQ, 4, {
        (0, 1): {1: 1}, (1, 0): {1: -1}, (2, 0): {2: 1}, (2, 1): {3: 1}})
    for p, cap in [(2, 5), (3, 4)]:
        extra = [("hemisemidirect", reduce_mod_p(hemisemidirect, p))]
        for name, Lp in reducible_corpus(p, cap) + extra:
            I = leibniz_kernel(Lp)
            candidates = sorted(_subalgebras_by_span(Lp), key=lambda S: (S.dim, S.rows))
            reference = next((B for B in candidates if conditions_hold(Lp, I, B)), None)
            assert find_complement_B(Lp) == reference, (name, p)


# ---------------------------------------------------------------- reduction

def test_reduction_keeps_identity():
    for p in (2, 3):
        Lp = reduce_mod_p(corpus.example1().algebra, p)
        assert Lp is not None and check_leibniz(Lp).passed


def test_reduction_rejects_bad_denominator():
    from leibnizalg.core import LeibnizAlgebra
    from leibnizalg.exactlin import QQ

    L = LeibnizAlgebra.from_products(QQ, 2, {(0, 0): {1: QQ.scalar(1, 2)}})
    assert reduce_mod_p(L, 2) is None


# ---------------------------------------------------------------- nilradical oracle

def test_nilradical_oracle_example1_f3():
    Lp = reduce_mod_p(corpus.example1().algebra, 3)
    N = nilradical_oracle(Lp)
    assert N == Subspace.span(Field(3), 2, [(0, 1)])


def test_nilradical_oracle_abelian_f2():
    Lp = reduce_mod_p(corpus.abelian(3).algebra, 2)
    assert nilradical_oracle(Lp) == Lp.full_space()


def test_nilradical_oracle_sl2_f7():
    Lp = reduce_mod_p(corpus.sl2().algebra, 7)
    assert nilradical_oracle(Lp).dim == 0


def test_theorem1_pairwise_sums_nilpotent():
    for p, cap in [(2, 5), (3, 4)]:
        for name, Lp in reducible_corpus(p, cap):
            s = scan(Lp)
            nil = s.nilpotent_ideals
            for i in range(len(nil)):
                for j in range(i, len(nil)):
                    total = nil[i] + nil[j]
                    assert is_ideal(Lp, total), name
                    assert total.dim == 0 or is_nilpotent(Lp, total), name


def test_nilpotent_ideal_poset_has_unique_maximum():
    for p, cap in [(2, 5), (3, 4)]:
        for name, Lp in reducible_corpus(p, cap):
            s = scan(Lp)
            maxima = [J for J in s.nilpotent_ideals
                      if not any(J.leq(K) and J.dim < K.dim for K in s.nilpotent_ideals)]
            assert len(maxima) == 1, name
            assert maxima[0] == nilradical_oracle(Lp), name


def test_oracle_agrees_with_fp_algorithm_path():
    # every admissible reduction mod 2, 3 and 5 with at most 60,000
    # subspaces, up to example2-2-1+sl2 mod 3 (56,632)
    cases = [(name, p, Lp) for p in (2, 3, 5)
             for name, Lp in reducible_corpus(p, 6) if subspace_count(Lp.dim, p) <= 60_000]
    assert len(cases) == 32
    for name, p, Lp in cases:
        N, R = nilradical(Lp), radical(Lp)
        # the trace-form cut of example2(3, 1) mod 2 keeps y: tr(R_y^k) = 2 = 0
        stalled = (name, p) == ("example2(n=3,r=1)", 2)
        assert N.method == ("right-mult-radical" if stalled else "trace-form"), (name, p)
        assert R.method == "nilradicals", (name, p)
        assert nilradical_oracle(Lp) == N.subspace, (name, p)
        assert radical_oracle(Lp) == R.subspace, (name, p)


# ---------------------------------------------------------------- radical / frattini

def test_radical_oracle_example2_f3():
    Lp = reduce_mod_p(corpus.example2(2, 1).algebra, 3)
    assert radical_oracle(Lp) == Lp.full_space()


def test_frattini_oracle_heisenberg_f2():
    Lp = reduce_mod_p(corpus.heisenberg().algebra, 2)
    assert frattini_oracle(Lp) == Subspace.span(Field(2), 3, [(0, 0, 1)])


def test_frattini_oracle_abelian_is_zero():
    Lp = reduce_mod_p(corpus.abelian(3).algebra, 2)
    assert frattini_oracle(Lp).dim == 0


def test_frattini_derived_rule_matches_oracle_on_nilpotent_instances():
    from leibnizalg.core import bracket_span, is_nilpotent

    for p, cap in [(2, 5), (3, 4)]:
        for name, Lp in reducible_corpus(p, cap):
            if not is_nilpotent(Lp):
                continue
            derived_rule = bracket_span(Lp, Lp.full_space(), Lp.full_space())
            assert frattini_oracle(Lp) == derived_rule, name


def test_char0_nilradical_reduces_to_oracle_result():
    # integer RREF bases of the char-0 nilradical reduce mod p to the
    # exhaustive result on every reducible corpus entry
    for p, cap in [(2, 5), (3, 4)]:
        F = Field(p)
        for e in corpus.standard_entries():
            if e.algebra.dim > cap:
                continue
            Lp = reduce_mod_p(e.algebra, p)
            if Lp is None:
                continue
            N0 = nilradical(e.algebra).subspace
            try:
                rows = [[F.scalar(c.numerator, c.denominator) for c in row]
                        for row in N0.rows]
            except ZeroDivisionError:
                continue
            reduced = Subspace.span(F, Lp.dim, rows)
            assert reduced <= nilradical_oracle(Lp), e.name
