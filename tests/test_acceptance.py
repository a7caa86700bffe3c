"""Acceptance suite: one test per criterion, exact equality everywhere
(no tolerances: all arithmetic is over Q or F_p).  Each test prints a
pass/fail line; run with `pytest tests/test_acceptance.py -s` to see them.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from dense import dense_basis
from leibnizalg import corpus
from leibnizalg.core import (
    LeibnizAlgebra,
    bracket_span,
    direct_sum,
    is_ideal,
    is_nilpotent,
    leibniz_kernel,
    liesation,
    quotient,
)
from leibnizalg.errors import InternalInconsistency
from leibnizalg.exactlin import QQ, Subspace
from leibnizalg.oracle import nilradical_oracle, reduce_mod_p, scan
from leibnizalg.radicals import (
    find_complement_B,
    frattini_ideal,
    nilradical,
    radical,
    verify,
)
from leibnizalg.reports import VerificationReport


def report(criterion, ok, elapsed=None):
    t = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{t}")
    assert ok, criterion


def char0_entries():
    return corpus.standard_entries()


def test_criterion_1_example1_counterexample():
    t0 = time.time()
    L = corpus.example1().algebra
    I = leibniz_kernel(L)
    N = nilradical(L).subspace
    expect = Subspace.span(QQ, 2, [L.basis_vector(1)])
    qp = quotient(L, I)
    N_quot = nilradical(qp.quotient).subspace
    ok = (I == expect and N == expect
          and N_quot == Subspace.full(QQ, 1)          # N(L/I) = L/I, dim 1
          and N_quot != qp.project_subspace(N))       # hence N(L/I) != N(L)/I
    elapsed = time.time() - t0
    report("1 example1-counterexample", ok and elapsed < 1.0, elapsed)


def test_criterion_2_example2_family():
    t0 = time.time()
    ok = True
    for n in range(1, 7):
        for r in range(n):
            L = corpus.example2(n, r).algebra
            I = leibniz_kernel(L)
            N = nilradical(L).subspace
            ok &= I == Subspace.span(QQ, n + 1, [L.basis_vector(i) for i in range(r, n)])
            ok &= N == Subspace.span(QQ, n + 1, [L.basis_vector(i) for i in range(n)])
            qp = quotient(L, I)
            ok &= nilradical(qp.quotient).subspace == Subspace.full(QQ, qp.quotient.dim)
    elapsed = time.time() - t0
    report("2 example2-family", ok and elapsed < 5.0, elapsed)


def test_criterion_3_theorem2_formula():
    t0 = time.time()
    ok = True
    # the stated complements for the two counterexample families
    L1 = corpus.example1().algebra
    B1 = Subspace.span(QQ, 2, [(Fraction(1), Fraction(-1))])
    rep1 = verify(L1, B1)["theorem2"]
    ok &= rep1.details["formula_equal"]
    L2 = corpus.example2(2, 1).algebra
    B2 = Subspace.span(QQ, 3, [L2.basis_vector(0), L2.basis_vector(2)])
    rep2 = verify(L2, B2)["theorem2"]
    ok &= rep2.details["formula_equal"]
    for e in char0_entries():
        B = find_complement_B(e.algebra)
        if B is None:
            continue
        rep = verify(e.algebra, B)["theorem2"]
        ok &= rep.details["formula_equal"]
        ok &= rep.details["nilpotency_condition"] == rep.details["kernel_quotient_equal"]
    elapsed = time.time() - t0
    report("3 theorem2-formula", ok and elapsed < 10.0, elapsed)


def test_criterion_4_direct_sum_robustness():
    ok = True
    for base in (corpus.example1(), corpus.example2(2, 1)):
        A = base.algebra
        L = direct_sum(A, corpus.sl2().algebra)

        def embed(sub):
            z = (Fraction(0),) * 3
            return Subspace.span(QQ, L.dim, [tuple(r) + z for r in sub.rows])

        ok &= leibniz_kernel(L) == embed(leibniz_kernel(A))
        ok &= nilradical(L).subspace == embed(nilradical(A).subspace)
        ok &= radical(L).subspace == embed(radical(A).subspace)
    report("4 direct-sum-robustness", ok)


def test_criterion_5_prop3_corollary_suite():
    ok = True
    for e in char0_entries():
        L = e.algebra
        R = radical(L).subspace
        N = nilradical(L).subspace
        full = L.full_space()
        ok &= bracket_span(L, full, R) <= N
        ok &= bracket_span(L, full, R) + bracket_span(L, R, full) <= N
        RR = bracket_span(L, R, R)
        ok &= RR <= N
        ok &= RR.dim == 0 or is_nilpotent(L, RR)
        LL = bracket_span(L, full, full)
        derived_nilpotent = LL.dim == 0 or is_nilpotent(L, LL)
        from leibnizalg.core import is_solvable
        ok &= is_solvable(L) == derived_nilpotent
    report("5 prop3-corollary-suite", ok)


def test_criterion_6_radical_pullback():
    ok = True
    for e in char0_entries():
        qp = liesation(e.algebra)
        lhs = radical(qp.quotient).subspace
        rhs = qp.project_subspace(radical(e.algebra).subspace)
        ok &= lhs == rhs
    report("6 radical-pullback", ok)


def test_criterion_7_oracle_equivalence():
    t0 = time.time()
    ok = True
    for p, cap in [(2, 5), (3, 4)]:
        for e in corpus.standard_entries():
            if e.algebra.dim > cap:
                continue
            Lp = reduce_mod_p(e.algebra, p)
            if Lp is None:
                continue
            N_oracle = nilradical_oracle(Lp)
            ok &= N_oracle == nilradical(Lp).subspace
            s = scan(Lp)
            maxima = [J for J in s.nilpotent_ideals
                      if not any(J.leq(K) and J.dim < K.dim for K in s.nilpotent_ideals)]
            ok &= len(maxima) == 1 and maxima[0] == N_oracle
            for i in range(len(s.nilpotent_ideals)):
                for j in range(i, len(s.nilpotent_ideals)):
                    total = s.nilpotent_ideals[i] + s.nilpotent_ideals[j]
                    ok &= is_ideal(Lp, total)
                    ok &= total.dim == 0 or is_nilpotent(Lp, total)
    elapsed = time.time() - t0
    report("7 oracle-equivalence", ok and elapsed < 60.0, elapsed)


def test_criterion_8_certificate_discipline():
    ok = True
    for e in corpus.standard_entries():
        ok &= all(nilradical(e.algebra).certificates.values())
        ok &= all(radical(e.algebra).certificates.values())
    # injected fault: one structure constant of example1 corrupted
    # ([x2,x] = x instead of x2) must abort, never answer silently
    corrupted = LeibnizAlgebra.from_products(
        QQ, 2, {(0, 0): {1: 1}, (1, 0): {0: 1}}, labels=["x", "x2"])
    try:
        nilradical(corrupted)
        ok = False
    except InternalInconsistency:
        pass
    report("8 certificate-discipline", ok)


def test_criterion_9_lemma1_instance():
    L = corpus.nilcyclic2().algebra
    I = leibniz_kernel(L)
    phi = frattini_ideal(L)
    rep = verify(L)["lemma1"]
    ok = I <= phi and rep.applicable and rep.passed
    report("9 lemma1-instance", ok)


def test_criterion_10_nilradical_at_dim17():
    t0 = time.time()
    entry = corpus.example2(16, 8)
    res = nilradical(entry.algebra)
    ok = res.subspace == entry.expected["nilradical"]["value"]
    ok &= res.method == "trace-form" and all(res.certificates.values())
    elapsed = time.time() - t0
    report("10 nilradical-at-dim17", ok and elapsed < 10.0, elapsed)


def test_criterion_11_fp_verify_on_2825_subspaces(tmp_path, capsys):
    # example2-2-1+sl2 mod 2: dim 6, 2,825 subspaces; `verify` cuts N(L) and
    # N(L/I) by the trace form, and the kernel has a complement, so nothing is
    # scanned.  The trace-form cut of example2-3-1 mod 2 keeps y, as
    # tr(R_y^k) = 2 = 0, so its N(L) is taken from all of L by the radical
    # of the associative algebra of right multiplications
    from leibnizalg import cli, oracle
    from leibnizalg.fileformat import save_algebra

    info = oracle._scan_cached.cache_info
    ok, t0 = True, time.time()
    for name, method in (("example2-2-1+sl2", "trace-form"), ("example2-3-1", "right-mult-radical")):
        Lp = reduce_mod_p(corpus.build(name).algebra, 2)
        path = tmp_path / f"{name}-F2.json"
        save_algebra(Lp, path)
        scans = info().hits + info().misses
        ok &= cli.run(["--format", "json", "verify", str(path)]) == 0
        rep = json.loads(capsys.readouterr().out)
        res = nilradical(Lp)
        ok &= info().hits + info().misses == scans
        N = nilradical_oracle(Lp)
        ok &= rep["verdict"] == "pass"
        ok &= rep["theorem2"]["details"]["N_of_L"]["basis"] == [list(r) for r in N.rows]
        ok &= res.method == method and all(res.certificates.values())
        ok &= res.subspace == N
    elapsed = time.time() - t0
    report("11 fp-verify-on-2825-subspaces", ok and elapsed < 5.0, elapsed)


def test_criterion_12_validate_dense_dim17(tmp_path, capsys):
    from leibnizalg import cli
    from leibnizalg.fileformat import save_algebra

    L = dense_basis(corpus.example2(16, 8).algebra, random.Random(17))
    assert sum(1 for row in L.table for v in row for c in v if c) > L.dim ** 3 // 2
    path = tmp_path / "example2-16-8-dense.json"
    save_algebra(L, path)
    t0 = time.time()
    code = cli.run(["validate", str(path)])
    elapsed = time.time() - t0
    ok = code == 0 and "passed: True" in capsys.readouterr().out
    report("12 validate-dense-dim17", ok and elapsed < 2.0, elapsed)


def test_criterion_13_verify_runs_theorem2_off_the_standard_complement():
    # in neither basis is the standard complement of I a subalgebra, so
    # theorem 2 runs only if a complement B is found off it
    sl2 = corpus.sl2().algebra
    cases = [("example1+2sl2", direct_sum(direct_sum(corpus.example1().algebra, sl2), sl2)),
             ("example2-6-3 dense", dense_basis(corpus.example2(6, 3).algebra,
                                                 random.Random(13)))]
    for name, L in cases:
        t0 = time.time()
        rep = verify(L)
        elapsed = time.time() - t0
        ok = isinstance(rep["theorem2"], VerificationReport) and rep["verdict"] == "pass"
        report(f"13 verify-runs-theorem2 {name}", ok and elapsed < 5.0, elapsed)


def test_criterion_14_verify_sparse_dim64():
    # example2(63, 31): I and its complement have dimension 32 each, so the
    # complement solve has at most 32^2 * 32 equations in 32 * 32 unknowns
    L = corpus.example2(63, 31).algebra
    t0 = time.time()
    rep = verify(L)
    elapsed = time.time() - t0
    t2 = rep["theorem2"]
    ok = rep["verdict"] == "pass" and isinstance(t2, VerificationReport) and t2.passed
    ok &= (t2.details["kernel"].dim, rep["lemma1"].details["complement"].dim) == (32, 32)
    report("14 verify-sparse-dim64", ok and elapsed < 10.0, elapsed)


def test_criterion_15_validate_dense_dim33(tmp_path, capsys):
    # every CLI verb first checks the identity on all 35,937 basis triples
    from leibnizalg import cli
    from leibnizalg.fileformat import save_algebra

    L = dense_basis(corpus.example2(32, 16).algebra, random.Random(17))
    assert sum(1 for row in L.table for v in row for c in v if c) > L.dim ** 3 // 2
    path = tmp_path / "example2-32-16-dense.json"
    save_algebra(L, path)
    t0 = time.time()
    code = cli.run(["validate", str(path)])
    elapsed = time.time() - t0
    ok = code == 0 and "passed: True" in capsys.readouterr().out
    # one entry off: the gate names the first failing triple in (i, j, k) order
    table = [[list(v) for v in row] for row in L.table]
    table[5][7][3] += 1
    save_algebra(LeibnizAlgebra(L.field, L.dim, table, L.labels), path)
    ok &= cli.run(["info", str(path)]) == 2
    ok &= capsys.readouterr().err == ("error: not a Leibniz algebra: [x,[y,z]] = [[x,y],z] - "
                                      "[[x,z],y] fails at (e1, e1, e8)\n")
    report("15 validate-dense-dim33", ok and elapsed < 2.0, elapsed)
