"""Solvable radical, nilradical, Frattini ideal, complements, and machine
verification of the structural statements about the nilradical of a quotient
by the span of squares.

Every computed radical carries certificates (ideal witness, series reaching
zero, operator nilpotency witnesses).  A failing certificate raises
InternalInconsistency: no result is ever returned uncertified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from itertools import product as iproduct

from . import oracle
from .core import (
    LeibnizAlgebra,
    bracket_span,
    derived_series,
    embed_subspace,
    is_ideal,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    left_mult,
    leibniz_kernel,
    liesation,
    lower_central_series,
    quotient,
    restrict,
    right_mult,
    subalgebra_closure,
    subspace_is_nilpotent,
    two_sided_span,
)
from .errors import (
    InternalInconsistency,
    PremiseViolation,
    Unsupported,
    UnsupportedField,
)
from .exactlin import Matrix, Subspace, nullspace, vec_add, vec_scale, zero_vec
from .reports import VerificationReport


@dataclass
class CertifiedIdeal:
    """A radical or nilradical with the certificates that were checked on it."""

    subspace: Subspace
    method: str      # "cartan-pullback", "trace-form-char0" or "oracle-exhaustive"
    certificates: dict = field(default_factory=dict)


@dataclass
class Theorem2Report:
    premises_ok: dict
    lhs: Subspace                    # N(L/I), in quotient coordinates
    rhs: Subspace                    # (I + N(B))/I, in quotient coordinates
    formula_equal: bool
    nilpotency_condition: bool       # R_n|_I nilpotent for all basis n of N(B)
    kernel_quotient_equal: bool      # N(L/I) == N(L)/I
    details: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """The formula holds, and the condition holds iff N(L/I) = N(L)/I."""
        return self.formula_equal and self.nilpotency_condition == self.kernel_quotient_equal


def radical(L: LeibnizAlgebra, budget: int = oracle.DEFAULT_BUDGET) -> CertifiedIdeal:
    """Largest solvable ideal.

    Char 0: the quotient by the span of squares is a Lie algebra with the same
    radical image, so compute the Lie radical there as the orthogonal
    complement of the derived algebra under the Killing form (Cartan's
    criterion) and pull it back.  Over F_p the exhaustive oracle is used,
    subject to its budget.
    """
    if L.field.modulus is not None:
        R = oracle.radical_oracle(L, budget)
        return _certify(L, R, "oracle-exhaustive", derived_series)
    qp = liesation(L)
    lam = qp.quotient
    rad_lam = _lie_radical_killing(lam)
    R = qp.pull_back(rad_lam)
    return _certify(L, R, "cartan-pullback", derived_series)


def _lie_radical_killing(lam: LeibnizAlgebra) -> Subspace:
    """rad = { x : kappa(x, [lam,lam]) = 0 } for a char-0 Lie algebra."""
    F = lam.field
    m = lam.dim
    if m == 0:
        return lam.zero_space()
    ads = [left_mult(lam, lam.basis_vector(i)) for i in range(m)]
    gram = [[ads[i].trace_of_product(ads[j]) for j in range(m)] for i in range(m)]
    D = bracket_span(lam, lam.full_space(), lam.full_space())
    if D.dim == 0:
        return lam.full_space()
    G = Matrix(F, gram)
    rows = [G.matvec(d) for d in D.rows]
    return Subspace.span(F, m, nullspace(Matrix(F, rows)))


def _certify(L: LeibnizAlgebra, S: Subspace, method: str, series) -> CertifiedIdeal:
    """Certify that S is an ideal on which `series` (derived_series for the
    radical, lower_central_series for the nilradical) reaches zero; the
    series certificate is named after the series function."""
    certs = {"is_ideal": is_ideal(L, S)}
    if not certs["is_ideal"]:
        raise InternalInconsistency(f"{method}: the computed subspace is not an ideal")
    key = f"{series.__name__}_reaches_zero"
    certs[key] = S.dim == 0 or series(restrict(L, S))[-1].dim == 0
    if not certs[key]:
        raise InternalInconsistency(f"{method}: certificate {key} failed")
    return CertifiedIdeal(S, method, certs)


def nilradical(L: LeibnizAlgebra, budget: int = oracle.DEFAULT_BUDGET) -> CertifiedIdeal:
    """Largest nilpotent ideal.

    Char 0: within the radical R, the nilradical is exactly the set of x whose
    right multiplication (on all of L) is nilpotent.  That set is carved out
    with exact trace forms: start from
        C = { x in R : tr(R_x) = 0 and tr(R_x R_y) = 0 for all basis y of R },
    then, while some canonical basis vector v of C has non-nilpotent R_v, cut
    C with the linear conditions tr(R_x R_v^k) = 0 (k = 1..dim L) and repeat.
    Each cut removes v, so the dimension strictly decreases and the loop
    terminates.  Certificates then confirm C is a nilpotent ideal with
    per-basis-vector nilpotent right multiplications.
    """
    if L.field.modulus is not None:
        N, method = oracle.nilradical_oracle(L, budget), "oracle-exhaustive"
    else:
        N, method = _nilradical_char0(L), "trace-form-char0"
    res = _certify(L, N, method, lower_central_series)
    key = "right_mult_nilpotent_per_basis_vector"
    res.certificates[key] = all(right_mult(L, v).is_nilpotent() for v in N.rows)
    if not res.certificates[key]:
        raise InternalInconsistency(
            "computed nilradical has a basis vector with non-nilpotent right multiplication")
    return res


def _nilradical_char0(L: LeibnizAlgebra) -> Subspace:
    """The trace-form refinement described in nilradical(), uncertified."""
    F = L.field
    n = L.dim
    R = radical(L).subspace

    def cut(space: Subspace, conds) -> Subspace:
        # restrict a subspace by linear conditions, each a functional of R_u;
        # R_u is built once per basis vector u
        if space.dim == 0 or not conds:
            return space
        cols = []
        for u in space.rows:
            Ru = right_mult(L, u)
            cols.append([cond(Ru) for cond in conds])
        ker = nullspace(Matrix.from_columns(F, cols))
        return Subspace.span(F, n, [space.combine(k) for k in ker])

    # tr(R_u) and tr(R_u R_y) = tr(R_y R_u) for the basis y of R
    C = cut(R, [Matrix.trace] + [right_mult(L, y).trace_of_product for y in R.rows])

    while True:
        bad = None
        for v in C.rows:
            if not right_mult(L, v).is_nilpotent():
                bad = v
                break
        if bad is None:
            break
        # tr(R_u R_v^k) for k = 1..n
        Rv = right_mult(L, bad)
        powers = [Rv]
        while len(powers) < n:
            powers.append(powers[-1].matmul(Rv))
        shrunk = cut(C, [Pk.trace_of_product for Pk in powers])
        if shrunk.dim >= C.dim:
            raise InternalInconsistency(
                "trace-form refinement failed to shrink the candidate nilradical")
        C = shrunk
    return C


def frattini_ideal(L: LeibnizAlgebra, budget: int = oracle.DEFAULT_BUDGET) -> Subspace:
    """Largest ideal contained in every maximal subalgebra.

    Nilpotent algebras: every maximal subalgebra contains [L,L], so the
    Frattini ideal is [L,L] (cross-validated against the exhaustive scan on
    nilpotent F_p instances by the test suite).  Otherwise only prime fields
    under the oracle budget are supported.
    """
    if is_nilpotent(L):
        return bracket_span(L, L.full_space(), L.full_space())
    if L.field.modulus is not None:
        return oracle.frattini_oracle(L, budget)
    raise Unsupported("Frattini ideal over Q is only computed for nilpotent algebras")


def _frattini_or_none(L: LeibnizAlgebra, budget: int = oracle.DEFAULT_BUDGET):
    try:
        return frattini_ideal(L, budget)
    except Unsupported:
        return None


def find_complement_B(L: LeibnizAlgebra, budget: int = oracle.DEFAULT_BUDGET):
    """A subalgebra B with L = I + B and I cap B inside the Frattini ideal of B.

    Over a prime field under the oracle budget the search is exhaustive over
    the subalgebras of the lattice scan of L, smallest dimension first;
    candidates whose Frattini ideal is not computable are skipped.  Over Q a
    bounded deterministic heuristic is used (subalgebras generated by the
    standard complement of I and by its single-vector perturbations by +-1
    multiples of the kernel generators); None means the heuristic was
    exhausted, never that no B exists.
    """
    I = leibniz_kernel(L)
    if L.field.modulus is not None:
        candidates = sorted(oracle.scan(L, budget).subalgebras, key=lambda S: (S.dim, S.rows))
        for B in candidates:
            if all(holds for _, holds, _ in _theorem2_premises(L, I, B, budget)):
                return B
        return None

    comp = I.complement_basis()
    F = L.field
    perturbations = [zero_vec(F, L.dim)]
    for g in I.rows:
        perturbations += [g, vec_scale(F, F.neg(F.one), g)]
    seen = set()
    for choice in islice(iproduct(perturbations, repeat=len(comp)), 5000):
        vecs = [vec_add(F, c, pert) for c, pert in zip(comp, choice)]
        B = subalgebra_closure(L, Subspace.span(F, L.dim, vecs))
        if B.rows in seen:
            continue
        seen.add(B.rows)
        if all(holds for _, holds, _ in _theorem2_premises(L, I, B, budget)):
            return B
    return None


def _theorem2_premises(L, I, B, budget):
    """Theorem 2's premises on a subalgebra B, in order and lazily, as
    (name, holds, message if it fails).  holds is None when I cap B is nonzero
    and the Frattini ideal of B is not computable."""
    yield "I_plus_B_is_L", (I + B) == L.full_space(), "I + B is not all of L"
    IB = I & B
    if IB.dim == 0:
        holds = True             # 0 is inside any Frattini ideal
    else:
        phiB = _frattini_of_subalgebra(L, B, budget)
        holds = None if phiB is None else IB <= phiB
    yield ("I_cap_B_in_frattini_of_B", holds,
           "I cap B is not inside the Frattini ideal of B")


def _frattini_of_subalgebra(L, B, budget):
    """Frattini ideal of restrict(L, B), embedded back into L; None if not computable."""
    LB = restrict(L, B)
    phi = _frattini_or_none(LB, budget)
    if phi is None:
        return None
    return embed_subspace(B, phi)


def verify_theorem2(L: LeibnizAlgebra, B: Subspace,
                    budget: int = oracle.DEFAULT_BUDGET) -> Theorem2Report:
    """Check N(L/I) = (I + N(B))/I, and that it equals N(L)/I exactly when
    every basis element n of N(B) has nilpotent right multiplication on I.
    """
    I = leibniz_kernel(L)
    premises = {"B_is_subalgebra": is_subalgebra(L, B)}
    if not premises["B_is_subalgebra"]:
        raise PremiseViolation("B is not a subalgebra")
    for name, holds, failure in _theorem2_premises(L, I, B, budget):
        if holds is None:
            raise Unsupported(
                "cannot verify I cap B <= phi(B): Frattini ideal of B not computable")
        premises[name] = holds
        if not holds:
            raise PremiseViolation(failure)

    qp = quotient(L, I)
    lhs = nilradical(qp.quotient, budget).subspace
    NB = nilradical(restrict(L, B), budget).subspace
    NB_in_L = embed_subspace(B, NB)
    rhs = qp.project_subspace(I + NB_in_L)
    formula_equal = lhs == rhs

    condition, condition_witnesses = _right_action_on_kernel_nilpotent(L, I, NB_in_L)
    NL = nilradical(L, budget).subspace
    kernel_quotient_equal = lhs == qp.project_subspace(NL)

    details = {
        "kernel": I,
        "N_of_L": NL,
        "N_of_B_in_L": NB_in_L,
        "basis_level_check_only": L.field.modulus is not None,
    }
    return Theorem2Report(
        premises_ok=premises,
        lhs=lhs,
        rhs=rhs,
        formula_equal=formula_equal,
        nilpotency_condition=condition,
        kernel_quotient_equal=kernel_quotient_equal,
        details=details,
        witnesses=condition_witnesses,
    )


def _right_action_on_kernel_nilpotent(L, I: Subspace, NB_in_L: Subspace):
    """Is R_n|_I nilpotent for every canonical basis vector n of N(B)?

    I is an ideal, so R_n maps I into I and restricts; the restricted matrix
    is tested with M^dim(I) = 0.  Witnesses name the failing n.
    """
    F = L.field
    witnesses = []
    if I.dim == 0:
        return True, witnesses
    for nvec in NB_in_L.rows:
        cols = []
        for u in I.rows:
            c = I.coords(L.bracket(u, nvec))
            if c is None:
                raise InternalInconsistency("kernel is not invariant under right multiplication")
            cols.append(c)
        M = Matrix.from_columns(F, cols)
        if not M.is_nilpotent():
            witnesses.append({"n": nvec, "restricted_matrix": M})
    return (not witnesses), witnesses


def verify_lemma1(L: LeibnizAlgebra, budget: int = oracle.DEFAULT_BUDGET) -> VerificationReport:
    """If I is inside the Frattini ideal, then N(L/I) = N(L)/I."""
    I = leibniz_kernel(L)
    phi = _frattini_or_none(L, budget)
    if phi is None:
        raise Unsupported("Frattini ideal of L not computable")
    if not I <= phi:
        return VerificationReport(
            name="nilradical-of-quotient-under-frattini-premise",
            passed=True,
            applicable=False,
            details={"kernel": I, "frattini": phi,
                     "notice": "premise I <= phi(L) fails; statement not applicable"},
        )
    qp = quotient(L, I)
    lhs = nilradical(qp.quotient, budget).subspace
    rhs = qp.project_subspace(nilradical(L, budget).subspace)
    return VerificationReport(
        name="nilradical-of-quotient-under-frattini-premise",
        passed=lhs == rhs,
        details={"kernel": I, "frattini": phi, "lhs": lhs, "rhs": rhs},
        witnesses=[] if lhs == rhs else [{"lhs": lhs, "rhs": rhs}],
    )


def verify_prop3(L: LeibnizAlgebra) -> VerificationReport:
    """[L, R] is inside N, in char 0; both product orientations are checked
    and reported separately since the one-sided/two-sided reading is ambiguous.
    """
    if L.field.modulus is not None:
        raise UnsupportedField("stated for characteristic zero")
    R = radical(L).subspace
    N = nilradical(L).subspace
    one_sided = bracket_span(L, L.full_space(), R) <= N
    two_sided = two_sided_span(L, L.full_space(), R) <= N
    return VerificationReport(
        name="bracket-of-radical-inside-nilradical",
        passed=one_sided and two_sided,
        details={"one_sided": one_sided, "two_sided": two_sided,
                 "radical": R, "nilradical": N},
    )


def verify_corollary(L: LeibnizAlgebra) -> VerificationReport:
    """[R,R] inside N and nilpotent; L solvable iff [L,L] nilpotent (char 0)."""
    if L.field.modulus is not None:
        raise UnsupportedField("stated for characteristic zero")
    R = radical(L).subspace
    N = nilradical(L).subspace
    RR = bracket_span(L, R, R)
    LL = bracket_span(L, L.full_space(), L.full_space())
    # spans of all products of a subalgebra are closed under the bracket
    contained = RR <= N
    rr_nilpotent = RR.dim == 0 or subspace_is_nilpotent(L, RR)
    equivalence = is_solvable(L) == (LL.dim == 0 or subspace_is_nilpotent(L, LL))
    return VerificationReport(
        name="derived-radical-nilpotency-corollary",
        passed=contained and rr_nilpotent and equivalence,
        details={"RR_inside_N": contained, "RR_nilpotent": rr_nilpotent,
                 "solvable_iff_derived_nilpotent": equivalence},
    )


def verify(L: LeibnizAlgebra, B: Subspace | None = None,
           budget: int = oracle.DEFAULT_BUDGET) -> dict:
    """The paper's checks on L combined into one verdict.

    Lemma 1, theorem 2 (for B, or else for the B that find_complement_B
    finds), proposition 3 and the corollary run in that order.  A check that
    raises Unsupported or PremiseViolation is reported as {"skipped": message};
    the others as their reports.  The verdict is "fail" when a check that ran
    did not pass, else "pass".
    """
    def attempt(check, *args):
        try:
            return check(*args)
        except (Unsupported, PremiseViolation) as e:
            return {"skipped": str(e)}

    report = {"lemma1": attempt(verify_lemma1, L, budget)}
    if B is None:
        B = find_complement_B(L, budget)
    report["theorem2"] = ({"skipped": "no complement subalgebra B found"} if B is None
                          else attempt(verify_theorem2, L, B, budget))
    report["prop3"] = attempt(verify_prop3, L)
    report["corollary"] = attempt(verify_corollary, L)
    failed = any(not r.passed for r in report.values() if not isinstance(r, dict))
    report["verdict"] = "fail" if failed else "pass"
    return report
