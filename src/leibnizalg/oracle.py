"""Ground truth by exhaustive enumeration over small prime fields.

Subspaces of F_p^n are enumerated exactly once via their RREF canonical forms,
grouped by pivot-column pattern; everything else (ideal lattices, brute-force
nilradical / radical / Frattini ideal) filters or folds that stream.  The
nilpotency and solvability verdicts on the ideals are inherited where the
lattice decides them: walking the ideals by descending dimension, an ideal
inside one that is nilpotent (solvable) is too, one that contains an ideal
that is not is not either, and only the rest run their series (_holding).
The sum-of-all-nilpotent-ideals construction asserts, on concrete data, that
the sum is itself a nilpotent ideal containing every nilpotent ideal; a
failure aborts because it could only be an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator

from .core import (
    LeibnizAlgebra,
    check_leibniz,
    is_ideal,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    largest_contained_ideal,
)
from .errors import BudgetExceeded, TheoremViolation, UnsupportedField
from .exactlin import Field, Subspace, subspace_count

DEFAULT_BUDGET = 10 ** 6


def _require_prime_field(L: LeibnizAlgebra):
    if L.field.modulus is None:
        raise UnsupportedField("the oracle only works over prime fields")


def check_budget(n: int, p: int, budget: int = DEFAULT_BUDGET) -> int:
    total = subspace_count(n, p)
    if total > budget:
        raise BudgetExceeded(
            f"F_{p}^{n} has {total} subspaces, above the budget of {budget}")
    return total


def enumerate_subspaces(n: int, p: int, budget: int = DEFAULT_BUDGET) -> Iterator[Subspace]:
    """Every subspace of F_p^n exactly once, by pivot-column pattern.

    Rows are built directly in RREF: pivot entries 1, zeros below/above pivots,
    free entries ranging over F_p at positions right of each pivot and outside
    the pivot columns.
    """
    check_budget(n, p, budget)
    F = Field(p)
    yield Subspace.zero(F, n)
    for k in range(1, n + 1):
        for pivots in combinations(range(n), k):
            free_pos = [(r, c) for r in range(k)
                        for c in range(pivots[r] + 1, n) if c not in pivots]
            for vals in product(range(p), repeat=len(free_pos)):
                rows = [[0] * n for _ in range(k)]
                for r, pc in enumerate(pivots):
                    rows[r][pc] = 1
                for (r, c), v in zip(free_pos, vals):
                    rows[r][c] = v
                yield Subspace._from_scaled(F, n, map(tuple, rows), pivots)


@dataclass(frozen=True)
class LatticeScan:
    """Full subspace scan of an F_p algebra.

    One scan is shared by every call on an equal algebra, so the fields are
    tuples, each in enumeration order.
    """

    algebra: LeibnizAlgebra
    subspaces: int
    subalgebras: tuple = ()
    ideals: tuple = ()
    nilpotent_ideals: tuple = ()
    solvable_ideals: tuple = ()
    maximal_subalgebras: tuple = ()

    def to_dict(self) -> dict:
        from .reports import RowsInJson

        return {
            "field": str(self.algebra.field),
            "dim": self.algebra.dim,
            "subspaces": self.subspaces,
            "ideals": len(self.ideals),
            "nilpotent_ideals": len(self.nilpotent_ideals),
            "solvable_ideals": len(self.solvable_ideals),
            "maximal_subalgebras": [RowsInJson(s) for s in self.maximal_subalgebras],
            "nilradical": RowsInJson(nilradical_from_scan(self)),
        }


def scan(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET) -> LatticeScan:
    """The lattice scan of L.  The budget is checked on every call; the scan
    itself runs once per algebra while it stays in a small LRU cache keyed by
    field and table."""
    _require_prime_field(L)
    check_budget(L.dim, L.field.modulus, budget)
    return _scan_cached(L)


# one command scans a few algebras (L, L/I, restrictions to subalgebras);
# 16 entries keep them all with room to spare
@lru_cache(maxsize=16)
def _scan_cached(L: LeibnizAlgebra) -> LatticeScan:
    p = L.field.modulus
    total = subspace_count(L.dim, p)
    subalgebras = [S for S in enumerate_subspaces(L.dim, p, total) if is_subalgebra(L, S)]
    ideals = [S for S in subalgebras if is_ideal(L, S)]     # every ideal is a subalgebra
    solvable = _holding(L, ideals, is_solvable, [])
    # a nilpotent ideal is solvable: one that contains a non-solvable ideal is not nilpotent
    known = set(solvable)
    nilpotent = _holding(L, ideals, is_nilpotent, [J for J in ideals if J not in known])
    return LatticeScan(L, total, tuple(subalgebras), tuple(ideals), nilpotent, solvable,
                       _maximal(L, subalgebras))


def _holding(L: LeibnizAlgebra, ideals: list, holds, failed: list) -> tuple:
    """The ideals J with holds(L, J), in their given order, for holds
    is_nilpotent or is_solvable; `failed` lists ideals on which it is known
    to be false.

    J <= K gives J^m <= K^m and J^(m) <= K^(m), so an ideal inside one that
    holds holds, and one that contains one that fails fails.  The ideals
    are walked by descending dimension, from the verdicts known so far (the
    zero ideal holds), and only those that neither rule decides are tested.
    """
    held, failed, verdict = [L.zero_space()], list(failed), {}
    for J in sorted(ideals, key=lambda J: -J.dim):
        if any(J.leq(K) for K in held):
            verdict[J] = True
        elif any(K.leq(J) for K in failed):
            verdict[J] = False
        else:
            verdict[J] = holds(L, J)
            (held if verdict[J] else failed).append(J)
    return tuple(J for J in ideals if verdict[J])


def _maximal(L: LeibnizAlgebra, subalgebras: list) -> tuple:
    """The maximal proper subalgebras, in enumeration order.

    Every proper subalgebra lies in a maximal one, so in descending dimension
    a subalgebra is maximal exactly when no maximum found so far contains it.
    """
    proper = [S for S in subalgebras if S.dim < L.dim]
    maxima = []
    for S in sorted(proper, key=lambda S: -S.dim):
        if not any(S.leq(M) for M in maxima):
            maxima.append(S)
    found = set(maxima)
    return tuple(S for S in proper if S in found)


def _asserted_sum(L: LeibnizAlgebra, ideals: list, holds, adjective: str) -> Subspace:
    """Sum of the ideals, asserted to be an ideal on which `holds` is true."""
    total = L.zero_space()
    for J in ideals:
        total = total + J
    if not is_ideal(L, total):
        raise TheoremViolation(f"sum of {adjective} ideals is not an ideal")
    if not holds(L, total):
        raise TheoremViolation(f"sum of {adjective} ideals is not {adjective}")
    return total


def nilradical_from_scan(s: LatticeScan) -> Subspace:
    # Theorem-1 / maximal-nilpotent-ideal assertions, on concrete data
    total = _asserted_sum(s.algebra, s.nilpotent_ideals, is_nilpotent, "nilpotent")
    for J in s.nilpotent_ideals:
        if not J.leq(total):
            raise TheoremViolation("nilpotent ideal not contained in the sum")
    return total


def nilradical_oracle(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET) -> Subspace:
    """Sum of all nilpotent ideals, with the maximality assertions of the scan."""
    return nilradical_from_scan(scan(L, budget))


def radical_oracle(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET) -> Subspace:
    """Sum of all solvable ideals, asserted to be a solvable ideal."""
    s = scan(L, budget)
    return _asserted_sum(L, s.solvable_ideals, is_solvable, "solvable")


def frattini_oracle(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET) -> Subspace:
    """Intersect all maximal subalgebras, then take the largest contained ideal.

    Maximality is by inclusion among all enumerated proper subalgebras; no
    hyperplane shortcut, so this is correct for non-nilpotent algebras too.
    """
    s = scan(L, budget)
    inter = L.full_space()
    for M in s.maximal_subalgebras:
        inter = inter & M
    return largest_contained_ideal(L, inter)


def reduce_mod_p(L: LeibnizAlgebra, p: int):
    """Reduction of a char-0 table mod p, or None if inadmissible.

    Admissible only when every denominator is a unit mod p and the Leibniz
    identity still holds after reduction; inadmissible instances are skipped,
    never silently altered.  Every denominator is a unit exactly when their
    lcm d is, and the entry c / d of the scaled table is then c d^-1 mod p.
    """
    if L.field.modulus is not None:
        raise UnsupportedField("reduce_mod_p expects a rational table")
    F, (d, T) = Field(p), L.scaled_table()
    if d % p == 0:
        return None
    inv = pow(d, -1, p)
    Lp = LeibnizAlgebra.from_products(F, L.dim, {(i, j): {k: c * inv for k, c in v}
                                                 for i, row in enumerate(T)
                                                 for j, v in enumerate(row)}, L.labels)
    if not check_leibniz(Lp).passed:
        return None
    return Lp
