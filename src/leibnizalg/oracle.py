"""Ground truth by exhaustive enumeration over small prime fields.

Subspaces of F_p^n are enumerated exactly once via their RREF canonical forms,
grouped by pivot-column pattern (_pivot_patterns); everything else (ideal
lattices, brute-force nilradical / radical / Frattini ideal) filters or folds
that stream.  The scan walks the patterns once: within a pattern each row
ranges over its own list of choices, and the candidates are their product.
The products of a row with the basis come from the algebra's product
operator (LeibnizAlgebra.products), whose memo the series of the ideals
share, and the product of two rows is formed from them by linearity and kept
in an LRU bounded by MEMO_CAP integers, so a row shared by many candidates is
bracketed once while it stays there.  The scan has one membership and
containment test, the RREF residual at a span's free columns (_span_test):
a product is tested against a candidate by it, and T <= M by it on T's rows
(_within); only the subalgebras are built as Subspaces.  The nilpotency and
solvability verdicts on the ideals are inherited where the lattice decides
them: walking the ideals by descending dimension, an ideal inside one that
is nilpotent (solvable) is too, one that contains an ideal that is not is
not either, and only the rest run their series (_holding).  The scan lists
every nilpotent (solvable) ideal, so Theorem 1 holds on L exactly when the
list has an element containing every other, and that element is the sum of
them all, the nilradical (radical).  The oracles take the listed ideal of
largest dimension and assert that it contains every other (_largest); a
failure aborts because it could only be an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, product
from typing import Iterator

from .core import (
    LEFT,
    MEMO_CAP,
    RIGHT,
    LeibnizAlgebra,
    _dense,
    check_leibniz,
    is_nilpotent,
    is_solvable,
    largest_contained_ideal,
)
from .errors import BudgetExceeded, TheoremViolation, UnsupportedField
from .exactlin import Field, Subspace, subspace_count
from .reports import RowsInJson

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


def _pivot_patterns(n: int, p: int) -> Iterator[tuple]:
    """(pivots, choices) for every pivot-column pattern of F_p^n, the zero
    space's () first, then by dimension and pivot columns.

    choices[r] lists every RREF row r can be: entry 1 at its pivot column,
    0 at the other pivot columns and left of its pivot, and every value of
    F_p at each free position, the last varying fastest.  The subspaces of a
    pattern are product(*choices), each once.
    """
    yield (), ()
    for k in range(1, n + 1):
        for pivots in combinations(range(n), k):
            choices = []
            for pc in pivots:
                free = [c for c in range(pc + 1, n) if c not in pivots]
                rows = []
                for vals in product(range(p), repeat=len(free)):
                    row = [0] * n
                    row[pc] = 1
                    for c, v in zip(free, vals):
                        row[c] = v
                    rows.append(tuple(row))
                choices.append(rows)
            yield pivots, choices


def enumerate_subspaces(n: int, p: int, budget: int = DEFAULT_BUDGET) -> Iterator[Subspace]:
    """Every subspace of F_p^n exactly once, built directly in RREF from the
    pivot-column patterns of _pivot_patterns."""
    check_budget(n, p, budget)
    F = Field(p)
    for pivots, choices in _pivot_patterns(n, p):
        for rows in product(*choices):
            yield Subspace._from_scaled(F, n, rows, pivots)


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
    total = subspace_count(L.dim, L.field.modulus)
    subalgebras, ideals = _subalgebras_and_ideals(L)
    solvable = _holding(L, ideals, is_solvable, [])
    # a nilpotent ideal is solvable: one that contains a non-solvable ideal is not nilpotent
    nilpotent = _holding(L, ideals, is_nilpotent, [J for J, s in zip(ideals, solvable) if not s])
    return LatticeScan(L, total, tuple(subalgebras), tuple(ideals),
                       tuple(compress(ideals, nilpotent)), tuple(compress(ideals, solvable)),
                       _maximal(L, subalgebras))


def _span_test(pivots, n: int, p: int):
    """inside(w, rows): is w, a vector of residues mod p, in the span of
    monic RREF rows of F_p^n with these pivot columns?  Exactly when
    w - sum_m w[pivots[m]] rows[m], zero at the pivot columns, is 0 mod p at
    the others; most products are 0, and a nonzero w that is 0 at every
    pivot column is outside."""
    free = [c for c in range(n) if c not in pivots]

    def inside(w, rows):
        if not any(w):
            return True
        terms = [(x, row) for x, row in zip(map(w.__getitem__, pivots), rows) if x]
        if not terms:
            return False
        for c in free:
            t = w[c]
            for x, row in terms:
                t -= x * row[c]
            if t % p:
                return False
        return True
    return inside


def _within(M: Subspace):
    """leq(T): is T <= M, for subspaces of one F_p^n?  Each pivot column of
    a subspace of M is one of M's, and then T <= M exactly when T's rows
    pass M's _span_test."""
    pivots, rows = set(M.pivots), M.scaled_rows
    inside = _span_test(M.pivots, M.ambient_dim, M.field.modulus)
    return lambda T: (pivots.issuperset(T.pivots)
                      and all(inside(r, rows) for r in T.scaled_rows))


def _subalgebras_and_ideals(L: LeibnizAlgebra) -> tuple:
    """(subalgebras, ideals) of L, each in enumeration order, from one walk
    over the pivot patterns (_pivot_patterns).

    Both tests are the definitions: every ordered pair of rows of a
    candidate is bracketed, and on a subalgebra each row with every basis
    vector on both sides.  The products of a row with the basis are the
    algebra's (LeibnizAlgebra.products), and the product of rows a, b is
    sum_j b_j [a, e_j], kept for the call in an LRU of at most
    MEMO_CAP // n products; the nonzero products of a row with the basis on
    one side are kept as dense vectors, in an LRU of at most MEMO_CAP // n^2
    rows and sides.  Every product is tested by its pattern's _span_test.
    """
    F, n, p = L.field, L.dim, L.field.modulus
    products, lin = L.products, L.by_linearity

    # rows recur across candidates: their products are kept, up to
    # MEMO_CAP integers in each LRU
    @lru_cache(maxsize=MEMO_CAP // max(n, 1))
    def pair(a, b):
        return lin(b, products(a, RIGHT))

    @lru_cache(maxsize=MEMO_CAP // max(n * n, 1))
    def basis_products(a, side):
        return [_dense(n, w) for w in products(a, side) if w]

    subalgebras, ideals = [], []
    for pivots, choices in _pivot_patterns(n, p):
        inside = _span_test(pivots, n, p)
        for rows in product(*choices):
            if all(inside(pair(a, b), rows) for a in rows for b in rows):
                S = Subspace._from_scaled(F, n, rows, pivots)
                subalgebras.append(S)
                if all(inside(w, rows) for a in rows for side in (RIGHT, LEFT)
                       for w in basis_products(a, side)):
                    ideals.append(S)
    return subalgebras, ideals


def _holding(L: LeibnizAlgebra, ideals: list, holds, failed: list) -> list:
    """The verdicts holds(L, J), one per ideal J in the given order, for
    holds is_nilpotent or is_solvable; `failed` lists ideals on which it is
    known to be false.  Verdicts are kept by position, as hashing a Subspace
    costs more than most containment tests.

    J <= K gives J^m <= K^m and J^(m) <= K^(m), so an ideal inside one that
    holds holds, and one that contains one that fails fails.  The ideals
    are walked by descending dimension, from the verdicts known so far (the
    zero ideal holds), and only those that neither rule decides are tested.
    An ideal that fails in the walk is no smaller than those after it, so
    only the given failures can decide one.  Each ideal's _within is built
    once, when no held ideal contains it.
    """
    held, verdict = [_within(L.zero_space())], [False] * len(ideals)
    for i in sorted(range(len(ideals)), key=lambda i: -ideals[i].dim):
        J = ideals[i]
        if any(inside(J) for inside in held):
            verdict[i] = True
        elif not any(map(inside_j := _within(J), failed)):
            verdict[i] = holds(L, J)
            if verdict[i]:
                held.append(inside_j)
    return verdict


def _maximal(L: LeibnizAlgebra, subalgebras: list) -> tuple:
    """The maximal proper subalgebras, in enumeration order.

    Every proper subalgebra lies in a maximal one, so in descending dimension
    a subalgebra is maximal exactly when no maximum found so far contains it
    (each maximum's _within, built once).
    """
    proper = [S for S in subalgebras if S.dim < L.dim]
    maximal, tests = [False] * len(proper), []
    for i in sorted(range(len(proper)), key=lambda i: -proper[i].dim):
        if not any(inside(proper[i]) for inside in tests):
            maximal[i] = True
            tests.append(_within(proper[i]))
    return tuple(compress(proper, maximal))


def _largest(ideals, adjective: str) -> Subspace:
    """The listed ideal of largest dimension, asserted to contain every
    other: then it is their sum.  The list holds every nilpotent (solvable)
    ideal, so their sum is in it exactly when Theorem 1 holds on L."""
    top = max(ideals, key=lambda J: J.dim)
    if not all(map(_within(top), ideals)):
        raise TheoremViolation(f"the {adjective} ideals have no largest element")
    return top


def nilradical_from_scan(s: LatticeScan) -> Subspace:
    return _largest(s.nilpotent_ideals, "nilpotent")


def nilradical_oracle(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET) -> Subspace:
    """The nilpotent ideal of the scan that contains every other (_largest):
    the sum of all nilpotent ideals."""
    return nilradical_from_scan(scan(L, budget))


def radical_oracle(L: LeibnizAlgebra, budget: int = DEFAULT_BUDGET) -> Subspace:
    """The solvable ideal of the scan that contains every other (_largest):
    the sum of all solvable ideals."""
    return _largest(scan(L, budget).solvable_ideals, "solvable")


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
