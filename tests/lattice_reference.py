"""A brute-force lattice scan for checking oracle.scan.

Every subspace of F_p^n is built with Subspace(F, n, rows), in the order of
oracle.enumerate_subspaces; subalgebras and ideals are tested by product
spans, and every ideal runs is_nilpotent and is_solvable, with no verdict
inherited from another ideal.  theorem2_premises_hold tests theorem 2's
premises on one subalgebra from their definition.
"""

from itertools import combinations, product

from leibnizalg.core import bracket_span, embed_subspace, is_nilpotent, is_solvable, restrict
from leibnizalg.errors import Unsupported
from leibnizalg.exactlin import Field, Subspace
from leibnizalg.oracle import LatticeScan
from leibnizalg.radicals import frattini_ideal


def all_subspaces(n, p):
    """Every subspace of F_p^n once: the zero space, then by dimension, pivot
    columns and free entries, each from its RREF rows."""
    F = Field(p)
    yield Subspace(F, n, [])
    for k in range(1, n + 1):
        for pivots in combinations(range(n), k):
            free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, n)
                    if c not in pivots]
            for vals in product(range(p), repeat=len(free)):
                rows = [[int(c == pc) for c in range(n)] for pc in pivots]
                for (r, c), v in zip(free, vals):
                    rows[r][c] = v
                yield Subspace(F, n, rows)


def reference_scan(L):
    """The LatticeScan of L, every field computed from its definition, with
    containment tested as S + T == T."""
    full = L.full_space()
    inside = lambda S, T: S + T == T
    subspaces = list(all_subspaces(L.dim, L.field.modulus))
    subalgebras = [S for S in subspaces if inside(bracket_span(L, S, S), S)]
    ideals = [S for S in subalgebras
              if inside(bracket_span(L, S, full), S) and inside(bracket_span(L, full, S), S)]
    proper = [S for S in subalgebras if S.dim < L.dim]
    maximal = [S for S in proper if not any(S.dim < T.dim and inside(S, T) for T in proper)]
    return LatticeScan(L, len(subspaces), tuple(subalgebras), tuple(ideals),
                       tuple(J for J in ideals if is_nilpotent(L, J)),
                       tuple(J for J in ideals if is_solvable(L, J)), tuple(maximal))


def theorem2_premises_hold(L, I, B):
    """I + B = L and I cap B inside the Frattini ideal of the restricted
    algebra on B, embedded back into L; False where it is not computable."""
    if I + B != L.full_space():
        return False
    IB = I & B
    if IB.dim == 0:
        return True
    try:
        phi = frattini_ideal(restrict(L, B))
    except Unsupported:
        return False
    return IB <= embed_subspace(B, phi)
