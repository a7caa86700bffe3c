"""Deterministic builders for the example algebras and a small supporting zoo.

Expected invariants live with each builder, tagged by provenance, so the
acceptance tests are data-driven.  There is no random algebra generator: the
Leibniz identity is a quadratic constraint on the table and the zoo is curated
instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Callable, Optional

from .core import LeibnizAlgebra, direct_sum
from .exactlin import QQ, Subspace


@dataclass
class CorpusEntry:
    name: str
    algebra: LeibnizAlgebra
    params: dict = dfield(default_factory=dict)
    expected: dict = dfield(default_factory=dict)
    # expected maps invariant name -> {"value": ..., "provenance": tag}


def _exp(value, provenance):
    return {"value": value, "provenance": provenance}


def _span(L, indices) -> Subspace:
    return Subspace.span(L.field, L.dim, [L.basis_vector(i) for i in indices])


def example1() -> CorpusEntry:
    """Two-dimensional solvable cyclic algebra: basis {x, x2} with
    [x,x] = x2 and [x2,x] = x2."""
    L = LeibnizAlgebra.from_products(QQ, 2, {(0, 0): {1: 1}, (1, 0): {1: 1}},
                                     labels=["x", "x2"])
    return CorpusEntry(
        name="example1",
        algebra=L,
        expected={
            "kernel": _exp(_span(L, [1]), "stated"),
            "nilradical": _exp(_span(L, [1]), "stated"),
            "radical": _exp(L.full_space(), "derived"),
            "nilradical_of_liesation_is_full": _exp(True, "stated"),
            "is_solvable": _exp(True, "derived"),
            "is_nilpotent": _exp(False, "derived"),
        },
    )


def example2(n: int, r: int) -> CorpusEntry:
    """Basis {x_1..x_n, y}; [x_i, y] = x_i for r+1 <= i <= n, rest zero."""
    if not 0 <= r < n:
        raise ValueError("need 0 <= r < n")
    products = {(i, n): {i: 1} for i in range(r, n)}
    labels = [f"x{i+1}" for i in range(n)] + ["y"]
    L = LeibnizAlgebra.from_products(QQ, n + 1, products, labels)
    return CorpusEntry(
        name=f"example2(n={n},r={r})",
        algebra=L,
        params={"n": n, "r": r},
        expected={
            "kernel": _exp(_span(L, range(r, n)), "stated"),
            "nilradical": _exp(_span(L, range(n)), "stated"),
            "radical": _exp(L.full_space(), "derived"),
            "nilradical_of_liesation_is_full": _exp(True, "stated"),
            "is_solvable": _exp(True, "derived"),
        },
    )


def sl2() -> CorpusEntry:
    """Split simple Lie algebra: [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    L = LeibnizAlgebra.from_products(QQ, 3, {
        (0, 1): {2: 1}, (1, 0): {2: -1},
        (2, 0): {0: 2}, (0, 2): {0: -2},
        (2, 1): {1: -2}, (1, 2): {1: 2},
    }, labels=["e", "f", "h"])
    return CorpusEntry(
        name="sl2",
        algebra=L,
        expected={
            "kernel": _exp(L.zero_space(), "trivial"),
            "nilradical": _exp(L.zero_space(), "derived"),
            "radical": _exp(L.zero_space(), "derived"),
            "is_solvable": _exp(False, "derived"),
            "is_nilpotent": _exp(False, "derived"),
        },
    )


def heisenberg() -> CorpusEntry:
    """3-dimensional 2-step nilpotent Lie algebra: [e1,e2] = e3 = -[e2,e1]."""
    L = LeibnizAlgebra.from_products(QQ, 3, {(0, 1): {2: 1}, (1, 0): {2: -1}},
                                     labels=["e1", "e2", "e3"])
    return CorpusEntry(
        name="heisenberg",
        algebra=L,
        expected={
            "kernel": _exp(L.zero_space(), "trivial"),
            "nilradical": _exp(L.full_space(), "trivial"),
            "radical": _exp(L.full_space(), "trivial"),
            "frattini": _exp(_span(L, [2]), "derived"),
            "is_nilpotent": _exp(True, "trivial"),
        },
    )


def abelian(n: int) -> CorpusEntry:
    L = LeibnizAlgebra.from_products(QQ, n, {}, labels=[f"a{i+1}" for i in range(n)])
    return CorpusEntry(
        name=f"abelian({n})",
        algebra=L,
        params={"n": n},
        expected={
            "kernel": _exp(L.zero_space(), "trivial"),
            "nilradical": _exp(L.full_space(), "trivial"),
            "radical": _exp(L.full_space(), "trivial"),
            "is_nilpotent": _exp(True, "trivial"),
        },
    )


def affine2() -> CorpusEntry:
    """2-dimensional non-abelian Lie algebra: [x,y] = x = -[y,x]."""
    L = LeibnizAlgebra.from_products(QQ, 2, {(0, 1): {0: 1}, (1, 0): {0: -1}},
                                     labels=["x", "y"])
    return CorpusEntry(
        name="affine2",
        algebra=L,
        expected={
            "kernel": _exp(L.zero_space(), "trivial"),
            "nilradical": _exp(_span(L, [0]), "derived"),
            "radical": _exp(L.full_space(), "derived"),
            "is_solvable": _exp(True, "derived"),
            "is_nilpotent": _exp(False, "derived"),
        },
    )


def nilcyclic2() -> CorpusEntry:
    """Nilpotent cyclic algebra: basis {x, x2}, [x,x] = x2, [x2,x] = 0."""
    L = LeibnizAlgebra.from_products(QQ, 2, {(0, 0): {1: 1}}, labels=["x", "x2"])
    return CorpusEntry(
        name="nilcyclic2",
        algebra=L,
        expected={
            "kernel": _exp(_span(L, [1]), "derived"),
            "nilradical": _exp(L.full_space(), "derived"),
            "radical": _exp(L.full_space(), "derived"),
            "frattini": _exp(_span(L, [1]), "derived"),
            "is_nilpotent": _exp(True, "derived"),
        },
    )


def with_simple_summand(entry: CorpusEntry) -> CorpusEntry:
    """Direct sum with sl2; kernel, nilradical and radical stay in the old
    summand since those of sl2 are zero."""
    A = entry.algebra
    S = sl2().algebra
    L = direct_sum(A, S)

    def embed(sub: Subspace) -> Subspace:
        z = (0,) * S.dim
        return Subspace.span(L.field, L.dim, [r + z for r in sub.scaled_rows])

    expected = {}
    for key in ("kernel", "nilradical", "radical"):
        if key in entry.expected:
            expected[key] = _exp(embed(entry.expected[key]["value"]), "derived")
    expected["is_solvable"] = _exp(False, "derived")
    return CorpusEntry(
        name=entry.name + "+sl2",
        algebra=L,
        params=dict(entry.params),
        expected=expected,
    )


BUILDERS: dict[str, Callable[[], CorpusEntry]] = {
    "example1": example1,
    "example2-2-1": lambda: example2(2, 1),
    "example2-3-1": lambda: example2(3, 1),
    "example2-1-0": lambda: example2(1, 0),
    "sl2": sl2,
    "heisenberg": heisenberg,
    "abelian-3": lambda: abelian(3),
    "affine2": affine2,
    "nilcyclic2": nilcyclic2,
    "example1+sl2": lambda: with_simple_summand(example1()),
    "example2-2-1+sl2": lambda: with_simple_summand(example2(2, 1)),
}


def build(name: str) -> Optional[CorpusEntry]:
    builder = BUILDERS.get(name)
    return builder() if builder else None


def standard_entries() -> list:
    """The full curated zoo, in registry order."""
    return [b() for b in BUILDERS.values()]
