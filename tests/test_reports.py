import argparse
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense import dense_basis
from leibnizalg import cli, corpus
from leibnizalg.core import LeibnizAlgebra
from leibnizalg.errors import BudgetExceeded, NotAnIdeal, Unsupported
from leibnizalg.exactlin import QQ, Field, Subspace
from leibnizalg.fileformat import algebra_to_dict, dumps_algebra
from leibnizalg.oracle import reduce_mod_p
from leibnizalg.reports import RowsInJson, VerificationReport, _jsonable, dumps_json


def reference(x):
    return json.dumps(_jsonable(x), indent=2)


def corpus_and_reductions():
    """The corpus entries and their admissible reductions mod 2 and mod 3."""
    out = []
    for name in corpus.BUILDERS:
        L = corpus.build(name).algebra
        out.append((name, L))
        out.extend((f"{name} mod {p}", Lp) for p in (2, 3)
                   if (Lp := reduce_mod_p(L, p)) is not None)
    return out


def test_writer_matches_json_dumps_on_every_verb_payload():
    # each verb's handler builds the payload that cli._emit writes
    args = argparse.Namespace(budget=10 ** 6, by=None, b=None)
    algebras = corpus_and_reductions()
    assert len(algebras) == 33
    written = 0
    for name, L in algebras:
        for verb, (_, _, handler) in cli.VERBS.items():
            if handler is None:
                continue
            try:
                result = handler(L, args)
            except (Unsupported, BudgetExceeded, NotAnIdeal):
                continue
            payload = result[0] if isinstance(result, tuple) else result
            assert dumps_json(payload) == reference(payload), (name, verb)
            written += 1
    assert written > 300
    listing = {"builders": sorted(corpus.BUILDERS)}     # `corpus` with no name
    assert dumps_json(listing) == reference(listing)


def test_writer_matches_json_dumps_on_edge_cases():
    S = Subspace(QQ, 3, [[1, Fraction(-1, 2), 0], [0, 0, 1]])
    cases = [
        {}, [], (), {"a": {}, "b": [], "c": [[], {}], "d": [{"e": []}]},
        "ünïcode label", {"basis": ["α", "β\n\"q\""]},
        Fraction(3, 4), [Fraction(-1, 2), 0, Fraction(5)],
        [True, 1, False, 0, None], {"flag": True, "count": 1, "none": None},
        ((1, 2), (3, 4)), (((Fraction(1, 3),),),),
        S, RowsInJson(S), Subspace.zero(Field(2), 2), [RowsInJson(Subspace.full(Field(3), 2))],
        VerificationReport("check", True, details={"S": S}, witnesses=[(1, 0)]),
        10 ** 40, -7,
        # vectors, written in one join: all ints, ints and Fractions, and
        # lists where a bool or a nested list takes the item-by-item path
        [1, -2, 10 ** 30], (Fraction(7, 3), -4, Fraction(-10 ** 20, 3)), [Fraction(1, 2)],
        [1, True], [[Fraction(-1, 2)], [0]], {"v": [0, Fraction(2, 5)]},
    ]
    for x in cases:
        assert dumps_json(x) == reference(x), x


@st.composite
def written_subspaces(draw):
    """A subspace over Q, F_2, F_3 or F_5 as the library builds it, with no
    rows built yet: a span of vectors with negative and fractional entries,
    the zero space (dimension 0) or the full space."""
    F = draw(st.sampled_from([QQ, Field(2), Field(3), Field(5)]))
    n = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["span", "zero", "full"]))
    if kind == "zero":
        return Subspace.zero(F, n)
    if kind == "full":
        return Subspace.full(F, n)
    if F.modulus is None:
        entry = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))
    else:
        entry = st.integers(0, F.modulus - 1)
    vectors = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n + 1))
    return Subspace.span(F, n, vectors)


@given(written_subspaces(), st.sampled_from(["subspace", "rows", "report"]))
def test_writer_matches_json_dumps_on_subspaces_written_from_scaled_rows(S, form):
    x = {"subspace": S, "rows": RowsInJson(S), "report": {"S": S, "method": "m", "ok": True}}[form]
    text = dumps_json(x)
    # written from the scaled rows: the rows as field elements are not built
    assert S.field.modulus is not None or S._rows is None
    assert text == reference(x)
    # and the same once the rows are built
    assert dumps_json(x) == text


@given(written_subspaces())
def test_a_subspace_is_written_alike_however_it_was_built(S):
    # the constructor keeps only the scaled form of the rows it is given:
    # S's rows as Fractions or, where integral, as ints give S's rows and
    # S's JSON
    F, n = S.field, S.ambient_dim
    as_ints = [[a if F.modulus is not None or a.denominator != 1 else a.numerator for a in r]
               for r in S.rows]
    for T in (Subspace(F, n, S.rows), Subspace(F, n, as_ints)):
        assert T == S and hash(T) == hash(S)
        assert T.rows == S.rows and {*map(type, sum(T.rows, ()))} <= {*map(type, sum(S.rows, ()))}
        for form in (lambda X: X, RowsInJson, lambda X: {"S": X, "ok": True}):
            assert dumps_json(form(T)) == dumps_json(form(S)) == reference(form(S))


def test_a_subspace_given_int_rows_is_written_as_its_span():
    S, T = Subspace(QQ, 2, [[1, 0]]), Subspace.span(QQ, 2, [[3, 0]])
    assert S == T and S.rows == T.rows == ((Fraction(1), Fraction(0)),)
    assert dumps_json(S) == dumps_json(T)
    assert json.loads(dumps_json(RowsInJson(S))) == [[[1, 1], [0, 1]]]
    # a row that is not monic is kept scaled as the span scales it
    for F, row in ((QQ, [2, 0]), (QQ, [Fraction(1, 2), 0]), (Field(3), [2, 0])):
        S, T = Subspace(F, 2, [row]), Subspace.span(F, 2, [[1, 0]])
        assert S == T and hash(S) == hash(T) and S.scaled_rows == T.scaled_rows, F
        assert S.rows == T.rows and dumps_json(S) == dumps_json(T), F
    # rows not in RREF give their span
    S = Subspace(QQ, 2, [[1, 1], [0, 1]])
    assert S == Subspace.full(QQ, 2) and S.contains([1, 0])


@pytest.mark.parametrize("x", [1.5, {1, 2}, {"a": object()}, {1: "int key"}])
def test_writer_rejects_what_it_does_not_write(x):
    with pytest.raises(TypeError):
        dumps_json(x)


def dense_table_document(L):
    """The algebra file document written from the dense table of field
    elements: the byte reference for algebra_to_dict, which writes from the
    scaled table."""
    table = []
    z = L.field.zero
    for i in range(L.dim):
        for j in range(L.dim):
            comps = []
            for k, c in enumerate(L.table[i][j]):
                if c == z:
                    continue
                if isinstance(c, Fraction):
                    comps.append([k, c.numerator, c.denominator])
                else:
                    comps.append([k, int(c), 1])
            if comps:
                table.append([i, j] + comps)
    return {"field": str(L.field), "dim": L.dim, "basis": list(L.labels), "table": table}


@st.composite
def tables(draw):
    """An algebra over Q, F_2, F_3 or F_5 from a random sparse table, not
    necessarily Leibniz, with negative and fractional entries over Q."""
    F = draw(st.sampled_from([QQ, Field(2), Field(3), Field(5)]))
    n = draw(st.integers(0, 4))
    if F.modulus is None:
        scalar = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))
    else:
        scalar = st.integers(0, F.modulus - 1)
    index = st.integers(0, max(n - 1, 0))
    products = draw(st.dictionaries(st.tuples(index, index), st.dictionaries(index, scalar),
                                    max_size=n * n)) if n else {}
    return LeibnizAlgebra.from_products(F, n, products)


def test_dumps_algebra_bytes_are_those_of_json_dumps():
    # written from the scaled table, a file is the dense-table writer's document
    algebras = []
    for name in corpus.BUILDERS:
        L = corpus.build(name).algebra
        for M in [L] + [reduce_mod_p(L, p) for p in (2, 3, 5)]:
            if M is not None:
                algebras += [M, dense_basis(M, random.Random(name))]
    algebras.append(LeibnizAlgebra.from_products(QQ, 2, {(0, 0): {1: Fraction(1, 2)}},
                                                 ["α", "β"]))
    for L in algebras:
        assert algebra_to_dict(L) == dense_table_document(L), L
        assert dumps_algebra(L) == json.dumps(dense_table_document(L), indent=2) + "\n", L


@given(tables())
def test_random_tables_are_written_as_the_dense_table_writer_writes_them(L):
    assert algebra_to_dict(L) == dense_table_document(L)
    assert dumps_algebra(L) == json.dumps(dense_table_document(L), indent=2) + "\n"
