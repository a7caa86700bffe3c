import pytest

from leibnizalg import corpus
from leibnizalg.core import check_leibniz, is_nilpotent, is_solvable, leibniz_kernel
from leibnizalg.fileformat import (
    ParseError,
    algebra_from_dict,
    dumps_algebra,
    loads_algebra,
)
from leibnizalg.radicals import frattini_ideal, nilradical, radical


def test_every_entry_satisfies_leibniz():
    for e in corpus.standard_entries():
        assert check_leibniz(e.algebra).passed, e.name


def test_every_expected_value_has_provenance():
    for e in corpus.standard_entries():
        for key, spec in e.expected.items():
            assert spec["provenance"] in {"stated", "derived", "trivial"}, (e.name, key)


def test_expectations_confirmed_by_computation():
    for e in corpus.standard_entries():
        L = e.algebra
        computed = {
            "kernel": lambda: leibniz_kernel(L),
            "nilradical": lambda: nilradical(L).subspace,
            "radical": lambda: radical(L).subspace,
            "frattini": lambda: frattini_ideal(L),
            "is_solvable": lambda: is_solvable(L),
            "is_nilpotent": lambda: is_nilpotent(L),
        }
        for key, spec in e.expected.items():
            if key not in computed:
                continue
            assert computed[key]() == spec["value"], (e.name, key)


def test_example2_parameter_validation():
    with pytest.raises(ValueError):
        corpus.example2(2, 2)
    with pytest.raises(ValueError):
        corpus.example2(2, -1)


def test_example2_kernel_extremes():
    lo = corpus.example2(3, 2)
    hi = corpus.example2(3, 0)
    assert leibniz_kernel(lo.algebra).dim == 1
    assert leibniz_kernel(hi.algebra).dim == 3


def test_builders_deterministic():
    for name in corpus.BUILDERS:
        a = dumps_algebra(corpus.build(name).algebra)
        b = dumps_algebra(corpus.build(name).algebra)
        assert a == b


def test_serialization_round_trip():
    for e in corpus.standard_entries():
        text = dumps_algebra(e.algebra)
        back = loads_algebra(text)
        assert back == e.algebra
        assert back.labels == e.algebra.labels
        assert dumps_algebra(back) == text


def test_round_trip_over_prime_field():
    from leibnizalg.oracle import reduce_mod_p

    Lp = reduce_mod_p(corpus.example1().algebra, 3)
    assert loads_algebra(dumps_algebra(Lp)) == Lp


def test_parse_errors():
    with pytest.raises(ParseError):
        loads_algebra("not json {")
    with pytest.raises(ParseError):
        loads_algebra('{"field": "R", "dim": 1, "basis": ["x"], "table": []}')
    with pytest.raises(ParseError):
        algebra_from_dict({"field": "Q", "dim": 2, "basis": ["x"], "table": []})
    with pytest.raises(ParseError):
        algebra_from_dict({"field": "Q", "dim": 1, "basis": ["x"],
                           "table": [[0, 0, [5, 1, 1]]]})
    with pytest.raises(ParseError):
        algebra_from_dict({"field": "F4", "dim": 1, "basis": ["x"], "table": []})


def test_loader_makes_every_scaled_entry_an_int():
    # 4/2 is the integer 2, so the table's denominator is 1; an int subclass
    # other than bool, and a list subclass, are read as plain ints
    class Int(int):
        pass

    class Component(list):
        pass

    doc = {"field": "Q", "dim": 2, "basis": ["x", "y"],
           "table": [[0, 0, [1, 4, 2]], [1, 0, Component([Int(1), Int(3), Int(1)])]]}
    L = algebra_from_dict(doc)
    assert L.scaled_table() == (1, ((((1, 2),), ()), (((1, 3),), ())))
    assert all(type(c) is int for row in L.scaled_table()[1] for v in row for _, c in v)
    assert L == algebra_from_dict({**doc, "table": [[0, 0, [1, 2, 1]], [1, 0, [1, 3, 1]]]})
