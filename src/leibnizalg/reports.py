"""Structured outcomes of theorem checks, serializable for the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd

from .exactlin import Subspace


def scalar_to_json(a):
    if isinstance(a, Fraction):
        return [a.numerator, a.denominator]
    return int(a)


def subspace_to_json(s):
    return [[scalar_to_json(a) for a in row] for row in s.rows]


@dataclass(frozen=True)
class RowsInJson:
    """A subspace whose JSON form is its list of rows (subspace_to_json),
    not the {"ambient_dim", "basis"} object; text prints it as a span like
    any subspace."""

    subspace: object


def _jsonable(x, vector=None):
    """JSON-ready copy of a payload.  A dataclass instance becomes its fields in
    declaration order (a VerificationReport: name, passed, applicable,
    details, witnesses); a property would stay out.
    With `vector` (the text rendering), each vector, that is a tuple of
    scalars, and each row of a subspace becomes vector(row); a matrix is a
    tuple of such rows."""
    if vector and isinstance(x, tuple) and x and all(type(a) in (int, Fraction) for a in x):
        return vector(x)
    if isinstance(x, RowsInJson):
        return _jsonable(x.subspace, vector) if vector else subspace_to_json(x.subspace)
    if isinstance(x, Subspace):
        return {"ambient_dim": x.ambient_dim,
                "basis": [vector(r) for r in x.rows] if vector else subspace_to_json(x)}
    if isinstance(x, Fraction):
        return scalar_to_json(x)
    if isinstance(x, dict):
        return {k: _jsonable(v, vector) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v, vector) for v in x]
    if is_dataclass(x):
        return {f.name: _jsonable(getattr(x, f.name), vector) for f in fields(x)}
    return x


_INT, _SCALARS = {int}, {int, Fraction}


def dumps_json(x) -> str:
    """json.dumps(_jsonable(x), indent=2), written in one walk over x with
    no JSON-ready copy (CPython encodes with indent in pure Python).  Each
    list and object is joined from its items' texts, so the pieces alive at
    once are few.  A subspace is written from its scaled rows, with no
    Fraction built (_rows_text).  Dict keys must be str."""
    return _json_text(x, "\n")


def _json_text(x, nl: str) -> str:
    """The JSON text of x, its nested lines indented after nl, by the exact
    type of x and of each value inside it, as _jsonable converts them."""
    t = type(x)
    if t is str:
        return encode_basestring_ascii(x)
    if t is int:
        return int.__repr__(x)
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = nl + "  "
        types = {*map(type, x)}
        if types == _INT:
            items = map(int.__repr__, x)
        elif types <= _SCALARS:
            # a vector of ints and Fractions, each Fraction [num, den] one level deeper
            deeper = inner + "  "
            items = [f"[{deeper}{v.numerator},{deeper}{v.denominator}{inner}]"
                     if type(v) is Fraction else int.__repr__(v) for v in x]
        else:
            items = [_json_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is dict:
        if not x:
            return "{}"
        inner = nl + "  "
        # a key that is not a str raises TypeError in encode_basestring_ascii
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if x is None:
        return "null"
    if t is bool:
        return "true" if x else "false"
    if t is Fraction:
        return _json_text([x.numerator, x.denominator], nl)
    if t is RowsInJson:
        return _rows_text(x.subspace, nl)
    if t is Subspace:
        return _json_text({"ambient_dim": x.ambient_dim, "basis": RowsInJson(x)}, nl)
    if is_dataclass(t):
        return _json_text({f.name: getattr(x, f.name) for f in fields(x)}, nl)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _rows_text(S: Subspace, nl: str) -> str:
    """The JSON text of S.rows, written from the scaled rows alone.  Over
    F_p the rows are the scaled rows.  Over Q the entry a of a scaled row r
    is a / r[pc], pc its pivot column, written [num, den] as a Fraction is:
    a and r[pc] over their gcd, so 0 is [0, 1]."""
    if S.field.modulus is not None:
        return _json_text(S.scaled_rows, nl)
    if not S.pivots:
        return "[]"
    inner = nl + "  "
    entry, deeper = inner + "  ", inner + "    "
    rows = []
    for r, pc in zip(S.scaled_rows, S.pivots):
        h, items = r[pc], []
        for a in r:
            g = gcd(a, h)
            items.append(f"[{deeper}{a // g},{deeper}{h // g}{entry}]")
        rows.append("[" + entry + ("," + entry).join(items) + inner + "]")
    return "[" + inner + ("," + inner).join(rows) + nl + "]"


@dataclass
class VerificationReport:
    """Outcome of one theorem/property check.

    `applicable` is False when a premise fails: the statement is then not
    falsified by this instance and `passed` is True with a notice.
    """

    name: str
    passed: bool
    applicable: bool = True
    details: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
