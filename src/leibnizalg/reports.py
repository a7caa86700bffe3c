"""Structured outcomes of theorem checks, serializable for the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction


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
    declaration order, so a property (such as Theorem2Report.passed) stays out.
    With `vector` (the text rendering), each vector, that is a tuple of
    scalars, and each row of a subspace becomes vector(row); a matrix is a
    tuple of such rows."""
    from .exactlin import Subspace

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
