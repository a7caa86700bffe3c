"""Algebra file format: a JSON text document with fields

    field : "Q" or "F<p>", p in ASCII digits
    dim   : integer, at most MAX_DIM
    basis : list of dim strings, the labels
    table : sparse list of entries [i, j, [k, num, den], [k, num, den], ...]

Indices are 0-based; omitted products are zero; num/den are exact integers
(den = 1 over a prime field), taken in any order and terms.  Both ways run
on the scaled table, written in lowest terms by increasing k: round-trip
(parse after print) is the identity, and equal algebras are written alike.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm

from .core import LeibnizAlgebra
from .exactlin import Field, _is_int
from .reports import dumps_json


# Largest dim a file may declare; the table has dim^3 entries.
MAX_DIM = 64


class ParseError(ValueError):
    pass


def field_from_str(s: str) -> Field:
    if s == "Q":
        return Field()
    m = isinstance(s, str) and re.fullmatch(r"F([0-9]+)", s)
    if not m:
        raise ParseError(f"bad field {s!r}: expected 'Q' or 'F<p>'")
    try:
        return Field(int(m.group(1)))
    except ValueError as e:
        raise ParseError(str(e)) from None


def algebra_to_dict(L: LeibnizAlgebra) -> dict:
    """The document of L, from its scaled table (d, T): each entry (k, c) of
    T[i][j] is the component [k, c/g, d/g], g = gcd(c, d), of the table
    entry [i, j, ...], as a Fraction c/d would be written."""
    d, T = L.scaled_table()
    table = [[i, j, *([k, c // g, d // g] for k, c in v for g in (gcd(c, d),))]
             for i, row in enumerate(T) for j, v in enumerate(row) if v]
    return {
        "field": str(L.field),
        "dim": L.dim,
        "basis": list(L.labels),
        "table": table,
    }


def dumps_algebra(L: LeibnizAlgebra) -> str:
    """The text of L's file: algebra_to_dict as json.dumps(..., indent=2)
    writes it, and a newline."""
    return dumps_json(algebra_to_dict(L)) + "\n"


def algebra_from_dict(d: dict) -> LeibnizAlgebra:
    """The algebra of a parsed document, its scaled table built straight
    from the table entries (_scaled_table); no dense table is made."""
    F, dim, basis, raw = _header(d)
    return LeibnizAlgebra._from_scaled(F, dim, *_scaled_table(raw, dim, F), basis)


def _header(d: dict) -> tuple:
    """(field, dim, labels, table entries) of a document, all but the
    entries checked."""
    try:
        F = field_from_str(d["field"])
        dim = d["dim"]
        basis = d["basis"]
        raw = d["table"]
    except (KeyError, TypeError) as e:
        raise ParseError(f"missing or malformed field: {e}") from None
    if not _is_int(dim) or dim < 0:
        raise ParseError(f"dim must be a nonnegative integer, got {dim!r}")
    if dim > MAX_DIM:
        raise ParseError(f"dim {dim} is above the cap of {MAX_DIM}")
    if not (isinstance(basis, list) and all(isinstance(b, str) for b in basis)):
        raise ParseError(f"basis must be a list of strings, got {basis!r}")
    if len(basis) != dim:
        raise ParseError(f"basis has {len(basis)} labels, dim is {dim}")
    if not isinstance(raw, list):
        raise ParseError(f"table must be a list, got {raw!r}")
    return F, dim, basis, raw


def _scaled_table(raw: list, dim: int, F: Field) -> tuple:
    """The scaled table (d, T) of the table entries, in one pass over them,
    each component checked once (_product)."""
    T = [[()] * dim for _ in range(dim)]
    seen, den_lcm = set(), 1
    for entry in raw:
        if not isinstance(entry, list) or len(entry) < 3:
            raise ParseError(f"table entry must be a list [i, j, [k, num, den], ...]: {entry!r}")
        i, j = entry[0], entry[1]
        if not (_is_int(i) and _is_int(j) and 0 <= i < dim and 0 <= j < dim):
            raise ParseError(f"table entry indices out of range: {entry}")
        product = _product(entry, dim, F)
        if (i, j) in seen:
            raise ParseError(f"duplicate table entry for ({i}, {j})")
        seen.add((i, j))
        T[i][j], den = product
        if den != 1:
            den_lcm = lcm(den_lcm, den)
    if den_lcm != 1:
        # every entry becomes an int, an int its own numerator over 1
        T = [[[(k, c.numerator * (den_lcm // c.denominator)) for k, c in v] for v in row]
             for row in T]
    return den_lcm, T


def _product(entry: list, dim: int, F: Field) -> tuple:
    """(v, den) for the components [k, num, den] of one table entry: v the
    nonzero entries (k, c), c an int (a residue over F_p) or a Fraction, den
    the lcm of their denominators.  Each component is checked once, in the
    order type (bools refused, other int subclasses read as plain ints),
    index range, repeated index, denominator; ParseError at the first failure."""
    p, v, ks, den_lcm = F.modulus, [], set(), 1
    for item in entry[2:]:
        if (type(item) is list and len(item) == 3
                and type(item[0]) is type(item[1]) is type(item[2]) is int):
            k, num, den = item
        elif isinstance(item, list) and len(item) == 3 and all(map(_is_int, item)):
            k, num, den = map(int, item)        # int subclasses, read as plain ints
        else:
            raise ParseError(f"component must be [k, num, den] of integers: {item!r} "
                             f"in table entry {entry}")
        if not 0 <= k < dim:
            raise ParseError(f"component index out of range: {item}")
        if k in ks:
            raise ParseError(f"duplicate component {item[0]} in table entry {entry}")
        ks.add(k)
        if den == 1:
            c = num if p is None else num % p
        elif (den if p is None else den % p) == 0:
            raise ParseError(f"denominator {item[2]} is not invertible over {F}: "
                             f"component {item} of table entry {entry}")
        elif p is not None:
            c = num * pow(den, -1, p) % p
        else:
            c = Fraction(num, den)
            if c.denominator == 1:
                c = c.numerator
            else:
                den_lcm = lcm(den_lcm, c.denominator)
        if c:
            v.append((k, c))
    return v, den_lcm


def loads_algebra(text: str) -> LeibnizAlgebra:
    return algebra_from_dict(_document(text))


def _document(text: str) -> dict:
    """The parsed JSON object of an algebra file's text."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply to parse") from None
    except ValueError as e:     # an integer literal with too many digits to convert
        raise ParseError(f"invalid number: {str(e).partition(';')[0]}") from None
    if not isinstance(d, dict):
        raise ParseError("top level must be an object")
    return d


def load_algebra(path) -> LeibnizAlgebra:
    """The algebra of a file.  The text is dropped once parsed, and the
    document once the scaled table is built, before the algebra copies it."""
    with open(path, encoding="utf-8") as f:
        F, dim, basis, raw = _header(_document(f.read()))
    d, T = _scaled_table(raw, dim, F)
    del raw
    return LeibnizAlgebra._from_scaled(F, dim, d, T, basis)


def save_algebra(L: LeibnizAlgebra, path):
    with open(path, "w") as f:
        f.write(dumps_algebra(L))
