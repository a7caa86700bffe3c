"""Algebra file format: a JSON text document with fields

    field : "Q" or "F<p>"
    dim   : integer, at most MAX_DIM
    basis : list of dim strings, the labels
    table : sparse list of entries [i, j, [k, num, den], [k, num, den], ...]

Indices are 0-based; omitted products are zero; num/den are exact integers
(den = 1 over a prime field).  Round-trip (parse after print) is the identity.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm

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
    m = re.fullmatch(r"F(\d+)", s)
    if not m:
        raise ParseError(f"bad field {s!r}: expected 'Q' or 'F<p>'")
    try:
        return Field(int(m.group(1)))
    except ValueError as e:
        raise ParseError(str(e)) from None


def algebra_to_dict(L: LeibnizAlgebra) -> dict:
    table = []
    z = L.field.zero
    for i in range(L.dim):
        for j in range(L.dim):
            v = L.table[i][j]
            comps = []
            for k, c in enumerate(v):
                if c == z:
                    continue
                if isinstance(c, Fraction):
                    comps.append([k, c.numerator, c.denominator])
                else:
                    comps.append([k, int(c), 1])
            if comps:
                table.append([i, j] + comps)
    return {
        "field": str(L.field),
        "dim": L.dim,
        "basis": list(L.labels),
        "table": table,
    }


def dumps_algebra(L: LeibnizAlgebra) -> str:
    return dumps_json(algebra_to_dict(L)) + "\n"


def algebra_from_dict(d: dict) -> LeibnizAlgebra:
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
    if not _is_int(dim):
        raise ParseError(f"dim must be an integer, got {dim!r}")
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
    each component checked once."""
    p = F.modulus
    T = [[()] * dim for _ in range(dim)]
    seen, den_lcm = set(), 1
    for entry in raw:
        if not isinstance(entry, list) or len(entry) < 3:
            raise ParseError(f"table entry must be a list [i, j, [k, num, den], ...]: {entry!r}")
        i, j = entry[0], entry[1]
        if not (_is_int(i) and _is_int(j) and 0 <= i < dim and 0 <= j < dim):
            raise ParseError(f"table entry indices out of range: {entry}")
        # a failed check is worded by the scan of _checked_components
        product = (_product(entry[2:], dim, p)
                   or _product(_checked_components(entry, dim, F), dim, p))
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


def _product(comps: list, dim: int, p):
    """(v, den) for the components [k, num, den] of one table entry, all
    plain ints: v the nonzero entries (k, c), c an int (a residue over F_p)
    or a Fraction, and den the lcm of their denominators; None if a
    component fails a check of _checked_components."""
    v, ks, den_lcm = [], set(), 1
    for item in comps:
        if type(item) is not list or len(item) != 3:
            return None
        k, num, den = item
        if not (type(k) is type(num) is type(den) is int and 0 <= k < dim) or k in ks:
            return None
        ks.add(k)
        if den == 1:
            c = num if p is None else num % p
        elif p is not None:
            if not den % p:
                return None
            c = num * pow(den, -1, p) % p
        elif den:
            c = Fraction(num, den)
            if c.denominator == 1:
                c = c.numerator
            else:
                den_lcm = lcm(den_lcm, c.denominator)
        else:
            return None
        if c:
            v.append((k, c))
    return v, den_lcm


def _checked_components(entry: list, dim: int, F: Field) -> list:
    """The components of a table entry that failed a check of _product,
    scanned one at a time: ParseError for the first that fails a check, in
    the order type, index range, repeated index, denominator.  Components
    that fail none, whose ints or lists are subclasses, come back as plain
    [k, num, den] ints."""
    p, seen, out = F.modulus, set(), []
    for item in entry[2:]:
        # bools are refused, other int subclasses accepted
        if not (isinstance(item, list) and len(item) == 3 and all(map(_is_int, item))):
            raise ParseError(f"component must be [k, num, den] of integers: {item!r} "
                             f"in table entry {entry}")
        k, num, den = item
        if not 0 <= k < dim:
            raise ParseError(f"component index out of range: {item}")
        if k in seen:
            raise ParseError(f"duplicate component {k} in table entry {entry}")
        if (den if p is None else den % p) == 0:
            raise ParseError(f"denominator {den} is not invertible over {F}: "
                             f"component {item} of table entry {entry}")
        seen.add(k)
        out.append([int(k), int(num), int(den)])
    return out


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
