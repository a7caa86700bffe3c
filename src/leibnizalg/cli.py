"""Command-line front end.

Every verb builds one report dictionary and renders it as text or JSON, so the
two formats always carry identical verdicts and subspace bases.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 unsupported field or budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import corpus as corpus_mod
from . import oracle as oracle_mod
from .core import (
    center,
    check_leibniz,
    derived_series,
    is_lie,
    is_nilpotent,
    is_solvable,
    leibniz_kernel,
    liesation,
    lower_central_series,
    quotient,
)
from .errors import (
    BudgetExceeded,
    NotAnIdeal,
    PremiseViolation,
    Unsupported,
    UnsupportedField,
)
from .exactlin import Subspace
from .fileformat import ParseError, dumps_algebra, load_algebra
from .radicals import (
    find_complement_B,
    frattini_ideal,
    nilradical,
    radical,
    verify_corollary,
    verify_lemma1,
    verify_prop3,
    verify_theorem2,
)
from .reports import _jsonable

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3


def _render_text(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        if set(obj) == {"ambient_dim", "basis"}:
            return [pad + _fmt_serialized_subspace(obj)]
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                vv = _fmt_serialized_subspace(v) if _is_serialized_subspace(v) else v
                lines.append(f"{pad}{k}: {vv}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.extend(_render_text(v, indent))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _is_serialized_subspace(v):
    return isinstance(v, dict) and set(v) == {"ambient_dim", "basis"}


def _fmt_serialized_subspace(d) -> str:
    basis = d["basis"]
    if not basis:
        return "0"

    def fmt(c):
        if isinstance(c, list):
            num, den = c
            return str(Fraction(num, den))
        return str(c)

    return "span{" + ", ".join("(" + ", ".join(fmt(a) for a in row) + ")"
                               for row in basis) + "}"


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(_jsonable(report), indent=2))
    else:
        print("\n".join(_render_text(_jsonable(report))))


def _load_source(source: str):
    entry = corpus_mod.build(source)
    if entry is not None:
        return entry.algebra
    try:
        return load_algebra(source)
    except FileNotFoundError:
        raise ParseError(f"{source!r} is neither a corpus name nor a readable file")


def _parse_vectors(L, text: str):
    vecs = []
    for row in text.split(";"):
        comps = row.split(",")
        if len(comps) != L.dim:
            raise ParseError(f"vector {row!r} has {len(comps)} components, need {L.dim}")
        vec = []
        for c in comps:
            try:
                q = Fraction(c.strip())
                vec.append(L.field.scalar(q.numerator, q.denominator))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad component {c.strip()!r} in vector {row!r}") from None
        vecs.append(tuple(vec))
    return vecs


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="leibnizalg",
        description="Exact computation with finite-dimensional Leibniz algebras.",
    )
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="output format")
    p.add_argument("--budget", type=int, default=oracle_mod.DEFAULT_BUDGET,
                   help="subspace budget for exhaustive scans over F_p")
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, help_, source=True):
        sp = sub.add_parser(name, help=help_)
        if source:
            sp.add_argument("source", help="algebra file path or corpus name")
        return sp

    verb("validate", "check the Leibniz identity on all basis triples")
    verb("info", "dimensions, Lie/solvable/nilpotent flags, center")
    verb("kernel", "span of squares (the ideal I)")
    verb("liesation", "quotient by the kernel of squares")
    verb("series", "lower central and derived series")
    verb("nilradical", "largest nilpotent ideal, with certificates")
    verb("radical", "largest solvable ideal, with certificates")
    verb("frattini", "Frattini ideal (nilpotent algebras, or F_p under budget)")
    q = verb("quotient", "quotient algebra by an ideal (default: the kernel)")
    q.add_argument("--by", help="ideal generators, e.g. '0,1;1,0' (rows of fractions)")
    verb("find-b", "search for a complement subalgebra B with L = I + B")
    v = verb("verify", "run all theorem verifications and print a consolidated report")
    v.add_argument("--b", help="complement subalgebra generators (rows of fractions)")
    c = verb("corpus", "list corpus builders or emit one as an algebra file", source=False)
    c.add_argument("name", nargs="?", help="builder to emit (omit to list)")
    c.add_argument("-o", "--out", help="write to this path instead of stdout")
    verb("oracle-scan", "exhaustive subspace/ideal lattice scan over F_p")
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK

    try:
        return _dispatch(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (UnsupportedField, Unsupported, BudgetExceeded) as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (NotAnIdeal, PremiseViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    fmt = args.format

    if args.verb == "corpus":
        if args.name is None:
            _emit({"builders": sorted(corpus_mod.BUILDERS)}, fmt)
            return EXIT_OK
        entry = corpus_mod.build(args.name)
        if entry is None:
            print(f"error: unknown corpus name {args.name!r}", file=sys.stderr)
            return EXIT_USAGE
        text = dumps_algebra(entry.algebra)
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
        else:
            print(text, end="")
        return EXIT_OK

    L = _load_source(args.source)

    if args.verb == "validate":
        rep = check_leibniz(L)
        _emit(rep.to_dict(), fmt)
        return EXIT_OK if rep.passed else EXIT_VERIFY_FAIL

    if args.verb == "info":
        _emit({
            "field": str(L.field),
            "dim": L.dim,
            "basis": list(L.labels),
            "is_lie": is_lie(L),
            "is_solvable": is_solvable(L),
            "is_nilpotent": is_nilpotent(L),
            "kernel_dim": leibniz_kernel(L).dim,
            "center": center(L),
        }, fmt)
        return EXIT_OK

    if args.verb == "kernel":
        _emit({"kernel": leibniz_kernel(L)}, fmt)
        return EXIT_OK

    if args.verb == "liesation":
        qp = liesation(L)
        _emit({
            "kernel": qp.ideal,
            "quotient_dim": qp.quotient.dim,
            "quotient_basis": list(qp.quotient.labels),
            "quotient_table": qp.quotient.table,
        }, fmt)
        return EXIT_OK

    if args.verb == "series":
        _emit({
            "lower_central": lower_central_series(L),
            "derived": derived_series(L),
        }, fmt)
        return EXIT_OK

    if args.verb == "nilradical":
        res = nilradical(L, args.budget)
        _emit({"nilradical": res.subspace, "method": res.method,
               "certificates": res.certificates}, fmt)
        return EXIT_OK

    if args.verb == "radical":
        res = radical(L, args.budget)
        _emit({"radical": res.subspace, "method": res.method,
               "certificates": res.certificates}, fmt)
        return EXIT_OK

    if args.verb == "frattini":
        _emit({"frattini": frattini_ideal(L, args.budget)}, fmt)
        return EXIT_OK

    if args.verb == "quotient":
        if args.by:
            J = Subspace.span(L.field, L.dim, _parse_vectors(L, args.by))
        else:
            J = leibniz_kernel(L)
        qp = quotient(L, J)
        _emit({
            "ideal": qp.ideal,
            "quotient_dim": qp.quotient.dim,
            "quotient_table": qp.quotient.table,
            "projection": qp.projection,
        }, fmt)
        return EXIT_OK

    if args.verb == "find-b":
        B = find_complement_B(L, args.budget)
        _emit({"found": B is not None, "B": B if B is not None else None,
               "note": None if B is not None else
               "heuristic exhausted; a complement still exists in theory"}, fmt)
        return EXIT_OK

    if args.verb == "oracle-scan":
        _emit(oracle_mod.scan(L, args.budget).to_dict(), fmt)
        return EXIT_OK

    if args.verb == "verify":
        return _verify(L, args, fmt)

    raise AssertionError(f"unhandled verb {args.verb}")


def _verify(L, args, fmt) -> int:
    report = {}
    failed = False

    try:
        lem1 = verify_lemma1(L, args.budget)
        report["lemma1"] = lem1.to_dict()
        if lem1.applicable and not lem1.passed:
            failed = True
    except Unsupported as e:
        report["lemma1"] = {"skipped": str(e)}

    if args.b:
        B = Subspace.span(L.field, L.dim, _parse_vectors(L, args.b))
    else:
        B = find_complement_B(L, args.budget)
    if B is None:
        report["theorem2"] = {"skipped": "no complement subalgebra B found"}
    else:
        try:
            t2 = verify_theorem2(L, B, args.budget)
            report["theorem2"] = t2.to_dict()
            failed = failed or not t2.passed
        except (Unsupported, PremiseViolation) as e:
            report["theorem2"] = {"skipped": str(e)}

    if L.field.modulus is None:
        p3 = verify_prop3(L)
        report["prop3"] = p3.to_dict()
        failed = failed or not p3.passed
        cor = verify_corollary(L)
        report["corollary"] = cor.to_dict()
        failed = failed or not cor.passed
    else:
        report["prop3"] = {"skipped": "stated for characteristic zero"}
        report["corollary"] = {"skipped": "stated for characteristic zero"}

    report["verdict"] = "fail" if failed else "pass"
    _emit(report, fmt)
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
