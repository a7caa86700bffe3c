"""Command-line front end.

Every verb builds one report (a dictionary or a report dataclass) and renders
it as text or JSON, so the two formats always carry identical verdicts and
subspace bases.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 unsupported field or budget, and 141 (128 + SIGPIPE, as a shell reports
for cat) when standard output is closed before the report is written.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction

from . import corpus as corpus_mod
from . import oracle as oracle_mod
from .core import (
    _leibniz_failures,
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
from .errors import BudgetExceeded, NotAnIdeal, Unsupported
from .exactlin import Subspace
from .fileformat import ParseError, dumps_algebra, load_algebra
from .radicals import find_complement_B, frattini_ideal, nilradical, radical, verify
from .reports import _jsonable, dumps_json

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_CLOSED_STDOUT = 141


def _render_text(obj, indent=0):
    pad = "  " * indent
    lines = []
    if _is_serialized_subspace(obj):
        basis = obj["basis"]
        lines.append(pad + ("span{" + ", ".join(basis) + "}" if basis else "0"))
    elif isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                item = _render_text(v, indent)
                if isinstance(v, dict) and not _is_serialized_subspace(v):
                    # mark where each dict starts, so consecutive ones stay apart
                    item[0] = pad[:-2] + "- " + item[0][len(pad):]
                lines.extend(item)
            else:
                lines.append(f"{pad}- {v}")
    return lines


def _is_serialized_subspace(v):
    return isinstance(v, dict) and set(v) == {"ambient_dim", "basis"}


def _fmt_vector(v) -> str:
    return "(" + ", ".join(map(str, v)) + ")"


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(dumps_json(report))
    else:
        print("\n".join(_render_text(_jsonable(report, _fmt_vector))))


def _load_source(source: str):
    entry = corpus_mod.build(source)
    if entry is not None:
        return entry.algebra
    try:
        return load_algebra(source)
    except FileNotFoundError:
        raise ParseError(f"{source!r} is neither a corpus name nor a readable file")
    except OSError as e:
        raise ParseError(f"cannot read {source!r}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot read {source!r}: not UTF-8 ({e.reason})") from None


# a vector component: an integer, n/d or a plain decimal in ASCII digits,
# with no exponent
_COMPONENT = re.compile(r"[+-]?(\d+(/\d+)?|\d*\.\d+|\d+\.)", re.ASCII)


def _parse_span(L, text: str) -> Subspace:
    """The span of the rows of fractions in text, e.g. '0,1;1,0'."""
    if not text:
        raise ParseError("empty span: give at least one vector, e.g. '0,1;1,0'")
    vecs = []
    for row in text.split(";"):
        comps = row.split(",")
        if len(comps) != L.dim:
            raise ParseError(f"vector {row!r} has {len(comps)} components, need {L.dim}")
        vec = []
        for c in map(str.strip, comps):
            try:
                # Fraction would also expand an exponent, at a cost that grows with it
                if not _COMPONENT.fullmatch(c):
                    raise ValueError
                q = Fraction(c)
                vec.append(L.field.scalar(q.numerator, q.denominator))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad component {c!r} in vector {row!r}") from None
        vecs.append(tuple(vec))
    return Subspace.span(L.field, L.dim, vecs)


def _validate(L, args):
    rep = check_leibniz(L)
    return rep, EXIT_OK if rep.passed else EXIT_VERIFY_FAIL


def _info(L, args):
    solvable = is_solvable(L)
    return {
        "field": str(L.field),
        "dim": L.dim,
        "basis": list(L.labels),
        "is_lie": is_lie(L),
        "is_solvable": solvable,
        # a nilpotent algebra is solvable
        "is_nilpotent": solvable and is_nilpotent(L),
        "kernel_dim": leibniz_kernel(L).dim,
        "center": center(L),
    }


def _liesation(L, args):
    qp = liesation(L)
    return {
        "kernel": qp.ideal,
        "quotient_dim": qp.quotient.dim,
        "quotient_basis": list(qp.quotient.labels),
        "quotient_table": qp.quotient.table,
    }


def _certified(name, res):
    return {name: res.subspace, "method": res.method, "certificates": res.certificates}


def _quotient(L, args):
    qp = quotient(L, leibniz_kernel(L) if args.by is None else _parse_span(L, args.by))
    return {
        "ideal": qp.ideal,
        "quotient_dim": qp.quotient.dim,
        "quotient_table": qp.quotient.table,
        # the rows of the projection matrix, whose column i projects e_i
        "projection": tuple(zip(*[qp.project_vector(L.basis_vector(i)) for i in range(L.dim)])),
    }


def _find_b(L, args):
    B = find_complement_B(L, args.budget)
    return {"found": B is not None, "B": B,
            "note": None if B is not None else
            "no complement subalgebra of the kernel I exists, nor a nilpotent "
            "subalgebra B with L = I + B and I cap B inside [B,B]"}


def _verify(L, args):
    report = verify(L, None if args.b is None else _parse_span(L, args.b), args.budget)
    return report, EXIT_VERIFY_FAIL if report["verdict"] == "fail" else EXIT_OK


def _corpus(args) -> int:
    if args.name is None:
        _emit({"builders": sorted(corpus_mod.BUILDERS)}, args.format)
        return EXIT_OK
    entry = corpus_mod.build(args.name)
    if entry is None:
        print(f"error: unknown corpus name {args.name!r}", file=sys.stderr)
        return EXIT_USAGE
    text = dumps_algebra(entry.algebra)
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(text)
        except OSError as e:
            raise ParseError(f"cannot write {args.out!r}: {e.strerror}") from None
    else:
        print(text, end="")
    return EXIT_OK


# verb -> (help, extra arguments as (*flags, kwargs), handler).  A handler takes
# the loaded algebra and the parsed arguments and returns the payload, or the
# payload and an exit code.  Handlers name library functions only in their
# bodies, so the lookup happens at call time.  `corpus` has no handler: it
# takes no source and runs _corpus instead.
VERBS = {
    "validate": ("check the Leibniz identity on all basis triples", (), _validate),
    "info": ("dimensions, Lie/solvable/nilpotent flags, center", (), _info),
    "kernel": ("span of squares (the ideal I)", (),
               lambda L, args: {"kernel": leibniz_kernel(L)}),
    "liesation": ("quotient by the kernel of squares", (), _liesation),
    "series": ("lower central and derived series", (),
               lambda L, args: {"lower_central": lower_central_series(L),
                                "derived": derived_series(L)}),
    "nilradical": ("largest nilpotent ideal, with certificates", (),
                   lambda L, args: _certified("nilradical", nilradical(L))),
    "radical": ("largest solvable ideal, with certificates", (),
                lambda L, args: _certified("radical", radical(L))),
    "frattini": ("Frattini ideal (nilpotent algebras, or F_p under budget)", (),
                 lambda L, args: {"frattini": frattini_ideal(L, args.budget)}),
    "quotient": ("quotient algebra by an ideal (default: the kernel)",
                 [("--by", {"help": "ideal generators, e.g. '0,1;1,0' (rows of fractions)"})],
                 _quotient),
    "find-b": ("search for a complement subalgebra B with L = I + B", (), _find_b),
    "verify": ("run all theorem verifications and print a consolidated report",
               [("--b", {"help": "complement subalgebra generators (rows of fractions)"})],
               _verify),
    "corpus": ("list corpus builders or emit one as an algebra file",
               [("name", {"nargs": "?", "help": "builder to emit (omit to list)"}),
                ("-o", "--out", {"help": "write to this path instead of stdout"})],
               None),
    "oracle-scan": ("exhaustive subspace/ideal lattice scan over F_p", (),
                    lambda L, args: oracle_mod.scan(L, args.budget).to_dict()),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="leibnizalg",
        description="Exact computation with finite-dimensional Leibniz algebras.",
    )
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="output format")
    p.add_argument("--budget", type=int, default=oracle_mod.DEFAULT_BUDGET,
                   help="subspaces for the scans of frattini, oracle-scan and "
                        "verify's fallbacks")
    sub = p.add_subparsers(dest="verb", required=True)
    for name, (help_, arguments, handler) in VERBS.items():
        sp = sub.add_parser(name, help=help_)
        if handler is not None:
            sp.add_argument("source", help="algebra file path or corpus name")
        for *flags, kwargs in arguments:
            sp.add_argument(*flags, **kwargs)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK

    try:
        return _dispatch(args)
    except (ParseError, NotAnIdeal) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (Unsupported, BudgetExceeded) as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED


def _dispatch(args) -> int:
    if args.budget < 1:
        raise ParseError(f"--budget must be at least 1, got {args.budget}")
    handler = VERBS[args.verb][2]
    if handler is None:
        return _corpus(args)
    L = _load_source(args.source)
    # every verb but validate computes objects defined only for Leibniz
    # algebras, so any other table is a usage error before work starts
    if args.verb != "validate":
        failure = next(_leibniz_failures(L), None)
        if failure is not None:
            raise ParseError("not a Leibniz algebra: [x,[y,z]] = [[x,y],z] - [[x,z],y] "
                             "fails at ({}, {}, {})".format(*failure["triple"]))
    result = handler(L, args)
    payload, code = result if isinstance(result, tuple) else (result, EXIT_OK)
    _emit(payload, args.format)
    return code


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: end quietly, as cat does, with stdout on
        # devnull so that the interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_STDOUT
    sys.exit(code)


if __name__ == "__main__":
    main()
