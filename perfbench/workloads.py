"""Cases, seeded inputs, reference answers and answer checks of the benchmark.

Each CLI call gets an input file of its own: the case's algebra rewritten in
a basis M drawn from (seed, case, verb, pass).  For the dense cases M is a
unimodular integer matrix, which fills the table; q-nilradical keeps the
corpus's sparse bases, and its M is a signed permutation, which only reorders
and re-signs the basis.  No two calls in a process share a table, so a cache
keyed on the table cannot carry an answer from one call to the next, just as
it cannot between the separate processes a CLI user runs; and the per-call
median over the passes of a run (run.py) covers several bases of each case.

Answers are checked by content, never by text: canonical subspace bases,
verdicts, flags and exit codes.  Method strings, certificate key names and
formatting are not compared.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from leibnizalg import corpus
from leibnizalg.core import LeibnizAlgebra, center
from leibnizalg.exactlin import Field, Subspace
from leibnizalg.fileformat import save_algebra
from leibnizalg.oracle import reduce_mod_p

FP_REFERENCE = Path(__file__).with_name("fp_reference.json")


@dataclass(frozen=True)
class Case:
    name: str
    build: Callable[[], corpus.CorpusEntry]
    verbs: tuple
    p: Optional[int] = None      # reduce the corpus table mod p; None stays over Q
    dense: bool = True           # unimodular change of basis, else a signed permutation


def example1_plus_sl2(k: int) -> corpus.CorpusEntry:
    """example1 with k sl2 summands; the summands make the Killing form non-trivial."""
    entry = corpus.example1()
    for _ in range(k):
        entry = corpus.with_simple_summand(entry)
    return entry


RADICALS = ("nilradical", "radical")
CHECKS = ("validate", "info", "verify")
LATTICE = ("nilradical", "radical", "verify", "oracle-scan")

# Admissible reductions of the corpus with at most 374 subspaces (F_2^5).
# Left out: example1+sl2 mod 3 (2,664 subspaces) and example2-2-1+sl2 mod 2
# (2,825) and mod 3 (56,632); see NOTES.md.
FP_CASES = [(name, p) for p in (2, 3) for name in corpus.BUILDERS
            if (name, p) not in {("example1+sl2", 3),
                                 ("example2-2-1+sl2", 2), ("example2-2-1+sl2", 3)}]

WORKLOADS = {
    "q-nilradical": (
        [Case(f"example2-{n}-{n // 2}", partial(corpus.example2, n, n // 2),
              RADICALS, dense=False) for n in range(4, 9)]
        + [Case(f"example1+{k}sl2", partial(example1_plus_sl2, k),
                RADICALS, dense=False) for k in (1, 2, 3)]
    ),
    "q-check": [
        Case("heisenberg", corpus.heisenberg, CHECKS),
        Case("example2-3-1", partial(corpus.example2, 3, 1), CHECKS),
        Case("example2-4-2", partial(corpus.example2, 4, 2), CHECKS),
        Case("example1+1sl2", partial(example1_plus_sl2, 1), CHECKS),
        Case("example2-6-3", partial(corpus.example2, 6, 3), ("validate", "info")),
        Case("example1+2sl2", partial(example1_plus_sl2, 2), ("validate", "info")),
        Case("example2-8-4", partial(corpus.example2, 8, 4), ("validate", "info")),
    ],
    "fp-lattice": [Case(f"{name}-F{p}", corpus.BUILDERS[name], LATTICE, p=p)
                   for name, p in FP_CASES],
}


@dataclass
class Call:
    key: str                     # "<case> <verb>", the same in every pass
    verb: str
    path: str
    field: Field
    expected: dict


# --- change of basis ------------------------------------------------------

def unimodular(rng: random.Random, n: int) -> list:
    """Integer matrix of determinant 1: unit lower times unit upper
    triangular, off-diagonal entries in {-1, 0, 1}."""
    lo = [[1 if i == j else rng.choice((-1, 0, 1)) if j < i else 0 for j in range(n)]
          for i in range(n)]
    up = [[1 if i == j else rng.choice((-1, 0, 1)) if j > i else 0 for j in range(n)]
          for i in range(n)]
    return matmul(lo, up)


def signed_permutation(rng: random.Random, n: int) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]


def matmul(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def integer_inverse(m: list) -> list:
    """Inverse of a unimodular integer matrix, by exact Gauss-Jordan."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        r = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[r] = aug[r], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    inv = [row[n:] for row in aug]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def change_basis(L: LeibnizAlgebra, m: list, m_inv: list) -> LeibnizAlgebra:
    """Structure constants in the basis f_a = sum_i m[a][i] e_i:
    [f_a, f_b] = sum_{i,j} m[a][i] m[b][j] [e_i, e_j], and old coordinates
    turn into new ones by v -> v m_inv."""
    n, F = L.dim, L.field
    products = [(i, j, L.table[i][j]) for i in range(n) for j in range(n)
                if any(L.table[i][j])]
    table = []
    for a in range(n):
        row = []
        for b in range(n):
            v = [0] * n
            for i, j, c in products:
                f = m[a][i] * m[b][j]
                if f:
                    for k, ck in enumerate(c):
                        if ck:
                            v[k] += f * ck
            row.append(image_vector(F, v, m_inv))
        table.append(row)
    return LeibnizAlgebra(F, n, table, [f"f{a + 1}" for a in range(n)])


def image_vector(F: Field, v, m_inv: list) -> list:
    n = len(m_inv)
    w = [sum(v[k] * m_inv[k][c] for k in range(n) if v[k]) for c in range(n)]
    return [F.scalar(x) if isinstance(x, int) else x for x in w]


def image_rows(F: Field, rows, m_inv: list) -> tuple:
    """Canonical basis of the image of span(rows) under the change of basis."""
    n = len(m_inv)
    return Subspace.span(F, n, [image_vector(F, r, m_inv) for r in rows]).rows


# --- reference answers ----------------------------------------------------

def load_fp_reference() -> dict:
    with open(FP_REFERENCE) as f:
        return json.load(f)


def canonical_reference(case: Case, entry, L: LeibnizAlgebra, fp_reference: dict) -> dict:
    """Reference answers in the case's own (corpus) coordinates.

    Over Q they come from the corpus's stated/derived invariants, with the
    flags derived from them (Lie iff the kernel of squares is 0, solvable iff
    the radical is L, nilpotent iff the nilradical is L).  The centre, which
    the corpus does not state, is taken on the sparse corpus basis.  Over F_p
    they come from the exhaustive oracle, recorded in fp_reference.json.
    """
    if case.p is not None:
        return fp_reference[case.name]
    exp = {k: v["value"] for k, v in entry.expected.items()}
    return {
        "nilradical": exp["nilradical"].rows,
        "radical": exp["radical"].rows,
        "kernel": exp["kernel"].rows,
        "center": center(L).rows,
        "is_lie": exp["kernel"].dim == 0,
        "is_solvable": exp["radical"].dim == L.dim,
        "is_nilpotent": exp["nilradical"].dim == L.dim,
        "verify": {"exit": 0, "verdict": "pass"},
    }


def expected_for(verb: str, ref: dict, F: Field, n: int, m_inv: list) -> dict:
    """What `verb` must answer on the input rewritten with m_inv."""
    if verb in ("nilradical", "radical"):
        return {"exit": 0, "subspace": image_rows(F, ref[verb], m_inv)}
    if verb == "validate":
        return {"exit": 0}
    if verb == "info":
        return {"exit": 0, "dim": n, "is_lie": ref["is_lie"],
                "is_solvable": ref["is_solvable"], "is_nilpotent": ref["is_nilpotent"],
                "kernel_dim": len(ref["kernel"]),
                "center": image_rows(F, ref["center"], m_inv)}
    if verb == "verify":
        return ref["verify"]
    if verb == "oracle-scan":
        scan = ref["scan"]
        return {"exit": 0,
                "counts": {k: scan[k] for k in
                           ("subspaces", "ideals", "nilpotent_ideals", "solvable_ideals")},
                "maximal_subalgebras": {image_rows(F, rows, m_inv)
                                        for rows in scan["maximal_subalgebras"]},
                "nilradical": image_rows(F, ref["nilradical"], m_inv)}
    raise ValueError(f"no reference for verb {verb!r}")


# --- one pass of the workload ---------------------------------------------

def build_pass(workload: str, seed: int, index, workdir: Path) -> list:
    """Write the input files of one pass over the workload's calls and return
    the calls with their expected answers.  `index` names the pass."""
    cases = WORKLOADS[workload]
    fp_reference = load_fp_reference() if any(c.p for c in cases) else {}
    workdir.mkdir(parents=True, exist_ok=True)
    calls = []
    for case in cases:
        entry = case.build()
        L = entry.algebra if case.p is None else reduce_mod_p(entry.algebra, case.p)
        if L is None:
            raise ValueError(f"{case.name}: reduction is not admissible")
        F, n = L.field, L.dim
        ref = canonical_reference(case, entry, L, fp_reference)
        for verb in case.verbs:
            rng = random.Random(f"{seed}|{case.name}|{verb}|{index}")
            m = unimodular(rng, n) if case.dense else signed_permutation(rng, n)
            m_inv = integer_inverse(m)
            path = workdir / f"{case.name}.{verb}.json"
            save_algebra(change_basis(L, m, m_inv), path)
            calls.append(Call(f"{case.name} {verb}", verb, str(path), F,
                              expected_for(verb, ref, F, n, m_inv)))
    return calls


# --- answer checks --------------------------------------------------------

def _rows(F: Field, rows) -> tuple:
    return tuple(tuple(Fraction(*c) if isinstance(c, list) else F.scalar(c) for c in row)
                 for row in rows)


def _bools(x):
    if isinstance(x, bool):
        yield x
    elif isinstance(x, dict):
        for v in x.values():
            yield from _bools(v)
    elif isinstance(x, list):
        for v in x:
            yield from _bools(v)


def _check_radical(call, d):
    # every certificate must hold, whatever its name
    return _rows(call.field, d[call.verb]["basis"]) == call.expected["subspace"] \
        and all(_bools(d))


def _check_validate(call, d):
    return d["passed"] is True


def _check_info(call, d):
    exp = call.expected
    return (all(d[k] == exp[k] for k in
                ("dim", "is_lie", "is_solvable", "is_nilpotent", "kernel_dim"))
            and _rows(call.field, d["center"]["basis"]) == exp["center"])


def _check_verify(call, d):
    # a skipped theorem is not a failure; a failed one is
    return d["verdict"] == call.expected["verdict"] and all(
        sec.get("passed") is not False for sec in d.values() if isinstance(sec, dict))


def _check_scan(call, d):
    exp = call.expected
    maximal = [_rows(call.field, s) for s in d["maximal_subalgebras"]]
    return (all(d[k] == v for k, v in exp["counts"].items())
            and len(maximal) == len(exp["maximal_subalgebras"])
            and set(maximal) == exp["maximal_subalgebras"]
            and _rows(call.field, d["nilradical"]) == exp["nilradical"])


CHECKERS = {"nilradical": _check_radical, "radical": _check_radical,
            "validate": _check_validate, "info": _check_info,
            "verify": _check_verify, "oracle-scan": _check_scan}


def answer_ok(call: Call, exit_code: int, stdout: str) -> bool:
    """True iff the exit code and the mathematical content match the reference."""
    if exit_code != call.expected["exit"]:
        return False
    try:
        return bool(CHECKERS[call.verb](call, json.loads(stdout)))
    except (ValueError, KeyError, TypeError, AttributeError):
        return False
