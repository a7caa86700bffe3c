import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

import leibnizalg
from leibnizalg import cli, corpus, direct_sum
from leibnizalg.fileformat import MAX_DIM, dumps_algebra


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "example1.json"
    path.write_text(dumps_algebra(corpus.example1().algebra))
    return str(path)


@pytest.fixture
def broken_files(tmp_path):
    """[e1,e1] = e2, [e1,e2] = e1 over Q, F_2 and F_3; the identity fails at
    (e1,e1,e1) over each."""
    paths = []
    for field in ("Q", "F2", "F3"):
        path = tmp_path / f"broken-{field}.json"
        path.write_text(json.dumps({"field": field, "dim": 2, "basis": ["e1", "e2"],
                                    "table": [[0, 0, [1, 1, 1]], [0, 1, [0, 1, 1]]]}))
        paths.append(str(path))
    return paths


def run_cli(capsys, *args):
    code = cli.run(list(args))
    out = capsys.readouterr().out
    return code, out


def test_validate_passes(capsys, ex1_file):
    code, out = run_cli(capsys, "validate", ex1_file)
    assert code == 0
    assert "passed: True" in out


def test_validate_broken_exits_1_and_names_triple(capsys, broken_files):
    for path in broken_files:
        code, out = run_cli(capsys, "validate", path)
        assert code == 1, path
        assert "triple:\n    - e1\n    - e1\n    - e1\n" in out, path


def test_verify_example1_reproduces_counterexample(capsys, ex1_file):
    code, out = run_cli(capsys, "--format", "json", "verify", ex1_file)
    assert code == 0
    rep = json.loads(out)
    assert rep["theorem2"]["passed"] is True
    assert rep["theorem2"]["details"]["formula_equal"] is True
    assert rep["theorem2"]["details"]["kernel_quotient_equal"] is False
    assert rep["verdict"] == "pass"


def test_nilradical_abelian_full_space(capsys):
    code, out = run_cli(capsys, "--format", "json", "nilradical", "abelian-3")
    assert code == 0
    rep = json.loads(out)
    # rational entries serialize as exact [num, den] pairs
    one, zero = [1, 1], [0, 1]
    assert rep["nilradical"]["basis"] == [[one, zero, zero],
                                          [zero, one, zero],
                                          [zero, zero, one]]


def test_corpus_name_accepted_as_source(capsys):
    code, out = run_cli(capsys, "kernel", "example1")
    assert code == 0
    assert "span{(0, 1)}" in out


def test_unknown_source_is_usage_error(capsys):
    assert cli.run(["info", "no-such-thing"]) == 2


def test_unknown_flag_rejected(capsys):
    assert cli.run(["validate", "example1", "--bogus"]) == 2


def test_unsupported_exits_3(capsys):
    # Frattini ideal of a non-nilpotent algebra over Q
    assert cli.run(["frattini", "example1"]) == 3


def test_info_and_series(capsys):
    code, out = run_cli(capsys, "info", "example1")
    assert code == 0 and "is_lie: False" in out
    code, out = run_cli(capsys, "series", "example1")
    assert code == 0


def test_quotient_default_is_kernel(capsys):
    code, out = run_cli(capsys, "--format", "json", "quotient", "example1")
    assert code == 0
    rep = json.loads(out)
    assert rep["quotient_dim"] == 1


def test_find_b_example1(capsys):
    code, out = run_cli(capsys, "--format", "json", "find-b", "example1")
    assert code == 0
    rep = json.loads(out)
    assert rep["found"] is True
    assert rep["B"]["basis"] == [[[1, 1], [-1, 1]]]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_q_find_b_and_verify_when_there_is_no_b(capsys, tmp_path, fmt):
    # nilcyclic2 + sl2 over Q: I = span(x2) has no complement, and L/I is not
    # nilpotent, so no B qualifies; L is not nilpotent, so phi(L) is not
    # computable over Q either
    path = tmp_path / "nilcyclic2+sl2.json"
    path.write_text(dumps_algebra(direct_sum(corpus.build("nilcyclic2").algebra,
                                             corpus.build("sl2").algebra)))
    note = ("no complement subalgebra of the kernel I exists, nor a nilpotent "
            "subalgebra B with L = I + B and I cap B inside [B,B]")
    lemma1, theorem2 = "Frattini ideal of L not computable", "no complement subalgebra B found"
    code, found = run_cli(capsys, "--format", fmt, "find-b", str(path))
    assert code == 0
    code_verify, verified = run_cli(capsys, "--format", fmt, "verify", str(path))
    assert code_verify == 0
    if fmt == "json":
        assert json.loads(found) == {"found": False, "B": None, "note": note}
        rep = json.loads(verified)
        assert rep["lemma1"] == {"skipped": lemma1} and rep["theorem2"] == {"skipped": theorem2}
        assert rep["verdict"] == "pass"
    else:
        assert found == f"found: False\nB: None\nnote: {note}\n"
        assert verified.startswith(f"lemma1:\n  skipped: {lemma1}\n"
                                   f"theorem2:\n  skipped: {theorem2}\n")
        assert verified.endswith("verdict: pass\n")


def test_oracle_scan(capsys, tmp_path):
    from leibnizalg.oracle import reduce_mod_p

    path = tmp_path / "ex1_f3.json"
    path.write_text(dumps_algebra(reduce_mod_p(corpus.example1().algebra, 3)))
    code, out = run_cli(capsys, "--format", "json", "oracle-scan", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["subspaces"] == 6  # 0, four lines, and the plane
    assert rep["nilradical"] == [[0, 1]]


def test_oracle_scan_text_prints_each_subspace_as_one_span(capsys, tmp_path):
    # example1 mod 3 has two maximal subalgebras, the lines span{(1, 2)} and
    # span{(0, 1)}; [x, x] = x2 over F_3 is nilpotent, with nilradical L.
    # JSON keeps the plain lists of rows.
    from leibnizalg.oracle import reduce_mod_p

    ex1 = tmp_path / "ex1_f3.json"
    ex1.write_text(dumps_algebra(reduce_mod_p(corpus.example1().algebra, 3)))
    cyclic = tmp_path / "cyclic_f3.json"
    cyclic.write_text(json.dumps({"field": "F3", "dim": 2, "basis": ["x", "x2"],
                                  "table": [[0, 0, [1, 1, 1]]]}))
    code, out = run_cli(capsys, "oracle-scan", str(ex1))
    assert code == 0
    assert out.endswith("maximal_subalgebras:\n  span{(1, 2)}\n  span{(0, 1)}\n"
                        "nilradical:\n  span{(0, 1)}\n")
    code, out = run_cli(capsys, "oracle-scan", str(cyclic))
    assert code == 0
    assert out.endswith("maximal_subalgebras:\n  span{(0, 1)}\n"
                        "nilradical:\n  span{(1, 0), (0, 1)}\n")
    code, out = run_cli(capsys, "--format", "json", "oracle-scan", str(ex1))
    rep = json.loads(out)
    assert rep["maximal_subalgebras"] == [[[1, 2]], [[0, 1]]] and rep["nilradical"] == [[0, 1]]


def test_corpus_list_and_emit(capsys, tmp_path):
    code, out = run_cli(capsys, "--format", "json", "corpus")
    assert code == 0
    assert "example1" in json.loads(out)["builders"]
    target = tmp_path / "emitted.json"
    code, _ = run_cli(capsys, "corpus", "example1", "-o", str(target))
    assert code == 0
    assert json.loads(target.read_text())["dim"] == 2


def test_corpus_entry_on_stdout_is_its_file_text(capsys):
    code, out = run_cli(capsys, "corpus", "example1")
    assert code == 0 and out == dumps_algebra(corpus.example1().algebra)


def test_json_and_text_verdicts_identical(capsys, ex1_file):
    code_j, out_j = run_cli(capsys, "--format", "json", "verify", ex1_file)
    code_t, out_t = run_cli(capsys, "verify", ex1_file)
    assert code_j == code_t == 0
    rep = json.loads(out_j)
    assert f"verdict: {rep['verdict']}" in out_t
    t2 = rep["theorem2"]
    assert f"passed: {t2['passed']}" in out_t
    assert f"formula_equal: {t2['details']['formula_equal']}" in out_t
    assert f"kernel_quotient_equal: {t2['details']['kernel_quotient_equal']}" in out_t
    # subspace bases agree between formats
    assert "span{(0, 1)}" in out_t  # the kernel, as exact fractions
    assert rep["theorem2"]["details"]["kernel"]["basis"] == [[[0, 1], [1, 1]]]


GOOD = {"field": "Q", "dim": 2, "basis": ["e1", "e2"], "table": [[0, 0, [1, 1, 1]]]}
ABOVE_CAP = MAX_DIM + 1
# example1 mod 3: [x, x] = [x2, x] = x2
EX1_F3 = {"field": "F3", "dim": 2, "basis": ["x", "x2"],
          "table": [[0, 0, [1, 1, 1]], [1, 0, [1, 1, 1]]]}


# text output prints each vector, and each row of a matrix, on one line; a Q
# scalar used to print as two list items, its numerator and its denominator

def test_validate_text_prints_each_witness_vector_on_one_line(capsys, tmp_path):
    # [e1,e1] = 1/2 e1 fails at (e1,e1,e1): [e1,[e1,e1]] = 1/4 e1, the rest is 0
    path = tmp_path / "half.json"
    path.write_text(json.dumps({**GOOD, "table": [[0, 0, [0, 1, 2]]]}))
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out.endswith("witnesses:\n- triple:\n    - e1\n    - e1\n    - e1\n"
                        "  indices: (0, 0, 0)\n  lhs: (1/4, 0)\n  rhs: (0, 0)\n")
    code, out = run_cli(capsys, "--format", "json", "validate", str(path))
    assert json.loads(out)["witnesses"][0]["lhs"] == [[1, 4], [0, 1]]


def test_validate_text_marks_where_each_witness_starts(capsys, broken_files):
    for path in broken_files:
        code, out = run_cli(capsys, "validate", path)
        failures = int(re.search(r"failures: (\d+)", out).group(1))
        assert code == 1 and failures > 1, path
        assert out.count("\n- triple:\n") == failures, path


def test_quotient_text_prints_each_matrix_row_on_one_line(capsys):
    code, out = run_cli(capsys, "quotient", "example1")
    assert code == 0
    assert out.endswith("quotient_table:\n  - (0)\nprojection:\n  - (1, 0)\n")


def test_liesation_text_prints_each_table_entry_on_one_line(capsys):
    # L/I = span(x, e, f, h) with [e, f] = h, the entry at (1, 2)
    code, out = run_cli(capsys, "liesation", "example1+sl2")
    assert code == 0
    table = out.split("quotient_table:\n")[1].splitlines()
    assert len(table) == 16 and table[6] == "  - (0, 0, 0, 1)"


def test_verify_text_prints_the_theorem2_witness_matrix_by_rows(capsys):
    code, out = run_cli(capsys, "verify", "example1")
    assert code == 0
    assert "  witnesses:\n  - n: (1, -1)\n    restricted_matrix:\n      - (1)\n" in out


@pytest.mark.parametrize("args", [
    ["info", {**GOOD, "table": [[0, 0, [1, 1, 0]]]}],          # den = 0
    ["info", {**GOOD, "dim": "x"}],                            # non-integer dim
    ["info", {**GOOD, "dim": 2.5}],                            # was truncated to 2
    ["info", {**GOOD, "table": [[0, 0, [1, 0.5, 1]]]}],        # float num
    ["info", {**GOOD, "table": [5]}],                          # entry not a list
    ["quotient", "example1", "--by", "1,x"],                   # bad vector component
    ["info", {**GOOD, "field": f"F{2**89 - 1}"}],              # prime above the bound
    ["info", {**GOOD, "dim": ABOVE_CAP,                        # rejected before the table
              "basis": [f"e{i + 1}" for i in range(ABOVE_CAP)], "table": []}],
    ["liesation", {**GOOD, "basis": [1, 2]}],                  # labels not strings
    ["info", {**GOOD, "basis": "xy"}],                         # was read as labels x, y
    ["info", "{tmp}"],                                         # a directory
    ["info", b'{"field": "Q", "dim": 1, "basis": ["\xff"], "table": []}'],  # not UTF-8
    ["corpus", "example1", "-o", "{tmp}/missing/x.json"],      # unwritable output
    ["--budget", "0", "nilradical", EX1_F3],                   # was "above the budget of 0"
    ["--budget", "-3", "verify", "example1"],                  # was accepted
    ["info", {**GOOD, "table": [[0, 0, [1, 1, 1], [1, 2, 1]]]}],  # was read as [e1, e1] = 2 e2
    ["info", b"[" * 100000 + b"]" * 100000],                  # was a RecursionError, exit 1
    ["verify", "example1", "--b", ""],                         # was run with the found B
    ["quotient", "example1", "--by", ""],                      # was the quotient by the kernel
    ["info", b'{"field": "Q", "dim": 1, "basis": ["e1"], "table": [[0, 0, [0, '
             + b"7" * 5000 + b', 1]]]}'],                      # was a ValueError, exit 1
    ["verify", "example1", "--b", "1e-10000000,0"],            # was expanded by Fraction
    ["info", {**GOOD, "table": [[0, 0, [0, True, 1]]]}],       # a bool is no integer
    ["info", {**GOOD, "table": [[0, 0, [-1, 1, 1]]]}],         # k < 0
    ["info", {**GOOD, "table": [[0, 0, [2, 1, 1]]]}],          # k = dim
    ["info", {**GOOD, "table": [[2, 0, [0, 1, 1]]]}],          # i = dim
    ["info", {**GOOD, "table": [[0, -1, [0, 1, 1]]]}],         # j < 0
    ["info", {**GOOD, "table": [[0, 0, [0, 1, 1]], [0, 0, [1, 1, 1]]]}],  # (0, 0) twice
    ["info", {**GOOD, "field": "F3", "table": [[0, 0, [1, 1, 6]]]}],     # 6 = 0 mod 3
    ["info", {**GOOD, "table": [[0, 0, [1, 1, 0], [5, 1, 1]]]}],          # the first failure
    ["info", {**GOOD, "table": [[0, 0, [0, 1, 1], [1, 1], [0, 1, 1]]]}],  # counts, in order
    ["info", {**GOOD, "field": "F\uff13"}],                    # was read as F3
    ["info", {**GOOD, "field": 3}],                            # was Python's TypeError text
    ["info", {**GOOD, "field": None}],                         # was Python's TypeError text
    ["quotient", "--by", "\u0660,\u0660,\u0661", "heisenberg"],  # was read as (0, 0, 1)
    ["info", {**GOOD, "dim": -1}],                             # was "basis has 2 labels"
    ["info", {k: v for k, v in GOOD.items() if k != "table"}],  # no table
    ["info", {**GOOD, "table": {"0": 1}}],                     # table not a list
    ["info", [GOOD]],                                          # top level a list
    ["quotient", "example1", "--by", "1,0,0"],                 # 3 components for dim 2
    ["corpus", "nosuch"],                                      # unknown corpus name
], ids=["zero-den", "dim-not-int", "dim-float", "float-num", "entry-not-list", "bad-by-vector",
        "modulus-above-bound", "dim-above-cap", "int-labels", "string-basis", "directory",
        "not-utf8", "corpus-out-missing-dir", "budget-zero", "budget-negative",
        "duplicate-component", "deeply-nested-json", "empty-b", "empty-by", "big-int-literal",
        "exponent-component", "bool-component", "negative-k", "k-at-dim", "i-at-dim",
        "negative-j", "duplicate-entry", "den-zero-mod-p", "bad-den-before-bad-k",
        "short-component-after-good", "non-ascii-field", "field-int", "field-null",
        "non-ascii-component",
        "negative-dim", "missing-key", "table-not-list", "top-level-list", "by-wrong-length",
        "unknown-corpus-name"])
def test_malformed_input_exits_2_with_one_line(capsys, tmp_path, request, args):
    # a dict, list or bytes argument is written to a file first; "{tmp}" is tmp_path.
    # Each is refused before any work that grows with the input's numbers
    def as_arg(a):
        if isinstance(a, (dict, list, bytes)):
            path = tmp_path / "bad.json"
            path.write_bytes(a if isinstance(a, bytes) else json.dumps(a).encode())
            return str(path)
        return a.replace("{tmp}", str(tmp_path))

    args = [as_arg(a) for a in args]
    t0 = time.time()
    assert cli.run(args) == 2
    assert time.time() - t0 < 1.0
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith("error: ")
    message = LOADER_MESSAGES.get(request.node.callspec.id)
    assert message is None or err == f"error: {message}\n"


# The loader's words for each check on a table entry, which every row of
# the test above that reaches that check must print exactly, those of the
# field and vector component checks for digits outside ASCII, and those of
# the header, vector length and corpus name checks
LOADER_MESSAGES = {
    "negative-dim": "dim must be a nonnegative integer, got -1",
    "missing-key": "missing or malformed field: 'table'",
    "table-not-list": "table must be a list, got {'0': 1}",
    "top-level-list": "top level must be an object",
    "by-wrong-length": "vector '1,0,0' has 3 components, need 2",
    "unknown-corpus-name": "unknown corpus name 'nosuch'",
    "non-ascii-field": "bad field 'F\uff13': expected 'Q' or 'F<p>'",
    "field-int": "bad field 3: expected 'Q' or 'F<p>'",
    "field-null": "bad field None: expected 'Q' or 'F<p>'",
    "non-ascii-component": "bad component '\u0660' in vector '\u0660,\u0660,\u0661'",
    "zero-den": "denominator 0 is not invertible over Q: component [1, 1, 0] of table "
                "entry [0, 0, [1, 1, 0]]",
    "float-num": "component must be [k, num, den] of integers: [1, 0.5, 1] in table "
                 "entry [0, 0, [1, 0.5, 1]]",
    "entry-not-list": "table entry must be a list [i, j, [k, num, den], ...]: 5",
    "duplicate-component": "duplicate component 1 in table entry [0, 0, [1, 1, 1], [1, 2, 1]]",
    "bool-component": "component must be [k, num, den] of integers: [0, True, 1] in table "
                      "entry [0, 0, [0, True, 1]]",
    "negative-k": "component index out of range: [-1, 1, 1]",
    "k-at-dim": "component index out of range: [2, 1, 1]",
    "i-at-dim": "table entry indices out of range: [2, 0, [0, 1, 1]]",
    "negative-j": "table entry indices out of range: [0, -1, [0, 1, 1]]",
    "duplicate-entry": "duplicate table entry for (0, 0)",
    "den-zero-mod-p": "denominator 6 is not invertible over F3: component [1, 1, 6] of table "
                      "entry [0, 0, [1, 1, 6]]",
    "bad-den-before-bad-k": "denominator 0 is not invertible over Q: component [1, 1, 0] of "
                            "table entry [0, 0, [1, 1, 0], [5, 1, 1]]",
    "short-component-after-good": "component must be [k, num, den] of integers: [1, 1] in "
                                  "table entry [0, 0, [0, 1, 1], [1, 1], [0, 1, 1]]",
}


@pytest.mark.parametrize("verb", ["nilradical", "radical", "verify", "info", "kernel", "liesation",
                                  "series", "frattini", "quotient", "find-b", "oracle-scan"])
def test_non_leibniz_table_over_q_exits_2_with_one_line(capsys, broken_files, verb):
    # rejected before the verb runs, over Q and over F_p alike
    for path in broken_files:
        assert cli.run([verb, path]) == 2, path
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert err.startswith("error: ") and "(e1, e1, e1)" in err


def test_non_leibniz_gate_stops_at_the_first_failing_triple(capsys, tmp_path):
    # dense dim-17 example2(16,8) with [f1,f1] component 1 raised by 1 fails
    # 677 triples; the gate needs only the first of them
    from dense import dense_basis
    from leibnizalg.core import LeibnizAlgebra, check_leibniz

    L = dense_basis(corpus.example2(16, 8).algebra, random.Random(17))
    table = [[list(v) for v in row] for row in L.table]
    table[0][0][0] += 1
    L = LeibnizAlgebra(L.field, L.dim, table)
    path = tmp_path / "example2-16-8-dense-broken.json"
    path.write_text(dumps_algebra(L))
    t0 = time.time()
    code = cli.run(["kernel", str(path)])
    elapsed = time.time() - t0
    err = capsys.readouterr().err
    assert code == 2 and elapsed < 1.0, elapsed
    assert "fails at ({}, {}, {})".format(*check_leibniz(L).witnesses[0]["triple"]) in err


def test_parser_is_built_once_and_each_run_sees_its_own_arguments(capsys, tmp_path):
    from leibnizalg.exactlin import subspace_count
    from leibnizalg.oracle import reduce_mod_p

    assert cli.build_parser() is cli.build_parser()
    # the scan of example2-3-1 mod 2 walks the 67 subspaces of F_2^4
    path = tmp_path / "ex231_f2.json"
    path.write_text(dumps_algebra(reduce_mod_p(corpus.example2(3, 1).algebra, 2)))
    assert subspace_count(4, 2) == 67
    assert run_cli(capsys, "--budget", "66", "oracle-scan", str(path))[0] == 3
    assert run_cli(capsys, "--budget", "67", "oracle-scan", str(path))[0] == 0
    assert run_cli(capsys, "oracle-scan", str(path))[0] == 0                   # default budget
    # nilradical takes no budget: the cut decides example1 mod 3
    path = tmp_path / "ex1_f3.json"
    path.write_text(dumps_algebra(reduce_mod_p(corpus.example1().algebra, 3)))
    assert run_cli(capsys, "--budget", "1", "nilradical", str(path))[0] == 0
    assert run_cli(capsys, "kernel", "example1") == (0, "kernel:\n  span{(0, 1)}\n")
    code, out = run_cli(capsys, "--format", "json", "info", "example1")
    assert code == 0 and json.loads(out)["kernel_dim"] == 1
    assert cli.run(["validate", "example1", "--bogus"]) == 2
    assert cli.run(["validate", "example1"]) == 0


def test_a_loaded_file_builds_no_dense_table(capsys, tmp_path, monkeypatch):
    # every verb on a source file reads the loaded algebra through its
    # scaled table only: its dense table is never built, and no algebra is
    # built from a dense table or forms a product as field elements
    from leibnizalg.core import LeibnizAlgebra
    from leibnizalg.oracle import reduce_mod_p

    loaded, load = [], cli.load_algebra
    monkeypatch.setattr(cli, "load_algebra", lambda path: loaded.append(load(path)) or loaded[-1])
    L = corpus.build("example1+sl2").algebra
    paths = [tmp_path / f"{i}.json" for i in range(2)]
    for path, M in zip(paths, (L, reduce_mod_p(L, 3))):
        path.write_text(dumps_algebra(M))

    def dense(*args, **kwargs):
        raise AssertionError("a verb built an algebra from a dense table or a Fraction product")

    monkeypatch.setattr(LeibnizAlgebra, "__init__", dense)
    monkeypatch.setattr(LeibnizAlgebra, "bracket", dense)
    for path in paths:
        for verb, (_, _, handler) in cli.VERBS.items():
            if handler is not None:
                assert cli.run(["--format", "json", verb, str(path)]) in (0, 3), verb
    capsys.readouterr()
    assert len(loaded) == 2 * (len(cli.VERBS) - 1)
    assert all(M._table is None for M in loaded)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_ends_quietly(fmt):
    # the console script's main(), in a process whose stdout pipe has no
    # reader left: no traceback, and neither the failure nor the usage code
    read, write = os.pipe()
    os.close(read)
    src = os.path.dirname(os.path.dirname(leibnizalg.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    try:
        proc = subprocess.run([sys.executable, "-c", "from leibnizalg.cli import main; main()",
                               "--format", fmt, "verify", "example1"],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()
    assert proc.returncode not in (1, 2)
