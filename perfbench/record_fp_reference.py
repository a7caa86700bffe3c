"""Record the F_p reference answers of the fp-lattice workload.

    python3 perfbench/record_fp_reference.py

Runs the exhaustive oracle on each case's corpus reduction, in the corpus
basis, and `verify` through the CLI, and writes perfbench/fp_reference.json.
The file is benchmark data: it is recorded once and then only read, so that a
change to the library cannot move its own reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from leibnizalg import cli, oracle  # noqa: E402
from leibnizalg.fileformat import save_algebra  # noqa: E402
from leibnizalg.reports import subspace_to_json  # noqa: E402

from workloads import FP_REFERENCE, WORKLOADS  # noqa: E402


def record_case(case) -> dict:
    L = oracle.reduce_mod_p(case.build().algebra, case.p)
    scan = oracle.scan(L)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "algebra.json"
        save_algebra(L, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(["--format", "json", "verify", str(path)])
    return {
        "field": str(L.field),
        "dim": L.dim,
        "nilradical": subspace_to_json(oracle.nilradical_from_scan(scan)),
        "radical": subspace_to_json(oracle.radical_oracle(L)),
        "scan": {
            "subspaces": scan.subspaces,
            "ideals": len(scan.ideals),
            "nilpotent_ideals": len(scan.nilpotent_ideals),
            "solvable_ideals": len(scan.solvable_ideals),
            "maximal_subalgebras": [subspace_to_json(s) for s in scan.maximal_subalgebras],
        },
        "verify": {"exit": code, "verdict": json.loads(out.getvalue())["verdict"]},
    }


def main():
    reference = {case.name: record_case(case) for case in WORKLOADS["fp-lattice"]}
    with open(FP_REFERENCE, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
