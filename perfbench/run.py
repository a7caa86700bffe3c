"""The leibnizalg benchmark.

    python3 perfbench/run.py --workload q-nilradical --seed 1 --seconds 30 --trace 0

Without `--workload` it runs every workload, each in a fresh interpreter, in
the order q-nilradical, q-check, fp-lattice.
Runs from the root of a source checkout and imports the library from its
`src/`.  One process, one client, a closed loop: each CLI call goes in-process
through `leibnizalg.cli.run` on an algebra file written at set-up, and the next
call starts when it returns.  A pass runs every call of the workload once, on
inputs of its own; passes repeat until `--seconds` have gone by.  Every answer
is checked (workloads.py).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": <calls>, "failed": <calls failed>, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones: solve_s, setup_s and
peak_rss_mb.  With `--trace 1` they are the per-layer ones: the run measures
untraced as above, then runs one traced pass in each of two fresh child
interpreters on the same inputs, checks that their counts agree exactly, and
writes the spans of each to .perfbench/.  NOTES.md explains the choices.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
MIN_PASSES = 3
TRACED_PASS = "traced"
VERBS = ("nilradical", "radical", "verify", "validate", "info", "oracle-scan")

REFERENCE_PROBE_S = 0.004   # probe() in a quiet phase of the host the bounds were set on


def import_library():
    """Import leibnizalg from this checkout's src/ and return the workloads module."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import leibnizalg
    except ImportError as e:
        sys.exit(f"perfbench: cannot import leibnizalg from {ROOT / 'src'}: {e}")
    if not Path(leibnizalg.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: leibnizalg was imported from {leibnizalg.__file__}, "
                 f"not from {ROOT / 'src'}")
    import workloads
    return workloads


def probe() -> float:
    """Wall time of a fixed piece of Fraction arithmetic, the kind of work the
    library does.  Other tenants of the host slow every process down by up
    to 1.9x, in phases of seconds (NOTES.md); a probe next to a call tells how
    fast the host is at that moment."""
    t0 = perf_counter()
    a, s = Fraction(3, 7), Fraction(0)
    row = [Fraction(i, 5) for i in range(40)]
    for _ in range(40):
        for x in row:
            s = s + a * x
    return perf_counter() - t0


def normalised(seconds, probe_before, probe_after):
    """Seconds as the host would take them at the reference probe speed."""
    return seconds * REFERENCE_PROBE_S * 2 / (probe_before + probe_after)


def run_calls(workloads, calls):
    """Run the calls in order, each between two probes.  Yields (call,
    normalised seconds, answer is correct); a call that raises is wrong."""
    from leibnizalg import cli

    last = probe()
    for call in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            try:
                code = cli.run(["--format", "json", call.verb, call.path])
            except Exception:
                code, error = None, traceback.format_exc()
            dt = perf_counter() - t0
        now = probe()
        ok = code is not None and workloads.answer_ok(call, code, out.getvalue())
        if not ok:
            print(f"perfbench: wrong answer: {call.key} (exit {code})", file=sys.stderr)
            if code is None:
                print(error, file=sys.stderr)
        yield call, normalised(dt, last, now), ok
        last = now


def measure(workloads, args, workdir):
    """Untraced passes until `args.seconds` have gone by (at least
    MIN_PASSES).  Returns the normalised set-up time of each pass, the
    normalised times of each call key, and the calls attempted and failed."""
    setups, times = [], defaultdict(list)
    attempted = failed = 0
    index, deadline = 0, None
    while index < MIN_PASSES or perf_counter() < deadline:
        before = probe()
        t0 = perf_counter()
        calls = workloads.build_pass(args.workload, args.seed, index, workdir)
        dt = perf_counter() - t0
        setups.append(normalised(dt, before, probe()))
        if deadline is None:
            deadline = perf_counter() + args.seconds
        for call, dt, ok in run_calls(workloads, calls):
            times[call.key].append(dt)
            attempted += 1
            failed += not ok
        index += 1
    return setups, times, attempted, failed


def traced_pass(workloads, args, workdir):
    """One traced pass on the inputs of pass TRACED_PASS; prints a JSON line.
    Each call is made traced, then again untraced, which gives the tracing
    overhead.  The traced call goes first so that its counts are those of a
    first call; a cache in the library would make the ratio read high."""
    import tracer

    calls = workloads.build_pass(args.workload, args.seed, TRACED_PASS, workdir)
    t = tracer.Tracer()
    traced_s = untraced_s = 0.0
    failed = 0
    for call in calls:
        t.install()
        try:
            (_, dt, ok), = run_calls(workloads, [call])
        finally:
            t.uninstall()
        traced_s += dt
        failed += not ok
        (_, dt, ok), = run_calls(workloads, [call])
        untraced_s += dt
        failed += not ok
    OUT.mkdir(exist_ok=True)
    t.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}-{args.child}.tsv")
    print(json.dumps({"attempted": 2 * len(calls), "failed": failed, "traced_s": traced_s,
                      "untraced_s": untraced_s, "metrics": t.metrics(), "absent": t.absent}))


def command(args, workload, *extra):
    """This benchmark's command line for another interpreter."""
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def spawn_traced_pass(args, k):
    proc = subprocess.run(command(args, args.workload, "--child", str(k)), cwd=ROOT,
                          capture_output=True, text=True, timeout=150)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"perfbench: traced pass {k} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer(args, times):
    """Per-layer metrics: the mean of two traced passes in fresh interpreters,
    whose counts must agree exactly, plus the untraced time of each verb from
    `times`.
    Returns (metrics, counts agree, calls attempted, calls failed)."""
    import tracer

    a, b = spawn_traced_pass(args, 1), spawn_traced_pass(args, 2)
    counts_agree = True
    metrics = {}
    for name, (layer, stat) in tracer.METRICS.items():
        va, vb = a["metrics"][name], b["metrics"][name]
        if stat in tracer.COUNT_STATS and va != vb:
            print(f"perfbench: count {name} differs between traced passes: {va} != {vb}",
                  file=sys.stderr)
            counts_agree = False
        metrics[name] = {"value": (va + vb) / 2, "unit": tracer.UNITS[stat]}
    metrics["trace.overhead_ratio"] = {
        "value": (a["traced_s"] + b["traced_s"]) / (a["untraced_s"] + b["untraced_s"]),
        "unit": "ratio"}
    for verb in VERBS:
        spent = sum(statistics.median(s) for key, s in times.items()
                    if key.endswith(" " + verb))
        metrics[f"verb.{verb.replace('-', '_')}_s"] = {"value": spent, "unit": "s"}
    if a["absent"]:
        print("perfbench: layers not found, reported as 0: " + ", ".join(a["absent"]))
    return (metrics, counts_agree, a["attempted"] + b["attempted"],
            a["failed"] + b["failed"])


def run_all(args, names):
    """Run the workloads one after the other, each in a fresh interpreter, and
    print "<workload> <result line>" for each."""
    all_correct = True
    for name in names:
        proc = subprocess.run(command(args, name), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        print(name, lines[-1] if lines else "(no result)", flush=True)
        all_correct = (all_correct and proc.returncode == 0 and bool(lines)
                       and json.loads(lines[-1])["correct"])
    return all_correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them in order if omitted")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()

    workloads = import_library()
    if args.workload is None:
        sys.exit(0 if run_all(args, list(workloads.WORKLOADS)) else 1)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.child or 0}"
    try:
        if args.child is not None:
            traced_pass(workloads, args, workdir)
            return
        setups, times, attempted, failed = measure(workloads, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0
    if args.trace:
        metrics, counts_agree, traced_attempted, traced_failed = per_layer(args, times)
        correct = correct and counts_agree and traced_failed == 0
        attempted += traced_attempted
        failed += traced_failed
    else:
        metrics = {
            "solve_s": {"value": sum(statistics.median(s) for s in times.values()),
                        "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
