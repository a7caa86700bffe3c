"""Span tracer for the benchmark's traced run.

Wraps public functions and methods of the library from outside: each call
records a span (name, start, end, parent span, CLI call id) in memory.  The
wrapper replaces the function in every `leibnizalg.*` module that binds the
same object, because `radicals`, `oracle` and `cli` call through their own
`from .x import y` copies; methods are replaced on their class.  A target
that no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _matmul_mults(args, result):
    a, b = args[0], args[1]
    return a.nrows * a.ncols * b.ncols


def _rref_entries(args, result):
    return args[0].nrows * args[0].ncols


def _scan_info(args, result):
    L = args[0]
    return (result.subspaces, len(result.ideals), (L.field, L.table))


def _found(args, result):
    return result is not None


# layer name -> (module, attribute path, extract(args, result) -> span info)
TARGETS = {
    "exactlin.matmul": ("leibnizalg.exactlin", "Matrix.matmul", _matmul_mults),
    "exactlin.power": ("leibnizalg.exactlin", "Matrix.power", None),
    "exactlin.is_nilpotent": ("leibnizalg.exactlin", "Matrix.is_nilpotent", None),
    "exactlin.trace": ("leibnizalg.exactlin", "Matrix.trace", None),
    "exactlin.rref": ("leibnizalg.exactlin", "rref", _rref_entries),
    "exactlin.nullspace": ("leibnizalg.exactlin", "nullspace", None),
    "exactlin.span": ("leibnizalg.exactlin", "Subspace.span", None),
    "exactlin.coords": ("leibnizalg.exactlin", "Subspace.coords", None),
    "exactlin.leq": ("leibnizalg.exactlin", "Subspace.leq", None),
    "exactlin.intersect": ("leibnizalg.exactlin", "Subspace.intersect", None),
    "core.bracket": ("leibnizalg.core", "LeibnizAlgebra.bracket", None),
    "core.bracket_span": ("leibnizalg.core", "bracket_span", None),
    "core.is_ideal": ("leibnizalg.core", "is_ideal", None),
    "core.is_subalgebra": ("leibnizalg.core", "is_subalgebra", None),
    "core.subalgebra_closure": ("leibnizalg.core", "subalgebra_closure", None),
    "core.ideal_closure": ("leibnizalg.core", "ideal_closure", None),
    "core.largest_contained_ideal": ("leibnizalg.core", "largest_contained_ideal", None),
    "core.check_leibniz": ("leibnizalg.core", "check_leibniz", None),
    "core.restrict": ("leibnizalg.core", "restrict", None),
    "core.lower_central_series": ("leibnizalg.core", "lower_central_series", None),
    "core.derived_series": ("leibnizalg.core", "derived_series", None),
    "core.right_mult": ("leibnizalg.core", "right_mult", None),
    "core.left_mult": ("leibnizalg.core", "left_mult", None),
    "core.leibniz_kernel": ("leibnizalg.core", "leibniz_kernel", None),
    "core.quotient": ("leibnizalg.core", "quotient", None),
    "core.center": ("leibnizalg.core", "center", None),
    "radicals.nilradical": ("leibnizalg.radicals", "nilradical", None),
    "radicals.radical": ("leibnizalg.radicals", "radical", None),
    "radicals.find_complement_B": ("leibnizalg.radicals", "find_complement_B", _found),
    "radicals.frattini_ideal": ("leibnizalg.radicals", "frattini_ideal", None),
    "radicals.verify_theorem2": ("leibnizalg.radicals", "verify_theorem2", None),
    "radicals.verify_lemma1": ("leibnizalg.radicals", "verify_lemma1", None),
    "radicals.verify_prop3": ("leibnizalg.radicals", "verify_prop3", None),
    "radicals.verify_corollary": ("leibnizalg.radicals", "verify_corollary", None),
    "oracle.scan": ("leibnizalg.oracle", "scan", _scan_info),
    "oracle.enumerate_subspaces": ("leibnizalg.oracle", "enumerate_subspaces", None),
    "oracle.check_budget": ("leibnizalg.oracle", "check_budget", None),
    "oracle.nilradical_oracle": ("leibnizalg.oracle", "nilradical_oracle", None),
    "oracle.radical_oracle": ("leibnizalg.oracle", "radical_oracle", None),
    "oracle.frattini_oracle": ("leibnizalg.oracle", "frattini_oracle", None),
    "fileformat.load_algebra": ("leibnizalg.fileformat", "load_algebra", None),
    "cli.run": ("leibnizalg.cli", "run", None),
}

# layer -> the statistics reported for it
LAYER_STATS = {
    "exactlin.matmul": ("calls", "self_s", "scalar_mults"),
    "exactlin.power": ("calls",),
    "exactlin.is_nilpotent": ("calls", "total_s"),
    "exactlin.trace": ("calls",),
    "exactlin.rref": ("calls", "self_s", "entries"),
    "exactlin.nullspace": ("calls",),
    "exactlin.span": ("calls",),
    "exactlin.coords": ("calls", "self_s"),
    "exactlin.leq": ("calls",),
    "exactlin.intersect": ("calls",),
    "core.bracket": ("calls", "self_s"),
    "core.bracket_span": ("calls", "self_s"),
    "core.is_ideal": ("calls",),
    "core.is_subalgebra": ("calls",),
    "core.subalgebra_closure": ("calls", "total_s"),
    "core.ideal_closure": ("calls",),
    "core.largest_contained_ideal": ("calls",),
    "core.check_leibniz": ("calls", "total_s"),
    "core.restrict": ("calls", "total_s"),
    "core.lower_central_series": ("calls", "total_s"),
    "core.derived_series": ("calls", "total_s"),
    "core.right_mult": ("calls", "total_s"),
    "core.left_mult": ("calls",),
    "core.leibniz_kernel": ("calls", "total_s"),
    "core.quotient": ("calls", "total_s"),
    "core.center": ("calls",),
    "radicals.nilradical": ("calls", "total_s", "self_s"),
    "radicals.radical": ("calls", "total_s", "self_s"),
    "radicals.find_complement_B": ("calls", "total_s", "found"),
    "radicals.frattini_ideal": ("calls", "total_s", "raised"),
    "radicals.verify_theorem2": ("total_s",),
    "radicals.verify_lemma1": ("total_s",),
    "radicals.verify_prop3": ("total_s",),
    "radicals.verify_corollary": ("total_s",),
    "oracle.scan": ("calls", "total_s", "self_s", "per_algebra"),
    "oracle.enumerate_subspaces": ("calls",),
    "fileformat.load_algebra": ("calls", "total_s"),
    "cli.run": ("calls", "self_s"),
}
# per-layer metric -> (layer, statistic)
METRICS = {f"{layer}.{stat}": (layer, stat)
           for layer, stats in LAYER_STATS.items() for stat in stats}
METRICS["oracle.subspaces"] = ("oracle.scan", "subspaces")
METRICS["oracle.ideals_per_subspace"] = ("oracle.scan", "ideals_per_subspace")
METRICS["oracle.raised"] = ("oracle", "raised")

UNITS = {"calls": "count", "scalar_mults": "count", "entries": "count",
         "subspaces": "count", "raised": "count", "total_s": "s", "self_s": "s",
         "found": "ratio", "per_algebra": "ratio", "ideals_per_subspace": "ratio"}
COUNT_STATS = {"calls", "scalar_mults", "entries", "subspaces", "raised",
               "found", "per_algebra", "ideals_per_subspace"}

# span fields
NAME, START, END, PARENT, CALL, RAISED, NESTED, INFO = range(8)


class Tracer:
    """Resolves the targets once; install() and uninstall() then swap the
    wrappers in and out, so that traced and untraced calls can alternate."""

    def __init__(self):
        self.layers = []          # span name index -> layer name
        self.spans = []
        self.call_id = 0
        self.absent = []
        self._stack = []
        self._active = []         # per layer: wrapped calls open on the stack
        self._patches = []        # (owner, attribute, original, wrapper)
        modules = {}
        for module_name, _, _ in TARGETS.values():
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                pass
        # every copy must be visible before any is replaced
        library = [m for m in list(sys.modules.values())
                   if getattr(m, "__name__", "").startswith("leibnizalg")]
        for layer, (module_name, path, extract) in TARGETS.items():
            try:
                owner = modules[module_name]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (KeyError, AttributeError):
                self.absent.append(layer)
                continue
            idx = len(self.layers)
            self.layers.append(layer)
            self._active.append(0)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(idx, raw.__func__, extract))
                self._patches.append((owner, attr, raw, wrapped))
            elif outer:
                self._patches.append((owner, attr, raw, self._wrap(idx, raw, extract)))
            else:
                wrapped = self._wrap(idx, raw, extract)
                self._patches += [(mod, name, raw, wrapped) for mod in library
                                  for name, value in vars(mod).items() if value is raw]

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, raw, _ in self._patches:
            setattr(owner, attr, raw)

    def _wrap(self, idx, fn, extract):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
            else:           # an outermost span starts a new CLI call
                parent = -1
                self.call_id += 1
            span = [idx, 0.0, 0.0, parent, self.call_id, True, active[idx] > 0, None]
            stack.append(len(spans))
            spans.append(span)
            active[idx] += 1
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[RAISED] = False
            finally:
                span[END] = perf_counter()
                active[idx] -= 1
                stack.pop()
            if extract is not None:
                span[INFO] = extract(args, result)
            return result

        return traced

    def layer_stats(self) -> dict:
        """Per layer: calls, total_s (outermost spans only), self_s, and the
        layer-specific counters."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        stats = defaultdict(lambda: defaultdict(float))
        scanned = set()
        ideals = 0
        oracle_raised = 0
        for i, s in enumerate(self.spans):
            layer = self.layers[s[NAME]]
            st = stats[layer]
            dur = s[END] - s[START]
            st["calls"] += 1
            st["self_s"] += dur - child[i]
            if not s[NESTED]:
                st["total_s"] += dur
            if s[RAISED]:
                st["raised"] += 1
                parent = self.layers[self.spans[s[PARENT]][NAME]] if s[PARENT] >= 0 else ""
                if layer.startswith("oracle.") and not parent.startswith("oracle."):
                    oracle_raised += 1
            info = s[INFO]
            if info is None:
                continue
            if layer == "exactlin.matmul":
                st["scalar_mults"] += info
            elif layer == "exactlin.rref":
                st["entries"] += info
            elif layer == "radicals.find_complement_B":
                st["found"] += info
            elif layer == "oracle.scan":
                st["subspaces"] += info[0]
                ideals += info[1]
                scanned.add(info[2])
        scan = stats["oracle.scan"]
        scan["per_algebra"] = scan["calls"] / len(scanned) if scanned else 0.0
        scan["ideals_per_subspace"] = ideals / scan["subspaces"] if scan["subspaces"] else 0.0
        fcb = stats["radicals.find_complement_B"]
        fcb["found"] = fcb["found"] / fcb["calls"] if fcb["calls"] else 0.0
        stats["oracle"]["raised"] = oracle_raised
        return stats

    def metrics(self) -> dict:
        """Every per-layer metric; a metric whose layer is absent reads 0."""
        stats = self.layer_stats()
        return {name: stats[layer][stat] if layer in stats else 0.0
                for name, (layer, stat) in METRICS.items()}

    def write_spans(self, path):
        with open(path, "w") as f:
            f.write("call\tspan\tparent\tname\tstart\tend\traised\n")
            for i, s in enumerate(self.spans):
                f.write(f"{s[CALL]}\t{i}\t{s[PARENT]}\t{self.layers[s[NAME]]}\t"
                        f"{s[START]:.9f}\t{s[END]:.9f}\t{int(s[RAISED])}\n")
