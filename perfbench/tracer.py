"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each public function of the traced modules by a
wrapper that records one span (name, start, end, parent, CLI call index) per
call, and rebinds every ``from ... import`` alias in the loaded package so
that calls between modules are seen too. Spans stay in memory until
``write``; ``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "hgirr"
MODULES = ("hgr", "core", "spectral", "irregularity", "constructions", "cli")
# cli has no __all__; its one public entry point is the root span of a call.
EXTRA_PUBLIC = {"cli": ("main",)}

ROOT = "cli.main"
SOLVE = "spectral.spectral_radius"

# metric -> (unit, kind, source span names). Every figure except the ratios
# and the standalone matvec is a total over the traced CLI calls divided by
# their number, i.e. a per-call value.
LAYER_METRICS = {
    "hgr.parse_s": ("s", "incl", ("hgr.parse_hgr",)),
    "core.build_s": ("s", "incl", ("core.build",)),
    "core.components_s": ("s", "incl", ("core.components",)),
    "core.components_calls": ("count", "calls", ("core.components",)),
    "spectral.solve_s": ("s", "incl", (SOLVE,)),
    "spectral.solve_calls": ("count", "calls", (SOLVE,)),
    "spectral.s_per_iter": ("s/iter", "s_per_iter", (SOLVE,)),
    "spectral.matvec_s": ("s", "matvec", ("spectral.apply_adjacency",)),
    "spectral.iterations": ("count", "iterations", (SOLVE,)),
    "spectral.converged_frac": ("frac", "converged_frac", (SOLVE,)),
    "spectral.bracket_rel": ("rel", "bracket_rel", (SOLVE,)),
    "irregularity.bound_suite_self_s": ("s", "self", ("irregularity.bound_suite",)),
    "irregularity.regularize_s": (
        "s", "incl", ("irregularity.regularize", "irregularity.regularize_partitewise"),
    ),
    "irregularity.swaps": (
        "count", "swaps", ("irregularity.regularize", "irregularity.regularize_partitewise"),
    ),
    "constructions.generate_s": (
        "s", "incl", ("constructions.random_uniform", "constructions.random_r_partite"),
    ),
    "constructions.extras_s": (
        "s", "incl", ("constructions.blow_up", "constructions.direct_product"),
    ),
    "cli.self_s": ("s", "self", (ROOT,)),
    "trace.overhead_ratio": ("ratio", "overhead", ()),
}

# Hypergraphs kept from solver calls for the standalone matvec timing.
MATVEC_SAMPLE = 32


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, CLI call index]
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self.wrapped: list[str] = []
        self.solved: list = []
        self.call_index = -1
        self._stack: list[int] = []
        self._undo: list[tuple[dict, str, object]] = []

    # ---------------------------------------------------------- wrapping

    def install(self) -> None:
        originals: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            try:
                module = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                continue
            names = tuple(getattr(module, "__all__", ())) + EXTRA_PUBLIC.get(short, ())
            for attr in names:
                fn = module.__dict__.get(attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    span_name = f"{short}.{attr}"
                    originals[id(fn)] = (fn, self._wrap(span_name, fn))
                    self.wrapped.append(span_name)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            namespace = module.__dict__
            for key, value in list(namespace.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((namespace, key, value))
                    namespace[key] = hit[1]

    def uninstall(self) -> None:
        for namespace, key, value in reversed(self._undo):
            namespace[key] = value
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, stack, attrs = self.spans, self._stack, self.attrs
        is_root = name == ROOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_root:
                self.call_index += 1
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.call_index])
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if name == SOLVE:
                rho = float(out.rho)
                attrs[index] = {
                    "iterations": int(out.iterations),
                    "converged": bool(out.converged),
                    "bracket_rel": float(out.certified_error) / rho if rho > 0 else 0.0,
                }
                if len(self.solved) < MATVEC_SAMPLE:
                    self.solved.append(args[0])
            elif name.startswith("irregularity.regularize"):
                attrs[index] = {"swaps": len(out[1])}
            return out

        return wrapper

    # -------------------------------------------------------- aggregation

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self) -> dict[str, dict[str, float]]:
        """calls, inclusive and self seconds of every span name."""
        table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for span, own in zip(self.spans, self.self_times()):
            row = table[span[0]]
            row["calls"] += 1
            row["incl_s"] += span[2] - span[1]
            row["self_s"] += own
        return dict(table)

    def layer_metrics(self, matvec_s: float, overhead_ratio: float) -> tuple[dict[str, float], list[str]]:
        """Per-call layer figures, plus the metrics whose spans are all absent."""
        calls = max(1, sum(1 for span in self.spans if span[0] == ROOT))
        table = self.by_name()
        wrapped = set(self.wrapped)
        solves = [a for a in self.attrs.values() if "iterations" in a]
        iterations = sum(a["iterations"] for a in solves)
        values: dict[str, float] = {}
        absent: list[str] = []
        for metric, (_, kind, sources) in LAYER_METRICS.items():
            if sources and not any(s in wrapped for s in sources):
                absent.append(metric)
                values[metric] = 0.0
                continue
            rows = [table.get(s, {"calls": 0, "incl_s": 0.0, "self_s": 0.0}) for s in sources]
            if kind == "incl":
                value = sum(r["incl_s"] for r in rows) / calls
            elif kind == "self":
                value = sum(r["self_s"] for r in rows) / calls
            elif kind == "calls":
                value = sum(r["calls"] for r in rows) / calls
            elif kind == "s_per_iter":
                value = sum(r["self_s"] for r in rows) / max(1, iterations)
            elif kind == "iterations":
                value = iterations / calls
            elif kind == "converged_frac":
                value = sum(a["converged"] for a in solves) / max(1, len(solves))
            elif kind == "bracket_rel":
                value = max((a["bracket_rel"] for a in solves), default=0.0)
            elif kind == "swaps":
                value = sum(a.get("swaps", 0) for a in self.attrs.values()) / calls
            elif kind == "matvec":
                value = matvec_s
            else:
                value = overhead_ratio
            values[metric] = value
        return values, absent

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "call"],
                    "spans": self.spans,
                    "attrs": {str(k): v for k, v in self.attrs.items()},
                },
                fh,
                separators=(",", ":"),
            )
