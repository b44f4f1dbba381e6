"""Spans around calls into each layer, recorded from outside the package.

The tracer rebinds each public function at every module attribute that
holds it (`solver.gamma_r_exact`, `constructions.gamma_r_exact`, ...), so
callers that look the name up at call time go through a timing wrapper.
Phases 1 and 2 of the Roman solve are split by wrapping the private
`solver._roman_value` and `solver._lex_min_two_set`; if a name is gone,
its metrics are reported absent.  Hot inner helpers are never wrapped.

A span is (name, start, end, parent index, op id, error, fact); spans
stay in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from typing import Callable, Optional

# (span name, module, attribute, fact read off the return value)
TARGETS = (
    ("sierpinski.build", "sierpinski", "build", lambda r: r.order),
    ("graphs.format_edge_list", "graphs", "format_edge_list", None),
    ("graphs.to_dot", "graphs", "to_dot", None),
    ("solver.gamma_exact", "solver", "gamma_exact", lambda r: r.nodes),
    ("solver.gamma_r_exact", "solver", "gamma_r_exact", None),
    ("solver.phase1", "solver", "_roman_value", lambda r: r[1]),
    ("solver.phase2", "solver", "_lex_min_two_set", lambda r: (r[1], r[0] is not None)),
    ("roman.is_roman_dominating", "roman", "is_roman_dominating", None),
    ("roman.derived_sets", "roman", "derived_sets", None),
    ("constructions.path", "constructions", "path_construction", None),
    ("constructions.cycle", "constructions", "cycle_construction", None),
    ("constructions.complete", "constructions", "complete_graph_construction", None),
    ("constructions.theorem", "constructions", "theorem_upper_bound_construction", None),
    ("constructions.perfect_code", "constructions", "perfect_code_knt", None),
    ("constructions.bound_value", "constructions", "bound_value", None),
    ("formulas.knt_lower_bound", "formulas", "knt_lower_bound_for_any_graph", None),
    ("cli", "cli", "main", None),
)
# Graph is a class that graphs.py itself uses in isinstance checks, so it is
# rebound only where the layers above construct it.
GRAPH_CALLERS = ("sierpdom.sierpinski", "sierpdom.generators", "workloads")

# per-layer metrics in report order, with units
LAYER_METRICS = (
    ("sierpinski.build_s", "s"),
    ("sierpinski.build_self_s", "s"),
    ("sierpinski.build_calls", "count"),
    ("sierpinski.vertices", "count"),
    ("graphs.init_s", "s"),
    ("graphs.init_calls", "count"),
    ("graphs.format_edge_list_s", "s"),
    ("graphs.to_dot_s", "s"),
    ("solver.phase1_s", "s"),
    ("solver.phase1_nodes", "count"),
    ("solver.phase2_s", "s"),
    ("solver.phase2_nodes", "count"),
    ("solver.phase2_attempts", "count"),
    ("solver.phase2_hit_ratio", "ratio"),
    ("solver.timeouts", "count"),
    ("solver.recursion_errors", "count"),
    ("solver.gamma_exact_s", "s"),
    ("solver.gamma_exact_nodes", "count"),
    ("solver.gamma_r_exact_s", "s"),
    ("solver.gamma_r_exact_self_s", "s"),
    ("solver.gamma_r_exact_calls", "count"),
    ("solver.nodes_per_s", "1/s"),
    ("roman.is_roman_dominating_s", "s"),
    ("roman.is_roman_dominating_calls", "count"),
    ("roman.derived_sets_s", "s"),
    ("constructions.path_s", "s"),
    ("constructions.cycle_s", "s"),
    ("constructions.complete_s", "s"),
    ("constructions.theorem_s", "s"),
    ("constructions.perfect_code_s", "s"),
    ("constructions.bound_value_s", "s"),
    ("formulas.knt_lower_bound_s", "s"),
    ("cli.gen_s", "s"),
    ("cli.construct_s", "s"),
    ("trace.overhead_s", "s"),
)
# metrics that exist only while the named span can be recorded
_NEEDS = {
    "solver.phase1": ("solver.phase1_s", "solver.phase1_nodes", "solver.nodes_per_s"),
    "solver.phase2": (
        "solver.phase2_s",
        "solver.phase2_nodes",
        "solver.phase2_attempts",
        "solver.phase2_hit_ratio",
        "solver.nodes_per_s",
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op: Optional[str] = None
        self.absent: list[str] = []
        self._undo: list = []

    def wrap(self, name: str, fn: Callable, fact: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name = f"cli.{args[0][0]}" if name == "cli" else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            err = None
            value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                value = fact(result) if fact else None
                return result
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span_name, start, end, parent, self.op, err, value)

        return traced

    def install(self):
        """Rebind every target at each module attribute that holds it."""
        pkg = [m for k, m in sys.modules.items() if k == "sierpdom" or k.startswith("sierpdom.")]
        pkg.append(sys.modules["workloads"])
        self.absent = []
        for span, mod, attr, fact in TARGETS:
            orig = getattr(sys.modules[f"sierpdom.{mod}"], attr, None)
            if orig is None:
                self.absent.append(span)
                continue
            self._rebind(pkg, orig, self.wrap(span, orig, fact))
        graph = sys.modules["sierpdom.graphs"].Graph
        self._rebind([sys.modules[k] for k in GRAPH_CALLERS], graph, self.wrap("graphs.init", graph))

    def _rebind(self, modules, orig, wrapper):
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapper)
                    self._undo.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()

    def op_splits(self, lo: int, hi: int) -> dict[str, list[int]]:
        """Phase-1 and phase-2 node counts per op, over spans[lo:hi]."""
        out: dict[str, list[int]] = {}
        for name, _, _, _, op, _, fact in self.spans[lo:hi]:
            if fact is None or name not in ("solver.phase1", "solver.phase2"):
                continue
            split = out.setdefault(op, [0, 0])
            if name == "solver.phase1":
                split[0] += fact
            else:
                split[1] += fact[0]
        return out

    def layer_totals(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer totals over spans[lo:hi]: inclusive and self time, calls, counts."""
        spans = self.spans[lo:hi]
        child = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent is not None and parent >= lo:
                child[parent - lo] += end - start
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        nodes = {"solver.phase1": 0, "solver.phase2": 0, "solver.gamma_exact": 0, "sierpinski.build": 0}
        hits = timeouts = recursion = 0
        for i, (name, start, end, _, _, err, fact) in enumerate(spans):
            total[name] = total.get(name, 0.0) + end - start
            self_time[name] = self_time.get(name, 0.0) + end - start - child[i]
            calls[name] = calls.get(name, 0) + 1
            if fact is not None:
                if name == "solver.phase2":
                    nodes[name] += fact[0]
                    hits += fact[1]
                else:
                    nodes[name] += fact
            if name in ("solver.gamma_exact", "solver.gamma_r_exact"):
                timeouts += err == "SolveTimeout"
                recursion += err == "RecursionError"
        phase_s = total.get("solver.phase1", 0.0) + total.get("solver.phase2", 0.0)
        phase_nodes = nodes["solver.phase1"] + nodes["solver.phase2"]
        attempts = calls.get("solver.phase2", 0)
        out = {
            "sierpinski.build_self_s": self_time.get("sierpinski.build", 0.0),
            "sierpinski.vertices": nodes["sierpinski.build"],
            "solver.phase1_nodes": nodes["solver.phase1"],
            "solver.phase2_nodes": nodes["solver.phase2"],
            "solver.phase2_attempts": attempts,
            "solver.phase2_hit_ratio": hits / attempts if attempts else 0.0,
            "solver.timeouts": timeouts,
            "solver.recursion_errors": recursion,
            "solver.gamma_exact_nodes": nodes["solver.gamma_exact"],
            "solver.gamma_r_exact_self_s": self_time.get("solver.gamma_r_exact", 0.0),
            "solver.nodes_per_s": phase_nodes / phase_s if phase_s else 0.0,
        }
        ordered = {}
        for metric, _ in LAYER_METRICS:
            span, _, kind = metric.rpartition("_")
            if metric in out:
                ordered[metric] = out[metric]
            elif kind == "s":
                ordered[metric] = total.get(span, 0.0)
            elif kind == "calls":
                ordered[metric] = calls.get(span, 0)
        return ordered

    def absent_metrics(self) -> set[str]:
        return {m for span in self.absent for m in _NEEDS.get(span, ())}

    def dump(self, path: str):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, err, fact) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                if err:
                    row["error"] = err
                if fact is not None:
                    row["fact"] = fact
                fh.write(json.dumps(row) + "\n")


def median_totals(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced passes; median_low keeps counts whole."""
    return {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
