"""Workload definitions: the ops each workload runs and how each output is checked.

An op is what one CLI invocation would do, minus process start: build
the graph, solve or construct it, and serialize the output.  Its check
runs after the op's timer stops and returns None or the cause of a
failure.  Package functions are always looked up through their module
(`solver.gamma_r_exact`, not a local name), so the tracer's rebinding
at those attributes sees every call.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

from sierpdom import cli, constructions, formulas, sierpinski, solver
from sierpdom.graphs import Graph

import oracle

FAMILIES_LIMIT_S = 30.0
FRONTIER_LIMIT_S = 2.0
SWEEP_LIMIT_S = 5.0
SWEEP_OPS_PER_PASS = 200
SWEEP_MAX_PASSES = 40


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    limit: float
    # facts kept in the run record: "value" for the MILP cross-check, and "nodes" of
    # single-solve ops, which must repeat exactly and equal the traced phase split
    facts: Callable[[object], dict] = lambda out: {}
    milp: Optional[tuple] = None  # (n, base edges, t, roman) when no closed form pins the value


class Pins:
    """sha256 digests of outputs recorded from the seed code; record mode collects them."""

    def __init__(self, path: str, record: bool):
        self.path, self.record = path, record
        with open(path) as fh:
            self.table: dict[str, str] = json.load(fh)

    def check(self, key: str, dig: str) -> Optional[str]:
        if self.record:
            self.table[key] = dig
            return None
        want = self.table.get(key)
        if want is None:
            return None  # nothing recorded: instances that fail at the seed
        return None if want == dig else f"digest-mismatch: {key} {dig} != {want}"

    def save(self):
        with open(self.path, "w") as fh:
            json.dump(self.table, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _first(*causes: Optional[str]) -> Optional[str]:
    return next((c for c in causes if c), None)


def _value_cause(got: int, expect) -> Optional[str]:
    """expect is ("exact", v), ("bracket", lo, hi), ("upper", hi) or None."""
    if expect is None:
        return None
    kind, *vals = expect
    lo, hi = (vals[0], vals[0]) if kind == "exact" else (vals if kind == "bracket" else (0, vals[0]))
    return None if lo <= got <= hi else f"wrong-value: {got} outside [{lo}, {hi}]"


def _roman_expect(fam: str, n: int, t: int):
    if fam == "P" and t >= 2:
        return ("exact", oracle.roman_path(n, t))
    if fam == "C" and t >= 2:
        lo, hi = oracle.roman_cycle(n, t)
        return ("exact", lo) if lo == hi else ("bracket", lo, hi)
    if fam == "K":
        return ("upper", oracle.roman_complete_upper(n, t))
    if fam == "star" and n >= 4 and t >= 2:
        return ("exact", oracle.roman_universal(n, t))
    return None


def solve_op(pins: Pins, fam: str, n: int, t: int, roman: bool, limit: float) -> Op:
    """gamma_R (or gamma) of S(fam_n, t) with its witness checked on our own edges."""
    base = oracle.FAMILIES[fam](n)
    name = f"{'gamma_r' if roman else 'gamma'}:S({fam}{n},{t})"
    edges: list = []  # our own S(G, t) edges, made on first check

    def run():
        s = sierpinski.build(Graph(n, base, name=f"{fam}{n}"), t)
        fn = solver.gamma_r_exact if roman else solver.gamma_exact
        cert = fn(s.graph, time_limit=limit)
        return cert, cert.to_json(graph=s.graph)

    def check(out):
        cert, _ = out
        if not edges:
            edges.extend(oracle.sierpinski_edges(n, base, t))
        order = n**t
        if roman:
            labels = tuple(cert.witness.labels)
            expect = _roman_expect(fam, n, t)
            return _first(
                None if len(labels) == order else "invalid-witness: wrong order",
                None if sum(labels) == cert.value else "invalid-witness: weight != value",
                None if oracle.roman_ok(labels, edges) else "invalid-witness: not Roman dominating",
                _value_cause(cert.value, expect),
                pins.check(name, oracle.digest(bytes(labels))),
            )
        code = sorted(cert.witness)
        expect = ("exact", oracle.domination_complete(n, t)) if fam == "K" else None
        return _first(
            None if len(code) == cert.value else "invalid-witness: size != value",
            None if min(oracle.closed_cover_counts(order, code, edges)) >= 1 else "invalid-witness: not dominating",
            _value_cause(cert.value, expect),
            pins.check(name, oracle.digest(json.dumps(code).encode())),
        )

    exact = roman and (_roman_expect(fam, n, t) or ("",))[0] == "exact"
    milp = None if exact or (fam == "K" and not roman) else (n, base, t, roman)
    return Op(name, run, check, limit, lambda out: {"value": out[0].value, "nodes": out[0].nodes}, milp)


def construction_op(pins: Pins, kind: str, n: int, t: int) -> Op:
    """One of the package's constructions, checked against the closed form it claims."""
    name = f"construct:{kind}({n},{t})"
    fam = {"path": "P", "cycle": "C", "complete": "K", "code": "K", "theorem": "star"}[kind]
    base = oracle.FAMILIES[fam](n)

    def run():
        if kind == "path":
            rep = constructions.path_construction(n, t)
        elif kind == "cycle":
            rep = constructions.cycle_construction(n, t)
        elif kind == "complete":
            rep = constructions.complete_graph_construction(n, t)
        elif kind == "theorem":
            g = Graph(n, base, name=f"star{n}")
            cert = solver.gamma_r_exact(g)
            rep = constructions.theorem_upper_bound_construction(cert.witness, g, t, cert)
        else:
            code = constructions.perfect_code_knt(n, t)
            return code, json.dumps(sorted(code))
        return rep, rep.to_json()

    def check(out):
        res, _ = out
        edges = oracle.sierpinski_edges(n, base, t)
        if kind == "code":
            counts = oracle.closed_cover_counts(n**t, res, edges)
            return _first(
                None if len(res) == oracle.domination_complete(n, t) else "wrong-value: code size",
                None if all(c == 1 for c in counts) else "invalid-witness: not a perfect code",
                pins.check(name, oracle.digest(json.dumps(sorted(res)).encode())),
            )
        labels = tuple(res.function.labels)
        lower = None
        if kind == "path":
            want = oracle.roman_path(n, t)
        elif kind == "cycle":
            lo, want = oracle.roman_cycle(n, t)
            lower = lo if lo != want else None
        elif kind == "complete":
            want = oracle.roman_complete_upper(n, t)
        else:
            want = oracle.roman_universal(n, t)
        return _first(
            None if sum(labels) == res.actual_weight == want else f"wrong-value: weight {sum(labels)} != {want}",
            None if res.lower_bound == lower else f"wrong-value: lower bound {res.lower_bound} != {lower}",
            None if oracle.roman_ok(labels, edges) else "invalid-witness: not Roman dominating",
            pins.check(name, oracle.digest(bytes(labels))),
        )

    return Op(name, run, check, 0.0, lambda out: {"value": len(out[0]) if kind == "code" else out[0].actual_weight})


def cli_gen_op(pins: Pins, workdir: str, base_file: str, t: int, fmt: str) -> Op:
    """`sierpdom gen` in-process, writing to a file whose bytes are pinned."""
    name = f"cli:gen:{os.path.basename(base_file)}:t{t}:{fmt}"
    out_file = os.path.join(workdir, f"gen-{os.path.basename(base_file)}-{t}.{fmt}")
    argv = ["gen", "--base", base_file, "--t", str(t), "--format", fmt, "--out", out_file]

    def run():
        return cli.main(argv)

    def check(code):
        try:
            return _first(
                None if code == 0 else f"exit-code: {code}",
                pins.check(name, oracle.file_digest(out_file)),
            )
        finally:
            if os.path.exists(out_file):
                os.remove(out_file)

    return Op(name, run, check, 0.0)


def sweep_op(name: str, n: int, edges: list, drop: int) -> Op:
    """One row of `sweep --full --t 2`: four solves, both bounds and the four property checks."""
    kept = edges[:drop] + edges[drop + 1 :]

    def run():
        g = Graph(n, edges, name=f"rand{n}")
        h = Graph(n, kept, name=f"rand{n}-e")
        dom = solver.gamma_exact(g, time_limit=SWEEP_LIMIT_S)
        rom = solver.gamma_r_exact(g, time_limit=SWEEP_LIMIT_S)
        rom_h = solver.gamma_r_exact(h, time_limit=SWEEP_LIMIT_S)
        s = sierpinski.build(g, 2)
        s_rom = solver.gamma_r_exact(s.graph, time_limit=SWEEP_LIMIT_S)
        bound = constructions.bound_value(rom.witness, g, 2)
        lower = formulas.knt_lower_bound_for_any_graph(n, 2).value
        checks = {
            "sandwich": dom.value <= rom.value <= 2 * dom.value,
            "spanning-monotone": rom.value <= rom_h.value,
            "product-bound": s_rom.value <= bound,
            "complete-base-lower": lower <= s_rom.value,
        }
        return dom, rom, rom_h, s_rom, checks

    def check(out):
        dom, rom, rom_h, s_rom, checks = out
        s_edges = list(oracle.sierpinski_edges(n, edges, 2))
        failed = [k for k, ok in checks.items() if not ok]
        return _first(
            f"property-failed: {failed}" if failed else None,
            None if dom.value == oracle.brute_force(n, edges, False) else "wrong-value: gamma",
            None if rom.value == oracle.brute_force(n, edges, True) else "wrong-value: gamma_r",
            None if rom_h.value == oracle.brute_force(n, kept, True) else "wrong-value: gamma_r(G-e)",
            None if min(oracle.closed_cover_counts(n, dom.witness, edges)) >= 1 else "invalid-witness: gamma",
            None if oracle.roman_ok(rom.witness.labels, edges) else "invalid-witness: gamma_r",
            None if oracle.roman_ok(rom_h.witness.labels, kept) else "invalid-witness: gamma_r(G-e)",
            None if oracle.roman_ok(s_rom.witness.labels, s_edges) else "invalid-witness: gamma_r(S(G,2))",
            None if sum(s_rom.witness.labels) == s_rom.value else "invalid-witness: weight != value",
        )

    return Op(name, run, check, SWEEP_LIMIT_S, lambda out: {"value": out[3].value}, (n, edges, 2, True))


# --- the workloads: each returns the op list of pass k ----------------------


def _shuffled(ops: list[Op], seed: int) -> Callable[[int], list[Op]]:
    """Every pass runs the same ops, in an order drawn once from the seed."""
    random.Random(seed).shuffle(ops)
    return lambda k: ops


def families(seed: int, pins: Pins, workdir: str) -> Callable[[int], list[Op]]:
    lim = FAMILIES_LIMIT_S
    ops = [solve_op(pins, "P", n, 2, True, lim) for n in (3, 4, 5, 6)]
    ops += [solve_op(pins, "C", n, 2, True, lim) for n in (4, 5, 6, 7)]
    ops += [solve_op(pins, "K", 3, t, True, lim) for t in (1, 2, 3, 4)]
    ops += [solve_op(pins, "star", n, 2, True, lim) for n in (4, 5, 6)]
    ops += [solve_op(pins, "star", 4, 3, True, lim)]
    ops += [solve_op(pins, "K", 3, t, False, lim) for t in (1, 2, 3)]
    ops += [solve_op(pins, "P", 7, 2, False, lim), solve_op(pins, "star", 4, 3, False, lim)]
    ops += [construction_op(pins, "path", n, 2) for n in (5, 8)]
    ops += [construction_op(pins, "cycle", n, 2) for n in (4, 5, 6, 7)]
    ops += [construction_op(pins, "complete", n, t) for n in (3, 4) for t in (1, 2, 3)]
    ops += [construction_op(pins, "code", n, t) for n, t in ((3, 2), (3, 3), (2, 2))]
    return _shuffled(ops, seed)


def frontier(seed: int, pins: Pins, workdir: str) -> Callable[[int], list[Op]]:
    """Instances that fail at the seed: timeouts in phase 1 or 2, and recursion depth."""
    lim = FRONTIER_LIMIT_S
    ops = [solve_op(pins, f, n, t, True, lim) for f, n, t in (
        ("P", 4, 3), ("P", 8, 2), ("C", 5, 3), ("P", 3, 4),  # phase 1
        ("C", 8, 2), ("P", 7, 2), ("K", 3, 5),  # phase 2
        ("P", 2, 11),  # recursion depth
    )]
    ops += [solve_op(pins, f, n, t, False, lim) for f, n, t in (("C", 8, 2), ("C", 9, 2), ("star", 5, 3))]
    ops += [construction_op(pins, "complete", 3, 9)]
    return _shuffled(ops, seed)


def sweep(seed: int, pins: Pins, workdir: str) -> Callable[[int], list[Op]]:
    rng = random.Random(seed)
    batches = []
    for k in range(SWEEP_MAX_PASSES):
        bases = oracle.stratified_bases(rng, SWEEP_OPS_PER_PASS // 4, 5, 0.2)
        batches.append([sweep_op(f"sweep:{k}:{i}", *base) for i, base in enumerate(bases)])
    return lambda k: batches[k % SWEEP_MAX_PASSES]


def large(seed: int, pins: Pins, workdir: str) -> Callable[[int], list[Op]]:
    bases = {}
    for name, n, fam in (("K6.txt", 6, "K"), ("P2.txt", 2, "P")):
        bases[name] = os.path.join(workdir, name)
        with open(bases[name], "w") as fh:
            fh.write(oracle.edge_list_text(n, oracle.FAMILIES[fam](n)))
    ops = [
        cli_gen_op(pins, workdir, bases["K6.txt"], 6, "edgelist"),
        cli_gen_op(pins, workdir, bases["K6.txt"], 6, "dot"),
        cli_gen_op(pins, workdir, bases["P2.txt"], 16, "edgelist"),
        construction_op(pins, "path", 8, 5),
        construction_op(pins, "cycle", 7, 5),
        construction_op(pins, "cycle", 6, 5),
        construction_op(pins, "complete", 4, 8),
        construction_op(pins, "theorem", 6, 6),
    ]
    return _shuffled(ops, seed)


WORKLOADS = {"families": families, "frontier": frontier, "sweep": sweep, "large": large}
