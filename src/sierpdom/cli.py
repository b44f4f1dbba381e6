"""Command line front end.

Subcommands: gen (emit S(G, t) as edge list or DOT), solve (exact
domination or Roman domination), construct (closed-form labelings),
formula (closed-form values as JSON), verify (cross-check formulas,
solver and constructions over the named families), and sweep (random
connected bases, property checks).  Each of construct, formula and
verify dispatches through one table, which also supplies its argparse
choices.  verify --families must name families from its table, and
--max-n/--max-t bound the base order and depth of every row; an unknown
name, or limits that leave no rows, is bad input (exit 2) and nothing
is verified; so is a sweep --count below 1, --max-n below 2, or
--full below --t 2, a formula --t below 1 (whatever the name), and a
--timeout of NaN for solve, verify or sweep.
Each input has one way in: the base graph is --family with --n or --base
FILE, never both (solve --depth D solves S(base, D)); the theorem
construction's labeling is --function FILE, as RomanFunction.to_json
writes it, and no other family takes one; solve --oracle takes no
--timeout; and the vertex budget is --budget.  A --family base is held
to the budget, and a solve's to the solver's order limit (with --depth
t, its nᵗ words), before it is made; a --base file's S(G, t) is held to
that limit before it is made, and sweep --max-n before any base is (with
--full, also --max-n to the --t, against the budget and that limit).

Exit codes: 0 success, 1 a verified property failed (construct: the
labeling it prints does not validate), 2 bad input, 3 budget or timeout
(formula: an n**t too long to print), 4 any other error.  Machine output
is JSON lines without timing fields, so a rerun with the same arguments
and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from contextlib import nullcontext
from functools import partial
from typing import Optional

from . import constructions, formulas
from .errors import BudgetError, ContractError, SolveTimeout
from .generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_spanning_subgraph,
    star_graph,
)
from .graphs import Graph, format_edge_list, parse_edge_list, to_dot
from .roman import RomanFunction
from .sierpinski import DEFAULT_VERTEX_BUDGET, build, check_budget, format_word, word_labels
from .solver import brute_force_gamma_r, check_solve_order, gamma_exact, gamma_r_exact

_FAMILIES = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "star": star_graph,
}

_ROMAN_COLORS = {0: "white", 1: "lightgrey", 2: "black"}


def _read_graph(path: str) -> Graph:
    with open(path) as fh:
        return parse_edge_list(fh.read(), name=os.path.basename(path))


def _load_base(args, check=None) -> Graph:
    """The gen and solve base: --base FILE, or --family with --n, which
    check(n) may refuse before the family graph is made."""
    if args.base:
        if args.n is not None:
            raise ValueError("--n goes with --family, not with --base")
        return _read_graph(args.base)
    if args.family is None:
        raise ValueError("give either --family with --n or --base FILE")
    if args.n is None:
        raise ValueError("--family needs --n")
    if check and args.n > 2:  # 2 vertices cost nothing, so C2 is refused as bad input first
        check(args.n)
    return _FAMILIES[args.family](args.n)


def _output(path: Optional[str]):
    """For a with block: the file at path opened for writing, or stdout, left open."""
    return open(path, "w") if path else nullcontext(sys.stdout)


def _emit(text: str, out: Optional[str]):
    with _output(out) as fh:
        fh.write(text)


def _cmd_gen(args) -> int:
    base = _load_base(args, lambda n: check_budget(n, args.t, args.budget))
    n, t = base.order, args.t
    g = build(base, t, args.budget).graph
    with _output(args.out) as fh:  # opened only once the build has succeeded
        if args.format == "dot":
            to_dot(g, labels=word_labels(n, t), out=fh)
        else:
            format_edge_list(g, out=fh)
    if args.meta:
        meta = {
            "config": {"command": "gen", "budget": args.budget},
            "base_order": n,
            "base_size": base.size,
            "depth": t,
            "order": g.order,
            "size": g.size,
            "extreme_vertices": [format_word((x,) * t, n) for x in range(n)],
        }
        _emit(json.dumps(meta, sort_keys=True) + "\n", None if args.meta == "-" else args.meta)
    return 0


def _cmd_solve(args) -> int:
    if args.oracle and args.timeout is not None:
        raise ValueError("--oracle takes no --timeout: the exhaustive solver has no time limit")
    if args.depth is None or args.depth == 1:
        g, s = _load_base(args, check_solve_order), None
    else:
        def check(n):
            check_budget(n, args.depth, args.budget)  # bounds n**depth
            check_solve_order(n**args.depth)

        s = build(_load_base(args, check), args.depth, args.budget)  # rejects a depth below 1
        check_solve_order(s.order)  # a --base file, before its S(G, t) is made
        g = s.graph
    if args.domination:
        cert = gamma_exact(g, time_limit=args.timeout)
    elif args.oracle:
        cert = brute_force_gamma_r(g)
    else:
        cert = gamma_r_exact(g, time_limit=args.timeout)
    if args.json:
        _emit(cert.to_json(graph=g) + "\n", args.out)
    else:
        kind = "domination number" if cert.kind == "domination" else "Roman domination number"
        lines = [f"{g.name or 'graph'}: {kind} = {cert.value}"]
        if cert.kind == "domination":
            names = [s.word_label(v) if s else str(v) for v in sorted(cert.witness)]
            lines.append(f"  witness set: {{{', '.join(names)}}}")
        else:
            f = cert.witness
            twos = [s.word_label(v) if s else str(v) for v in sorted(f.twos)]
            ones = [s.word_label(v) if s else str(v) for v in sorted(f.ones)]
            lines.append(f"  label 2 on: {{{', '.join(twos)}}}")
            lines.append(f"  label 1 on: {{{', '.join(ones)}}}")
        lines.append(f"  nodes explored: {cert.nodes}, elapsed: {cert.elapsed:.3f}s")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


_CONSTRUCTIONS = {
    "path": constructions.path_construction,
    "cycle": constructions.cycle_construction,
    "complete": constructions.complete_graph_construction,
}


def _cmd_construct(args) -> int:
    if args.family == "theorem":
        if not (args.base and args.function):
            raise ValueError("--family theorem needs --base FILE and --function FILE")
        base = _read_graph(args.base)
        with open(args.function) as fh:
            f = RomanFunction.from_json(fh.read())
        # raises ContractError unless f has the optimal weight
        report = constructions.theorem_upper_bound_construction(
            f, base, args.t, gamma_r_exact(base), args.budget
        )
    elif args.n is None:
        raise ValueError(f"--family {args.family} needs --n")
    elif args.function:
        raise ValueError(f"--family {args.family} takes no --function")
    else:
        report = _CONSTRUCTIONS[args.family](args.n, args.t, args.budget)
    if args.dot:
        s = report.sierpinski  # the S(G, t) the labeling was validated on
        colors = {v: _ROMAN_COLORS[x] for v, x in enumerate(report.function.labels)}
        with open(args.dot, "w") as fh:
            to_dot(s.graph, colors=colors, labels=s.word_labels(), out=fh)
    _emit(report.to_json(words=args.words) + "\n", args.out)
    return 0 if report.valid else 1


def _gamma_r_path_cycle(n: int, t: int) -> int:
    if t < 1:
        raise ValueError("depth must be at least 1")
    return formulas.gamma_r_path_cycle(n)  # the same for every depth t


# each value is an int or an object with to_dict()
_FORMULAS = {
    "path-cycle": _gamma_r_path_cycle,
    "path": formulas.gamma_r_sierpinski_path,
    "cycle": formulas.gamma_r_sierpinski_cycle,
    "complete-gamma": formulas.gamma_knt,
    "complete-roman-upper": formulas.gamma_r_knt_upper,
    "universal": formulas.universal_vertex_value,
    "min-degree-lower": formulas.min_degree_lower_bound,
    "complete-lower-any": formulas.knt_lower_bound_for_any_graph,
}


def _check_printable(n: int, t: int) -> None:
    """Refuse, before computing it, an n**t with more digits than Python prints
    of an int, a limit of 0 being none: it bounds every value but path-cycle's."""
    limit = sys.get_int_max_str_digits()
    digits = t * math.log10(n) if n >= 2 and t >= 1 else 0  # n**t has floor(digits) + 1
    if limit and digits > limit - 1 and (digits > limit + 1 or n**t >= 10**limit):  # exact near limit
        raise BudgetError(f"n**t = {n}**{t} has more than {limit} digits, the most Python prints of an int")


def _cmd_formula(args) -> int:
    if args.name != "path-cycle":  # its value does not depend on t
        _check_printable(args.n, args.t)
    value = _FORMULAS[args.name](args.n, args.t)
    doc = {"value": value} if isinstance(value, int) else value.to_dict()
    doc.update({"formula": args.name, "n": args.n, "t": args.t})
    _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    return 0


def _lifted_construction(base: Graph, budget: int):
    """The depth-2 product-bound construction from the solver's optimal base labeling."""
    cert = gamma_r_exact(base)
    return constructions.theorem_upper_bound_construction(cert.witness, base, 2, cert, budget)


def _check_depth_two(base, lo, hi, construct, timeout, budget):
    """gamma_R(S(base, 2)) lies in [lo, hi]; the construction is valid with weight hi."""
    got = gamma_r_exact(build(base, 2, budget).graph, time_limit=timeout).value
    rep = construct(budget)
    ok = lo <= got <= hi and rep.valid and rep.actual_weight == hi
    return {"solver": got, "construction": rep.actual_weight, "construction_valid": rep.valid}, ok


def _check_complete(n, t, expected, timeout, budget):
    g = build(complete_graph(n), t, budget).graph
    dom = gamma_exact(g, time_limit=timeout).value
    rom = gamma_r_exact(g, time_limit=timeout).value
    rep = constructions.complete_graph_construction(n, t, budget)
    upper = expected["roman_upper"]
    ok = dom == expected["gamma"] and rom <= upper and rep.valid and rep.actual_weight == upper
    got = {"gamma": dom, "roman": rom}
    return {"solver": got, "construction": rep.actual_weight, "construction_valid": rep.valid}, ok


def _check_code_size(n, t, expected, timeout, budget):
    size = len(constructions.perfect_code_knt(n, t, budget))  # no solve, so no time limit
    return {"size": size}, size == expected


# Each family yields (n, t, instance, expected, run) rows, one per S(G, t) over a
# base G of order n; run(timeout, budget) solves before it constructs and returns
# the row's result fields and whether they pass.
def _verify_paths():
    for n in range(3, 7):
        expect = formulas.gamma_r_sierpinski_path(n, 2)
        base = path_graph(n)
        if n % 3 == 2:
            construct = partial(constructions.path_construction, n, 2)
        else:
            construct = partial(_lifted_construction, base)
        yield n, 2, f"S(P{n},2)", expect, partial(_check_depth_two, base, expect, expect, construct)


def _verify_cycles():
    for n in range(4, 7):
        vb = formulas.gamma_r_sierpinski_cycle(n, 2)
        construct = partial(constructions.cycle_construction, n, 2)
        run = partial(_check_depth_two, cycle_graph(n), vb.lower, vb.upper, construct)
        yield n, 2, f"S(C{n},2)", vb.to_dict(), run


def _verify_complete():
    for t in range(1, 4):
        expected = {"gamma": formulas.gamma_knt(3, t)}
        expected["roman_upper"] = formulas.gamma_r_knt_upper(3, t)
        yield 3, t, f"S(K3,{t})", expected, partial(_check_complete, 3, t, expected)


def _verify_universal():
    plus = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)], name="star4+e")
    for g in (star_graph(4), plus, star_graph(5)):
        expect = formulas.universal_vertex_value(g.order, 2)
        run = partial(_check_depth_two, g, expect, expect, partial(_lifted_construction, g))
        yield g.order, 2, f"S({g.name},2)", expect, run


def _verify_perfect_codes():
    for n, t in ((3, 2), (3, 3), (2, 2)):
        expect = formulas.gamma_knt(n, t)
        yield n, t, f"S(K{n},{t})", expect, partial(_check_code_size, n, t, expect)


_VERIFY = {
    "paths": _verify_paths,
    "cycles": _verify_cycles,
    "complete": _verify_complete,
    "universal": _verify_universal,
    "perfect-codes": _verify_perfect_codes,
}


def _verify_families(spec: Optional[str]) -> list[str]:
    """The --families names in table order; an unknown name is bad input."""
    wanted = spec.split(",") if spec is not None else list(_VERIFY)
    unknown = [name for name in wanted if name not in _VERIFY]
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise ValueError(f"unknown verify families {names}; known: {','.join(_VERIFY)}")
    return [name for name in _VERIFY if name in wanted]


def _cmd_verify(args) -> int:
    families, rows = _verify_families(args.families), []
    todo = [
        (family, *row)
        for family in families
        for n, t, *row in _VERIFY[family]()
        if n <= args.max_n and t <= args.max_t
    ]
    if not todo:
        raise ValueError("--max-n/--max-t leave no rows to verify")
    for family, instance, expected, run in todo:
        row = {"family": family, "instance": instance, "expected": expected}
        try:
            fields, ok = run(args.timeout, args.budget)
            row.update(fields, status="pass" if ok else "fail")
        except SolveTimeout:
            row["status"] = "timeout"
        rows.append(row)
    if args.out:
        _emit("\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n", args.out)
    width = max(len("instance"), *(len(r["instance"]) for r in rows))
    print(f"{'instance':<{width}}  {'family':<14}{'status'}")
    for r in rows:
        print(f"{r['instance']:<{width}}  {r['family']:<14}{r['status']}")
    statuses = {r["status"] for r in rows}
    if "fail" in statuses:
        return 1
    if "timeout" in statuses:
        return 3
    return 0


def _cmd_sweep(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    if args.max_n < 2:
        raise ValueError("--max-n must be at least 2")
    if args.full and args.t < 2:
        raise ValueError("--full checks the product bounds, which need --t of at least 2")
    check_solve_order(args.max_n)  # before a base of up to max_n vertices is made
    if args.full:  # and before any row is solved, as --full solves S(G, t) of up to max_n**t
        check_budget(args.max_n, args.t, args.budget)  # bounds the power
        check_solve_order(args.max_n**args.t)
    rng = random.Random(args.seed)
    rows = []
    failures = 0
    for i in range(args.count):
        n = rng.randint(2, args.max_n)
        g = random_connected_graph(n, rng, args.extra_prob)
        h = random_spanning_subgraph(g, rng)
        dom = gamma_exact(g, time_limit=args.timeout)
        rom = gamma_r_exact(g, time_limit=args.timeout)
        rom_h = gamma_r_exact(h, time_limit=args.timeout)
        checks = {
            "sandwich": dom.value <= rom.value <= 2 * dom.value,
            "spanning-monotone": rom.value <= rom_h.value,
        }
        if args.full:
            s = build(g, args.t, args.budget)
            s_rom = gamma_r_exact(s.graph, time_limit=args.timeout)
            bound = constructions.bound_value(rom.witness, g, args.t)
            lower = formulas.knt_lower_bound_for_any_graph(n, args.t).value
            checks["product-bound"] = s_rom.value <= bound
            checks["complete-base-lower"] = lower <= s_rom.value
        ok = all(checks.values())
        failures += 0 if ok else 1
        rows.append(
            {
                "config": {"command": "sweep", "seed": args.seed, "budget": args.budget},
                "index": i,
                "order": n,
                "edges": g.size,
                "gamma": dom.value,
                "gamma_r": rom.value,
                "checks": checks,
                "status": "pass" if ok else "fail",
            }
        )
    _emit("\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n", args.out)
    passed = args.count - failures
    print(f"sweep: {passed}/{args.count} instances passed", file=sys.stderr)
    return 1 if failures else 0


def _seconds(text: str) -> float:
    """A --timeout value: any float but NaN, which no clock reading exceeds."""
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError("must be a number of seconds, not NaN")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sierpdom", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_budget(sp):
        sp.add_argument(
            "--budget", type=int, default=DEFAULT_VERTEX_BUDGET, help="vertex budget override"
        )

    def add_base(sp):
        source = sp.add_mutually_exclusive_group()
        source.add_argument("--family", choices=sorted(_FAMILIES))
        source.add_argument("--base", help="edge list file for the base graph")
        sp.add_argument("--n", type=int)

    gen = sub.add_parser("gen", help="emit S(G, t)")
    add_base(gen)
    gen.add_argument("--t", type=int, default=1)
    gen.add_argument("--format", choices=("edgelist", "dot"), default="edgelist")
    gen.add_argument("--out")
    gen.add_argument("--meta", help="write a JSON metadata block to FILE, or - for stdout")
    add_budget(gen)
    gen.set_defaults(run=_cmd_gen)

    solve = sub.add_parser("solve", help="exact solve")
    add_base(solve)
    solve.add_argument("--depth", type=int, help="solve S(base, DEPTH) instead of the base")
    mode = solve.add_mutually_exclusive_group()
    mode.add_argument("--domination", action="store_true")
    mode.add_argument("--oracle", action="store_true", help="exhaustive reference solver")
    solve.add_argument("--timeout", type=_seconds)
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--out")
    add_budget(solve)
    solve.set_defaults(run=_cmd_solve)

    cons = sub.add_parser("construct", help="closed-form labelings")
    cons.add_argument("--family", choices=(*_CONSTRUCTIONS, "theorem"), required=True)
    order = cons.add_mutually_exclusive_group()
    order.add_argument("--n", type=int)
    order.add_argument("--base", help="base edge list for the theorem construction")
    cons.add_argument("--t", type=int, required=True)
    cons.add_argument("--function", help="base labeling JSON for the theorem construction")
    cons.add_argument("--dot", help="write a colored DOT rendering to FILE")
    cons.add_argument("--words", action="store_true", help="key the labeling by words")
    cons.add_argument("--out")
    add_budget(cons)
    cons.set_defaults(run=_cmd_construct)

    form = sub.add_parser("formula", help="closed-form values as JSON")
    form.add_argument("--name", required=True, choices=tuple(_FORMULAS))
    form.add_argument("--n", type=int, required=True)
    form.add_argument("--t", type=int, default=2)
    form.add_argument("--out")
    form.set_defaults(run=_cmd_formula)

    ver = sub.add_parser("verify", help="cross-check formulas, solver and constructions")
    ver.add_argument("--families", help="comma list: " + ",".join(_VERIFY))
    ver.add_argument("--max-n", type=int, default=6)
    ver.add_argument("--max-t", type=int, default=3)
    ver.add_argument("--timeout", type=_seconds, help="per-row solve limit in seconds")
    ver.add_argument("--out", help="write JSON rows to FILE")
    add_budget(ver)
    ver.set_defaults(run=_cmd_verify)

    sw = sub.add_parser("sweep", help="random connected bases, property checks")
    sw.add_argument("--count", type=int, default=20)
    sw.add_argument("--max-n", type=int, default=5)
    sw.add_argument("--t", type=int, default=2)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--extra-prob", type=float, default=0.2)
    sw.add_argument("--full", action="store_true", help="also check the product bounds on S(G, t)")
    sw.add_argument("--timeout", type=_seconds, help="per-solve limit in seconds")
    sw.add_argument("--out")
    add_budget(sw)
    sw.set_defaults(run=_cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ContractError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetError, SolveTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # exit 1 is reserved for a failed verified property
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
