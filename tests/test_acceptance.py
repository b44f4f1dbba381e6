"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is exact integer arithmetic; the only tolerances
are the per-instance wall-clock boxes.
"""

import random
import time
from functools import cache

from sierpdom import (
    Graph,
    RomanFunction,
    bound_value,
    build,
    check_boundary_adjacency,
    complete_graph,
    complete_graph_construction,
    copy_weight_profile,
    cycle_graph,
    gamma_exact,
    gamma_knt,
    gamma_r_exact,
    gamma_r_sierpinski_cycle,
    gamma_r_sierpinski_path,
    path_graph,
    perfect_code_knt,
    random_connected_graph,
    random_spanning_subgraph,
    star_graph,
    theorem_upper_bound_construction,
    universal_vertex_value,
)
from oracles import masks_from_neighbors, roman_min_enumerated


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"[criterion {num}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


@cache
def _path_cert(n: int):
    return gamma_r_exact(build(path_graph(n), 2).graph)


def test_criterion_1_path_theorem():
    ok = True
    for n, expect in ((3, 5), (4, 10), (5, 17), (6, 22)):
        cert = _path_cert(n)
        ok = ok and cert.value == expect == gamma_r_sierpinski_path(n, 2)
        ok = ok and cert.elapsed <= 60.0
    _report(1, "solver equals the path closed form on S(P_n,2), n=3..6", ok)


def test_criterion_2_cycle_theorem():
    ok = True
    for n, expect in ((4, 8), (5, 15)):
        cert = gamma_r_exact(build(cycle_graph(n), 2).graph)
        ok = ok and cert.value == expect == gamma_r_sierpinski_cycle(n, 2).exact
        ok = ok and cert.elapsed <= 120.0
    cert6 = gamma_r_exact(build(cycle_graph(6), 2).graph)
    bracket = gamma_r_sierpinski_cycle(6, 2)
    ok = ok and bracket.lower <= cert6.value <= bracket.upper
    ok = ok and (bracket.lower, bracket.upper) == (18, 22)
    ok = ok and cert6.elapsed <= 120.0
    _report(2, "solver hits 8 and 15 on S(C4,2), S(C5,2) and lands in [18,22] on S(C6,2)", ok)


def test_criterion_3_universal_vertex():
    star4_plus_edge = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)], name="star4+e")
    ok = True
    for base, expect in ((star_graph(4), 7), (star4_plus_edge, 7), (star_graph(5), 9)):
        cert = gamma_r_exact(build(base, 2).graph)
        ok = ok and cert.value == expect == universal_vertex_value(base.order, 2)
        ok = ok and cert.elapsed <= 60.0
    _report(3, "one-universal-vertex bases give 7, 7, 9 on depth 2", ok)


def test_criterion_4_complete_graphs():
    ok = True
    for t, dom_expect, weight_expect in ((2, 3, 5), (3, 7, 14)):
        s = build(complete_graph(3), t)
        ok = ok and gamma_exact(s.graph).value == dom_expect == gamma_knt(3, t)
        rep = complete_graph_construction(3, t)
        ok = ok and rep.valid and rep.actual_weight == weight_expect
        ok = ok and gamma_r_exact(s.graph).value <= weight_expect
    _report(4, "S(K3,t) domination values and constructed weights 5 and 14", ok)


def test_criterion_5_rewrite_construction():
    rng = random.Random(99)
    ok = True
    for _ in range(200):
        n = rng.randint(2, 6)
        base = random_connected_graph(n, rng, rng.choice((0.15, 0.35, 0.6)))
        cert = gamma_r_exact(base)
        rep = theorem_upper_bound_construction(cert.witness, base, 2, cert)
        ok = ok and rep.valid
        ok = ok and rep.actual_weight <= bound_value(cert.witness, base, 2)
        if not ok:
            break
    f = RomanFunction.from_sets(7, ones=[6], twos=[1, 4])
    ok = ok and bound_value(f, path_graph(7), 2) == 32 == gamma_r_sierpinski_path(7, 2)
    _report(5, "rewrite output valid and within bound_value on 200 bases, P7 bound is 32", ok)


def test_criterion_6_oracle_equivalence():
    rng = random.Random(20260817)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 7)
        g = random_connected_graph(n, rng, rng.choice((0.1, 0.3, 0.6)))
        if gamma_r_exact(g).value != roman_min_enumerated(g):
            ok = False
            break
    _report(6, "gamma_r_exact equals 3^n enumeration on 500 instances, n <= 7", ok)


def test_criterion_7_sandwich_and_monotonicity():
    rng = random.Random(11)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 7)
        g = random_connected_graph(n, rng, rng.choice((0.1, 0.3, 0.6)))
        h = random_spanning_subgraph(g, rng)
        dom = gamma_exact(g).value
        rom = gamma_r_exact(g).value
        ok = ok and dom <= rom <= 2 * dom
        ok = ok and rom <= gamma_r_exact(h).value
        if not ok:
            break
    _report(7, "gamma <= gamma_R <= 2 gamma and spanning monotonicity on 200 instances", ok)


def test_criterion_8_perfect_codes():
    ok = True
    for n, t, expect in ((3, 2, 3), (3, 3, 7), (2, 2, 2)):
        started = time.perf_counter()
        code = perfect_code_knt(n, t)
        elapsed = time.perf_counter() - started
        ok = ok and len(code) == expect and elapsed <= 10.0
        g = build(complete_graph(n), t).graph
        masks = masks_from_neighbors(g)
        seen = 0
        for v in code:
            cm = masks[v]
            ok = ok and not (cm & seen)
            seen |= cm
        ok = ok and seen == (1 << g.order) - 1
    _report(8, "perfect codes of sizes 3, 7, 2 partition their graphs", ok)


def test_criterion_9_structural_invariants():
    bases = []
    bases += [path_graph(n) for n in range(2, 8)]
    bases += [cycle_graph(n) for n in range(3, 8)]
    bases += [complete_graph(n) for n in range(2, 8)]
    bases += [star_graph(n) for n in range(2, 8)]
    rng = random.Random(7)
    bases += [random_connected_graph(rng.randint(2, 7), rng, 0.3) for _ in range(20)]
    ok = True
    for base in bases:
        n = base.order
        for t in (1, 2, 3):
            s = build(base, t)
            ok = ok and s.graph.size == base.size * (n**t - 1) // (n - 1)
            ok = ok and check_boundary_adjacency(s)
        if not ok:
            break
    _report(9, "edge-count identity and copy-boundary property, bases n <= 7, t <= 3", ok)


def test_criterion_10_copy_profiles():
    ok = True
    for n in (4, 5, 6):
        s = build(path_graph(n), 2)
        profiles = copy_weight_profile(_path_cert(n).witness, s)
        ok = ok and all(p.surplus >= 0 for p in profiles)
        ok = ok and all(p.surplus >= 1 for p in profiles if not p.corner_linked)
        by_anchor = {p.anchor: p for p in profiles}
        for p in profiles:
            if p.surplus == 0:
                near = [by_anchor[a] for a in (p.anchor - 1, p.anchor + 1) if a in by_anchor]
                ok = ok and any(q.surplus >= 2 for q in near)
    _report(10, "copy surplus classes behave on optimal S(P_n,2), n=4,5,6", ok)
