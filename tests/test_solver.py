"""Exact solvers: values, witnesses, canonical tie-breaks, limits."""

import gc
import hashlib
import json
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import accumulate, product
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from sierpdom import (
    BudgetError,
    ContractError,
    Graph,
    RomanFunction,
    SolveTimeout,
    brute_force_gamma_r,
    build,
    complete_graph,
    cycle_graph,
    derived_sets,
    gamma_exact,
    gamma_r_exact,
    is_dominating_set,
    is_roman_dominating,
    path_graph,
    perfect_code_knt,
    random_connected_graph,
    roman_graph_bound,
    star_graph,
)
from sierpdom import solver
from sierpdom.solver import (
    _Closed,
    _Deadline,
    _branch,
    _descend,
    _greedy_cover,
    _lex_min_two_set,
    _picks,
    _roman_bound_reaches,
    _roman_cuts,
    _roman_value,
    _top_excess_within,
    check_solve_order,
)
from oracles import (
    domination_min_subsets,
    masks_from_neighbors,
    min_completion_weight,
    roman_min_canonical,
    roman_min_enumerated,
)


def test_domination_known_values():
    assert gamma_exact(path_graph(1)).value == 1
    assert gamma_exact(path_graph(4)).value == 2
    assert gamma_exact(path_graph(7)).value == 3
    assert gamma_exact(cycle_graph(6)).value == 2
    assert gamma_exact(complete_graph(5)).value == 1
    assert gamma_exact(star_graph(7)).value == 1
    assert gamma_exact(Graph(4)).value == 4


def test_roman_known_values():
    assert gamma_r_exact(path_graph(1)).value == 1
    assert gamma_r_exact(path_graph(2)).value == 2
    assert gamma_r_exact(path_graph(3)).value == 2
    assert gamma_r_exact(path_graph(7)).value == 5
    assert gamma_r_exact(cycle_graph(5)).value == 4
    assert gamma_r_exact(complete_graph(4)).value == 2
    assert gamma_r_exact(star_graph(9)).value == 2
    assert gamma_r_exact(Graph(3)).value == 3


def test_counts_past_a_byte():
    # a hub of degree 129 makes barred counts (count plus top) past 255;
    # a 7-cycle beside it keeps the searches going
    cycle = [(130 + i, 130 + (i + 1) % 7) for i in range(7)]
    g = Graph(137, [(0, v) for v in range(1, 130)] + cycle)
    labels = gamma_r_exact(g).witness.labels
    assert labels[:130] == (2,) + (0,) * 129
    assert labels[130:] == gamma_r_exact(cycle_graph(7)).witness.labels
    assert gamma_exact(g).value == 1 + gamma_exact(cycle_graph(7)).value


def test_solves_cache_no_neighbor_tuples():
    # the searches make their own id lists and leave the graph as they found it:
    # neighbor tuples built per solve raised the peak RSS of long solve loops
    g = _sierpinski("C", 4, 2)
    gamma_exact(g)
    gamma_r_exact(g)
    assert g._adj is None


def test_certificates_carry_valid_witnesses():
    g = cycle_graph(7)
    dom = gamma_exact(g)
    assert dom.kind == "domination"
    assert len(dom.witness) == dom.value
    assert is_dominating_set(g, dom.witness)
    rom = gamma_r_exact(g)
    assert rom.kind == "roman"
    assert rom.witness.weight == rom.value
    assert is_roman_dominating(rom.witness, g)
    assert dom.nodes > 0 and rom.nodes > 0


def test_canonical_witness_on_paths():
    """Min weight, then max 2s, then lex-min 2-set, 1s forced."""
    assert gamma_r_exact(path_graph(4)).witness.labels == (0, 2, 0, 1)
    assert gamma_r_exact(path_graph(7)).witness.labels == (0, 2, 0, 0, 2, 0, 1)
    assert gamma_r_exact(path_graph(3)).witness.labels == (0, 2, 0)
    assert gamma_r_exact(complete_graph(3)).witness.labels == (2, 0, 0)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7), st.integers(0, 10**6), st.sampled_from((0.1, 0.3, 0.6)))
def test_roman_value_matches_enumeration(n, seed, extra):
    g = random_connected_graph(n, random.Random(seed), extra)
    assert gamma_r_exact(g).value == roman_min_enumerated(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10**6))
def test_canonical_witness_matches_enumeration(n, seed):
    g = random_connected_graph(n, random.Random(seed), 0.35)
    assert gamma_r_exact(g).witness.labels == roman_min_canonical(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(0, 10**6))
def test_domination_matches_subset_enumeration(n, seed):
    g = random_connected_graph(n, random.Random(seed), 0.3)
    assert gamma_exact(g).value == domination_min_subsets(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**6))
def test_value_equals_best_completion(n, seed):
    """The optimum is the best 2|S| + |V - N[S]| over all 2-sets S."""
    g = random_connected_graph(n, random.Random(seed), 0.4)
    assert gamma_r_exact(g).value == min_completion_weight(g)


def test_completion_identity_up_to_ten_vertices():
    # the 2^n completion identity against the raw 3^n sweep, at sizes
    # the hypothesis tests above do not reach
    rng = random.Random(5)
    for n in (9, 10):
        for _ in range(2):
            g = random_connected_graph(n, rng, 0.25)
            want = roman_min_enumerated(g)
            assert min_completion_weight(g) == want
            assert gamma_r_exact(g).value == want


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10**6))
def test_roman_strictly_above_domination_when_connected(n, seed):
    g = random_connected_graph(n, random.Random(seed), 0.3)
    assert gamma_r_exact(g).value > gamma_exact(g).value


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10**6))
def test_canonical_witness_ones_are_isolated(n, seed):
    """No 1 in a canonical witness touches another positive vertex."""
    g = random_connected_graph(n, random.Random(seed), 0.35)
    f = gamma_r_exact(g).witness
    ds = derived_sets(f, g)
    assert ds.linked_ones == frozenset()
    assert not (f.ones & ds.linked_positive)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(0, 10**6))
def test_brute_force_agrees_with_solver(n, seed):
    g = random_connected_graph(n, random.Random(seed), 0.3)
    a = gamma_r_exact(g)
    b = brute_force_gamma_r(g)
    assert a.value == b.value
    assert a.witness == b.witness


def test_brute_force_reads_no_search_data(monkeypatch):
    """The reference makes its own masks: with the searches' closed
    neighborhoods missing the first edge, it still finds the true optimum."""

    def closed(g):
        return _Closed(Graph(g.order, list(g.edges)[1:]))

    monkeypatch.setattr(solver, "_Closed", closed)
    for g in (star_graph(5), path_graph(5), cycle_graph(6), complete_graph(4)):
        assert brute_force_gamma_r(g).value == roman_min_enumerated(g)


def test_brute_force_order_cap():
    with pytest.raises(BudgetError):
        brute_force_gamma_r(Graph(23))


def test_solver_budget():
    big = Graph(200_001)
    with pytest.raises(BudgetError):
        gamma_exact(big)
    with pytest.raises(BudgetError):
        gamma_r_exact(big)


def test_solver_refuses_orders_whose_masks_outgrow_memory():
    """Closed masks take at least n**2/16 bytes, so the solver refuses an
    order above 65,536 (256 MiB of masks) before building any."""
    g = path_graph(65_537)
    with pytest.raises(BudgetError):
        check_solve_order(g.order)  # raises on its own, so a missing guard fails here, not in a solve
    check_solve_order(65_536)

    def closed(h):
        if h.order > solver.MAX_SOLVE_ORDER:
            pytest.fail(f"closed neighborhoods built for order {h.order}")
        return _Closed(h)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_Closed", closed)
        for solve in (gamma_exact, gamma_r_exact):
            with pytest.raises(BudgetError):
                solve(g)


def test_timeout_raises():
    g = build(cycle_graph(6), 2).graph
    with pytest.raises(SolveTimeout):
        gamma_r_exact(g, time_limit=0.0)


@pytest.mark.parametrize("solve", [gamma_exact, gamma_r_exact])
def test_nan_time_limit_is_refused(solve):
    # no clock reading exceeds NaN, so such a limit would never fire
    with pytest.raises(ValueError, match="NaN"):
        solve(cycle_graph(6), time_limit=float("nan"))


@pytest.mark.parametrize("solve", [gamma_exact, gamma_r_exact])
def test_timeout_bounds_the_first_incumbent(solve):
    # the greedy incumbent of a 6000-vertex path used to take seconds before
    # the first deadline check
    start = time.perf_counter()
    try:
        solve(path_graph(6000), time_limit=0.5)
    except SolveTimeout:
        pass
    assert time.perf_counter() - start < 3


def test_roman_graph_detection():
    # gamma_R = 2 gamma: C5 (4 = 2 * 2), P2 and P3 (2 = 2 * 1)
    for base in (cycle_graph(5), path_graph(2), path_graph(3)):
        rep = roman_graph_bound(base, 2)
        assert rep.valid
        assert rep.step_weights[0] == ("lift", base.order * gamma_r_exact(base).value)
    for base in (path_graph(7), cycle_graph(4)):  # 5 < 2 * 3 and 3 < 2 * 2
        with pytest.raises(ContractError):
            roman_graph_bound(base, 2)


def test_certificate_checks_survive_optimization():
    # the witness checks are explicit raises, so python -O keeps them
    script = """
from sierpdom import solver
from sierpdom.generators import path_graph
solver.is_roman_dominating = lambda f, g: False
solver.is_dominating_set = lambda g, vs: False
for solve in (solver.gamma_r_exact, solver.gamma_exact):
    try:
        solve(path_graph(4))
    except AssertionError as exc:
        print("raised:", exc)
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines() == [
        "raised: Roman witness failed its certificate check",
        "raised: domination witness failed its certificate check",
    ]


def test_searches_do_not_recurse():
    # every exact search keeps its own stack, so a tiny recursion limit is no bound
    script = """
import sys
from sierpdom import gamma_exact, gamma_r_exact, path_graph, perfect_code_knt
sys.setrecursionlimit(60)
assert gamma_exact(path_graph(300)).value == 100
assert gamma_r_exact(path_graph(300)).value == 200
assert len(perfect_code_knt(3, 5)) == 61
"""
    subprocess.run([sys.executable, "-c", script], check=True)


def test_certificate_json_shape():
    g = path_graph(4)
    doc = json.loads(gamma_r_exact(g).to_json(graph=g))
    assert doc["kind"] == "roman"
    assert doc["value"] == 3
    assert doc["witness"] == [0, 2, 0, 1]
    assert doc["graph"]["name"] == "P4"
    assert "elapsed_s" not in doc
    doc2 = json.loads(gamma_exact(g).to_json(g))
    assert doc2["witness"] == sorted(doc2["witness"])
    assert "elapsed_s" not in doc2


def test_disconnected_graphs_are_fine():
    g = Graph(6, [(0, 1), (2, 3)])
    assert gamma_r_exact(g).value == roman_min_enumerated(g)
    assert gamma_exact(g).value == domination_min_subsets(g)


def _sierpinski(fam, n, t):
    base = {"P": path_graph, "C": cycle_graph, "K": complete_graph, "star": star_graph}[fam](n)
    return base if t == 1 else build(base, t).graph


# Search-node counts are deterministic, so they catch a search regression
# without timing; the bounds must keep pruning at least this well.
NODE_COUNTS = [
    (gamma_r_exact, "C", 6, 2, 22_289),
    (gamma_r_exact, "C", 7, 2, 2_367),
    (gamma_r_exact, "star", 4, 3, 1_394),
    (gamma_r_exact, "P", 5, 2, 3_227),
    (gamma_r_exact, "P", 6, 2, 1_936),
    (gamma_r_exact, "C", 5, 2, 2_599),
    (gamma_r_exact, "C", 8, 2, 19_464_597),  # nearly all of them replayed subtrees
    (gamma_r_exact, "K", 3, 4, 590),
    (gamma_r_exact, "P", 1500, 1, 2_500),  # S(P1500, 1) is the path itself
    (gamma_r_exact, "P", 3100, 1, 9_300),
    (gamma_exact, "P", 7, 2, 81),
    (gamma_exact, "star", 4, 3, 6),
]


@pytest.mark.parametrize(
    "solve,fam,n,t,nodes",
    NODE_COUNTS,
    ids=[f"{solve.__name__}:S({fam}{n},{t})" for solve, fam, n, t, _ in NODE_COUNTS],
)
def test_search_node_counts(solve, fam, n, t, nodes):
    assert solve(_sierpinski(fam, n, t)).nodes == nodes


def test_phase_split_is_pinned():
    # γ_R S(C6,2) = 22: phase 1 proves the value, then phase 2 finds no
    # eleven 2s covering all 36 vertices and the witness among ten 2s
    g = _sierpinski("C", 6, 2)
    deadline, closed = _Deadline(None), _Closed(g)
    assert _roman_value(deadline, closed) == (22, 6_143)
    twos, ticks = _lex_min_two_set(11, 36, deadline, closed, {})
    assert (twos, ticks) == (None, 8_299)
    twos, ticks = _lex_min_two_set(10, 34, deadline, closed, {})
    assert twos is not None and ticks == 7_847
    assert deadline.ticks == 22_289


def _reference_top_sum_below(hist, top, k, need):
    """Whether the k largest counts in hist[:top] sum below need: the witness
    phase's and the domination search's reader of the histogram before the
    searches shared one, kept as a reference for it."""
    for c in range(top - 1, 0, -1):
        h = hist[c]
        if h >= k:
            return k * c < need
        need -= h * c
        if need <= 0:
            return False
        k -= h
    return True


def _reference_roman_bound_reaches(hist, top, ucount, gap):
    """Phase 1's prune decision with its own walk of the histogram, as it was
    before the searches shared one reader, kept as a reference for it."""
    slack = ucount - gap
    if slack < 0:
        return False
    picks = (gap - 1) // 2
    for c in range(top - 1, 2, -1):
        h = hist[c]
        if h >= picks:
            return picks * (c - 2) <= slack
        slack -= h * (c - 2)
        if slack < 0:
            return False
        picks -= h
    return True


def test_one_reader_makes_every_former_decision():
    # every histogram of top <= 6 with buckets of 0-2 vertices, buckets at and
    # above top holding barred vertices the reader must not read
    for top in range(1, 7):
        for hist in product(range(3), repeat=top):
            hist = list(hist) + [2] * top
            for k, limit in product(range(-1, 8), range(-2, 15)):
                got = _top_excess_within(hist, top, k, 0, limit)
                assert got == _reference_top_sum_below(hist, top, k, limit + 1)
                for gap in (2 * k + 1, 2 * k + 2):  # both leave (gap - 1) // 2 == k picks
                    want = _reference_roman_bound_reaches(hist, top, limit + gap, gap)
                    assert (limit >= 0 and _top_excess_within(hist, top, k, 2, limit)) == want
                    assert _roman_bound_reaches(hist, top, limit + gap, gap) == want
                for floor in (0, 2):
                    if limit >= 0 and k >= 0:  # the reader's own contract, read as a sum
                        excess = sorted((c - floor for c in range(floor + 1, top) for _ in range(hist[c])))
                        total = sum(excess[::-1][:k])
                        assert _top_excess_within(hist, top, k, floor, limit) == (total <= limit)


def _reference_roman_value(deadline, closed):
    """Phase 1 with every child pushed and decided at its pop, the reference
    for its value and its ticks."""
    masks, nb, top, levels = closed.masks, closed.ids, closed.top, closed.levels
    n = len(masks)
    best = min(2 * len(_greedy_cover(nb, deadline)), n)
    ticks = deadline.ticks
    full = (1 << n) - 1
    stack = [(full, 0, closed.counts, closed.hist, full, None, ())]
    while stack:
        undom, weight, counts, hist, before, taken, barred = stack.pop()
        deadline.tick()
        if not undom:
            if weight < best:
                best = weight
            continue
        gap = best - weight
        ucount = undom.bit_count()
        if gap <= 2 and ucount >= gap:
            continue
        counts, hist = _descend(nb, top, counts, hist, before, taken, barred)
        if _reference_roman_bound_reaches(hist, top, ucount, gap):
            continue
        v, cands = _branch(levels, nb, counts, top, undom)
        stack.append((undom & ~(1 << v), weight + 1, counts, hist, undom, None, nb[v]))
        for j in range(len(cands) - 1, -1, -1):
            u = cands[j]
            stack.append((undom & ~masks[u], weight + 2, counts, hist, undom, u, cands[:j]))
    return best, deadline.ticks - ticks


_ROMAN_SIERPINSKI = [(fam, n, t) for solve, fam, n, t, _ in NODE_COUNTS if solve is gamma_r_exact and t > 1]


@pytest.mark.parametrize(
    "fam,n,t", _ROMAN_SIERPINSKI, ids=[f"S({f}{n},{t})" for f, n, t in _ROMAN_SIERPINSKI]
)
def test_value_search_on_sierpinski_graphs_is_the_reference_tree(fam, n, t):
    closed = _Closed(_sierpinski(fam, n, t))
    assert _roman_value(_Deadline(None), closed) == _reference_roman_value(_Deadline(None), closed)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 14), st.integers(0, 10**6), st.sampled_from((0.0, 0.15, 0.3, 0.5)), st.booleans())
def test_value_search_is_the_reference_tree(n, seed, p, connected):
    # p = 0 gives a tree when connected and an edgeless graph otherwise
    g = random_connected_graph(n, random.Random(seed), p) if connected else _random_graph(n, seed, p)
    closed = _Closed(g)
    assert _roman_value(_Deadline(None), closed) == _reference_roman_value(_Deadline(None), closed)


def test_value_search_cuts_children_at_their_parent():
    # S(C6, 2): 3,436 of the 6,143 phase-1 nodes are decided at their parent
    cuts = [0, 0]

    def counted(counts, hist, top, cands, ucount, gap):
        settle_cut, keep = _roman_cuts(counts, hist, top, cands, ucount, gap)
        cuts[0] += settle_cut
        cuts[1] += len(cands) - keep
        return settle_cut, keep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_roman_cuts", counted)
        assert _roman_value(_Deadline(None), _Closed(_sierpinski("C", 6, 2))) == (22, 6_143)
    assert cuts == [1_070, 2_366]


def _reference_lex_min_two_set(g, k, target_cover, deadline, closed):
    """The witness search with no table of failed subtrees, the reference for
    its result and its ticks: every node of the tree is searched."""
    masks, nb, top = closed.masks, closed.ids, closed.top
    n = g.order
    reach = list(accumulate(reversed(masks), or_, initial=0))[::-1]
    most = list(accumulate(map(len, reversed(nb)), max, initial=0))[::-1]
    ticks = deadline.ticks
    stack = [(0, k, 0, None, closed.counts, closed.hist, 0)]
    while stack:
        i, left, covered, picked, counts, hist, before = stack.pop()
        deadline.tick()
        if left == 0:
            if covered.bit_count() >= target_cover:
                return sorted(_picks(picked)), deadline.ticks - ticks
            continue
        if n - i < left:
            continue
        if (covered | reach[i]).bit_count() < target_cover:
            continue
        need = target_cover - covered.bit_count()
        if left * most[i] < need:
            continue
        if i:
            taken = i - 1 if covered != before else None
            counts, hist = _descend(nb, top, counts, hist, ~before, taken, (i - 1,))
        if _reference_top_sum_below(hist, top, left, need):
            continue
        stack.append((i + 1, left, covered, picked, counts, hist, covered))
        stack.append((i + 1, left - 1, covered | masks[i], (picked, i), counts, hist, covered))
    return None, deadline.ticks - ticks


def _witness_attempts(g, closed):
    """The (k, target) pairs gamma_r_exact passes to the witness search, in order."""
    n = g.order
    value = _roman_value(_Deadline(None), closed)[0]
    attempts = []
    for k in range(value // 2, -1, -1):
        if value - 2 * k > n:
            break
        attempts.append((k, n - (value - 2 * k)))
        if _reference_lex_min_two_set(g, *attempts[-1], _Deadline(None), closed)[0] is not None:
            break
    return attempts


def _assert_same_as_reference(g, attempts, start=0, failed=None):
    """The witness search returns the reference's 2-set and ticks and leaves its
    deadline at the same count, for every (k, target) in attempts.  Every
    attempt gets a fresh table, or with failed given they all share that one,
    as the attempts of one solve do."""
    closed = _Closed(g)
    for k, target in attempts:
        want, got = _Deadline(None), _Deadline(None)
        want.ticks = got.ticks = start
        table = {} if failed is None else failed
        assert _lex_min_two_set(k, target, got, closed, table) == _reference_lex_min_two_set(
            g, k, target, want, closed
        )
        assert got.ticks == want.ticks


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 14),
    st.integers(0, 10**6),
    st.sampled_from((0.15, 0.3, 0.5)),
    st.booleans(),
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=4),
    st.integers(0, 1000),
)
def test_witness_search_replays_the_reference_tree(n, seed, p, connected, extra, start):
    g = random_connected_graph(n, random.Random(seed), p) if connected else _random_graph(n, seed, p)
    attempts = _witness_attempts(g, _Closed(g))
    _assert_same_as_reference(g, attempts + [(k % (n + 1), t % (n + 2)) for k, t in extra], start)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 14),
    st.integers(0, 10**6),
    st.sampled_from((0.15, 0.3, 0.5)),
    st.booleans(),
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=4),
    st.integers(0, 1000),
    st.randoms(use_true_random=False),
)
def test_one_table_serves_every_attempt(n, seed, p, connected, extra, start, rng):
    # gamma_r_exact's attempts in its order, then those and random ones shuffled,
    # all through one table: a key carries the target through need
    g = random_connected_graph(n, random.Random(seed), p) if connected else _random_graph(n, seed, p)
    attempts = _witness_attempts(g, _Closed(g))
    more = attempts + [(k % (n + 1), t % (n + 2)) for k, t in extra]
    rng.shuffle(more)
    _assert_same_as_reference(g, attempts + more, start, failed={})


def _descend_calls(g, attempts):
    """The witness search's ticks per attempt, run through one table, and how
    many nodes made their counts."""
    calls = []

    def counted(*args):
        calls.append(None)
        return _descend(*args)

    closed, deadline, failed = _Closed(g), _Deadline(None), {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_descend", counted)
        results = [_lex_min_two_set(k, target, deadline, closed, failed) for k, target in attempts]
    return results, len(calls)


def test_replayed_subtrees_are_not_searched_again():
    # S(C6, 2) at k = 11: 8,299 nodes, 4,563 of them making their counts with
    # no table, in 742 distinct states
    results, calls = _descend_calls(_sierpinski("C", 6, 2), [(11, 36)])
    assert results == [(None, 8_299)]
    assert calls < 8_299 // 10


def test_witness_phase_of_s_p8_2_replays_across_attempts():
    # γ_R(S(P8, 2)) = 43 (the MILP agrees); no 21 or 20 2s cover enough, 19 do.
    # 932,279 nodes make their counts under a table keyed by the whole covered
    # mask, one table per attempt; 3,023 under one table keyed by what a subtree reads
    results, calls = _descend_calls(_sierpinski("P", 8, 2), [(k, 64 - (43 - 2 * k)) for k in (21, 20, 19)])
    assert [ticks for _, ticks in results] == [1_708_071, 9_061_631, 5_103_280]
    assert results[0][0] is None and results[1][0] is None and results[2][0] is not None
    assert calls < 30_000


@pytest.mark.parametrize("budget", [0, 3 * 300])
def test_a_full_table_is_emptied_and_the_tree_kept(budget):
    # a budget of 0 keeps one entry at a time, and 900 bytes three at these orders
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_FAILED_BYTES", budget)
        for g in (_sierpinski("C", 6, 2), _sierpinski("P", 5, 2)):
            _assert_same_as_reference(g, _witness_attempts(g, _Closed(g)))


@pytest.mark.parametrize("budget", [solver._FAILED_BYTES, 1 << 18, 1 << 14])
def test_failed_table_stays_within_its_budget(budget):
    # S(P7, 2)'s witness search takes 172,651 ticks over three attempts that share
    # one table, as in gamma_r_exact, and records 969 failed subtrees: a 256 KiB
    # budget (967 keys) is emptied once, and 16 KiB (60 keys) many times over; the
    # slack holds the stack, the count lists and the reach masks (13 KB with no table)
    g = _sierpinski("P", 7, 2)
    closed = _Closed(g)
    deadline = _Deadline(None)
    failed = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_FAILED_BYTES", budget)
        tracemalloc.start()
        try:
            for k in (16, 15, 14):  # γ_R = 32: no 16 or 15 2s cover enough, 14 do
                twos = _lex_min_two_set(k, 49 - (32 - 2 * k), deadline, closed, failed)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert twos is not None and deadline.ticks == 172_651
    assert peak < budget + (1 << 16)
    # the table of 969 keys fits in the slack, so only its size shows a missed emptying
    assert len(failed) <= budget // (solver._FAILED_ENTRY_BYTES + g.order // 7)


def test_timeout_bounds_a_long_solve():
    # replayed subtrees count their ticks through the deadline, which reads the clock
    start = time.perf_counter()
    with pytest.raises(SolveTimeout):
        gamma_r_exact(_sierpinski("P", 8, 2), time_limit=0.5)
    assert time.perf_counter() - start < 3


def _reference_roman_lower(closed, n, undom, excluded):
    """Phase 1's lower bound computed as a value, the reference for its prune decision."""
    ucount = undom.bit_count()
    covs = sorted(
        (
            (closed[u] & undom).bit_count()
            for u in range(n)
            if not excluded >> u & 1 and closed[u] & undom
        ),
        reverse=True,
    )
    bound = ucount
    acc = 0
    for k, c in enumerate(covs, start=1):
        acc += c
        val = 2 * k + (ucount - acc if acc < ucount else 0)
        if val < bound:
            bound = val
        if acc >= ucount or 2 * k >= bound:
            break
    return bound


def _reference_min_picks(closed, n, undom, excluded):
    """The fewest unexcluded vertices whose covers could sum to |undom|, or None."""
    ucount = undom.bit_count()
    covs = sorted(
        (
            (closed[u] & undom).bit_count()
            for u in range(n)
            if not excluded >> u & 1 and closed[u] & undom
        ),
        reverse=True,
    )
    acc = 0
    for k, c in enumerate(covs, start=1):
        acc += c
        if acc >= ucount:
            return k
    return None


def _reference_gains_short(closed, n, i, left, covered, target_cover):
    gains = sorted(((closed[u] & ~covered).bit_count() for u in range(i, n)), reverse=True)
    return covered.bit_count() + sum(gains[:left]) < target_cover


_node_states = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(0, 10**6),
        st.sampled_from((0.0, 0.2, 0.5)),
        st.integers(1, (1 << n) - 1),
        st.integers(0, (1 << n) - 1),
        st.integers(-2, n + 3),
    )
)


def _count_hist(closed, undom, barred):
    """The searches' histogram of |N[u] & undom|, a barred u shifted up by top, and top."""
    top = max(m.bit_count() for m in closed) + 1
    hist = [0] * (2 * top)
    for u, m in enumerate(closed):
        hist[(m & undom).bit_count() + (top if barred >> u & 1 else 0)] += 1
    return hist, top


@settings(max_examples=300, deadline=None)
@given(_node_states)
def test_roman_prune_decision_matches_lower_bound(state):
    n, seed, extra, undom, excluded, gap = state
    closed = masks_from_neighbors(random_connected_graph(n, random.Random(seed), extra))
    want = _reference_roman_lower(closed, n, undom, excluded) >= gap
    hist, top = _count_hist(closed, undom, excluded)
    ucount = undom.bit_count()
    assert _roman_bound_reaches(hist, top, ucount, gap) == want
    if gap <= 2 and ucount >= gap:  # the search's shortcut before it makes the counts
        assert want


@settings(max_examples=300, deadline=None)
@given(_node_states)
def test_children_cut_at_their_parent_are_dropped_at_their_pop(state):
    # a child cut at its parent has a lower bound that reaches its gap there,
    # so also at its pop, when the incumbent is no higher; a cut leaf never
    # improves the incumbent
    n, seed, extra, undom, excluded, gap = state
    g = random_connected_graph(n, random.Random(seed), extra)
    closed, masks = _Closed(g), masks_from_neighbors(g)
    hist, top = _count_hist(masks, undom, excluded)
    counts = [(m & undom).bit_count() + (top if excluded >> u & 1 else 0) for u, m in enumerate(masks)]
    v, cands = _branch(closed.levels, closed.ids, counts, top, undom)
    before = list(hist)
    settle_cut, keep = _roman_cuts(counts, hist, top, cands, undom.bit_count(), gap)
    assert hist == before
    children = [(undom & ~(1 << v), excluded | masks[v], gap - 1, settle_cut)]  # settling v bars N[v]
    for j, u in enumerate(cands):
        barred = sum(1 << x for x in cands[:j])
        children.append((undom & ~masks[u], excluded | barred, gap - 2, j >= keep))
    for child_undom, child_excluded, child_gap, cut in children:
        if cut:
            assert _reference_roman_lower(masks, n, child_undom, child_excluded) >= child_gap
            assert child_undom or child_gap <= 0


@settings(max_examples=300, deadline=None)
@given(_node_states)
def test_domination_prune_decision_matches_min_picks(state):
    n, seed, extra, undom, excluded, gap = state
    closed = masks_from_neighbors(random_connected_graph(n, random.Random(seed), extra))
    need = _reference_min_picks(closed, n, undom, excluded)
    hist, top = _count_hist(closed, undom, excluded)
    want = need is None or need >= gap
    assert _top_excess_within(hist, top, gap - 1, 0, undom.bit_count() - 1) == want
    if gap <= 1:  # no pick is allowed, and an undominated vertex needs one
        assert want


@settings(max_examples=300, deadline=None)
@given(_node_states, st.data())
def test_witness_prune_decision_matches_gains_test(state, data):
    n, seed, extra, _, covered, _ = state
    closed = masks_from_neighbors(random_connected_graph(n, random.Random(seed), extra))
    i = data.draw(st.integers(0, n - 1))
    left = data.draw(st.integers(1, n - i))
    target = data.draw(st.integers(0, n + 1))
    most = [max((closed[u].bit_count() for u in range(j, n)), default=0) for j in range(n + 1)]
    want = _reference_gains_short(closed, n, i, left, covered, target)
    hist, top = _count_hist(closed, ~covered, (1 << i) - 1)  # a node at index i bars every u < i
    need = target - covered.bit_count()
    assert (left * most[i] < need or _top_excess_within(hist, top, left, 0, need - 1)) == want


def _random_graph(n, seed, p):
    """A seeded G(n, p) graph; often disconnected."""
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _solve_checking_counts(g):
    """Solve g with both searches, checking at every node that makes its counts
    that they are |N[u] & undom| for each u it has not barred, that its
    histogram counts them, and that its parent's lists stay as they were.
    Returns how many nodes were checked."""
    masks = masks_from_neighbors(g)
    descend = solver._descend
    nodes = []

    def checked(nb, top, counts, hist, undom, taken, barred):
        before = list(counts), list(hist)
        out, out_hist = descend(nb, top, counts, hist, undom, taken, barred)
        assert (list(counts), list(hist)) == before
        after = undom if taken is None else undom & ~masks[taken]
        for u in g.vertices:
            if counts[u] < top:
                assert counts[u] == (masks[u] & undom).bit_count()
            if counts[u] >= top or u in barred:
                assert out[u] >= top
            else:
                assert out[u] == (masks[u] & after).bit_count()
        assert out_hist == [list(out).count(c) for c in range(2 * top)]
        nodes.append(taken)
        return out, out_hist

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_descend", checked)
        assert gamma_exact(g).value == domination_min_subsets(g)
        assert gamma_r_exact(g).value == roman_min_enumerated(g)
    return len(nodes)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 11), st.integers(0, 10**6), st.sampled_from((0.15, 0.3, 0.5)), st.booleans())
def test_carried_counts_match_the_masks_at_every_node(n, seed, p, connected):
    if connected:
        _solve_checking_counts(random_connected_graph(n, random.Random(seed), p))
    else:
        _solve_checking_counts(_random_graph(n, seed, p))


def test_count_check_sees_nodes():
    assert _solve_checking_counts(_sierpinski("C", 3, 2)) > 10
    assert _solve_checking_counts(Graph(10, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8)])) > 30


def _reference_greedy(g):
    """Each pick from scratch: most undominated vertices in N[u], lowest id on ties."""
    closed = masks_from_neighbors(g)
    undom = (1 << g.order) - 1
    picks = []
    while undom:
        gains = [(m & undom).bit_count() for m in closed]
        u = gains.index(max(gains))
        picks.append(u)
        undom &= ~closed[u]
    return picks


def test_greedy_cover_matches_a_from_scratch_reference():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 5) if rng.random() < 0.5 else rng.randint(6, 40)
        g = _random_graph(n, rng.randrange(10**6), rng.choice((0.1, 0.3, 0.6)))
        deadline = _Deadline(None)
        assert _greedy_cover(_Closed(g).ids, deadline) == _reference_greedy(g)
        assert deadline.ticks == 0
    for g in (_sierpinski("C", 6, 2), _sierpinski("K", 4, 3), path_graph(600)):
        assert _greedy_cover(_Closed(g).ids, _Deadline(None)) == _reference_greedy(g)


# sha256 of json.dumps(sorted γ witness) and json.dumps(γ_R labels), recorded
# before the reach-mask and packing prunes: a valid prune keeps both the first
# optimum found by gamma_exact and the canonical gamma_r_exact witness.
WITNESS_SHA256 = [
    ("P", 7, 2, 18, "0ac009506cdcf9188e95159d40f70da96f6816a33d1c5e570af47f643ba3f5ed",
     32, "7df52fe7dace1968d69da8feaf4de9fba2c73b61079b4920f727e71830eeaf46"),
    ("star", 4, 3, 16, "791309061c2a97eda979369a9dee0ff7f301859c207e6b70fcefe7fb6a090bdf",
     28, "c27de62d20bc9d9e2edb1da5a53c907c2b5ce59d95f104006d4c007bbc5dce75"),
    ("K", 3, 3, 7, "bc73030441d45bc4902534160c84f1cfc520e54f72f92c14b17b9411e477dcd4",
     14, "4bf9c189438fb9730181324db3961302f1f410fbb0cf1007cdb9878afdabfb2a"),
    ("C", 6, 2, 12, "d512cd91bca59c830e5844cbc82baeb140738e61a56b822a7fd3de36ba3b8291",
     22, "71efa597e0b0de411dcd75a196c9e260020fc88c0d3b4b08e61b0119a728ea22"),
    ("P", 6, 2, 12, "9e7f70ae277f60270fbd47d9513c5e09be0ffb8875de296ee0916dcb94db9e3b",
     22, "71efa597e0b0de411dcd75a196c9e260020fc88c0d3b4b08e61b0119a728ea22"),
]


@pytest.mark.parametrize(
    "fam,n,t,gamma,gamma_sha,roman,roman_sha",
    WITNESS_SHA256,
    ids=[f"S({fam}{n},{t})" for fam, n, t, *_ in WITNESS_SHA256],
)
def test_witnesses_are_pinned(fam, n, t, gamma, gamma_sha, roman, roman_sha):
    def sha(doc):
        return hashlib.sha256(json.dumps(doc).encode()).hexdigest()

    g = _sierpinski(fam, n, t)
    dom = gamma_exact(g)
    assert (dom.value, sha(sorted(dom.witness))) == (gamma, gamma_sha)
    rom = gamma_r_exact(g)
    assert (rom.value, sha(list(rom.witness.labels))) == (roman, roman_sha)


def test_roman_witness_of_s_c8_2_is_pinned():
    # γ of S(C8, 2) still outruns a 15 s limit, so only γ_R's witness is pinned;
    # the digest is the one the solve gave before its witness phase shared one
    # table across attempts (13 s then), and the limit keeps the solve under 3 s
    g = _sierpinski("C", 8, 2)
    rom = gamma_r_exact(g, time_limit=3)
    labels = list(rom.witness.labels)
    assert rom.value == 40  # its node count is pinned once, in NODE_COUNTS
    assert is_roman_dominating(rom.witness, g)
    assert hashlib.sha256(json.dumps(labels).encode()).hexdigest() == (
        "1852eed1bfef87eefa7177536135b62aa863a5077ed64d4cbeff601c56f8e3dc"
    )


def _roman_by_witness_search(g, time_limit=None):
    """gamma_r_exact's value and witness labels from the witness search alone.

    Weights W are tried upward from the counting bound min(n, ceil(2n/(Δ+1)))
    of Cockayne, Dreyer, Hedetniemi & Hedetniemi (Discrete Math. 278, 2004);
    at each W, k = W//2 down to 0 as gamma_r_exact tries them at its value,
    all through one table of failed subtrees.  Below the optimum no k-set
    covers enough, so the first hit is the value and the canonical 2-set."""
    closed, deadline, failed = _Closed(g), _Deadline(time_limit), {}
    n = g.order
    for weight in range(min(n, -(-2 * n // max(map(len, closed.ids)))), n + 1):
        for k in range(weight // 2, -1, -1):
            twos = _lex_min_two_set(k, n - (weight - 2 * k), deadline, closed, failed)[0]
            if twos is not None:
                covered = 0
                for u in twos:
                    covered |= closed.masks[u]
                labels = [2 if v in twos else 1 - (covered >> v & 1) for v in range(n)]
                return weight, tuple(labels)
    raise AssertionError("no weight up to n has a witness")


def _gamma_by_witness_search(g, time_limit=None):
    """A minimum dominating set from the witness search alone, as (size, set).

    Sizes k are tried upward from the counting bound ceil(n/(Δ+1)), each
    through _lex_min_two_set with every vertex to cover and all through one
    table of failed subtrees.  Below γ no k-set covers every vertex, so the
    first hit is a minimum dominating set; is_dominating_set validates it."""
    closed, deadline, failed = _Closed(g), _Deadline(time_limit), {}
    n = g.order
    for k in range(-(-n // max(map(len, closed.ids))), n + 1):
        picks = _lex_min_two_set(k, n, deadline, closed, failed)[0]
        if picks is not None:
            if not is_dominating_set(g, picks):
                raise AssertionError(f"witness search's {k}-set {picks} does not dominate")
            return k, frozenset(picks)
    raise AssertionError("no set of up to n vertices dominates")


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 14), st.integers(0, 10**6), st.sampled_from((0.0, 0.15, 0.3, 0.5)), st.booleans())
def test_witness_search_alone_gives_gamma(n, seed, p, connected):
    # p = 0 gives a tree when connected and an edgeless graph otherwise
    g = random_connected_graph(n, random.Random(seed), p) if connected else _random_graph(n, seed, p)
    assert _gamma_by_witness_search(g)[0] == gamma_exact(g).value


@pytest.mark.parametrize("fam,n,t,value", [("C", 8, 2, 24), ("C", 9, 2, 27), ("P", 8, 2, 24)])
def test_witness_search_alone_reaches_gamma_past_the_branch_and_bound(fam, n, t, value):
    # the MILP pins these values (test_milp_oracle); gamma_exact times out at 20 s
    # on S(C8,2) and takes about 5 s on S(C9,2)
    assert _gamma_by_witness_search(_sierpinski(fam, n, t), time_limit=0.5)[0] == value


_ROMAN_PINNED = sorted(
    {(fam, n, t) for solve, fam, n, t, _ in NODE_COUNTS if solve is gamma_r_exact}
    | {(fam, n, t) for fam, n, t, *_ in WITNESS_SHA256}
)


@pytest.mark.parametrize("fam,n,t", _ROMAN_PINNED, ids=[f"S({f}{n},{t})" for f, n, t in _ROMAN_PINNED])
def test_witness_search_alone_gives_the_pinned_solves(fam, n, t):
    g = _sierpinski(fam, n, t)
    rom = gamma_r_exact(g)
    assert _roman_by_witness_search(g) == (rom.value, rom.witness.labels)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 14), st.integers(0, 10**6), st.sampled_from((0.0, 0.15, 0.3, 0.5)), st.booleans())
def test_witness_search_alone_gives_the_solve(n, seed, p, connected):
    # p = 0 gives a tree when connected and an edgeless graph otherwise
    g = random_connected_graph(n, random.Random(seed), p) if connected else _random_graph(n, seed, p)
    rom = gamma_r_exact(g)
    assert _roman_by_witness_search(g) == (rom.value, rom.witness.labels)


@pytest.mark.parametrize(
    "fam,n,t,value",
    [("P", 8, 2, 43), ("C", 9, 2, 51), ("P", 4, 3, 40), ("P", 3, 4, 45), ("K", 4, 4, 103)],
)
def test_witness_search_alone_reaches_past_the_value_search(fam, n, t, value):
    # the MILP pins these values (test_milp_oracle); gamma_r_exact times out on the
    # first three at 15 s and takes 2-11 s on the last two
    g = _sierpinski(fam, n, t)
    got, labels = _roman_by_witness_search(g, time_limit=0.5)
    assert got == value
    assert is_roman_dominating(RomanFunction(labels), g) and sum(labels) == value


def test_searches_leave_no_reference_cycles():
    # a recursive closure that outlives its search keeps the search state
    # (graph masks, candidate lists) alive until the next full collection
    g = build(cycle_graph(5), 2).graph
    gc.collect()
    gc.disable()
    try:
        gamma_exact(g)
        gamma_r_exact(g)
        perfect_code_knt(3, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()
