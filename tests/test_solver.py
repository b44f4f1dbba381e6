"""Exact solvers: values, witnesses, canonical tie-breaks, limits."""

import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from sierpdom import (
    BudgetError,
    Graph,
    SolveTimeout,
    brute_force_gamma_r,
    build,
    complete_graph,
    cycle_graph,
    derived_sets,
    empty_graph,
    gamma_exact,
    gamma_r_exact,
    is_dominating_set,
    is_roman_dominating,
    is_roman_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from oracles import (
    domination_min_subsets,
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
    assert gamma_exact(empty_graph(4)).value == 4


def test_roman_known_values():
    assert gamma_r_exact(path_graph(1)).value == 1
    assert gamma_r_exact(path_graph(2)).value == 2
    assert gamma_r_exact(path_graph(3)).value == 2
    assert gamma_r_exact(path_graph(7)).value == 5
    assert gamma_r_exact(cycle_graph(5)).value == 4
    assert gamma_r_exact(complete_graph(4)).value == 2
    assert gamma_r_exact(star_graph(9)).value == 2
    assert gamma_r_exact(empty_graph(3)).value == 3


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


def test_brute_force_order_cap():
    with pytest.raises(BudgetError):
        brute_force_gamma_r(empty_graph(23))


def test_solver_budget():
    big = empty_graph(200_001)
    with pytest.raises(BudgetError):
        gamma_exact(big)
    with pytest.raises(BudgetError):
        gamma_r_exact(big)


def test_timeout_raises():
    g = build(cycle_graph(6), 2).graph
    with pytest.raises(SolveTimeout):
        gamma_r_exact(g, time_limit=0.0)


def test_roman_graph_detection():
    ok, f = is_roman_graph(cycle_graph(5))  # 4 = 2 * 2
    assert ok
    assert f.ones == frozenset() and len(f.twos) == 2
    assert is_roman_dominating(f, cycle_graph(5))
    ok, f = is_roman_graph(path_graph(7))  # 5 < 2 * 3
    assert not ok and f is None
    assert is_roman_graph(path_graph(2))[0]
    assert is_roman_graph(path_graph(3))[0]
    assert not is_roman_graph(cycle_graph(4))[0]  # 3 < 2 * 2


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


def test_certificate_json_shape():
    g = path_graph(4)
    doc = json.loads(gamma_r_exact(g).to_json(graph=g))
    assert doc["kind"] == "roman"
    assert doc["value"] == 3
    assert doc["witness"] == [0, 2, 0, 1]
    assert doc["graph"]["name"] == "P4"
    assert "elapsed_s" not in doc
    doc2 = json.loads(gamma_exact(g).to_json(include_timing=True))
    assert doc2["witness"] == sorted(doc2["witness"])
    assert "elapsed_s" in doc2


def test_disconnected_graphs_are_fine():
    g = Graph(6, [(0, 1), (2, 3)])
    assert gamma_r_exact(g).value == roman_min_enumerated(g)
    assert gamma_exact(g).value == domination_min_subsets(g)
