"""Named families and seeded random graph generation."""

import random

import pytest
from hypothesis import given, strategies as st

from sierpdom import (
    Graph,
    complete_graph,
    cycle_graph,
    is_connected,
    is_spanning_subgraph,
    path_graph,
    random_connected_graph,
    random_spanning_subgraph,
    star_graph,
)


def test_family_shapes():
    assert path_graph(1).size == 0
    assert path_graph(5).size == 4
    assert cycle_graph(5).size == 5
    assert complete_graph(5).size == 10
    assert star_graph(5).size == 4
    assert Graph(4).size == 0


def test_family_degrees():
    p = path_graph(6)
    assert p.degree(0) == p.degree(5) == 1
    assert all(p.degree(v) == 2 for v in range(1, 5))
    c = cycle_graph(7)
    assert all(c.degree(v) == 2 for v in c.vertices)
    s = star_graph(6)
    assert s.degree(0) == 5
    assert all(s.degree(v) == 1 for v in range(1, 6))


def test_small_orders_rejected():
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        star_graph(1)
    with pytest.raises(ValueError):
        random_connected_graph(0, random.Random(0))


@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_random_graph_connected(n, seed):
    g = random_connected_graph(n, random.Random(seed))
    assert g.order == n
    assert is_connected(g)
    assert g.size >= n - 1


@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_random_graph_deterministic_per_seed(n, seed):
    a = random_connected_graph(n, random.Random(seed), 0.3)
    b = random_connected_graph(n, random.Random(seed), 0.3)
    assert a == b


def test_extra_prob_zero_gives_a_tree():
    for seed in range(30):
        g = random_connected_graph(8, random.Random(seed), extra_edge_prob=0.0)
        assert g.size == 7 and is_connected(g)


def test_extra_prob_one_gives_complete():
    g = random_connected_graph(6, random.Random(3), extra_edge_prob=1.0)
    assert g == complete_graph(6)


@pytest.mark.parametrize("p", [-0.1, 1.5, 5.0, float("nan"), float("inf")])
def test_extra_prob_outside_the_unit_interval_is_refused(p):
    with pytest.raises(ValueError, match="between 0 and 1"):
        random_connected_graph(6, random.Random(3), extra_edge_prob=p)


@given(st.integers(2, 9), st.integers(0, 2**32 - 1))
def test_spanning_subgraph_drops_one_edge(n, seed):
    rng = random.Random(seed)
    g = random_connected_graph(n, rng, 0.5)
    h = random_spanning_subgraph(g, rng)
    assert h.order == g.order
    assert h.size == g.size - 1
    assert is_spanning_subgraph(h, g)


def test_spanning_subgraph_of_edgeless_is_itself():
    g = Graph(3)
    assert random_spanning_subgraph(g, random.Random(0)) is g
