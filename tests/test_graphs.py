"""Graph core: construction, queries, predicates, serialization."""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from sierpdom import (
    Graph,
    build,
    complete_graph,
    complete_graph_construction,
    cycle_graph,
    format_edge_list,
    is_connected,
    is_dominating_set,
    is_roman_dominating,
    is_spanning_subgraph,
    parse_edge_list,
    path_graph,
    to_dot,
)
from oracles import shortest_path_by_enumeration


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return Graph(n, chosen)


def test_construction_basics():
    g = Graph(2, [(0, 1)])
    assert g.order == 2 and g.size == 1
    g = Graph(5, [(0, 1), (1, 0), (1, 2)])  # reversed duplicate collapses
    assert g.edges == ((0, 1), (1, 2))
    assert Graph(1).size == 0


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


@pytest.mark.parametrize(
    "edges,message",
    [
        ([(0, 1), (5, 0), (1, 1)], "edge (5, 0) out of range for order 3"),
        ([(0, 1), (1, 1), (5, 0)], "self-loop at vertex 1 not allowed"),
        ([(1, 2), (2, -1), (0, 1)], "edge (2, -1) out of range for order 3"),
        ([(0, 2), (3, 3)], "edge (3, 3) out of range for order 3"),
        ([(2, 0), (0, 2), (2, 2), (0, 3)], "self-loop at vertex 2 not allowed"),
    ],
)
def test_construction_names_the_first_bad_edge(edges, message):
    with pytest.raises(ValueError) as exc:
        Graph(3, edges)
    assert str(exc.value) == message


@st.composite
def raw_edge_lists(draw, max_n=9):
    """Edge lists with repeats, both orientations and any order."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=3 * len(pairs))) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]


@given(raw_edge_lists())
def test_construction_contract(case):
    n, raw = case
    g = Graph(n, raw)
    canon = {(min(u, v), max(u, v)) for u, v in raw}
    assert g.edges == tuple(sorted(canon))
    for v in range(n):
        assert g.neighbors(v) == tuple(sorted({u for e in canon if v in e for u in e if u != v}))
    same = Graph(n, sorted(canon))
    assert g == same and hash(g) == hash(same) == hash((n, g.edges))
    assert Graph(n, iter(raw)) == g


@given(raw_edge_lists(), st.booleans())
def test_derived_views_match_the_edge_list(case, masks_first):
    """Masks and neighbor tuples agree with the edges, whichever is built first."""
    n, raw = case
    g = Graph(n, raw)
    canon = {(min(u, v), max(u, v)) for u, v in raw}
    want = [sorted({u for e in canon if v in e for u in e if u != v}) for v in range(n)]
    if masks_first:
        masks = g.closed_masks
    views = [(g.neighbors(v), g.degree(v), [g.adjacent(v, u) for u in range(n)]) for v in range(n)]
    if not masks_first:
        masks = g.closed_masks
    for v in range(n):
        adjacent = [(min(u, v), max(u, v)) in canon for u in range(n)]
        assert views[v] == (tuple(want[v]), len(want[v]), adjacent)
        assert masks[v] == sum(1 << u for u in [v, *want[v]])


def test_build_serialize_validate_never_builds_neighbor_tuples():
    """build, format_edge_list, to_dot and is_roman_dominating build neither
    derived view, and a whole construction builds no neighbor tuples.  The
    private slots are read because the public views would build them."""
    s = build(complete_graph(4), 6)
    g = s.graph
    format_edge_list(g)
    to_dot(g, labels=s.word_labels())
    rep = complete_graph_construction(4, 6)
    assert is_roman_dominating(rep.function, g)
    assert g._adj is None and g._closed_mask is None
    assert rep.sierpinski.graph._adj is None


def test_neighborhoods():
    p3 = path_graph(3)
    assert p3.neighbors(1) == (0, 2)
    assert p3.neighbors(0) == (1,)
    k4 = complete_graph(4)
    assert k4.neighbors(2) == (0, 1, 3)
    c5 = cycle_graph(5)
    assert c5.neighbors(0) == (1, 4)


def test_bitmasks_match_neighbor_lists():
    g = cycle_graph(6)
    for v in g.vertices:
        assert g.closed_masks[v] == sum(1 << u for u in g.neighbors(v) + (v,))


@given(small_graphs())
def test_adjacent_matches_neighbor_lists(g):
    for u in g.vertices:
        assert g.adjacent(u, u) is False
        for v in g.vertices:
            assert g.adjacent(u, v) == (v in g.neighbors(u)) == ((min(u, v), max(u, v)) in g.edges)


def _build_peak_bytes(t):
    tracemalloc.start()
    try:
        build(path_graph(2), t)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_memory_is_linear():
    """Four times the vertices may cost at most six times the peak memory."""
    small, large = _build_peak_bytes(12), _build_peak_bytes(14)
    assert large <= 6 * small


def test_distance_small_cases():
    p5 = path_graph(5)
    assert p5.at_distance_two(0, 2) and p5.at_distance_two(4, 2)
    assert not p5.at_distance_two(0, 3)
    assert not p5.at_distance_two(2, 2)
    assert not p5.at_distance_two(1, 2)
    c4 = cycle_graph(4)
    assert c4.at_distance_two(0, 2) and not c4.at_distance_two(0, 1)
    two_parts = Graph(4, [(0, 1), (2, 3)])
    assert not two_parts.at_distance_two(0, 3)


@given(small_graphs())
def test_at_distance_two_matches_enumeration(g):
    for u in g.vertices:
        for v in g.vertices:
            assert g.at_distance_two(u, v) == (shortest_path_by_enumeration(g, u, v) == 2)


@given(small_graphs())
def test_degree_sum_is_twice_edges(g):
    assert sum(g.degree(v) for v in g.vertices) == 2 * g.size


def test_dominating_set_checks():
    p5 = path_graph(5)
    assert is_dominating_set(p5, {1, 3})
    assert not is_dominating_set(p5, {0, 1})
    assert is_dominating_set(p5, range(5))
    assert not is_dominating_set(p5, ())  # order >= 1 always
    with pytest.raises(ValueError):
        is_dominating_set(p5, {9})


def test_spanning_subgraph():
    p5, c5 = path_graph(5), cycle_graph(5)
    assert is_spanning_subgraph(p5, c5)
    assert not is_spanning_subgraph(c5, p5)
    assert is_spanning_subgraph(c5, c5)
    assert not is_spanning_subgraph(path_graph(4), c5)  # order differs


def test_connectivity():
    assert is_connected(cycle_graph(5))
    assert not is_connected(Graph(3, [(0, 1)]))
    assert is_connected(Graph(1))


def test_edge_list_round_trip_bit_exact():
    g = cycle_graph(7)
    text = format_edge_list(g)
    assert text.splitlines()[0] == "7 7"
    again = parse_edge_list(text)
    assert again == g
    assert format_edge_list(again) == text


def test_edge_list_parse_errors():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")  # count mismatch
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n0 1 2\n")


def test_dot_output():
    g = Graph(3, [(0, 1), (1, 2)])
    dot = to_dot(g, graph_name="T", colors={1: "black"}, labels="abc")
    assert "graph T {" in dot
    assert '1 [label="b", style=filled, fillcolor="black"];' in dot
    assert "  0 -- 1;" in dot
    with pytest.raises(ValueError):
        to_dot(g, labels="ab")  # labels must cover every vertex


def test_equality_is_on_order_and_edges():
    assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
    assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])
    assert Graph(3, [(0, 1)], name="x") == Graph(3, [(0, 1)], name="y")
