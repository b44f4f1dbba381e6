"""Graph core: construction, queries, predicates, serialization."""

import hashlib
import io
import random
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
    star_graph,
    to_dot,
)
from sierpdom.cli import main
from sierpdom.graphs import copies
from sierpdom.sierpinski import word_labels
from sierpdom.solver import _Closed
from oracles import shortest_path_by_enumeration, written


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
    assert tuple(g.edges) == ((0, 1), (1, 2))
    assert Graph(1).size == 0


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_order_is_bounded_by_the_edge_key():
    """An edge key holds two 32-bit vertices: order 2**32 is the largest a
    graph may have, and its top vertex decodes and writes back exactly."""
    with pytest.raises(ValueError, match=r"graph order 8589934592 is above 2\*\*32"):
        Graph(2**33, [(0, 2**33 - 1)])
    with pytest.raises(ValueError, match=r"above 2\*\*32"):
        Graph(2**32 + 1)
    g = Graph(2**32, [(2**32 - 1, 0), (1, 2**32 - 1)])
    assert list(g.edges) == [(0, 2**32 - 1), (1, 2**32 - 1)]
    assert written(format_edge_list, g) == "4294967296 2\n0 4294967295\n1 4294967295\n"


BAD_EDGE_CASES = [
    ([(0, 1), (5, 0), (1, 1)], "edge (5, 0) out of range for order 3"),
    ([(0, 1), (1, 1), (5, 0)], "self-loop at vertex 1 not allowed"),
    ([(1, 2), (2, -1), (0, 1)], "edge (2, -1) out of range for order 3"),
    ([(0, 2), (3, 3)], "edge (3, 3) out of range for order 3"),
    ([(2, 0), (0, 2), (2, 2), (0, 3)], "self-loop at vertex 2 not allowed"),
    ([(0, 1), (1, 2), (-1, 2), (0, 5)], "edge (-1, 2) out of range for order 3"),
    ([(1, 2), (0, 3), (-1, 0)], "edge (0, 3) out of range for order 3"),
]


@pytest.mark.parametrize("edges,message", BAD_EDGE_CASES)
def test_construction_names_the_first_bad_edge(edges, message):
    with pytest.raises(ValueError) as exc:
        Graph(3, edges)
    assert str(exc.value) == message


@pytest.mark.parametrize("edges,message", BAD_EDGE_CASES)
def test_construction_names_the_first_bad_edge_of_an_iterator(edges, message):
    """A one-shot iterator's bad edge is named as given, not as its (min, max) pair."""
    with pytest.raises(ValueError) as exc:
        Graph(3, iter(edges))
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
    assert tuple(g.edges) == tuple(sorted(canon))
    for v in range(n):
        assert g.neighbors(v) == tuple(sorted({u for e in canon if v in e for u in e if u != v}))
    same = Graph(n, sorted(canon))
    assert g == same and hash(g) == hash(same)
    assert Graph(n, iter(raw)) == g


@given(small_graphs(max_n=5), st.integers(1, 4), st.data())
def test_copies_is_the_graph_of_the_shifted_edges(g, k, data):
    """copies(g, k, bridges) is the Graph of every copy's shifted edges plus
    the bridges, drawn between any two copies and given in any order and
    either way round; the same bridges with one of them repeated are refused."""
    m = g.order
    cross = [(u, v) for u in range(k * m) for v in range(u + 1, k * m) if u // m != v // m]
    bridges = data.draw(st.lists(st.sampled_from(cross), unique=True, max_size=6)) if cross else []
    given_bridges = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in bridges]
    want = Graph(k * m, [(u + x * m, v + x * m) for x in range(k) for u, v in g.edges] + bridges)
    got = copies(g, k, given_bridges, "c")
    assert got == want and tuple(got.edges) == tuple(want.edges) and got.name == "c"
    if bridges:
        again = given_bridges[data.draw(st.integers(0, len(bridges) - 1))]
        with pytest.raises(ValueError, match="given twice"):
            copies(g, k, given_bridges + [again[::-1]])


def _reference_edges(n, edges):
    """The canonical edge tuple, or the ValueError message for the first bad pair."""
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) out of range for order {n}"
        if u == v:
            return f"self-loop at vertex {u} not allowed"
    return tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))


SHAPES = {
    "list": list,
    "tuple": tuple,
    "generator": lambda pairs: (p for p in pairs),
    "lists of lists": lambda pairs: [list(p) for p in pairs],
}


@st.composite
def edge_inputs(draw, max_n=8):
    """Pairs in input order: valid edges, all ordered or some reversed, with
    repeats, then maybe a self-loop or an out-of-range pair put in anywhere."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=2 * len(pairs))) if pairs else []
    if draw(st.booleans()):
        chosen = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    for _ in range(draw(st.integers(0, 2))):
        u = draw(st.integers(-2, n + 1))
        v = draw(st.one_of(st.just(u), st.integers(-2, n + 1)))
        chosen.insert(draw(st.integers(0, len(chosen))), (u, v))
    return n, chosen


@given(edge_inputs(), st.sampled_from(sorted(SHAPES)))
def test_construction_matches_a_sorted_set_reference(case, shape):
    """Any container shape, reversed pairs, duplicates, self-loops and
    out-of-range pairs: the same edges as the reference, read back as tuples,
    or the reference's error for the first bad pair in input order."""
    n, pairs = case
    want = _reference_edges(n, pairs)
    edges = SHAPES[shape](pairs)
    given_edges = list(edges) if isinstance(edges, list) else None
    if isinstance(want, str):
        with pytest.raises(ValueError) as exc:
            Graph(n, edges)
        assert str(exc.value) == want
    else:
        g = Graph(n, edges)
        assert tuple(g.edges) == want
        assert all(type(e) is tuple for e in g.edges)
    if given_edges is not None:
        assert edges == given_edges  # the caller's list is never sorted or rewritten


@pytest.mark.parametrize("pair", [(0, 1, 2), (1,), (), (2, 1, 0), [0, 1, 2]])
@pytest.mark.parametrize("before", [[], [(0, 1)], [(1, 0)]])
def test_construction_rejects_wrong_arity_pairs(pair, before):
    with pytest.raises(ValueError, match="values to unpack"):
        Graph(3, [*before, pair])


@pytest.mark.parametrize(
    "edges,message",
    [
        ([(0, 1.5), (True, 2)], "edge (0, 1.5) has a vertex that is not an int"),
        ([(0, 1), (True, 2)], "edge (True, 2) has a vertex that is not an int"),
        ([(0, 1), (1, 2.0)], "edge (1, 2.0) has a vertex that is not an int"),
        ([(2, 1), (0, "1")], "edge (0, '1') has a vertex that is not an int"),
        ([(0, 5), (1, 1.5)], "edge (0, 5) out of range for order 3"),
    ],
)
def test_construction_rejects_vertices_that_are_not_ints(edges, message):
    """Only int vertices get in, so every graph writes an edge list that parses back."""
    with pytest.raises(ValueError) as exc:
        Graph(3, edges)
    assert str(exc.value) == message


@given(raw_edge_lists(), st.booleans())
def test_derived_views_match_the_edge_list(case, closed_first):
    """Neighbor tuples agree with the edges, and the solver's closed
    neighborhoods with the neighbor tuples, whichever is built first."""
    n, raw = case
    g = Graph(n, raw)
    canon = {(min(u, v), max(u, v)) for u, v in raw}
    want = [sorted({u for e in canon if v in e for u in e if u != v}) for v in range(n)]
    if closed_first:
        closed = _Closed(g)
    views = [(g.neighbors(v), g.degree(v), [g.adjacent(v, u) for u in range(n)]) for v in range(n)]
    if not closed_first:
        closed = _Closed(g)
    for v in range(n):
        adjacent = [(min(u, v), max(u, v)) in canon for u in range(n)]
        assert views[v] == (tuple(want[v]), len(want[v]), adjacent)
        assert closed.masks[v] == sum(1 << u for u in (v, *g.neighbors(v)))
        assert closed.ids[v] == sorted((v, *g.neighbors(v)))


def test_build_serialize_validate_never_builds_neighbor_tuples():
    """build, format_edge_list, to_dot and is_roman_dominating build neither
    derived view, and a whole construction builds no neighbor tuples.  The
    private slots are read because the public views would build them."""
    s = build(complete_graph(4), 6)
    g = s.graph
    written(format_edge_list, g)
    written(to_dot, g, labels=s.word_labels())
    rep = complete_graph_construction(4, 6)
    assert is_roman_dominating(rep.function, g)
    assert g._adj is None
    assert rep.sierpinski.graph._adj is None


def test_neighborhoods():
    p3 = path_graph(3)
    assert p3.neighbors(1) == (0, 2)
    assert p3.neighbors(0) == (1,)
    k4 = complete_graph(4)
    assert k4.neighbors(2) == (0, 1, 3)
    c5 = cycle_graph(5)
    assert c5.neighbors(0) == (1, 4)


def test_closed_neighborhoods_match_neighbors():
    g = cycle_graph(6)
    closed = _Closed(g)
    for v in g.vertices:
        assert closed.masks[v] == sum(1 << u for u in g.neighbors(v) + (v,))
        assert closed.ids[v] == sorted(g.neighbors(v) + (v,))


@given(small_graphs())
def test_adjacent_matches_neighbors(g):
    for u in g.vertices:
        assert g.adjacent(u, u) is False
        for v in g.vertices:
            assert g.adjacent(u, v) == (v in g.neighbors(u)) == ((min(u, v), max(u, v)) in g.edges)


def _build_peak_bytes(t):
    tracemalloc.start()
    try:
        build(path_graph(2), t).graph  # build holds only the bridges; the Graph is made here
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_memory_is_linear():
    """Four times the vertices may cost at most six times the peak memory."""
    small, large = _build_peak_bytes(12), _build_peak_bytes(14)
    assert large <= 6 * small


def _gen_peak_bytes(tmp_path, t):
    base = tmp_path / "P2.txt"
    base.write_text("2 1\n0 1\n")
    tracemalloc.start()
    try:
        assert main(["gen", "--base", str(base), "--t", str(t), "--out", str(tmp_path / "s.txt")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gen_memory_is_linear(tmp_path):
    """gen writes the Graph that build makes: the same bound as build."""
    small, large = _gen_peak_bytes(tmp_path, 12), _gen_peak_bytes(tmp_path, 14)
    assert large <= 6 * small


@pytest.mark.parametrize("fmt", ["edgelist", "dot"])
def test_gen_peak_is_the_graph_plus_one_slice(tmp_path, fmt):
    """gen's writer puts S(K6, 6) in its file a slice at a time: called as gen
    calls it on the built Graph, it peaks at no more than 256 KiB, against the
    1.54 MB edge list and the 3.49 MB DOT that holding the text would take.
    test_sierpinski_graph_build_peak gates the build itself."""
    g = build(complete_graph(6), 6).graph
    with open(tmp_path / "s", "w") as fh:
        tracemalloc.start()
        try:
            if fmt == "dot":
                to_dot(g, labels=word_labels(6, 6), out=fh)
            else:
                format_edge_list(g, out=fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2**18


def test_digest_peak_holds_no_edge_list():
    """digest of S(K6, 6) hashes its 1.54 MB edge list a slice at a time,
    with a traced peak below 0.5 MiB."""
    g = build(complete_graph(6), 6).graph
    tracemalloc.start()
    try:
        g.digest()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


@pytest.mark.parametrize("n,m", [(1, 0), (7, 12), (1500, 3000), (2100, 2100)])
def test_writers_stream_the_text_they_return(n, m):
    """Each writer writes its text to the stream it is given and returns None;
    digest hashes that edge list."""
    rng = random.Random(n * 7919 + m)
    g = Graph(n, [tuple(rng.sample(range(n), 2)) for _ in range(m)])
    colors = {v: rng.choice(["red", "blue"]) for v in rng.sample(range(n), n // 3)}
    for write in (
        format_edge_list,
        to_dot,
        lambda g, **out: to_dot(g, colors=colors, labels=map(str, g.vertices), **out),
    ):
        stream = io.StringIO()
        assert write(g, out=stream) is None
        assert stream.getvalue() == written(write, g)
    assert g.digest() == hashlib.sha256(written(format_edge_list, g).encode()).hexdigest()[:12]


def test_sierpinski_graph_holds_its_sorted_keys():
    """The Graph of S(K4, 7) is one array of 64-bit keys: at most 16 bytes per
    edge under tracemalloc, where a list of int keys holds about 40 and a
    tuple of pairs about 127."""
    base = complete_graph(4)
    tracemalloc.start()
    try:
        g = build(base, 7).graph
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 16 * g.size


@pytest.mark.parametrize("base,t", [(complete_graph(4), 7), (complete_graph(6), 6), (path_graph(2), 16)])
def test_sierpinski_graph_build_peak(base, t):
    """Making the Graph of S(G, t) level by level peaks at no more than 40
    bytes per edge under tracemalloc: the keys made, the level they copy and
    the big ints of one copy, with no sort of all the keys."""
    s = build(base, t)
    tracemalloc.start()
    try:
        g = s.graph
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * g.size


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


@given(small_graphs(), st.data())
def test_dominating_set_matches_the_definition(g, data):
    """Every vertex is in the set or next to it, on any graph: small_graphs
    draws edgeless and disconnected ones too.  A vertex out of range,
    wherever it stands among the others, is a ValueError."""
    chosen = data.draw(st.lists(st.integers(0, g.order - 1)))
    want = all(v in chosen or not set(g.neighbors(v)).isdisjoint(chosen) for v in g.vertices)
    assert is_dominating_set(g, chosen) == want
    bad = data.draw(st.integers(max_value=-1) | st.integers(min_value=g.order))
    at = data.draw(st.integers(0, len(chosen)))
    with pytest.raises(ValueError, match=f"vertex {bad} not in graph of order {g.order}"):
        is_dominating_set(g, chosen[:at] + [bad] + chosen[at:])


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
    text = written(format_edge_list, g)
    assert text.splitlines()[0] == "7 7"
    again = parse_edge_list(text)
    assert again == g
    assert written(format_edge_list, again) == text


def test_edge_list_parse_errors():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")  # count mismatch
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n0 1 2\n")


def test_dot_output():
    g = Graph(3, [(0, 1), (1, 2)])
    dot = written(to_dot, g, colors={1: "black"}, labels="abc")
    assert "graph S {" in dot
    assert '1 [label="b", style=filled, fillcolor="black"];' in dot
    assert "  0 -- 1;" in dot
    with pytest.raises(ValueError):
        written(to_dot, g, labels="ab")  # labels must cover every vertex


def _edge_list_line_by_line(g):
    out = io.StringIO()
    out.write(f"{g.order} {g.size}\n")
    for u, v in g.edges:
        out.write(f"{u} {v}\n")
    return out.getvalue()


def _dot_line_by_line(g, colors=None, labels=None):
    if labels is None:
        labels = map(str, g.vertices)
    out = io.StringIO()
    out.write("graph S {\n")
    for v, text in zip(g.vertices, labels, strict=True):
        attrs = f'label="{text}"'
        if colors and v in colors:
            attrs += f', style=filled, fillcolor="{colors[v]}"'
        out.write(f"  {v} [{attrs}];\n")
    for u, v in g.edges:
        out.write(f"  {u} -- {v};\n")
    out.write("}\n")
    return out.getvalue()


@pytest.mark.parametrize(
    "n,m", [(1, 0), (5, 0), (7, 12), (1500, 0), (1500, 3000), (2100, 2100), (3000, 5000)]
)
def test_writers_match_a_line_by_line_reference(n, m):
    """Byte-identical to one write per line, across slice boundaries."""
    rng = random.Random(n * 7919 + m)
    g = Graph(n, [tuple(rng.sample(range(n), 2)) for _ in range(m)])
    assert written(format_edge_list, g) == _edge_list_line_by_line(g)
    assert written(to_dot, g) == _dot_line_by_line(g)
    names = [f"v{rng.randrange(100)}" for _ in range(n)]
    assert written(to_dot, g, labels=iter(names)) == _dot_line_by_line(g, labels=names)
    colors = {v: rng.choice(["red", "blue"]) for v in rng.sample(range(n), n // 3)}
    assert written(to_dot, g, colors=colors, labels=names) == _dot_line_by_line(g, colors=colors, labels=names)
    assert written(to_dot, g, colors={}) == _dot_line_by_line(g)


def _widths_graph():
    """Order 100,001, with edges across each decimal width and over three slices."""
    rng = random.Random(36)
    edges = {(9, 10), (99, 100), (999, 1000), (9999, 10000), (99999, 100000), (0, 100000)}
    while len(edges) < 2600:
        edges.add(tuple(sorted(rng.sample(range(100001), 2))))
    return Graph(100001, edges)


@pytest.mark.parametrize("g", [Graph(1), Graph(100001), _widths_graph()], ids=["one", "edgeless", "widths"])
def test_writers_are_the_str_rendering_of_the_keys(g):
    """The bytes templates write what str %-formatting writes of the same edges."""
    pairs = list(g.edges)
    edge_list = "%d %d\n" % (g.order, g.size) + "".join("%d %d\n" % e for e in pairs)
    nodes = "".join('  %d [label="%d"];\n' % (v, v) for v in g.vertices)
    dot = "graph S {\n" + nodes + "".join("  %d -- %d;\n" % e for e in pairs) + "}\n"
    assert written(format_edge_list, g) == edge_list
    assert written(to_dot, g) == dot
    assert g.digest() == hashlib.sha256(edge_list.encode()).hexdigest()[:12]


@pytest.mark.parametrize("base", [path_graph(11), star_graph(12)])
def test_dot_word_labels_on_large_bases_match_the_reference(base):
    """Bases of more than 10 vertices join a word's letters with '-'."""
    s = build(base, 3)
    want = _dot_line_by_line(s.graph, labels=s.word_labels())
    assert "-" in want
    assert written(to_dot, s.graph, labels=s.word_labels()) == want


@pytest.mark.parametrize("count", [0, 1, 1499, 1501, 2048, 2049])
@pytest.mark.parametrize("colors", [None, {0: "red"}])
def test_dot_rejects_a_label_count_that_does_not_match(count, colors):
    g = Graph(1500, [(0, 1)])
    with pytest.raises(ValueError):
        written(to_dot, g, colors=colors, labels=map(str, range(count)))


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 1499])
def test_dot_names_too_few_labels(count):
    g = Graph(1500, [(0, 1)])
    with pytest.raises(ValueError, match="fewer labels than the 1500 vertices"):
        written(to_dot, g, labels=map(str, range(count)))


@pytest.mark.parametrize(
    "write", [format_edge_list, to_dot, lambda g, out: to_dot(g, out, labels=map(str, g.vertices))]
)
def test_writer_peak_memory_stays_near_the_text(write):
    """Each writer's traced peak on S(K6,5) stays below 3x the text it writes."""
    g = build(complete_graph(6), 5).graph
    tracemalloc.start()
    try:
        text = written(write, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)


def test_equality_is_on_order_and_edges():
    assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
    assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])
    assert Graph(3, [(0, 1)], name="x") == Graph(3, [(0, 1)], name="y")
