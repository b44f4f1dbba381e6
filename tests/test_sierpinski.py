"""Sierpinski graph construction: word coding, copies, invariants."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from sierpdom import (
    BudgetError,
    Graph,
    SierpinskiGraph,
    build,
    check_boundary_adjacency,
    complete_graph,
    cycle_graph,
    extreme_vertices,
    is_connected,
    path_graph,
    prefix_vertices,
    random_connected_graph,
    star_graph,
)
from sierpdom.graphs import copies
from oracles import sierpinski_word_edges
from sierpdom.sierpinski import (
    _bridges,
    format_word,
    id_of,
    suffix_labels,
    word_of,
)


def test_depth_one_is_the_base():
    base = cycle_graph(5)
    s = build(base, 1)
    assert s.graph.order == 5
    assert set(s.graph.edges) == set(base.edges)


def test_known_small_instance():
    # S(P3, 2): 9 vertices, edges found by hand from the word rule
    s = build(path_graph(3), 2)
    assert s.order == 9
    expected = {
        (0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8),  # inside copies
        (1, 3), (5, 7),  # level-2 edges 01-10 and 12-21
    }
    assert set(s.graph.edges) == expected


def test_word_coding_round_trip():
    s = build(complete_graph(3), 3)
    for vid in range(s.order):
        assert id_of(s.word_of(vid), 3) == vid
    assert s.word_of(0) == (0, 0, 0)
    assert s.word_of(5) == (0, 1, 2)
    assert s.word_label(5) == "012"
    with pytest.raises(ValueError):
        id_of((0, 1, 7), 3)


def test_words_enumerate_lexicographically():
    s = build(path_graph(3), 2)
    ws = [s.word_of(v) for v in range(s.order)]
    assert ws == sorted(ws)
    assert len(ws) == 9


def test_edge_count_identity():
    for base in (path_graph(4), cycle_graph(5), complete_graph(4), star_graph(5)):
        for t in (1, 2, 3):
            s = build(base, t)
            n = base.order
            assert s.graph.size == base.size * (n**t - 1) // (n - 1)


def _word_rule_edges(s):
    """The pairs w a b..b / w b a..a over base edges, as id pairs."""
    base, t = s.base, s.depth
    n = base.order
    expected = set()
    for r in range(1, t + 1):
        prefix_len = t - r
        for pid in range(n**prefix_len):
            prefix = []
            q = pid
            for _ in range(prefix_len):
                q, d = divmod(q, n)
                prefix.append(d)
            prefix = tuple(reversed(prefix))
            for a, b in base.edges:
                u = prefix + (a,) + (b,) * (r - 1)
                v = prefix + (b,) + (a,) * (r - 1)
                expected.add(tuple(sorted((id_of(u, n), id_of(v, n)))))
    return expected


def _assert_word_rule(s):
    expected = _word_rule_edges(s)
    assert set(s.graph.edges) == expected
    # build makes its Graph of its sorted keys as they are, so their order and
    # distinctness are what a sorting, deduplicating Graph(n, edges) would give
    assert tuple(s.graph.edges) == tuple(sorted(expected))
    assert s.graph == Graph(s.order, s.graph.edges)


def test_adjacency_matches_word_rule():
    """Edges are exactly the pairs w a b..b / w b a..a over base edges, in canonical order."""
    eleven = random_connected_graph(11, random.Random(11), 0.2)
    for base, t in (
        (cycle_graph(4), 3),
        (path_graph(2), 6),
        (complete_graph(5), 3),
        (star_graph(4), 4),
        (Graph(2), 4),  # edgeless
        (Graph(6, [(0, 1), (0, 2), (3, 5)]), 3),  # disconnected, vertex 4 isolated
        (eleven, 2),  # two-digit letters
    ):
        _assert_word_rule(build(base, t))
    assert build(eleven, 2).word_label(10 * 11 + 3) == "10-3"


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 10**6))
def test_adjacency_matches_word_rule_random_bases(n, t, seed):
    base = random_connected_graph(n, random.Random(seed), 0.4)
    _assert_word_rule(build(base, t))


def test_edge_progressions_are_certified():
    """Level d holds the bridges x·yᵈ⁻¹ -- y·xᵈ⁻¹, one per base edge in base-edge
    order, each the first edge of its run and checked to lie below nᵈ with u < v."""
    assert _bridges(path_graph(3), 3) == [[(0, 1), (1, 2)], [(1, 3), (5, 7)], [(4, 9), (17, 22)]]
    base = random_connected_graph(5, random.Random(3), 0.5)
    for d, level in enumerate(_bridges(base, 4), 1):
        words = [((a,) + (b,) * (d - 1), (b,) + (a,) * (d - 1)) for a, b in base.edges]
        assert level == [(id_of(x, 5), id_of(y, 5)) for x, y in words]
    # an edge given high end first puts v0 below u0 at every level
    with pytest.raises(AssertionError, match=r"level-1 bridge \(1, 0\) leaves 0 <= u < v < 3"):
        _bridges(SimpleNamespace(order=3, edges=[(1, 0)]), 2)


def test_edge_key_certification():
    """copies places copy x of g on ids x·m .. x·m + m - 1 and merges in the
    bridges, given in any order and either way round, to the keys Graph
    makes of the same edges; it refuses a bridge inside one copy, an end
    outside the copies or not an int, a repeated bridge, and an order it
    cannot key."""
    p2, p3 = path_graph(2), path_graph(3)
    g = copies(p2, 2, [(2, 1)], "joined")
    assert list(g.edges) == [(0, 1), (1, 2), (2, 3)] and g.name == "joined"
    assert g == Graph(4, [(0, 1), (1, 2), (2, 3)])
    # bridges into the middle of a copy, at its end, and from its first vertex
    g = copies(p3, 3, [(7, 1), (3, 2), (0, 8)])
    want = [(0, 1), (0, 8), (1, 2), (1, 7), (2, 3), (3, 4), (4, 5), (6, 7), (7, 8)]
    assert list(g.edges) == want and g == Graph(9, want) and g.name == ""
    assert copies(p3, 1, ()) == p3 and copies(Graph(1), 1, ()) == Graph(1)
    assert copies(Graph(1), 3, [(0, 2), (1, 2)]) == Graph(3, [(0, 2), (1, 2)])  # copies without edges
    # ends near 2**32: the shifted halves stay in their lanes
    top = 2**31
    g = copies(Graph(top, [(0, top - 1), (5, 6)]), 2, [(top - 1, top)])
    assert g.order == 2**32
    assert list(g.edges) == [(0, top - 1), (5, 6), (top - 1, top), (top, 2**32 - 1), (top + 5, top + 6)]
    for bridges, match in (
        ([(0, 2)], "inside copy 0"),
        ([(1, 3), (4, 5)], "inside copy 1"),
        ([(0, 6)], "out of range"),
        ([(-1, 3)], "out of range"),
        ([(1, 3.0)], "not an int"),
        ([(True, 3)], "not an int"),
        ([(1, 4), (4, 1)], "given twice"),
        ([(1, 4), (2, 3), (1, 4)], "given twice"),
    ):
        with pytest.raises(ValueError, match=match):
            copies(p3, 2, bridges)
    for g, k in ((Graph(top + 1), 2), (Graph(top), 3), (p3, 0)):  # an order an edge key cannot hold
        with pytest.raises(ValueError, match="graph order"):
            copies(g, k, ())


@st.composite
def sierpinski_cases(draw):
    """A base of order 2-6 with any edge set, edgeless and disconnected ones
    included, and a depth of 1-4."""
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, keep in zip(pairs, kept) if keep]), draw(st.integers(1, 4))


ELEVEN = Graph(11, [(i, (i + 1) % 11) for i in range(11)] + [(0, 5)])


@settings(max_examples=60, deadline=None)
@given(sierpinski_cases())
@example((Graph(2), 4))  # edgeless
@example((Graph(6, [(0, 1), (0, 2), (3, 5)]), 3))  # disconnected, vertex 4 isolated
@example((ELEVEN, 1))
@example((ELEVEN, 2))
@example((ELEVEN, 3))
@example((ELEVEN, 4))
def test_graph_is_the_word_rule_graph(case):
    """build(base, t).graph is the Graph of the word rule's edges, listed by
    an oracle that shares no code with the package, and holds each once."""
    base, t = case
    edges = sierpinski_word_edges(base.order, list(base.edges), t)
    g = build(base, t).graph
    assert g == Graph(base.order**t, edges)
    assert g.size == len(edges)


def test_edge_runs_are_the_graph_random_bases():
    """The runs' edges, each level-d bridge repeated at stride nᵈ, sorted, are
    the Graph's edges, and their count its size, on seeded random bases of
    order 2-6, edgeless and disconnected ones included, t = 1-4."""
    bases = []
    for seed in range(60):
        rng = random.Random(seed)
        n, t, p = rng.randint(2, 6), rng.randint(1, 4), rng.choice((0.0, 0.25, 0.5, 0.9))
        base = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        s = build(base, t)
        edges = [
            (u0 + k, v0 + k)
            for d, level in enumerate(s.bridges, 1)
            for u0, v0 in level
            for k in range(0, s.order, n**d)
        ]
        assert sorted(edges) == list(s.graph.edges)
        assert s.size == s.graph.size
        bases.append(base)
    assert not all(map(is_connected, bases))
    assert any(base.size == 0 for base in bases)


def test_cover_counts_the_marks_in_each_closed_neighbourhood():
    """cover's once and twice are the vertices with at least one and at least
    two marked vertices in N[v], counted off the decoded graph, for arbitrary
    marks on seeded random bases of order 2-6 (edgeless and disconnected among
    them) and the base of order 11, t = 1-4."""
    rng = random.Random(29)
    bases = []
    for _ in range(40):
        n, p = rng.randint(2, 6), rng.choice((0.0, 0.25, 0.5, 0.9))
        bases.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    cases = [(base, rng.randint(1, 4)) for base in bases]
    cases += [(Graph(11, [(i, (i + 1) % 11) for i in range(11)] + [(0, 5)]), t) for t in (1, 2, 3, 4)]
    assert not all(map(is_connected, bases)) and any(base.size == 0 for base in bases)
    seen = set()
    for base, t in cases:
        s = build(base, t)
        g = s.graph
        for density in (0.05, 0.3, 0.7):
            marks = [v for v in g.vertices if rng.random() < density]
            mask = sum(1 << v for v in marks)
            counts = [(mask >> v & 1) + sum(mask >> u & 1 for u in g.neighbors(v)) for v in g.vertices]
            once, twice = s.cover(mask)
            assert once == sum(1 << v for v, c in enumerate(counts) if c >= 1)
            assert twice == sum(1 << v for v, c in enumerate(counts) if c >= 2)
            seen.add((once == (1 << s.order) - 1, twice != 0))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_budget_enforced():
    with pytest.raises(BudgetError):
        build(complete_graph(10), 3, max_vertices=999)
    s = build(complete_graph(10), 3, max_vertices=1000)
    assert s.order == 1000


def test_budget_refuses_a_deep_graph_without_its_order():
    """A depth whose vertex count has thousands of digits is refused with a
    short message, not a ValueError from formatting the count."""
    with pytest.raises(BudgetError) as err:
        build(path_graph(3), 9100)
    assert len(str(err.value)) < 200 and "3**9100" in str(err.value)
    # the refusal by depth alone keeps the boundary: 2**10 fits a budget of 1024, 2**11 not 2047
    assert build(path_graph(2), 10, max_vertices=1024).order == 1024
    with pytest.raises(BudgetError):
        build(path_graph(2), 11, max_vertices=2047)
    assert build(path_graph(2), 17).order == 2**17
    with pytest.raises(BudgetError):
        build(path_graph(2), 18)


def test_depth_and_base_validation():
    with pytest.raises(ValueError):
        build(path_graph(3), 0)
    with pytest.raises(ValueError):
        build(Graph(1), 2)


@pytest.mark.parametrize(
    "base,depth,message",
    [(Graph(1), 2, "at least 2 vertices"), (path_graph(3), -1, "at least 1"), (path_graph(3), 0, "at least 1")],
)
def test_sierpinski_graph_checks_its_arguments(base, depth, message):
    """SierpinskiGraph itself refuses a base of one vertex and a depth below 1,
    as build does, at any budget."""
    with pytest.raises(ValueError, match=message):
        SierpinskiGraph(base, depth)
    with pytest.raises(ValueError, match=message):
        build(base, depth, max_vertices=0)


def test_extreme_vertices_are_constant_words_with_base_degree():
    base = star_graph(4)
    s = build(base, 3)
    ext = extreme_vertices(s)
    assert len(ext) == 4
    for x, vid in enumerate(ext):
        assert s.word_of(vid) == (x, x, x)
        assert s.graph.degree(vid) == base.degree(x)


def test_copy_blocks():
    # a copy's own extreme vertex repeats the prefix's last letter
    s = build(path_graph(3), 2)
    p = (1,)
    assert prefix_vertices(s, p) == (3, 4, 5)
    assert prefix_vertices(s, p)[p[-1]] == 4  # word 11
    s3 = build(path_graph(3), 3)
    p = (2, 0)
    assert prefix_vertices(s3, p) == (18, 19, 20)
    assert prefix_vertices(s3, p)[p[-1]] == 18  # word 200
    with pytest.raises(ValueError):
        prefix_vertices(s, (0, 1, 2))
    with pytest.raises(ValueError):
        prefix_vertices(build(path_graph(3), 1), ())


def test_prefix_vertices_any_length():
    s = build(path_graph(3), 3)
    assert prefix_vertices(s, (1,)) == tuple(range(9, 18))
    assert prefix_vertices(s, (1, 2)) == (15, 16, 17)
    assert prefix_vertices(s, (1, 2, 0)) == (15,)
    with pytest.raises(ValueError):
        prefix_vertices(s, ())


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 10**6))
def test_boundary_property_random_bases(n, t, seed):
    base = random_connected_graph(n, random.Random(seed), 0.3)
    assert check_boundary_adjacency(build(base, t))


@pytest.mark.parametrize("t,add,drop", [(2, (1, 4), ()), (3, (4, 13), ()), (2, (), (1, 3))])
def test_boundary_property_rejects_a_changed_copy_join(t, add, drop):
    """01 -- 11 and 011 -- 111 join copies 0 and 1 next to their extreme
    vertices but are not the word rule's one edge 01..1 -- 10..0; without
    01 -- 10 the copies 0 and 1 of S(P3, 2) are not joined at all.  The
    changed copy is a stand-in with the base, depth and graph the check reads."""
    s = build(path_graph(3), t)
    assert check_boundary_adjacency(s)
    edges = [e for e in s.graph.edges if e != drop] + ([add] if add else [])
    changed = SimpleNamespace(base=s.base, depth=t, graph=Graph(s.order, edges))
    assert not check_boundary_adjacency(changed)


def test_connector_vertex_degrees():
    """The endpoints of the deepest cross edges gain exactly one edge."""
    for base in (path_graph(5), cycle_graph(5), star_graph(4), complete_graph(4)):
        for t in (2, 3):
            s = build(base, t)
            for x, y in base.edges:
                u = id_of((x,) + (y,) * (t - 1), base.order)
                v = id_of((y,) + (x,) * (t - 1), base.order)
                assert s.graph.degree(u) == base.degree(y) + 1
                assert s.graph.degree(v) == base.degree(x) + 1


def test_recursive_decomposition():
    """Each letter block induces S(G, t-1); cross edges join connectors."""
    base = cycle_graph(4)
    n = base.order
    big = build(base, 3)
    small = build(base, 2)
    span = n * n
    inner = set()
    cross = set()
    for u, v in big.graph.edges:
        if u // span == v // span:
            inner.add((u // span, u % span, v % span))
        else:
            cross.add((u, v))
    for x in range(n):
        block_edges = {(a, b) for bx, a, b in inner if bx == x}
        assert block_edges == set(small.graph.edges)
    expected_cross = set()
    for x, y in base.edges:
        u = id_of((x,) + (y, y), n)
        v = id_of((y,) + (x, x), n)
        expected_cross.add((min(u, v), max(u, v)))
    assert cross == expected_cross


def test_graph_labels_are_words():
    s = build(path_graph(3), 2)
    assert s.word_label(5) == "12"
    assert s.graph.name == "S(P3,2)"


@pytest.mark.parametrize("n,depth", [(3, 3), (10, 2), (11, 1), (11, 2), (12, 3)])
def test_word_labels_parse_back(n, depth):
    # distinct labels name distinct words, dashed once a letter can take two digits
    s = build(complete_graph(n), depth)
    labels = [s.word_label(vid) for vid in range(s.order)]
    assert len(set(labels)) == s.order
    assert labels == [format_word(word_of(vid, n, depth), n) for vid in range(s.order)]
    assert format_word((10,), 11) == "10" and format_word((1, 10), 11) == "1-10"


@pytest.mark.parametrize("base,depth", [(path_graph(3), 4), (complete_graph(11), 2)])
def test_word_labels_iterate_lazily_in_id_order(base, depth):
    s = build(base, depth)
    labels = s.word_labels()
    assert not isinstance(labels, list) and iter(labels) is labels
    n = base.order
    assert list(labels) == [format_word(word_of(v, n, depth), n) for v in range(s.order)]


def test_suffix_helpers_are_modular():
    n, t = 4, 3
    table = list(range(n * n))
    assert suffix_labels(table, n, t) == tuple(vid % (n * n) for vid in range(n**t))
    assert suffix_labels((5, 6, 7, 8), n, 1) == (5, 6, 7, 8)
    with pytest.raises(ValueError):
        suffix_labels((1, 2), n, t)


@pytest.mark.parametrize("t", (3, 4))
@pytest.mark.parametrize("seed", range(4))
def test_every_two_letter_block_holds_s_g_2(seed, t):
    """Each edge {xy, uv} of S(G, 2) is the edge {wxy, wuv} of S(G, t) for every prefix w.

    A labeling valid on S(G, 2) therefore stays valid repeated under every
    prefix, which is what lets the product-bound construction check its
    rewrite steps on S(G, 2) alone.
    """
    rng = random.Random(seed)
    base = random_connected_graph(rng.randint(2, 5), rng, 0.4)
    n = base.order
    edges = set(build(base, t).graph.edges)
    block = tuple(build(base, 2).graph.edges)  # read once per prefix, so kept as a tuple
    for prefix in range(n ** (t - 2)):
        off = prefix * n * n
        assert all((off + a, off + b) in edges for a, b in block)
