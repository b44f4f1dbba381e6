"""Generalized Sierpinski graphs S(G, t).

Vertices are the words of length t over the base vertex set, numbered by
their value as base-n numerals, so id 0 is the word 00..0 and ids run in
lexicographic word order.  Two words are adjacent exactly when they have
the shapes w a b b..b and w b a a..a for some base edge {a, b}: the edge
sits at level r when the differing suffix has length r.  S(G, 1) is G
itself.

In ids, the level-r edges of base edge {a, b} are one run, the pairs
(a·rep + b·run, b·rep + a·run) + k·nʳ for k < nᵗ⁻ʳ, where rep = nʳ⁻¹ and
run is the value of the word 11..1 of length r-1.  S(G, t) is held as
the first pair of each run, its bridges: per level r, the |E(G)| edges
x·yʳ⁻¹ -- y·xʳ⁻¹ of the base edges {x, y}, in base-edge order, each
checked to lie at 0 <= u < v < nʳ, so its run stays on the graph.

check_budget refuses an S(G, t) over the vertex budget from n and t
alone, so a caller can refuse one before it makes the base.  build
checks the budget and returns S(G, t) in two views: a SierpinskiGraph,
whose order, size and cover (the vertices whose closed neighbourhoods
hold one, and two, vertices of a bitmask, read off the runs by shifts)
are all that validation and the construction checks read, and its
graph, which everything else reads: gen, construct --dot, the
word-keyed labeling's digest, the solvers and the copy checks.  graph
is made on first read and kept, level by level as the paper describes
S(G, t): from the base, which is S(G, 1), graphs.copies makes S(G, d) of
n copies of S(G, d - 1) joined by the level-d bridges, and the last
level must hold size edges.  No other module reads the bridges.

This module is the one place that knows the coding: word_of and id_of
convert between ids and words, format_word turns a word into its display
label (letters joined with '-' when n > 10), and suffix_labels gives
each word the value a table holds for its trailing letters.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional, Sequence

from .errors import BudgetError
from .graphs import Graph, copies

DEFAULT_VERTEX_BUDGET = 200_000

Word = tuple[int, ...]


class SierpinskiGraph:
    """S(G, t) as its checked bridges per level, with its base graph and word coding.

    order, size and cover come off the bridges.  graph is the Graph made
    level by level, n copies of the level below joined by that level's
    bridges, on first read and then kept.
    Raises ValueError for depth < 1 or a base of fewer than 2 vertices.
    """

    __slots__ = ("base", "depth", "order", "bridges", "_graph")

    def __init__(self, base: Graph, depth: int):
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if base.order < 2:
            raise ValueError("base graph needs at least 2 vertices")
        self.base = base
        self.depth = depth
        self.order = base.order**depth
        self.bridges = _bridges(base, depth)
        self._graph: Optional[Graph] = None

    @property
    def name(self) -> str:
        return f"S({self.base.name or 'G'},{self.depth})"

    @property
    def size(self) -> int:
        """|E(G)|·(nᵗ - 1)/(n - 1), the count graph checks its Graph to hold."""
        return self.base.size * (self.order - 1) // (self.base.order - 1)

    @property
    def graph(self) -> Graph:
        if self._graph is None:
            n, t = self.base.order, self.depth
            g = self.base if t > 1 else copies(self.base, 1, (), self.name)
            for d in range(2, t + 1):
                g = copies(g, n, self.bridges[d - 1], self.name if d == t else "")
            if g.size != self.size:
                raise AssertionError(f"{self.name} was built with {g.size} edges, expected {self.size}")
            self._graph = g
        return self._graph

    def cover(self, marks: int) -> tuple[int, int]:
        """The vertices with at least one, and with at least two, vertices of
        marks in their closed neighbourhood, as (once, twice).

        marks and both results are bitmasks, bit v for vertex v.  With ends
        a bit at every multiple of nᵈ below the order, the run of a level-d
        bridge (u0, v0) has its u ends at ends << u0 and its v ends at
        ends << v0: a marked u end reaches the v end gap = v0 - u0 bits up,
        a marked v end the u end gap bits down.  _bridges proved
        0 <= u0 < v0 < nᵈ, and nᵈ divides the order, so the shifts stay on
        the run's ends and a run reaches each vertex along at most one edge.
        """
        n, total = self.base.order, self.order
        once, twice = marks, 0
        for d, level in enumerate(self.bridges, 1):
            stride = n**d
            ends = int("1".rjust(stride, "0") * (total // stride), 2)
            for u0, v0 in level:
                gap = v0 - u0
                hit = (marks & ends << u0) << gap | (marks & ends << v0) >> gap
                twice |= once & hit
                once |= hit
        return once, twice

    def word_of(self, vid: int) -> Word:
        return word_of(vid, self.base.order, self.depth)

    def word_label(self, vid: int) -> str:
        return format_word(self.word_of(vid), self.base.order)

    def word_labels(self) -> Iterator[str]:
        """Every vertex's word_label, lazily and in id order."""
        return word_labels(self.base.order, self.depth)


def word_of(vid: int, n: int, length: int) -> Word:
    """Digits of vid base n, most significant first, padded to length."""
    out = []
    for _ in range(length):
        vid, d = divmod(vid, n)
        out.append(d)
    return tuple(reversed(out))


def id_of(word: Word, n: int) -> int:
    """The word read as a base-n numeral; every letter must be a base vertex."""
    vid = 0
    for d in word:
        if not 0 <= d < n:
            raise ValueError(f"letter {d} not a base vertex")
        vid = vid * n + d
    return vid


def format_word(word: Word, n: int) -> str:
    """Display label: the letters concatenated, joined with '-' when n > 10."""
    if n <= 10:
        return "".join(str(d) for d in word)
    return "-".join(str(d) for d in word)


def word_labels(n: int, length: int) -> Iterator[str]:
    """The display label of every word of the given length, lazily and in id order.

    Ids run in lexicographic word order, which is the order in which
    product enumerates the words.
    """
    letters = [str(d) for d in range(n)]
    return map("".join if n <= 10 else "-".join, product(letters, repeat=length))


def suffix_labels(table: Sequence[int], n: int, length: int) -> tuple[int, ...]:
    """Per-word values read off each word's last k letters.

    table has n**k entries indexed by the id of a length-k word, so word
    vid gets table[vid % n**k]; ids run prefix-major, which makes that the
    table repeated once per prefix.
    """
    if len(table) not in [n**k for k in range(length + 1)]:
        raise ValueError(f"table of {len(table)} entries is not indexed by suffixes of base {n}")
    return tuple(table) * (n**length // len(table))


def check_budget(n: int, depth: int, max_vertices: Optional[int] = None, name: str = "G") -> None:
    """Raise BudgetError when S(name, depth), over a base of order n, would
    have more vertices than the budget (DEFAULT_VERTEX_BUDGET unless given).

    Only a valid S(G, t) meets the budget, so bad input is a ValueError at
    any budget: n < 2 and depth < 1 pass here for the caller to refuse.
    """
    budget = DEFAULT_VERTEX_BUDGET if max_vertices is None else max_vertices
    # n >= 2 gives n**depth >= 2**depth, so a depth of the budget's bit length is
    # over it without the power, which can run to millions of digits
    if n >= 2 and depth >= 1 and (depth >= budget.bit_length() or n**depth > budget):
        raise BudgetError(f"S({name},{depth}) has {n}**{depth} vertices, over the budget of {budget}")


def build(base: Graph, depth: int, max_vertices: Optional[int] = None) -> SierpinskiGraph:
    """S(base, depth) as its checked bridges; its graph is made on first read.

    Raises check_budget's BudgetError, and SierpinskiGraph's ValueError
    for depth < 1 or a base of fewer than 2 vertices.
    """
    check_budget(base.order, depth, max_vertices, base.name or "G")
    return SierpinskiGraph(base, depth)


def _bridges(base: Graph, depth: int) -> list[list[tuple[int, int]]]:
    """Per level d = 1 .. depth, the edges x·yᵈ⁻¹ -- y·xᵈ⁻¹ of the base edges
    {x, y}, in base-edge order; raises unless each is a pair u0 < v0 within
    0 .. nᵈ - 1, which keeps its run (u0, v0) + k·nᵈ at u < v < nᵗ."""
    n = base.order
    edges = tuple(base.edges)
    levels = []
    for d in range(1, depth + 1):
        rep = n ** (d - 1)
        # a letter x repeated d-1 times has numeric value x * run
        run = (rep - 1) // (n - 1)
        level = [(a * rep + b * run, b * rep + a * run) for a, b in edges]
        for u0, v0 in level:
            if not 0 <= u0 < v0 < rep * n:
                raise AssertionError(f"level-{d} bridge ({u0}, {v0}) leaves 0 <= u < v < {rep * n}")
        levels.append(level)
    return levels


def extreme_vertices(s: SierpinskiGraph) -> tuple[int, ...]:
    """Ids of the n constant words xx..x; their degree equals deg(x) in the base."""
    n = s.base.order
    run = (n**s.depth - 1) // (n - 1)
    return tuple(x * run for x in range(n))


def prefix_vertices(s: SierpinskiGraph, prefix: Word) -> tuple[int, ...]:
    """All vertices whose word starts with the given (possibly short) prefix."""
    if not 0 < len(prefix) <= s.depth:
        raise ValueError("prefix length must be between 1 and depth")
    n = s.base.order
    pid = id_of(prefix, n)
    span = n ** (s.depth - len(prefix))
    return tuple(range(pid * span, (pid + 1) * span))


def check_boundary_adjacency(s: SierpinskiGraph) -> bool:
    """The copies of S(G, t - 1) are joined exactly as the paper's word rule says.

    Copy x holds the words that start with x.  Every edge between copies
    x != y must be the edge x·yᵗ⁻¹ -- y·xᵗ⁻¹ of a base edge {x, y}, and
    each base edge must give one, so there are exactly |E(G)| of them.
    """
    n, t = s.base.order, s.depth
    span = n ** (t - 1)
    crossing = [(u, v) for u, v in s.graph.edges if u // span != v // span]
    # for a base edge (x, y) with x < y, the word x·yᵗ⁻¹ has the smaller id
    joins = [(id_of((x,) + (y,) * (t - 1), n), id_of((y,) + (x,) * (t - 1), n)) for x, y in s.base.edges]
    return crossing == sorted(joins)
