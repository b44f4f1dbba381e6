"""Generalized Sierpinski graphs S(G, t).

Vertices are the words of length t over the base vertex set, numbered by
their value as base-n numerals, so id 0 is the word 00..0 and ids run in
lexicographic word order.  Two words are adjacent exactly when they have
the shapes w a b b..b and w b a a..a for some base edge {a, b}: the edge
sits at level r when the differing suffix has length r.  S(G, 1) is G
itself.

In ids, the level-r edge of base edge {a, b} under prefix w is the pair
(a·rep + b·run, b·rep + a·run) shifted by w·nʳ, where rep = nʳ⁻¹ and run
is the value of the word 11..1 of length r-1.  edge_keys writes each edge
(u, v) as the one integer key u·N + v, N = nᵗ, so the edges of one level
and base edge are a single range of step nʳ·(N + 1), and one list.sort
merges the t·|E(G)| ranges into canonical edge order.  Each range is
certified to hold only pairs u < v < N, and the sorted keys to ascend
strictly and number |E(G)|·(N - 1)/(n - 1); together that proves the
keys are the canonical edge list Graph would make of them, so build
decodes them into its Graph without checking each edge again, and gen
writes them out without a Graph at all.

This module is the one place that knows the coding: word_of and id_of
convert between ids and words, format_word turns a word into its display
label (letters joined with '-' when n > 10), and suffix_labels gives
each word the value a table holds for its trailing letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product, repeat
from operator import lt
from typing import Iterator, Optional, Sequence

from .errors import BudgetError
from .graphs import Graph, from_canonical_edges

DEFAULT_VERTEX_BUDGET = 200_000

Word = tuple[int, ...]


@dataclass(frozen=True)
class SierpinskiGraph:
    """A built S(G, t) together with its base graph and word coding."""

    base: Graph
    depth: int
    graph: Graph

    @property
    def order(self) -> int:
        return self.graph.order

    def word_of(self, vid: int) -> Word:
        return word_of(vid, self.base.order, self.depth)

    def word_label(self, vid: int) -> str:
        return format_word(self.word_of(vid), self.base.order)

    def word_labels(self) -> Iterator[str]:
        """Every vertex's word_label, lazily and in id order."""
        return word_labels(self.base.order, self.depth)


@dataclass(frozen=True)
class EdgeKeys:
    """The edges of S(G, t) as the certified sorted keys u·order + v of edge_keys.

    It has the order, size and edges that format_edge_list and to_dot
    read, so they write S(G, t) from the keys without a Graph; edges
    decodes the keys afresh on every read, one pair at a time.
    """

    order: int
    keys: list[int]

    @property
    def size(self) -> int:
        return len(self.keys)

    @property
    def edges(self) -> Iterator[tuple[int, int]]:
        return map(divmod, self.keys, repeat(self.order))


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


def edge_keys(base: Graph, depth: int, max_vertices: Optional[int] = None) -> EdgeKeys:
    """The edges of S(base, depth) as certified sorted keys u·nᵗ + v.

    Raises ValueError for depth < 1 or a base of fewer than 2 vertices,
    and BudgetError when the vertex count n**depth would exceed the budget
    (DEFAULT_VERTEX_BUDGET unless given).
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    n = base.order
    if n < 2:
        raise ValueError("base graph needs at least 2 vertices")
    total = n**depth
    budget = DEFAULT_VERTEX_BUDGET if max_vertices is None else max_vertices
    if total > budget:
        raise BudgetError(
            f"S({base.name or 'G'},{depth}) has {total} vertices, over the budget of {budget}"
        )
    keys: list[int] = []
    for r in range(1, depth + 1):
        rep = n ** (r - 1)
        # a letter d repeated r-1 times has numeric value d * run
        run = (rep - 1) // (n - 1)
        for a, b in base.edges:
            keys += _progression(a * rep + b * run, b * rep + a * run, rep * n, total)
    keys.sort()  # each progression is an ascending run, which list.sort merges
    _certify(keys, total, base.size * (total - 1) // (n - 1))
    return EdgeKeys(total, keys)


def _progression(u0: int, v0: int, stride: int, total: int) -> range:
    """Keys of the edges (u0 + k·stride, v0 + k·stride), k = 0 .. total/stride - 1.

    Raises unless 0 <= u0 < v0 and the last v is below total, which makes
    every key decode by divmod(key, total) to a pair u < v < total.
    """
    if not 0 <= u0 < v0 or v0 + total - stride >= total:
        raise AssertionError(f"edges ({u0}, {v0}) + k·{stride} leave 0 <= u < v < {total}")
    step = stride * (total + 1)  # u and v both grow by stride
    start = u0 * total + v0
    return range(start, start + total // stride * step, step)


def _certify(keys: list[int], total: int, expect: int) -> None:
    """Raise unless the sorted keys number expect, lie below total², and ascend strictly.

    With the checks of _progression this proves the decoded keys the
    canonical edge list: pairs u < v < total, sorted, none repeated.
    """
    if len(keys) != expect:
        raise AssertionError(f"edge generation produced {len(keys)} edges, expected {expect}")
    if keys and (keys[0] < 0 or keys[-1] >= total * total):
        raise AssertionError(f"edge key out of range for order {total}")
    if not all(map(lt, keys, islice(keys, 1, None))):
        raise AssertionError("edge keys repeat or descend")


def build(base: Graph, depth: int, max_vertices: Optional[int] = None) -> SierpinskiGraph:
    """Construct S(base, depth); raises as edge_keys does.

    The certified keys are decoded straight into the Graph's edge list,
    so no edge is checked again.
    """
    keys = edge_keys(base, depth, max_vertices)
    # the key list is new and build's alone: decoded in place a slice at a time,
    # each key is freed as its pair is made, so the peak is the pairs and no more
    edges, chunk = keys.keys, 1024
    for i in range(0, len(edges), chunk):
        edges[i : i + chunk] = map(divmod, edges[i : i + chunk], repeat(keys.order))
    graph = from_canonical_edges(keys.order, tuple(edges), f"S({base.name or 'G'},{depth})")
    return SierpinskiGraph(base, depth, graph)


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
    n = s.base.order
    span = n ** (s.depth - 1)
    run = (span - 1) // (n - 1)  # the value of the word 11..1 of length t - 1
    crossing = [(u, v) for u, v in s.graph.edges if u // span != v // span]
    # for a base edge (x, y) with x < y, the pair (x·span + y·run, y·span + x·run) is canonical
    return crossing == sorted((x * span + y * run, y * span + x * run) for x, y in s.base.edges)
