"""Immutable simple graphs on vertices 0..n-1.

A graph is its sorted edge keys: u << 32 | v for each edge {u, v} with
u < v, ascending and without repeats, held in one array("Q") at 8 bytes
an edge, so two graphs compare equal exactly when they have the same
order and edge set, and a graph of order above 2³² is refused.  edges
reads the keys as pairs of 32-bit halves (_ends, which byteswaps a copy),
as a fresh iterator on every read that is spent once gone over, and
size counts them.  The one thing derived and cached is the sorted
neighbor tuples that neighbors, degree and adjacent read, built in one
pass over the edges on first use, so a graph that is only built,
serialized or validated never holds them.  The exact searches make
their own closed neighborhoods from the edges.  This module is the one
place that makes, sorts or reads edge keys.

There are two ways in, and both check their input.  Graph(n, edges)
takes any edges: one pass in input order checks each for vertices of
type int exactly (a bool or a float is refused, so the writers format
vertices with %d), then for range, then for a self-loop, and adds its
key to a set, which one sort turns into the key array.  A ValueError
names the first invalid edge, as given.  copies(g, k, bridges) takes k
disjoint copies of a Graph joined by bridge edges, as S(G, t) is made of
S(G, t - 1): it checks the order and each bridge, shifts each copy's
keys by one big-int add and sorts nothing but the bridges.  Appending
neighbors from the ascending edges fills every neighbor tuple in
ascending order, so no per-vertex sort is needed.

The edge-list and DOT writers decode a slice of keys at a time into one
array of ends and format the slice's lines by one %-operation, writing
each slice to the text stream the caller passes as it is made, so no
caller holds the whole text; the DOT graph is always named S.  digest
feeds the same slices to sha256 and so never holds the edge list
either.  This module holds storage, queries and I/O; the labeling
checks, domination included, are in roman.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from bisect import bisect_left
from itertools import islice, repeat
from typing import Iterable, Iterator, Optional, TextIO


class Graph:
    """Finite undirected simple graph on vertices 0..n-1, with an optional name."""

    __slots__ = ("_n", "_keys", "_adj", "name")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), name: str = ""):
        _check_order(n)
        canon = set()
        for u, v in edges:  # in input order, so a ValueError names the first bad edge as given
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r}, {v!r}) has a vertex that is not an int")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} not allowed")
            canon.add(u << 32 | v if u < v else v << 32 | u)
        self._n = n
        self._keys = array("Q", sorted(canon))
        self._adj: Optional[tuple[tuple[int, ...], ...]] = None
        self.name = name

    @property
    def order(self) -> int:
        return self._n

    @property
    def size(self) -> int:
        """Number of edges."""
        return len(self._keys)

    @property
    def edges(self) -> Iterator[tuple[int, int]]:
        """The (u, v) pairs, u < v, in ascending order, decoded afresh on every read.

        Each read is a one-shot iterator: a caller that goes over the edges
        twice keeps them as a tuple, or reads edges again.
        """
        ends = iter(_ends(self._keys[:]))
        return zip(ends, ends)

    @property
    def vertices(self) -> range:
        return range(self._n)

    @property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, built on first use."""
        if self._adj is None:
            adj = [[] for _ in range(self._n)]
            # the edges ascend, so adj[v] receives its smaller neighbors u, from the edges
            # (u, v) in order of u, before the edges (v, w) add its larger ones in order of w
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            self._adj = tuple(map(tuple, adj))
        return self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._neighbors[v]

    def degree(self, v: int) -> int:
        return len(self._neighbors[v])

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._neighbors[u]

    def at_distance_two(self, u: int, v: int) -> bool:
        """Whether u and v are distinct, not adjacent, and share a neighbor."""
        adj = self._neighbors
        return u != v and v not in adj[u] and not set(adj[u]).isdisjoint(adj[v])

    def digest(self) -> str:
        """Short content hash of the edge list format_edge_list writes, hashed a slice at a time."""
        sink = _Sha256Sink()
        format_edge_list(self, out=sink)
        return sink.sha.hexdigest()[:12]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._keys == other._keys

    def __hash__(self) -> int:
        """Reads the order, the size and at most the first 64 keys, so hashing
        S(G, t) copies no more of its key array than that; equal graphs hash equal."""
        return hash((self._n, len(self._keys), *self._keys[:64]))

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<Graph{tag} n={self._n} m={self.size}>"


def copies(g: Graph, k: int, bridges: Iterable[tuple[int, int]], name: str = "") -> Graph:
    """k disjoint copies of g, copy x on the vertices x·m .. x·m + m - 1 where
    m is g's order, joined by the bridges: the Graph of order k·m.

    Raises ValueError for an order k·m below 1 or above 2³², for a bridge
    with an end that is not an int or not below k·m, or with both ends in
    one copy, and for a bridge given twice, either way round.  Copy x is
    g's keys shifted by x·m in both halves, one big-int add over all of
    them; the order check keeps every half below 2³², so no half carries
    into the next.  The copies fill disjoint blocks of ids, so they follow
    each other in ascending order.  A bridge's larger end lies in a later
    copy, so it goes into its copy after every edge whose smaller end is
    at most its own, found by bisection, and must lie strictly above the
    key before it.
    """
    m, lanes = g._n, len(g._keys)
    n = k * m
    _check_order(n)
    marks = []
    for u, v in bridges:
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"bridge ({u!r}, {v!r}) has an end that is not an int")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bridge ({u}, {v}) out of range for order {n}")
        if u // m == v // m:
            raise ValueError(f"bridge ({u}, {v}) lies inside copy {u // m}")
        marks.append(u << 32 | v if u < v else v << 32 | u)
    marks.sort()
    marks.append(n << 32)  # past every key, so the loop below needs no end test
    keys = array("Q")
    shifted = int.from_bytes(g._keys, _BYTE_ORDER)
    step = int.from_bytes((m * _BOTH_HALVES).to_bytes(8, _BYTE_ORDER) * lanes, _BYTE_ORDER)
    at, key = 0, marks[0]
    block = g._keys.tobytes()  # copy 0 is g's keys as they are
    for x in range(k):
        if x:
            shifted += step
            block = shifted.to_bytes(8 * lanes, _BYTE_ORDER)
        lo, top = 0, (x + 1) * m << 32
        while key < top:  # a bridge whose smaller end is in copy x
            hi = 8 * bisect_left(g._keys, ((key >> 32) - x * m + 1) << 32)
            keys.frombytes(block[lo:hi])
            if keys and keys[-1] >= key:
                raise ValueError(f"bridge ({key >> 32}, {key & _LOW_HALF}) is given twice")
            keys.append(key)
            at, lo = at + 1, hi
            key = marks[at]
        keys.frombytes(block[lo:])
    out = Graph.__new__(Graph)
    out._n, out._keys, out._adj, out.name = n, keys, None, name
    return out


def _check_order(n: int) -> None:
    if n < 1:
        raise ValueError("graph order must be at least 1")
    if n > 1 << 32:
        raise ValueError(f"graph order {n} is above 2**32, the most an edge key holds")


_BOTH_HALVES = 1 << 32 | 1  # times x: u and v both grow by x
_LOW_HALF = (1 << 32) - 1
_BYTE_ORDER = sys.byteorder  # an array's items are in the machine's byte order
_LITTLE_ENDIAN = _BYTE_ORDER == "little"


def _ends(halves: array) -> array:
    """u0, v0, u1, v1, ... of the array("Q") of keys halves, which it
    byteswaps in place: each 64-bit key read as its two 32-bit halves, the
    high half first, with no Python object made per key."""
    if _LITTLE_ENDIAN:
        halves.byteswap()  # to big-endian bytes, so u's half comes first
    ends = array("I", halves.tobytes())
    if _LITTLE_ENDIAN:
        ends.byteswap()  # each half back to native order
    return ends


def is_connected(g: Graph) -> bool:
    seen = 1 << 0
    stack = [0]
    while stack:
        x = stack.pop()
        for y in g.neighbors(x):
            if not seen >> y & 1:
                seen |= 1 << y
                stack.append(y)
    return seen == (1 << g.order) - 1


def is_spanning_subgraph(h: Graph, g: Graph) -> bool:
    """True when h has the same vertex set and only edges of g."""
    if h.order != g.order:
        return False
    return set(h.edges) <= set(g.edges)


def parse_edge_list(text: str, name: str = "") -> Graph:
    """Parse the plain text format: a header line "n m" and m lines "u v"."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise ValueError("edge list must start with a header line 'n m'")
    try:
        n, m = int(rows[0][0]), int(rows[0][1])
    except ValueError:
        raise ValueError("edge list header must hold two integers") from None
    body = rows[1:]
    if len(body) != m:
        raise ValueError(f"header declares {m} edges but {len(body)} lines follow")
    edges = []
    for row in body:
        if len(row) != 2:
            raise ValueError(f"bad edge line: {' '.join(row)!r}")
        edges.append((int(row[0]), int(row[1])))
    return Graph(n, edges, name=name)


def format_edge_list(g: Graph, out: TextIO) -> None:
    """Write the "n m" header, then one "u v" line per edge, to out.

    Each slice of _SLICE keys is decoded into one array of ends, formatted
    by one %-operation and written as it is made, so out receives the text
    without its ever being held whole."""
    out.write(f"{g.order} {g.size}\n")
    _write_edges(out.write, "%d %d\n", g._keys)


def to_dot(
    g: Graph,
    out: TextIO,
    colors: Optional[dict[int, str]] = None,
    labels: Optional[Iterable[str]] = None,
) -> None:
    """Write g as the Graphviz DOT graph S, one node per vertex, to out.

    labels gives each vertex's label in vertex order (default: the id);
    it is consumed once and must cover exactly the vertices (ValueError
    otherwise, with the lines before it already written to out).  colors
    fills the vertices it names.  Node and edge lines are written a slice
    at a time, as in format_edge_list: a slice's node lines take their
    ids, labels and fills from one flat list filled by three slice
    assignments.
    """
    n = g.order
    colors = colors or {}
    fill_of = {_ABSENT: ""}
    fill_of.update((c, f', style=filled, fillcolor="{c}"') for c in set(colors.values()))
    fills = map(fill_of.__getitem__, map(colors.get, range(n), repeat(_ABSENT)))
    labels = iter(range(n) if labels is None else labels)
    write = out.write
    write("graph S {\n")
    for lo in range(0, n, _SLICE):
        count = min(_SLICE, n - lo)
        part = [None] * (3 * count)
        part[::3] = range(lo, lo + count)
        names = tuple(islice(labels, count))
        if len(names) < count:
            raise ValueError(f"fewer labels than the {n} vertices")
        part[1::3] = names
        part[2::3] = islice(fills, count)
        write('  %s [label="%s"%s];\n' * count % tuple(part))
    if next(labels, _ABSENT) is not _ABSENT:
        raise ValueError(f"more labels than the {n} vertices")
    _write_edges(write, "  %d -- %d;\n", g._keys)
    write("}\n")


_SLICE = 1024
_ABSENT = object()  # a color or label no caller passes


class _Sha256Sink:
    """A text stream that hashes what is written to it instead of keeping it."""

    __slots__ = ("sha",)

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text: str) -> None:
        self.sha.update(text.encode())


def _write_edges(write, line: str, keys: array) -> None:
    """Write line % (u, v) for every edge key, _SLICE keys per write."""
    for lo in range(0, len(keys), _SLICE):
        ends = _ends(keys[lo : lo + _SLICE])
        write(line * (len(ends) // 2) % tuple(ends))
