"""Independent reference implementations used to pin expected values.

Deliberately naive: full enumeration everywhere, no shared code with the
package's solver beyond the Graph accessors.  The closed-neighborhood
bitmasks are the oracles' own, built from g.neighbors by
masks_from_neighbors, not the solver's.  written collects what a writer
writes, for tests that compare its text.  sierpinski_word_edges lists
the edges of S(G, t) from the paper's word rule alone.
"""

from __future__ import annotations

import io
from itertools import combinations, product

from sierpdom import Graph


def written(write, *args, **kwargs) -> str:
    """The text write(*args, out=stream, **kwargs) writes to a fresh io.StringIO."""
    stream = io.StringIO()
    write(*args, out=stream, **kwargs)
    return stream.getvalue()


def masks_from_neighbors(g: Graph) -> list[int]:
    """N[v] as a bitmask for every vertex v, from v and g.neighbors(v)."""
    return [sum(1 << u for u in (v, *g.neighbors(v))) for v in g.vertices]


def roman_min_enumerated(g: Graph) -> int:
    """Minimum RDF weight by trying all 3^n labelings."""
    n = g.order
    masks = masks_from_neighbors(g)
    best = 2 * n
    for labels in product((0, 1, 2), repeat=n):
        w = sum(labels)
        if w >= best:
            continue
        twos = 0
        for v, x in enumerate(labels):
            if x == 2:
                twos |= 1 << v
        if all(masks[v] & twos for v, x in enumerate(labels) if x == 0):
            best = w
    return best


def roman_min_canonical(g: Graph) -> tuple[int, ...]:
    """Canonical optimal labels: min weight, then max 2s, then lex-min 2-set."""
    n = g.order
    masks = masks_from_neighbors(g)
    best_key = None
    best = None
    for labels in product((0, 1, 2), repeat=n):
        twos = 0
        for v, x in enumerate(labels):
            if x == 2:
                twos |= 1 << v
        if not all(masks[v] & twos for v, x in enumerate(labels) if x == 0):
            continue
        two_set = tuple(v for v, x in enumerate(labels) if x == 2)
        one_set = tuple(v for v, x in enumerate(labels) if x == 1)
        key = (sum(labels), -len(two_set), two_set, one_set)
        if best_key is None or key < best_key:
            best_key, best = key, labels
    return best


def domination_min_subsets(g: Graph) -> int:
    """Minimum dominating set size by growing subset enumeration."""
    n = g.order
    masks = masks_from_neighbors(g)
    full = (1 << n) - 1
    for k in range(n + 1):
        for sub in combinations(range(n), k):
            covered = 0
            for v in sub:
                covered |= masks[v]
            if covered == full:
                return k
    raise AssertionError("unreachable")


def min_completion_weight(g: Graph) -> int:
    """min over all 2-sets S of 2|S| + |V - N[S]|, by full 2^n enumeration."""
    n = g.order
    masks = masks_from_neighbors(g)
    full = (1 << n) - 1
    best = n
    for mask in range(1 << n):
        covered = 0
        m = mask
        while m:
            low = m & -m
            covered |= masks[low.bit_length() - 1]
            m ^= low
        best = min(best, 2 * mask.bit_count() + (full & ~covered).bit_count())
    return best


def shortest_path_by_enumeration(g: Graph, u: int, v: int):
    """Distance via DFS over all simple paths; None when unreachable."""
    if u == v:
        return 0
    best = None

    def walk(x, seen, steps):
        nonlocal best
        if best is not None and steps >= best:
            return
        for y in g.neighbors(x):
            if y == v:
                if best is None or steps + 1 < best:
                    best = steps + 1
            elif y not in seen:
                walk(y, seen | {y}, steps + 1)

    walk(u, {u}, 0)
    return best


def is_rdf_by_definition(g: Graph, labels) -> bool:
    for v, x in enumerate(labels):
        if x == 0 and not any(labels[u] == 2 for u in g.neighbors(v)):
            return False
    return True


def perfect_codes_enumerated(g: Graph) -> list[frozenset[int]]:
    """Every 1-perfect code (closed neighborhoods partitioning V), by an exact
    cover that always covers the lowest uncovered vertex, so each code is
    listed once."""
    masks = masks_from_neighbors(g)
    full = (1 << g.order) - 1
    codes = []

    def extend(covered, chosen):
        if covered == full:
            codes.append(frozenset(chosen))
            return
        rest = full & ~covered
        v = (rest & -rest).bit_length() - 1
        for u in range(g.order):
            if masks[v] >> u & 1 and not masks[u] & covered:
                extend(covered | masks[u], chosen + [u])

    extend(0, [])
    return codes


def sierpinski_word_edges(n: int, base_edges, t: int) -> list[tuple[int, int]]:
    """The edges of S(G, t) over a base of order n, by the word rule: for each
    base edge {a, b}, level r = 1..t and word w of length t - r, the word
    w·a·bʳ⁻¹ is adjacent to w·b·aʳ⁻¹.  A word's id is its value as a base-n
    numeral; each edge is given as (smaller id, larger id)."""

    def value(word):
        vid = 0
        for letter in word:
            vid = vid * n + letter
        return vid

    edges = []
    for r in range(1, t + 1):
        for w in product(range(n), repeat=t - r):
            for a, b in base_edges:
                u, v = value(w + (a,) + (b,) * (r - 1)), value(w + (b,) + (a,) * (r - 1))
                edges.append((min(u, v), max(u, v)))
    return edges
