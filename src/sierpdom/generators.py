"""Named graph families and seeded random connected graphs."""

from __future__ import annotations

import heapq
import random
from itertools import combinations

from .graphs import Graph


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)], name=f"P{n}")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], name=f"C{n}")


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)), name=f"K{n}")


def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0."""
    if n < 2:
        raise ValueError("star needs at least 2 vertices")
    return Graph(n, [(0, i) for i in range(1, n)], name=f"star{n}")


def _prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    # Decoding a uniform random Prufer sequence gives a uniform labeled tree.
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_connected_graph(n: int, rng: random.Random, extra_edge_prob: float = 0.2) -> Graph:
    """Uniform random spanning tree plus Bernoulli extra edges.

    Deterministic for a given rng state, always connected.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0 <= extra_edge_prob <= 1:  # NaN fails this too
        raise ValueError(f"extra edge probability {extra_edge_prob} is not between 0 and 1")
    tree = set()
    for u, v in _prufer_tree(n, rng):
        tree.add((u, v) if u < v else (v, u))
    edges = set(tree)
    for pair in combinations(range(n), 2):
        if pair not in tree and rng.random() < extra_edge_prob:
            edges.add(pair)
    return Graph(n, sorted(edges), name=f"rand{n}")


def random_spanning_subgraph(g: Graph, rng: random.Random) -> Graph:
    """Drop one random edge (the graph unchanged when edgeless)."""
    if g.size == 0:
        return g
    drop = rng.randrange(g.size)
    kept = [e for i, e in enumerate(g.edges) if i != drop]
    return Graph(g.order, kept, name=f"{g.name}-e" if g.name else "")
