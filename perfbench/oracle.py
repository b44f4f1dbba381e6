"""The benchmark's own graphs, closed forms and checkers.

Nothing here imports sierpdom: inputs are written as plain edge lists,
and every output is checked against these independent definitions, so a
broken generator, validator or `python -O` inside the package cannot
hide a wrong answer.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import random
from typing import Iterable, Iterator, Optional

Edges = list[tuple[int, int]]


def path_edges(n: int) -> Edges:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> Edges:
    return [(i, (i + 1) % n) for i in range(n)]


def complete_edges(n: int) -> Edges:
    return list(itertools.combinations(range(n), 2))


def star_edges(n: int) -> Edges:
    return [(0, i) for i in range(1, n)]


FAMILIES = {"P": path_edges, "C": cycle_edges, "K": complete_edges, "star": star_edges}


def edge_list_text(n: int, edges: Edges) -> str:
    """The package's plain edge-list format: header "n m", then "u v" lines."""
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def sierpinski_edges(n: int, base: Edges, t: int) -> Iterator[tuple[int, int]]:
    """Edges of S(G, t) by the copy recursion, not by the package's level formula.

    S(G, t) is n copies of S(G, t-1), the copy under first letter x on
    ids x*n**(t-1) onwards, plus one bridge x y..y -- y x..x per base edge.
    """
    if t == 1:
        yield from base
        return
    size = n ** (t - 1)
    run = (size - 1) // (n - 1)  # the word y..y of length t-1 has id y*run
    for x in range(n):
        off = x * size
        for u, v in sierpinski_edges(n, base, t - 1):
            yield off + u, off + v
    for x, y in base:
        yield x * size + y * run, y * size + x * run


def prufer_tree(n: int, rng: random.Random) -> Edges:
    """Uniform labelled tree on n vertices, decoded from a random Prufer sequence."""
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
        edges.append((min(leaf, x), max(leaf, x)))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    a, b = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(a, b), max(a, b)))
    return edges


def stratified_bases(rng: random.Random, per_order: int, max_n: int, extra_prob: float):
    """Connected bases, per_order of each order 2..max_n, in random order.

    Each is a random tree plus extra edges, and an edge index to drop.  The
    number of extra edges runs through the quantiles of Binomial(non-tree
    pairs, extra_prob), so every batch has the same mix of orders and
    sizes, which sets most of an op's cost; which tree and which extra
    pairs are drawn from rng.
    """
    out = []
    for n in range(2, max_n + 1):
        free = n * (n - 1) // 2 - (n - 1)
        pmf = [math.comb(free, x) * extra_prob**x * (1 - extra_prob) ** (free - x) for x in range(free + 1)]
        cdf = list(itertools.accumulate(pmf))
        for j in range(per_order):
            extra = next((x for x, c in enumerate(cdf) if c >= (j + 0.5) / per_order), free)
            tree = prufer_tree(n, rng)
            others = [p for p in itertools.combinations(range(n), 2) if p not in tree]
            edges = sorted(tree + rng.sample(others, extra))
            out.append((n, edges, rng.randrange(len(edges))))
    rng.shuffle(out)
    return out


# --- closed forms, written from the paper's statements ---------------------


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def roman_path(n: int, t: int) -> int:
    """gamma_R(S(P_n, t)), t >= 2; S(P_2, t) is the path on 2**t vertices."""
    if n == 2:
        return _ceil_div(2 * 2**t, 3)
    base = _ceil_div(2 * n, 3)
    dent = 2 * _ceil_div(n, 3) - 1 if n % 3 == 2 else _ceil_div(n, 3)
    return n ** (t - 2) * (n * base - dent)


def roman_cycle(n: int, t: int) -> tuple[int, int]:
    """Bracket for gamma_R(S(C_n, t)), t >= 2; exact unless 3 divides n."""
    scale = n ** (t - 1)
    if n % 3 == 0:
        return scale * (2 * n - 3) // 3, scale * (2 * n - 1) // 3
    return scale * (2 * n // 3), scale * (2 * n // 3)


def domination_complete(n: int, t: int) -> int:
    """gamma(S(K_n, t))."""
    return (n**t + n) // (n + 1) if t % 2 == 0 else (n**t + 1) // (n + 1)


def roman_complete_upper(n: int, t: int) -> int:
    """Upper bound on gamma_R(S(K_n, t))."""
    return (2 * n**t + n - 1) // (n + 1) if t % 2 == 0 else 2 * (n**t + 1) // (n + 1)


def roman_universal(n: int, t: int) -> int:
    """gamma_R(S(G, t)) for a base of order n >= 4 with exactly one universal vertex."""
    return n ** (t - 2) * (2 * n - 1)


# --- checkers ---------------------------------------------------------------


def roman_ok(labels: tuple[int, ...], edges: Iterable[tuple[int, int]]) -> bool:
    """Every 0-labelled vertex has a neighbour labelled 2."""
    seen = bytearray(len(labels))
    for u, v in edges:
        if labels[u] == 2:
            seen[v] = 1
        if labels[v] == 2:
            seen[u] = 1
    return all(x or s for x, s in zip(labels, seen))


def closed_cover_counts(n: int, chosen: Iterable[int], edges: Iterable[tuple[int, int]]) -> list[int]:
    """For each vertex, how many chosen vertices lie in its closed neighbourhood."""
    mark = bytearray(n)
    for v in chosen:
        mark[v] = 1
    count = list(mark)
    for u, v in edges:
        count[u] += mark[v]
        count[v] += mark[u]
    return count


def brute_force(n: int, edges: Edges, roman: bool) -> int:
    """Exact gamma or gamma_R by trying every 2-set (or dominating set); tiny n only."""
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    full = (1 << n) - 1
    best = 2 * n
    for mask in range(1 << n):
        cover = 0
        for v in range(n):
            if mask >> v & 1:
                cover |= closed[v]
        if roman:
            best = min(best, 2 * bin(mask).count("1") + bin(full & ~cover).count("1"))
        elif cover == full:
            best = min(best, bin(mask).count("1"))
    return best


def milp_value(n: int, edges: Edges, roman: bool) -> Optional[int]:
    """gamma_R by the ReVelle-Rosing integer program (gamma when not roman).

    Variables x_v (label 1) and y_v (label 2); each vertex needs
    x_v + y_v + sum of y over its neighbours >= 1.  Returns None when
    scipy is not importable.
    """
    try:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError:
        return None
    if roman:
        a = np.zeros((n, 2 * n))
        for v in range(n):
            a[v, v] = a[v, n + v] = 1
        for u, v in edges:
            a[u, n + v] = a[v, n + u] = 1
        cost = np.array([1.0] * n + [2.0] * n)
    else:
        a = np.eye(n)
        for u, v in edges:
            a[u, v] = a[v, u] = 1
        cost = np.ones(n)
    res = milp(
        cost,
        constraints=LinearConstraint(a, lb=1, ub=np.inf),
        integrality=np.ones(len(cost)),
        bounds=Bounds(0, 1),
    )
    if res.status != 0:
        raise RuntimeError(f"MILP did not reach optimality: {res.message}")
    return round(res.fun)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]
