"""Exact domination and Roman domination via branch and bound.

Roman domination reduces to a search over the set S of 2-labeled
vertices: once S is fixed, the cheapest completion labels exactly the
vertices outside N[S] with 1, for a total weight of 2|S| + |V - N[S]|.
The search branches on an undominated vertex v of maximum degree, with
one child per candidate 2-vertex in N[v] (later siblings exclude earlier
choices) plus a final child that settles v with label 1 and bars N[v]
from ever entering S.  The lower bound at a node adds the best k of
"2 per chosen vertex, covering at most its closed neighborhood" against
the 1-per-vertex fallback.

Witnesses are canonicalized in a second phase: among minimum-weight
labelings, maximize the number of 2s (equivalently minimize the number
of 1s), then take the lexicographically smallest 2-set.  Searches are
sequential, deterministic explicit-stack loops, so their depth is not
bounded by the interpreter's recursion limit.  Each popped node is one
deadline tick, and `Certificate.nodes` is the tick count.  The clock is
read on every tick, and once per pick of the greedy that builds the
first incumbent, so a time limit bounds the whole solve.

Two further lower bounds prune the searches.  The witness phase keeps
suffix reach masks (everything some vertex at index >= i can cover) and
drops a node once the vertices no remaining candidate can reach
outnumber the 1s allowed.  The domination search also counts a greedy
2-packing: undominated vertices whose unexcluded closed neighborhoods
are pairwise disjoint each need a dominator of their own.  Both bounds
only cut subtrees that hold no better solution (no k-set at all in the
witness phase), and neither changes the branching order, so the first
optimum found by `gamma_exact` and the lexicographically smallest 2-set
are the same as without them; only `Certificate.nodes` shrinks.

Bounds are evaluated as decisions.  Each prune asks whether a bound
reaches the gap to the incumbent (or the cover still missing) and stops
as soon as the answer is known: phase 1 returns once the remaining
prefix sums can no longer go below the gap, and the witness phase tries
"left times the largest closed neighborhood from i on" before it scans
the actual gains.  Cover counts are computed by C-level maps over the
closed masks, so a node still scans all n masks, only not in Python.  A
change to how a bound is evaluated may make a node cheaper but must
never alter a prune: node counts, witnesses and CLI output are pinned to
the search trees.

The searches read the graph through its closed masks alone: the degree
levels and the greedy's gain counts are mask bit counts, so a solve
never builds the graph's neighbor tuples.  The masks take at least
n**2/16 bytes, so both searches refuse an order above MAX_SOLVE_ORDER
before building them.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import accumulate, compress, islice, repeat
from operator import and_, sub
from typing import Optional, Union

from .errors import BudgetError, SolveTimeout
from .graphs import Graph, is_dominating_set
from .roman import RomanFunction, is_roman_dominating

# every closed mask holds its own vertex's bit, so the masks of order n take at least
# n**2/16 bytes: 256 MiB at this order
MAX_SOLVE_ORDER = 65_536

_bit_count = int.bit_count
# byte i of a reversed binary string is vertex i's bit; this makes it 1 for
# a vertex outside the mask and 0 for one inside
_OUTSIDE = bytes.maketrans(b"01", b"\x01\x00")


@dataclass(frozen=True)
class Certificate:
    """An exact value plus the witness and search statistics behind it."""

    kind: str  # "domination" or "roman"
    value: int
    witness: Union[frozenset[int], RomanFunction]
    nodes: int
    elapsed: float

    def to_json(self, graph: Optional[Graph] = None) -> str:
        doc: dict = {"kind": self.kind, "value": self.value, "nodes": self.nodes}
        if self.kind == "domination":
            doc["witness"] = sorted(self.witness)
        else:
            doc["witness"] = list(self.witness.labels)
        if graph is not None:
            doc["graph"] = {"name": graph.name, "sha256": graph.digest()}
        return json.dumps(doc, sort_keys=True)


class _Deadline:
    __slots__ = ("at", "ticks")

    def __init__(self, time_limit: Optional[float]):
        self.at = None if time_limit is None else time.perf_counter() + time_limit
        self.ticks = 0

    def tick(self, nodes: int = 1):
        """Count search nodes (0 for work outside the search) and read the clock."""
        self.ticks += nodes
        if self.at is not None and time.perf_counter() > self.at:
            raise SolveTimeout("exact solve exceeded its time limit")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _picks(link):
    """The vertices on a linked (rest, u) chain of picks."""
    while link is not None:
        link, u = link
        yield u


def _degree_levels(g: Graph) -> list[int]:
    """One mask per vertex degree, highest degree first."""
    levels: dict[int, int] = {}
    for v, m in enumerate(g.closed_masks):
        d = m.bit_count()  # the degree plus one, which keeps the order of degrees
        levels[d] = levels.get(d, 0) | 1 << v
    return [levels[d] for d in sorted(levels, reverse=True)]


def _branch(closed, levels, undom: int, excluded: int) -> tuple[int, list[tuple[int, int]]]:
    """The max-degree undominated v (lowest id on ties) and its candidates in
    N[v], best gain first, each with the exclusions of the siblings before it."""
    for level in levels:
        hit = level & undom
        if hit:
            v = (hit & -hit).bit_length() - 1
            break
    cands = []
    for u in sorted(
        _bits(closed[v] & ~excluded),
        key=lambda u: (-(closed[u] & undom).bit_count(), u),
    ):
        cands.append((u, excluded))
        excluded |= 1 << u
    return v, cands


def _covers(closed, width: str, undom: int, excluded: int) -> list[int]:
    """|N[u] & undom| for every u outside excluded, largest first.

    width is f"0{n}b".  Zeros are kept: they never change a bound."""
    allowed = format(excluded, width)[::-1].encode().translate(_OUTSIDE)
    return sorted(
        map(_bit_count, map(and_, compress(closed, allowed), repeat(undom))), reverse=True
    )


def _dominators_short(closed, width: str, undom: int, excluded: int, gap: int) -> bool:
    """Whether fewer than gap vertices outside excluded cannot dominate undom."""
    if gap <= 1:
        return True
    return sum(_covers(closed, width, undom, excluded)[: gap - 1]) < undom.bit_count()


def _roman_bound_reaches(closed, width: str, undom: int, excluded: int, gap: int) -> bool:
    """Whether phase 1's lower bound on the weight still to add is at least gap.

    The bound is the least of |undom| (label 1 everywhere) and, for each k,
    2k plus what the k best covers outside excluded leave of undom.  Only a
    k with 2k < gap can go below gap, and it does when the cover of the k
    best, less 2k, exceeds |undom| - gap.
    """
    slack = undom.bit_count() - gap
    if slack < 0:
        return False
    picks = (gap - 1) // 2
    if picks <= 0:
        return True
    best = _covers(closed, width, undom, excluded)[:picks]
    return max(map(sub, accumulate(best), range(2, 2 * picks + 1, 2)), default=0) <= slack


def _gains_short(closed, most, i: int, left: int, covered: int, target_cover: int) -> bool:
    """Whether left more picks from i on cannot cover target_cover vertices.

    most[i] is the largest closed neighborhood from i on; when left of those
    fall short, the scan of the actual gains is skipped."""
    have = covered.bit_count()
    if have + left * most[i] < target_cover:
        return True
    gains = sorted(
        map(_bit_count, map(and_, islice(closed, i, None), repeat(~covered))), reverse=True
    )
    return have + sum(gains[:left]) < target_cover


def _greedy_cover(g: Graph, deadline: _Deadline) -> list[int]:
    """Deterministic greedy dominating set, used as the initial incumbent.

    Each pick takes the vertex that dominates the most undominated vertices,
    lowest id on ties.  gains[u] holds that count for u and loses one for
    each newly dominated vertex in N[u]."""
    closed = g.closed_masks
    full = (1 << g.order) - 1
    gains = list(map(_bit_count, closed))
    dominated = 0
    chosen = []
    while dominated != full:
        deadline.tick(0)
        u = gains.index(max(gains))
        chosen.append(u)
        for w in _bits(closed[u] & ~dominated):
            for x in _bits(closed[w]):
                gains[x] -= 1
        dominated |= closed[u]
    return chosen


def _check_order(g: Graph) -> None:
    """Refuse an order above MAX_SOLVE_ORDER before any mask is built."""
    if g.order > MAX_SOLVE_ORDER:
        raise BudgetError(f"graph order {g.order} exceeds the solve budget of {MAX_SOLVE_ORDER}")


def gamma_exact(g: Graph, time_limit: Optional[float] = None) -> Certificate:
    """Exact domination number with a minimum dominating set witness."""
    _check_order(g)
    start = time.perf_counter()
    n = g.order
    closed = g.closed_masks
    full = (1 << n) - 1
    deadline = _Deadline(time_limit)
    levels = _degree_levels(g)
    width = f"0{n}b"

    greedy = _greedy_cover(g, deadline)
    best_size, best = len(greedy), None
    for u in greedy:
        best = (best, u)

    stack = [(0, None, 0, 0)]  # dominated, chosen, size, excluded
    while stack:
        dominated, chosen, size, excluded = stack.pop()
        deadline.tick()
        undom = full & ~dominated
        if not undom:
            if size < best_size:
                best_size, best = size, chosen
            continue
        if _dominators_short(closed, width, undom, excluded, best_size - size):
            continue
        # greedy 2-packing: undominated vertices with pairwise disjoint
        # candidate sets each need a chosen dominator of their own
        packed, claimed = 0, 0
        for w in _bits(undom):
            cand = closed[w] & ~excluded
            if not cand & claimed:
                packed += 1
                claimed |= cand
        if size + packed >= best_size:
            continue
        for u, ex in reversed(_branch(closed, levels, undom, excluded)[1]):
            stack.append((dominated | closed[u], (chosen, u), size + 1, ex))
    witness = frozenset(_picks(best))
    if not is_dominating_set(g, witness) or len(witness) != best_size:
        raise AssertionError("domination witness failed its certificate check")
    return Certificate("domination", best_size, witness, deadline.ticks, time.perf_counter() - start)


def _roman_value(g: Graph, deadline: _Deadline) -> tuple[int, int]:
    """Phase 1: the optimal weight, by branch and bound over 2-sets."""
    n = g.order
    closed = g.closed_masks
    full = (1 << n) - 1
    levels = _degree_levels(g)
    width = f"0{n}b"
    best = min(2 * len(_greedy_cover(g, deadline)), n)
    ticks = deadline.ticks

    stack = [(0, 0, 0, 0)]  # dominated, settled_ones, weight, excluded
    while stack:
        dominated, settled_ones, weight, excluded = stack.pop()
        deadline.tick()
        undom = full & ~(dominated | settled_ones)
        if not undom:
            if weight < best:
                best = weight
            continue
        if _roman_bound_reaches(closed, width, undom, excluded, best - weight):
            continue
        v, cands = _branch(closed, levels, undom, excluded)
        # settle v with label 1; a cheapest completion never puts a 2 next to it
        stack.append((dominated, settled_ones | (1 << v), weight + 1, excluded | closed[v]))
        for u, ex in reversed(cands):
            stack.append((dominated | closed[u], settled_ones, weight + 2, ex))
    return best, deadline.ticks - ticks


def _lex_min_two_set(
    g: Graph, k: int, target_cover: int, deadline: _Deadline
) -> tuple[Optional[list[int]], int]:
    """Lexicographically smallest k-subset covering at least target_cover."""
    n = g.order
    closed = g.closed_masks
    reach = [0] * (n + 1)  # reach[i]: all vertices some u >= i can cover
    most = [0] * (n + 1)  # most[i]: the largest |N[u]| over u >= i
    for u in range(n - 1, -1, -1):
        reach[u] = reach[u + 1] | closed[u]
        most[u] = max(most[u + 1], closed[u].bit_count())
    ticks = deadline.ticks
    stack = [(0, k, 0, None)]  # i, left, covered, picked
    while stack:
        i, left, covered, picked = stack.pop()
        deadline.tick()
        if left == 0:
            if covered.bit_count() >= target_cover:
                return sorted(_picks(picked)), deadline.ticks - ticks
            continue
        if n - i < left:
            continue
        # vertices no u >= i can reach must take label 1; more than allowed?
        if (covered | reach[i]).bit_count() < target_cover:
            continue
        if _gains_short(closed, most, i, left, covered, target_cover):
            continue
        stack.append((i + 1, left, covered, picked))
        stack.append((i + 1, left - 1, covered | closed[i], (picked, i)))
    return None, deadline.ticks - ticks


def gamma_r_exact(g: Graph, time_limit: Optional[float] = None) -> Certificate:
    """Exact Roman domination number with a canonical witness.

    The witness has minimum weight, then as many 2s as possible, then the
    lexicographically smallest 2-set; its 1s are exactly the vertices not
    covered by the 2s.
    """
    _check_order(g)
    start = time.perf_counter()
    deadline = _Deadline(time_limit)
    n = g.order
    value = _roman_value(g, deadline)[0]
    twos: Optional[list[int]] = None
    for k in range(value // 2, -1, -1):
        if value - 2 * k > n:
            break
        twos = _lex_min_two_set(g, k, n - (value - 2 * k), deadline)[0]
        if twos is not None:
            break
    if twos is None:
        raise AssertionError("no witness at the proven optimum")
    covered = 0
    for u in twos:
        covered |= g.closed_masks[u]
    f = RomanFunction.from_sets(n, ones=_bits(((1 << n) - 1) & ~covered), twos=twos)
    if not is_roman_dominating(f, g) or f.weight != value:
        raise AssertionError("Roman witness failed its certificate check")
    return Certificate("roman", value, f, deadline.ticks, time.perf_counter() - start)


def brute_force_gamma_r(g: Graph) -> Certificate:
    """Exhaustive check of every 2-set; same contract as gamma_r_exact.

    Kept simple on purpose as an independent reference; refuses orders
    above 22.
    """
    if g.order > 22:
        raise BudgetError(f"brute force capped at order 22, got {g.order}")
    start = time.perf_counter()
    n = g.order
    closed = g.closed_masks
    full = (1 << n) - 1
    size = 1 << n
    cover = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        cover[mask] = cover[mask ^ low] | closed[low.bit_length() - 1]
    best_key = None
    best_mask = 0
    for mask in range(size):
        w = 2 * mask.bit_count() + (full & ~cover[mask]).bit_count()
        key = (w, -mask.bit_count())
        if best_key is None or key < best_key:
            best_key, best_mask = key, mask
        elif key == best_key and sorted(_bits(mask)) < sorted(_bits(best_mask)):
            best_mask = mask
    f = RomanFunction.from_sets(n, ones=_bits(full & ~cover[best_mask]), twos=_bits(best_mask))
    return Certificate("roman", best_key[0], f, size, time.perf_counter() - start)

