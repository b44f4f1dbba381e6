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

Roman witnesses are canonicalized in a second phase: among minimum-weight
labelings, maximize the number of 2s (equivalently minimize the number
of 1s), then take the lexicographically smallest 2-set.  Searches are
sequential, deterministic explicit-stack loops, so their depth is not
bounded by the interpreter's recursion limit.  `Certificate.nodes`
counts the nodes of the search trees, as deadline ticks: each node
searched is one tick, a subtree that the witness phase replays (below)
adds in one call the ticks it took when it was first searched, and the
children that phase 1 drops at their parent (below) add one tick each
in one call.  The clock is read on every tick call, and once per pick of
the greedy that builds the first incumbent, so a time limit bounds the
whole solve.

The witness phase replays the subtrees that failed.  A node at index i,
with left picks to make and the vertices covered covered, can only pick
vertices u >= i, whose closed neighborhoods lie in reach[i] (everything
some u >= i can cover).  Whether it has a k-set below it, and how many
nodes its subtree holds, therefore depend only on the key (i, left,
covered & reach[i], need), need being the target less |covered|: its
tests read need and |reach[i]| - |covered & reach[i]|, the histogram
buckets hist[:top] that its bounds read count |N[u] - covered| for
u >= i (barred vertices sit at or above top), and both children's keys
follow from it, as masks[i] lies in reach[i].  States that differ only
in which finished vertices are covered share a key, and need carries
the target, so one table serves every k that `gamma_r_exact` tries.
The phase has no incumbent and returns at its first success, so every
subtree that closes has failed.  The table maps each closed subtree's
key to its tick count, and a node that finds its key there, after its
tests that need no counts, adds those ticks and is not expanded.  The
search tree, node counts, witnesses and CLI output are the same as
without the table.  The table stays within _FAILED_BYTES (8 MiB, about
30,000 entries at order 64) and is emptied when full; a depth-first
search soon meets again the keys near those it just closed.  Phase 1
and `gamma_exact` prune against an incumbent, so a subtree there
depends on more than its state, and they keep no table.

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

Bounds are evaluated as decisions.  Each prune asks one reader of the
cover-count histogram, _top_excess_within, whether the k best covers,
each less a floor (2 in phase 1, where each pick adds 2, else 0), sum to
at most a limit: then k picks fall short, and a bound reaches the gap to
the incumbent (or the cover still missing).  The reader stops as soon as
the answer is known.  A change to how a bound is evaluated
may make a node cheaper but must never alter a prune: node counts,
witnesses and CLI output are pinned to the search trees.  Phase 1 also
decides each child at its parent, on counts that bound the child's own
(the parent's, less the vertices the child bars and takes) and the gap
the child would have then.  The incumbent only falls until the child is
popped, so a child whose bound reaches that gap, or a leaf that would not
improve the incumbent, is dropped at its pop too; it is never pushed and
counts as one node, in a bulk tick.  The tree is the one that pushing
every child gives.

Every node carries cover counts: |N[u] & undom| for each vertex u it
may still pick (in the witness phase, the vertices still uncovered
stand for undom), plus a histogram of those counts.  A child copies its
parent's two lists at C level and updates only the closed neighborhoods
of what it changes: the vertices it newly dominates, settles or bars.
A phase-1 child that its parent drops copies nothing.  Its cost follows
those neighborhoods, not the order of the graph.  A count is at most the
largest closed neighborhood, so the reader walks the histogram from the
top in O(Δ) steps.  A node makes its counts from its parent's only once
the tests that need none (a leaf, the weight, the witness phase's reach
and size tests) have kept it.

A solve builds each closed neighborhood once, in one pass over the
edges, as a bitmask and as a list of ascending ids, and shares them with
both phases and every k of the witness phase.  The certificate checks
read the edges afresh.  The masks take at least n**2/16 bytes, so both
searches refuse an order above MAX_SOLVE_ORDER before building them.

Certificate.to_json writes a Roman witness's label list from its bytes
(roman.dumps), byte for byte what json.dumps(sort_keys=True) writes.
"""

from __future__ import annotations

import math
import time
from bisect import insort
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Optional, Union

from .errors import BudgetError, SolveTimeout
from .graphs import Graph
from .roman import LABELS, RomanFunction, dumps, is_dominating_set, is_roman_dominating

# every closed mask holds its own vertex's bit, so the masks of order n take at least
# n**2/16 bytes: 256 MiB at this order
MAX_SOLVE_ORDER = 65_536

# the witness search's table of failed subtrees stays within _FAILED_BYTES; an entry
# (a key tuple of four ints, one a mask of up to n bits, a tick count and its dict
# slot) takes at most _FAILED_ENTRY_BYTES plus n/7 for the mask, an int storing 30
# bits in 4 bytes (tracemalloc read at most 252 bytes past n/7 for n = 16-16,384,
# just after a dict resize)
_FAILED_BYTES = 8 << 20
_FAILED_ENTRY_BYTES = 264


@dataclass(frozen=True)
class Certificate:
    """An exact value plus the witness and search statistics behind it."""

    kind: str  # "domination" or "roman"
    value: int
    witness: Union[frozenset[int], RomanFunction]
    nodes: int
    elapsed: float

    def to_json(self, graph: Graph) -> str:
        doc: dict = {"kind": self.kind, "value": self.value, "nodes": self.nodes}
        doc["graph"] = {"name": graph.name, "sha256": graph.digest()}
        if self.kind == "domination":
            doc["witness"] = sorted(self.witness)
            return dumps(doc)
        doc["witness"] = LABELS
        return dumps(doc, self.witness.packed, "witness")


class _Deadline:
    __slots__ = ("at", "ticks")

    def __init__(self, time_limit: Optional[float]):
        if time_limit is not None and math.isnan(time_limit):  # no clock reading exceeds NaN
            raise ValueError("time limit must be a number of seconds, not NaN")
        self.at = None if time_limit is None else time.perf_counter() + time_limit
        self.ticks = 0

    def tick(self, nodes: int = 1):
        """Count search nodes and read the clock: 0 nodes for work outside the
        search, 1 per node popped, and more in one call for the nodes of a
        replayed subtree or for the children phase 1 drops at their parent."""
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


class _Closed:
    """A graph's closed neighborhoods, built once per solve and read by every search.

    masks and ids hold N[v] as a bitmask and as a list of ascending ids, the
    order in which _branch breaks ties.  counts and hist are the root's cover
    counts |N[v]| and their histogram (see _descend), top is one more than the
    largest count, and levels holds one mask per vertex degree, highest first."""

    __slots__ = ("masks", "ids", "top", "counts", "hist", "levels")

    def __init__(self, g: Graph):
        n = g.order
        self.masks = masks = [1 << v for v in range(n)]
        self.ids = ids = [[] for _ in range(n)]
        # the edges ascend, so ids[v] receives its smaller neighbors u, from the edges
        # (u, v) in order of u, before the edges (v, w) add its larger ones in order of w
        for u, v in g.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            ids[u].append(v)
            ids[v].append(u)
        for v, nb in enumerate(ids):
            insort(nb, v)  # nb ascends, so v goes in at its place
        self.counts = sizes = list(map(len, ids))
        self.top = top = max(sizes) + 1
        level = [0] * top  # level[c]: the vertices of count c
        for v, c in enumerate(sizes):
            level[c] |= 1 << v
        self.hist = [m.bit_count() for m in level] + [0] * top
        self.levels = [m for m in reversed(level) if m]


def _descend(nb, top: int, counts: list[int], hist: list[int], undom: int, taken, barred):
    """The counts and histogram of a child node, from its parent's.

    counts[u] is |N[u] & undom| for every u the node may still pick, and
    hist[c] how many vertices have count c.  A barred vertex keeps its count
    plus top, so it leaves hist[:top], the only buckets the bounds read, and
    no later decrement brings it back below top, as a vertex loses at most
    its count.  The child bars the vertices in barred, then takes the vertex
    taken (None for none): each vertex of N[taken] & undom, undom being the
    parent's, leaves the closed neighborhood of every vertex next to it.
    Both lists are copied, so the parent's stay as they were."""
    counts = counts[:]
    hist = hist[:]
    for x in barred:
        c = counts[x]
        if c < top:
            counts[x] = c + top
            hist[c] -= 1
            hist[c + top] += 1
    if taken is not None:
        for w in nb[taken]:
            if undom >> w & 1:
                for x in nb[w]:
                    c = counts[x]
                    counts[x] = c - 1
                    hist[c] -= 1
                    hist[c - 1] += 1
    return counts, hist


def _branch(levels, nb, counts: list[int], top: int, undom: int) -> tuple[int, list[int]]:
    """The max-degree undominated v (lowest id on ties) and the unbarred
    vertices of N[v], best cover first (lowest id on ties)."""
    for level in levels:
        hit = level & undom
        if hit:
            v = (hit & -hit).bit_length() - 1
            break
    # N[v] ascends, and a reversed sort keeps equal keys in their order
    cands = [u for u in nb[v] if counts[u] < top]
    return v, sorted(cands, key=counts.__getitem__, reverse=True)


def _top_excess_within(hist: list[int], top: int, k: int, floor: int, limit: int) -> bool:
    """Whether the k largest counts in hist[:top] above floor, each less floor,
    sum to at most limit: every bound of the searches reads the histogram here."""
    for c in range(top - 1, floor, -1):
        h = hist[c]
        if h >= k:
            return k * (c - floor) <= limit
        limit -= h * (c - floor)
        if limit < 0:
            return False
        k -= h
    return True


def _roman_bound_reaches(hist: list[int], top: int, ucount: int, gap: int) -> bool:
    """Whether phase 1's lower bound on the weight still to add is at least gap.

    The bound is the least of ucount = |undom| (label 1 everywhere) and, for
    each k, 2k plus what the k best covers leave of undom.  Only a k with
    2k < gap can go below gap, and it does when the cover of the k best,
    less 2k, exceeds ucount - gap.  Over k <= (gap - 1) // 2 that excess is
    largest at the sum of c - 2 over the top covers above 2; with gap <= 2
    no k is left, and the bound is min(2, ucount).
    """
    return ucount >= gap and _top_excess_within(hist, top, (gap - 1) // 2, 2, ucount - gap)


def _roman_cuts(
    counts: list[int], hist: list[int], top: int, cands: list[int], ucount: int, gap: int
) -> tuple[bool, int]:
    """Which children of an expanded phase-1 node (counts, hist, ucount, gap)
    are dropped at the node itself: whether its settle child is, and how many
    take children, a prefix of cands, it keeps.  hist is left as it was.

    A child's counts are at most the node's, less the vertices it bars and
    takes.  With cands out of hist, hist bounds the settle child's counts (it
    bars them all); putting cands[j + 1:] back bounds take child j's (it bars
    cands[:j], and cands[j] covers nothing more).  A child whose bound
    reaches its gap on these counts (for a leaf: whose weight does not
    improve the incumbent) is dropped at its pop too, as the incumbent only
    falls until then.  Along cands the counts fall, so ucount less the cover
    rises and hist shrinks: the take children dropped form a suffix."""
    for u in cands:
        hist[counts[u]] -= 1
    settle_cut = _roman_bound_reaches(hist, top, ucount - 1, gap - 1)
    keep, gap = len(cands), gap - 2  # every take child adds 2
    while keep:
        u = cands[keep - 1]
        if not _roman_bound_reaches(hist, top, ucount - counts[u], gap):
            break
        keep -= 1
        hist[counts[u]] += 1
    for j in range(keep):
        hist[counts[cands[j]]] += 1
    return settle_cut, keep


def _greedy_cover(nb, deadline: _Deadline) -> list[int]:
    """Deterministic greedy dominating set, used as the initial incumbent.

    Each pick takes the vertex that dominates the most undominated vertices,
    lowest id on ties.  gains[u] holds that count for u and loses one for
    each newly dominated vertex in N[u]."""
    gains = list(map(len, nb))
    undominated = bytearray(b"\x01") * len(nb)
    left = len(nb)
    chosen = []
    while left:
        deadline.tick(0)
        u = gains.index(max(gains))
        chosen.append(u)
        for w in nb[u]:
            if undominated[w]:
                undominated[w] = 0
                left -= 1
                for x in nb[w]:
                    gains[x] -= 1
    return chosen


def check_solve_order(n: int) -> None:
    """Refuse an order above MAX_SOLVE_ORDER before any mask is built."""
    if n > MAX_SOLVE_ORDER:
        raise BudgetError(f"graph order {n} exceeds the solve budget of {MAX_SOLVE_ORDER}")


def gamma_exact(g: Graph, time_limit: Optional[float] = None) -> Certificate:
    """Exact domination number with a minimum dominating set witness.

    The witness is the greedy cover when that cover is optimal, and
    otherwise the first optimum the search reaches.  It is deterministic,
    but unlike gamma_r_exact's it follows no canonical order.
    """
    check_solve_order(g.order)
    start = time.perf_counter()
    closed = _Closed(g)
    masks, nb, top, levels = closed.masks, closed.ids, closed.top, closed.levels
    full = (1 << g.order) - 1
    deadline = _Deadline(time_limit)

    greedy = _greedy_cover(nb, deadline)
    best_size, best = len(greedy), None
    for u in greedy:
        best = (best, u)

    # undom, chosen, size, excluded, then what the node derives its counts from:
    # the parent's counts, hist and undom, and the vertices it bars; it takes
    # the last vertex chosen
    stack = [(full, None, 0, 0, closed.counts, closed.hist, full, ())]
    while stack:
        undom, chosen, size, excluded, counts, hist, before, barred = stack.pop()
        deadline.tick()
        if not undom:
            if size < best_size:
                best_size, best = size, chosen
            continue
        gap = best_size - size
        taken = None if chosen is None else chosen[1]
        counts, hist = _descend(nb, top, counts, hist, before, taken, barred)
        # fewer than gap picks cannot dominate undom
        if _top_excess_within(hist, top, gap - 1, 0, undom.bit_count() - 1):
            continue
        # greedy 2-packing: undominated vertices with pairwise disjoint
        # candidate sets each need a chosen dominator of their own
        packed, claimed = 0, 0
        for w in _bits(undom):
            cand = masks[w] & ~excluded
            if not cand & claimed:
                packed += 1
                if packed >= gap:
                    break
                claimed |= cand
        if packed >= gap:
            continue
        cands = _branch(levels, nb, counts, top, undom)[1]
        children = []
        for j, u in enumerate(cands):
            child = (undom & ~masks[u], (chosen, u), size + 1, excluded)
            children.append((*child, counts, hist, undom, cands[:j]))
            excluded |= 1 << u
        stack.extend(reversed(children))
    witness = frozenset(_picks(best))
    if not is_dominating_set(g, witness) or len(witness) != best_size:
        raise AssertionError("domination witness failed its certificate check")
    return Certificate("domination", best_size, witness, deadline.ticks, time.perf_counter() - start)


def _roman_value(deadline: _Deadline, closed: _Closed) -> tuple[int, int]:
    """Phase 1: the optimal weight, by branch and bound over 2-sets."""
    masks, nb, top, levels = closed.masks, closed.ids, closed.top, closed.levels
    n = len(masks)
    best = min(2 * len(_greedy_cover(nb, deadline)), n)
    ticks = deadline.ticks

    full = (1 << n) - 1
    # undom and weight, then what the node derives its counts from: the parent's
    # counts, hist and undom, the vertex it takes and the vertices it bars
    stack = [(full, 0, closed.counts, closed.hist, full, None, ())]
    while stack:
        undom, weight, counts, hist, before, taken, barred = stack.pop()
        deadline.tick()
        if not undom:
            if weight < best:
                best = weight
            continue
        gap = best - weight
        ucount = undom.bit_count()
        # with gap <= 2 the bound is min(2, ucount), known without making the counts
        if gap <= 2 and ucount >= gap:
            continue
        counts, hist = _descend(nb, top, counts, hist, before, taken, barred)
        if _roman_bound_reaches(hist, top, ucount, gap):
            continue
        v, cands = _branch(levels, nb, counts, top, undom)
        settle_cut, keep = _roman_cuts(counts, hist, top, cands, ucount, gap)
        if not settle_cut:
            # settle v with label 1; a cheapest completion never puts a 2 next to it
            stack.append((undom & ~(1 << v), weight + 1, counts, hist, undom, None, nb[v]))
        for j in range(keep - 1, -1, -1):
            u = cands[j]
            stack.append((undom & ~masks[u], weight + 2, counts, hist, undom, u, cands[:j]))
        cut = settle_cut + len(cands) - keep
        if cut:
            deadline.tick(cut)  # one node per child cut, as if each were popped
    return best, deadline.ticks - ticks


def _lex_min_two_set(
    k: int,
    target_cover: int,
    deadline: _Deadline,
    closed: _Closed,
    failed: dict[tuple[int, int, int, int], int],
) -> tuple[Optional[list[int]], int]:
    """Lexicographically smallest k-subset covering at least target_cover.

    A node at index i bars every u < i, and its counts are relative to the
    vertices still uncovered.  It reads covered only through covered &
    reach[i] and need = target_cover - |covered|: its tests and bounds read
    need and the counts |N[u] - covered| of the vertices u >= i, whose N[u]
    lie in reach[i], and masks[i] lies in reach[i] too, so both children's
    states follow from that pair.  failed maps the key (i, left, covered &
    reach[i], need) of each subtree that closed with no k-set to the ticks
    it took, written by a close frame (counts None) pushed under the node's
    two children.  need carries the target, so one table serves every call
    on the same closed neighborhoods; it holds at most room entries and is
    emptied when full."""
    masks, nb, top = closed.masks, closed.ids, closed.top
    n = len(masks)
    # reach[i]: all vertices some u >= i can cover; most[i]: the largest |N[u]| over u >= i
    reach = list(accumulate(reversed(masks), or_, initial=0))[::-1]
    most = list(accumulate(map(len, reversed(nb)), max, initial=0))[::-1]
    ticks = deadline.ticks
    room = _FAILED_BYTES // (_FAILED_ENTRY_BYTES + n // 7)
    # i, left, covered, picked, then the counts, hist and covered of node i - 1:
    # most nodes are dropped before they read a count, so each makes its own only then
    stack = [(0, k, 0, None, closed.counts, closed.hist, 0)]
    while stack:
        i, left, covered, picked, counts, hist, before = stack.pop()
        if counts is None:  # a close frame: i is the failed subtree's key, picked its first tick
            if len(failed) >= room:
                failed.clear()
            failed[i] = deadline.ticks - picked
            continue
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
        need = target_cover - covered.bit_count()
        # left picks of the largest closed neighborhood from i on fall short
        if left * most[i] < need:
            continue
        key = (i, left, covered & reach[i], need)
        seen = failed.get(key)
        if seen is not None:  # searched before with no k-set: add the ticks it took then
            deadline.tick(seen - 1)
            continue
        if i:  # bar i - 1, and take it if it covered anything
            taken = i - 1 if covered != before else None
            counts, hist = _descend(nb, top, counts, hist, ~before, taken, (i - 1,))
        if _top_excess_within(hist, top, left, 0, need - 1):
            continue
        stack.append((key, None, None, deadline.ticks - 1, None, None, None))
        stack.append((i + 1, left, covered, picked, counts, hist, covered))
        stack.append((i + 1, left - 1, covered | masks[i], (picked, i), counts, hist, covered))
    return None, deadline.ticks - ticks


def gamma_r_exact(g: Graph, time_limit: Optional[float] = None) -> Certificate:
    """Exact Roman domination number with a canonical witness.

    The witness has minimum weight, then as many 2s as possible, then the
    lexicographically smallest 2-set; its 1s are exactly the vertices not
    covered by the 2s.
    """
    check_solve_order(g.order)
    start = time.perf_counter()
    deadline = _Deadline(time_limit)
    n = g.order
    closed = _Closed(g)
    value = _roman_value(deadline, closed)[0]
    twos: Optional[list[int]] = None
    failed: dict[tuple[int, int, int, int], int] = {}  # one table for every k
    for k in range(value // 2, -1, -1):
        twos = _lex_min_two_set(k, n - (value - 2 * k), deadline, closed, failed)[0]
        if twos is not None:
            break
    if twos is None:
        raise AssertionError("no witness at the proven optimum")
    covered = 0
    for u in twos:
        covered |= closed.masks[u]
    f = RomanFunction.from_sets(n, ones=_bits(((1 << n) - 1) & ~covered), twos=twos)
    if not is_roman_dominating(f, g) or f.weight != value:
        raise AssertionError("Roman witness failed its certificate check")
    return Certificate("roman", value, f, deadline.ticks, time.perf_counter() - start)


def brute_force_gamma_r(g: Graph) -> Certificate:
    """Exhaustive check of every 2-set; same contract as gamma_r_exact.

    Kept simple on purpose as an independent reference: it makes its
    closed-neighborhood masks from g.neighbors and reads none of the
    searches' data.  Refuses orders above 22.
    """
    if g.order > 22:
        raise BudgetError(f"brute force capped at order 22, got {g.order}")
    start = time.perf_counter()
    n = g.order
    closed = [sum((1 << u for u in g.neighbors(v)), 1 << v) for v in range(n)]
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

