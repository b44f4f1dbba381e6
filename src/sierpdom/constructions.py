"""Explicit Roman dominating functions on S(G, t) and the product bound.

Every construction fills a table of labels by trailing letters and
leaves through _certified, which repeats the table under every prefix,
validates the result on the built S(G, t) and reports its weight next to
the predicted one; the report keeps that S(G, t), so nothing downstream
builds it again.  Its to_json writes the label list from the labels'
bytes (roman.dumps), byte for byte what json.dumps(sort_keys=True)
writes.  Validation and the one perfect-code check
(_is_perfect_code) read SierpinskiGraph.cover, so no construction makes
its Graph; only construct --dot and the word-keyed report's digest read
it.  A weight off the prediction is a program fault and raises
AssertionError; a labeling that does not dominate is reported with valid
false.  The general-base construction lifts an optimal base
labeling onto the two-letter words and sheds weight there in four
rewrite steps, and shares with the product bound one check that the
linked 1s form a matching (_linked_pairs); the path and cycle
constructions place labels by two-letter patterns, the complete-base
one labels whole words.

Both labelings of S(K_n, t) come off one letter rule.  The words under
one prefix form a block in state E (every extreme vertex in the code),
O(x) (extreme x in the code), D(x) (extreme x dominated from outside the
block) or F (every extreme dominated from outside).  Letter a moves E to
O(a), O(x) to E if a = x else D(x), D(x) to F if a = x else O(x), and F
to D(a).  The 1-perfect code starts in E at even depth and in O(0) at
odd depth, and is the words ending in E: the even-depth code is unique
and at odd depth there is one per extreme vertex (Klavzar, Milutinovic
and Petr, Bull. Austral. Math. Soc. 66, 2002).  The complete-base Roman
labeling starts in O(0) at every depth: at odd depth 2 goes on the words
ending in E (the code through 0..0), at even depth on the words ending in
F, and 1 on the word 0..0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Optional

from .errors import ContractError
from .formulas import (
    gamma_knt,
    gamma_r_knt_upper,
    gamma_r_sierpinski_cycle,
    gamma_r_sierpinski_path,
)
from .generators import complete_graph, cycle_graph, path_graph
from .graphs import Graph
from .roman import DerivedSets, RomanFunction, derived_sets, dumps, is_roman_dominating, label_mask
from .sierpinski import (
    SierpinskiGraph,
    build,
    check_budget,
    extreme_vertices,
    id_of,
    suffix_labels,
)
from .solver import Certificate, gamma_exact, gamma_r_exact


@dataclass(frozen=True)
class ConstructionReport:
    """Outcome of one construction: the labeling, the S(G, t) it was
    validated on, and what it certifies."""

    function: RomanFunction
    predicted_weight: int
    valid: bool
    sierpinski: SierpinskiGraph = field(compare=False, repr=False)
    steps_applied: tuple[str, ...] = ()
    step_weights: tuple[tuple[str, int], ...] = ()
    lower_bound: Optional[int] = None
    notes: tuple[str, ...] = ()

    @property
    def actual_weight(self) -> int:
        return self.function.weight

    def to_json(self, words: bool = False) -> str:
        """The report as JSON; words keys the labels by the words of S(G, t)."""
        doc: dict = {
            "predicted_weight": self.predicted_weight,
            "actual_weight": self.actual_weight,
            "valid": self.valid,
            "steps_applied": list(self.steps_applied),
            "step_weights": [list(p) for p in self.step_weights],
            "notes": list(self.notes),
        }
        if self.lower_bound is not None:
            doc["lower_bound"] = self.lower_bound
        doc["function"] = self.function.to_dict(self.sierpinski if words else None)
        return dumps(doc, None if words else self.function.packed)


def lift_base_function(f: RomanFunction, base: Graph, t: int) -> RomanFunction:
    """Copy a base labeling onto every copy: g(w + (x,)) = f(x), t >= 2."""
    if t < 2:
        raise ValueError("lift needs depth at least 2")
    if not is_roman_dominating(f, base):
        raise ContractError("base labeling is not Roman dominating")
    return RomanFunction(suffix_labels(f.labels, base.order, t))


def bound_value(f: RomanFunction, base: Graph, t: int) -> int:
    """The product upper bound read off one base labeling.

    n**(t-2) * (n*w(f) - |twos| - |linked positive| - remote ones
    + matched pairs of linked 1s); the linked 1s must form a matching
    (ContractError otherwise).
    """
    if t < 2:
        raise ValueError("bound needs depth at least 2")
    ds = derived_sets(f, base)
    pairs = len(_linked_pairs(ds, base))
    return _product_bound(f, ds, base.order, t, pairs, ds.remote_one_count)


def _linked_pairs(ds: DerivedSets, base: Graph) -> list[tuple[int, int]]:
    """The base edges that join linked 1s, which must match them up in pairs.

    Every linked 1 has a linked neighbor, so the linked 1s form a perfect
    matching exactly when these edges number half of them.
    """
    linked = ds.linked_ones
    pairs = [(a, b) for a, b in base.edges if a in linked and b in linked]
    if 2 * len(pairs) != len(linked):
        raise ContractError("linked 1s do not form a matching; labeling cannot be minimal")
    return pairs


def _product_bound(f: RomanFunction, ds: DerivedSets, n: int, t: int, pairs: int, remote: int) -> int:
    return n ** (t - 2) * (n * f.weight - len(f.twos) - len(ds.linked_positive) - remote + pairs)


def theorem_upper_bound_construction(
    f: RomanFunction,
    base: Graph,
    t: int,
    certificate: Certificate,
    max_vertices: Optional[int] = None,
) -> ConstructionReport:
    """Lift an optimal base labeling and shed weight in four rewrite steps.

    Step 1 drops each lifted 2 whose word ends in a doubled 2-vertex to
    a 1; step 2 zeroes those whose 2-vertex has a 2-neighbor; step 3
    rewrites the three trailing-pair patterns of each matched pair of
    adjacent 1s; step 4 retires lifted 1s that sit two steps from a
    junction 2, provided the pattern families line up exactly (checked;
    skipped with a note otherwise, weakening the bound by the remote-1
    count).  The steps rewrite words by their last two letters, so they
    work on the n**2 labels of S(G, 2): each intermediate labeling is
    validated there and weighed times n**(t-2); the final one is
    validated on S(G, t) and must weigh exactly the product bound.
    """
    if t < 2:
        raise ValueError("construction needs depth at least 2")
    if certificate.kind != "roman" or certificate.value != f.weight:
        best = f"optimal {certificate.kind} value is {certificate.value}"
        raise ContractError(f"labeling has weight {f.weight}, but the certified {best}")
    n = base.order
    s = build(base, t, max_vertices)  # checks the vertex budget first
    # under each prefix the level-1 and level-2 edges of S(G, t) are those of S(G, 2), and
    # extra edges keep a labeling Roman dominating: valid on S(G, 2) is valid under each prefix
    block = s if t == 2 else build(base, 2)
    table = list(lift_base_function(f, base, 2).labels)
    scale = n ** (t - 2)
    ds = derived_sets(f, base)
    notes: list[str] = []
    steps: list[str] = []
    weights: list[tuple[str, int]] = [("lift", scale * sum(table))]

    def put(pairs, x: int):
        for pair in pairs:
            table[id_of(pair, n)] = x

    def commit(name: str, changed: bool):
        w = scale * sum(table)
        if not is_roman_dominating(RomanFunction(tuple(table)), block):
            raise AssertionError(f"intermediate labeling after {name} lost validity")
        if w > weights[-1][1]:
            raise AssertionError(f"step {name} increased the weight")
        weights.append((name, w))
        if changed:
            steps.append(name)

    put(((u, u) for u in f.twos), 1)
    commit("step1", bool(f.twos))

    put(((v, v) for v in ds.linked_twos), 0)
    commit("step2", bool(ds.linked_twos))

    matched = _linked_pairs(ds, base)
    put([p for a, b in matched for p in ((a, a), (b, a))], 0)
    put(matched, 2)
    commit("step3", bool(matched))

    applied = False
    if ds.junction_twos:
        lone = f.ones - ds.linked_ones
        plan = []  # per junction: three pairs zeroed, one set to 1, one set to 2
        for w2 in sorted(ds.junction_twos):
            partners = [u for u in sorted(lone) if base.at_distance_two(w2, u)]
            if len(partners) != 1:
                notes.append(f"step4-skipped: junction {w2} has {len(partners)} partners")
                break
            w1 = partners[0]
            mids = sorted(u for u in base.neighbors(w2) if u in f.zeros)
            routes = [m for m in mids if base.adjacent(m, w1)]
            if not routes:
                notes.append(f"step4-skipped: junction {w2} has no two-step route")
                break
            w0 = routes[0]
            v0 = [m for m in mids if m != w0][0]
            plan.append(((w0, w1), (w1, w1), (w1, w2), (w1, v0), (w1, w0)))
        else:
            families = [set(x) for x in zip(*plan)]
            m = len(plan)
            sizes = [len(fam) for fam in families]
            disjoint = sum(sizes) == len(set().union(*families))
            if sizes == [m, ds.remote_one_count, m, m, m] and disjoint:
                put(set().union(*families[:3]), 0)
                put(families[3], 1)
                put(families[4], 2)
                applied = True
            else:
                notes.append("step4-skipped: pattern families overlap or miscount")
    commit("step4", applied)

    predicted = _product_bound(f, ds, n, t, len(matched), ds.remote_one_count if applied else 0)
    return _certified(s, table, predicted, steps, step_weights=tuple(weights), notes=tuple(notes))


def roman_graph_bound(g: Graph, t: int, max_vertices: Optional[int] = None) -> ConstructionReport:
    """Product bound specialized to bases whose Roman number is twice gamma.

    Uses the all-2s-on-a-minimum-dominating-set labeling; the bound
    simplifies to gamma(G) * n**(t-2) * (2n - 1) when the 2s are
    pairwise nonadjacent.
    """
    dom = gamma_exact(g)
    cert = gamma_r_exact(g)
    if cert.value != 2 * dom.value:
        raise ContractError("base graph's Roman number is not twice its domination number")
    f = RomanFunction.from_sets(g.order, twos=dom.witness)
    return theorem_upper_bound_construction(f, g, t, cert, max_vertices)


def _certified(s: SierpinskiGraph, table, predicted: int, steps, **fields) -> ConstructionReport:
    """The report on table (labels by trailing letters) repeated under every prefix of s.

    The labeling must weigh exactly predicted; it is validated once, on s.
    """
    out = RomanFunction(suffix_labels(table, s.base.order, s.depth))
    if out.weight != predicted:
        raise AssertionError(f"construction weight {out.weight}, predicted {predicted}")
    return ConstructionReport(
        function=out,
        predicted_weight=predicted,
        valid=is_roman_dominating(out, s),
        sierpinski=s,
        steps_applied=tuple(steps),
        **fields,
    )


def _is_perfect_code(labels, s: SierpinskiGraph) -> bool:
    """Whether every closed neighborhood of s holds exactly one 2."""
    once, twice = s.cover(label_mask(labels, 2))
    return twice == 0 and once == (1 << s.order) - 1


def _pair_table(n: int, twos, ones) -> list[int]:
    """Labels of the two-letter words: 2 on the pairs in twos, 1 on those in ones."""
    table = [0] * (n * n)
    for pair in twos:
        table[id_of(pair, n)] = 2
    for pair in ones:
        table[id_of(pair, n)] = 1
    return table


def path_construction(n: int, t: int, max_vertices: Optional[int] = None) -> ConstructionReport:
    """Pattern labeling of S(P_n, t) for n = 3k + 2.

    Within every pair of trailing letters (first letter chosen per
    prefix), 2s go on three pattern families and 1s on three thinner
    ones; per prefix the weight is gamma_R(S(P_n, 2)) = 6k^2 + 8k + 3
    (checked), so the labeling weighs n**(t-2) times that: optimal at
    t = 2, an upper bound above.
    """
    if t < 2:
        raise ValueError("construction needs depth at least 2")
    if n < 5 or n % 3 != 2:
        raise ValueError("path construction needs order 3k + 2 with k >= 1")
    check_budget(n, t, max_vertices)  # before the patterns, which take n**2 steps
    k = (n - 2) // 3
    anchors = [x for x in range(n - 1) if x % 3 == 1]
    twos = set()
    for sx in anchors:
        for i in range(sx + 2, n):
            twos.add((i, sx))
    twos.update({(0, n - 2), (n - 1, n - 2)})
    for i in range(0, n - 2):
        for kk in range(k):
            j = i + 1 + 3 * kk
            if j <= n - 1:
                twos.add((i, j))
    ones = {(i, n - 1) for i in anchors}
    ones.update({(sx + 1, sx - 1) for sx in anchors})
    ones.add((n - 2, n - 2))
    if twos & ones:
        raise AssertionError("pattern families for 2s and 1s overlap")
    per_prefix = 2 * len(twos) + len(ones)
    expect = gamma_r_sierpinski_path(n, 2)
    if per_prefix != expect:
        raise AssertionError(f"per-prefix weight {per_prefix}, expected {expect}")
    s = build(path_graph(n), t, max_vertices)
    return _certified(s, _pair_table(n, twos, ones), n ** (t - 2) * per_prefix, ("pattern-blocks",))


def cycle_construction(n: int, t: int, max_vertices: Optional[int] = None) -> ConstructionReport:
    """Labelings of S(C_n, t) by cycle residue.

    n = 3k + 1: 2s on the trailing pairs (i, i + 1 + 3k'), a perfect code
    (checked: one 2 in every closed neighborhood).
    n = 3k + 2: 2s on the same family plus 1s on pairs (i, i - 2).
    n = 3k: no bespoke pattern is known; falls back to the product bound
    from an optimal base labeling and reports the known bracket.
    """
    if t < 2:
        raise ValueError("construction needs depth at least 2")
    if n < 4:
        raise ValueError("cycle construction needs order at least 4")
    check_budget(n, t, max_vertices)
    base = cycle_graph(n)
    bracket = gamma_r_sierpinski_cycle(n, t)
    if n % 3 == 0:
        cert = gamma_r_exact(base)
        rep = theorem_upper_bound_construction(cert.witness, base, t, cert, max_vertices)
        if rep.actual_weight != bracket.upper:
            raise AssertionError("fallback construction missed the bracket's upper end")
        return replace(
            rep,
            predicted_weight=bracket.upper,
            lower_bound=bracket.lower,
            notes=rep.notes + ("exact value open for this residue",),
        )
    k = n // 3
    s = build(base, t, max_vertices)
    pair_twos = {(i, (i + 1 + 3 * kk) % n) for i in range(n) for kk in range(k)}
    pair_ones: set[tuple[int, int]] = set()
    steps = ("packing-blocks",)
    if n % 3 == 2:
        pair_ones = {(i, (i - 2) % n) for i in range(n)}
        if pair_ones & pair_twos:
            raise AssertionError("1-pattern collides with the 2-pattern")
        steps = ("packing-blocks", "shift-ones")
    rep = _certified(s, _pair_table(n, pair_twos, pair_ones), bracket.exact, steps)
    if n % 3 == 1 and not _is_perfect_code(rep.function.packed, s):
        raise AssertionError("2-set is not a perfect code")
    return rep


def _rule_labels(n: int, t: int, start: int, accept: int) -> list[int]:
    """2 on the words of S(K_n, t) whose run from state start ends in state accept, 0 elsewhere.

    States are numbered 0 for E, 1 for F, 2 + x for O(x) and 2 + n + x
    for D(x).  The states of the words of length t - 1 are expanded a
    level at a time; the last letter then reads its label off one row
    of n labels per state.
    """
    moves = [[2 + a for a in range(n)], [2 + n + a for a in range(n)]]
    moves += [[0 if a == x else 2 + n + x for a in range(n)] for x in range(n)]
    moves += [[1 if a == x else 2 + x for a in range(n)] for x in range(n)]
    states = [start]
    for _ in range(t - 1):
        states = list(chain.from_iterable(map(moves.__getitem__, states)))
    rows = [[2 if state == accept else 0 for state in row] for row in moves]
    return list(chain.from_iterable(map(rows.__getitem__, states)))


def perfect_code_knt(n: int, t: int, max_vertices: Optional[int] = None) -> frozenset[int]:
    """The 1-perfect code of S(K_n, t) through every extreme vertex at even
    depth, through 0..0 alone at odd depth, read off the letter rule of
    the module docstring and certified on the built S(K_n, t): one code
    word in every closed neighborhood, the domination formula's size, and
    those extreme vertices.
    """
    if n < 2 or t < 1:
        raise ValueError("need n >= 2 and t >= 1")
    check_budget(n, t, max_vertices)  # before K_n, which has n**2/2 edges
    s = build(complete_graph(n), t, max_vertices)
    labels = _rule_labels(n, t, 2 if t % 2 else 0, 0)  # from O(0) at odd depth, E at even
    if not _is_perfect_code(labels, s):
        raise AssertionError(f"letter-rule code of S(K{n},{t}) is not a perfect code")
    code = frozenset(v for v, x in enumerate(labels) if x)
    if len(code) != gamma_knt(n, t):
        raise AssertionError("perfect code size disagrees with the domination formula")
    ext = extreme_vertices(s)
    if tuple(v for v in ext if v in code) != (ext if t % 2 == 0 else ext[:1]):
        raise AssertionError("code must hold every extreme vertex at even depth, only 0..0 at odd")
    return code


def complete_graph_construction(n: int, t: int, max_vertices: Optional[int] = None) -> ConstructionReport:
    """Labeling of S(K_n, t) meeting the complete-base upper bound, read off the
    letter rule of the module docstring and certified on the S(K_n, t) it builds.

    The step names, code-doubling at odd depth and depth-2-base,
    double-to-4, ..., double-to-t at even depth, record the doubling proof
    that the labeling follows; the labels come off the rule in one pass.
    """
    if n < 2 or t < 1:
        raise ValueError("need n >= 2 and t >= 1")
    check_budget(n, t, max_vertices)  # before K_n, which has n**2/2 edges
    s = build(complete_graph(n), t, max_vertices)
    if t % 2:
        labels = _rule_labels(n, t, 2, 0)  # from O(0), 2 on the words ending in E
        steps = ("code-doubling",)
    else:
        labels = _rule_labels(n, t, 2, 1)  # from O(0), 2 on the words ending in F
        labels[0] = 1
        steps = ("depth-2-base", *(f"double-to-{d}" for d in range(4, t + 1, 2)))
    return _certified(s, labels, gamma_r_knt_upper(n, t), steps)
