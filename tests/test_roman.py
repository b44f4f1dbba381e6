"""Roman labelings, derived structure, copy weight profiles."""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from sierpdom import (
    ContractError,
    Graph,
    RomanFunction,
    build,
    complete_graph,
    copy_weight_profile,
    cycle_construction,
    cycle_graph,
    derived_sets,
    gamma_exact,
    gamma_r_exact,
    is_roman_dominating,
    path_graph,
    perfect_code_knt,
    random_connected_graph,
    star_graph,
)
from sierpdom.constructions import _is_perfect_code
from sierpdom.roman import LABELS, dumps
from oracles import is_rdf_by_definition


def test_label_accessors():
    f = RomanFunction((0, 2, 1, 0, 2))
    assert f.order == 5
    assert f.weight == 5
    assert f.zeros == {0, 3}
    assert f.ones == {2}
    assert f.twos == {1, 4}


def test_from_sets():
    f = RomanFunction.from_sets(4, ones=[3], twos=[0])
    assert f.labels == (2, 0, 0, 1)
    with pytest.raises(ValueError):
        RomanFunction.from_sets(3, ones=[1], twos=[1])


def test_label_validation():
    with pytest.raises(ValueError):
        RomanFunction(())
    with pytest.raises(ValueError):
        RomanFunction((0, 3))


@pytest.mark.parametrize(
    "labels", [(0, 3), (-1,), (2, None), ("1",), (1, [2]), ([0],), (0, {1: 2}), (1, {2}), (0.5,)]
)
def test_label_validation_raises_value_error(labels):
    """Unhashable labels are rejected like any other non-label."""
    with pytest.raises(ValueError, match="labels must be 0, 1 or 2"):
        RomanFunction(labels)


def test_label_validation_takes_ints_only():
    # a float equal to a label is no label, nor is a bare int, which bytes()
    # would read as a length; a bool is an int, as bytes() reads it
    for labels in ((0, 1.0, 2), (2.0,), 3):
        with pytest.raises(ValueError, match="labels must be 0, 1 or 2"):
            RomanFunction(labels)
    assert RomanFunction((0, True, 2)).weight == 3


def test_packed_is_the_labels_bytes():
    for labels in ((0,), (2, 1, 0), (0, True, 2), tuple(range(3)) * 500):
        assert RomanFunction(labels).packed == bytes(labels)
    f = RomanFunction.from_json('{"labels": [1, 0, 2, 2]}')
    assert f.packed == b"\1\0\2\2"
    assert f.labels == (1, 0, 2, 2) and type(f.labels) is tuple


def test_packed_leaves_eq_hash_and_repr_to_the_labels():
    f, g = RomanFunction((0, 2, 1)), RomanFunction.from_sets(3, ones=[2], twos=[1])
    assert f == g and hash(f) == hash(g) == hash(((0, 2, 1),))
    assert repr(f) == repr(g) == "RomanFunction(labels=(0, 2, 1))"
    assert f != RomanFunction((0, 2, 2))
    assert [x.name for x in dataclasses.fields(f) if x.init] == ["labels"]


def test_weight_is_the_label_sum():
    for labels in _labelings():
        assert RomanFunction(labels).weight == sum(labels)


def test_is_roman_dominating_basics():
    p4 = path_graph(4)
    assert is_roman_dominating(RomanFunction((0, 2, 0, 1)), p4)
    assert not is_roman_dominating(RomanFunction((0, 2, 0, 0)), p4)
    assert is_roman_dominating(RomanFunction((1, 1, 1, 1)), p4)
    # an isolated 0 fails even when 2s exist elsewhere
    assert not is_roman_dominating(RomanFunction((0, 0, 1, 2)), p4)
    with pytest.raises(ValueError):
        is_roman_dominating(RomanFunction((1, 1)), p4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(0, 10**6), st.data())
def test_checker_matches_definition(n, seed, data):
    g = random_connected_graph(n, random.Random(seed), 0.4)
    labels = tuple(data.draw(st.sampled_from((0, 1, 2))) for _ in range(n))
    f = RomanFunction(labels)
    assert is_roman_dominating(f, g) == is_rdf_by_definition(g, labels)


def test_json_round_trip_plain():
    f = RomanFunction((0, 2, 0, 1))
    text = f.to_json()
    again = RomanFunction.from_json(text)
    assert again == f
    assert '"weight": 3' in text


def _labelings():
    rng = random.Random(35)
    for n in range(1, 301):
        yield tuple(rng.choice((0, 1, 2)) for _ in range(n))
    for n in (1, 2, 300, 4096):
        yield (0,) * n
        yield (2,) * n


def test_dumps_writes_labels_as_json_dumps():
    for labels in _labelings():
        doc = {"weight": sum(labels), "labels": list(labels)}
        expect = json.dumps(doc, sort_keys=True)
        assert dumps({**doc, "labels": LABELS}, labels) == expect
        assert RomanFunction(labels).to_json() == expect
    for key in ("a", "labels", "z"):  # the key first, in the middle and last
        doc = {"b": [1, "x"], "labels": 5, "y": {"c": None}}
        doc[key] = [2, 0, 1]
        assert dumps({**doc, key: LABELS}, (2, 0, 1), key) == json.dumps(doc, sort_keys=True)
    assert dumps({"labels": LABELS}, ()) == "{\"labels\": []}"


# strings that hold the text dumps splits on, escapes and non-ASCII
_AWKWARD = ('"labels": NaN', 'x\\"labels": NaN', '"witness": NaN', "\\", "S\u00e9rie \u2014 \U0001d4ae", "")


def test_every_to_json_is_json_dumps():
    """Each document that writes labels from their bytes is the text json.dumps
    writes of it, with plain lists, keys sorted."""
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], name='P5 "' + _AWKWARD[1] + _AWKWARD[4])
    digest = {"name": g.name, "sha256": g.digest()}
    rom, dom = gamma_r_exact(g), gamma_exact(g)
    assert rom.to_json(g) == json.dumps(
        {"kind": "roman", "value": rom.value, "nodes": rom.nodes, "graph": digest,
         "witness": list(rom.witness.labels)},
        sort_keys=True,
    )
    assert dom.to_json(g) == json.dumps(
        {"kind": "domination", "value": dom.value, "nodes": dom.nodes, "graph": digest,
         "witness": sorted(dom.witness)},
        sort_keys=True,
    )
    report = cycle_construction(6, 2)
    s, f = report.sierpinski, report.function
    by_word = {
        "weight": f.weight,
        "labels_by_word": dict(zip(s.word_labels(), f.labels)),
        "graph": {"name": s.name, "sha256": s.graph.digest()},
    }
    assert f.to_json(s) == json.dumps(by_word, sort_keys=True)
    for lower in (None, 0, 11):
        for notes in ((), _AWKWARD):
            r = dataclasses.replace(report, lower_bound=lower, notes=notes)
            doc = {
                "predicted_weight": r.predicted_weight,
                "actual_weight": r.actual_weight,
                "valid": r.valid,
                "steps_applied": list(r.steps_applied),
                "step_weights": [list(p) for p in r.step_weights],
                "notes": list(notes),
                "function": {"weight": f.weight, "labels": list(f.labels)},
            }
            if lower is not None:
                doc["lower_bound"] = lower
            assert r.to_json() == json.dumps(doc, sort_keys=True)
            assert r.to_json(words=True) == json.dumps({**doc, "function": by_word}, sort_keys=True)


def test_json_weight_mismatch_rejected():
    with pytest.raises(ValueError):
        RomanFunction.from_json('{"labels": [2, 0], "weight": 5}')


def test_word_keyed_needs_the_graph():
    with pytest.raises(ValueError):
        RomanFunction.from_json('{"labels_by_word": {"00": 2}}')


def test_derived_sets_on_a_path():
    # P7 labeled 0 2 0 0 2 0 1: the lone 1 at vertex 6 sits two steps
    # from the 2 at vertex 4, which has exactly two 0-neighbors
    p7 = path_graph(7)
    f = RomanFunction((0, 2, 0, 0, 2, 0, 1))
    ds = derived_sets(f, p7)
    assert ds.linked_ones == frozenset()
    assert ds.linked_twos == frozenset()
    assert ds.linked_positive == frozenset()
    assert ds.junction_twos == {4}
    assert ds.remote_one_count == 1


def test_derived_sets_linked_pairs():
    p4 = path_graph(4)
    f = RomanFunction((2, 2, 0, 1))
    ds = derived_sets(f, p4)
    assert ds.linked_twos == {0, 1}
    assert ds.linked_positive == {0, 1}
    assert ds.linked_ones == frozenset()
    f2 = RomanFunction((1, 1, 2, 0))
    ds2 = derived_sets(f2, p4)
    assert ds2.linked_ones == {0, 1}
    assert ds2.linked_positive == {0, 1, 2}


def test_derived_sets_two_adjacent_ones():
    f = RomanFunction((1, 1))
    ds = derived_sets(f, path_graph(2))
    assert ds.linked_ones == {0, 1}
    assert ds.linked_positive == {0, 1}
    assert ds.remote_one_count == 0


def test_derived_sets_requires_validity():
    with pytest.raises(ContractError):
        derived_sets(RomanFunction((0, 0, 0, 1)), path_graph(4))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10**6))
def test_derived_sets_containments(n, seed):
    g = random_connected_graph(n, random.Random(seed), 0.4)
    f = gamma_r_exact(g).witness
    ds = derived_sets(f, g)
    assert ds.linked_ones <= f.ones
    assert ds.linked_twos <= f.twos
    assert ds.linked_ones | ds.linked_twos <= ds.linked_positive
    assert ds.linked_positive <= f.ones | f.twos
    assert ds.junction_twos <= f.twos
    assert ds.remote_one_count <= len(f.ones - ds.linked_ones)


def test_copy_profile_fields():
    s = build(path_graph(4), 2)
    f = gamma_r_exact(s.graph).witness
    profiles = copy_weight_profile(f, s)
    assert len(profiles) == 4
    assert [p.anchor for p in profiles] == [0, 1, 2, 3]
    assert [p.prefix for p in profiles] == [(0,), (1,), (2,), (3,)]
    # anchor 0 has nothing to its left, anchor n-1 nothing to its right
    assert profiles[0].left_count == 0 and profiles[0].right_count == 2
    assert profiles[3].left_count == 2 and profiles[3].right_count == 0
    assert sum(p.weight for p in profiles) == f.weight
    for p in profiles:
        assert p.surplus == p.weight - -(-2 * p.left_count // 3) - -(-2 * p.right_count // 3)


def test_copy_profile_depth2_has_no_corner_linked():
    s = build(path_graph(5), 2)
    f = gamma_r_exact(s.graph).witness
    assert not any(p.corner_linked for p in copy_weight_profile(f, s))


def test_copy_profile_depth3_marks_corners():
    s = build(path_graph(3), 3)
    f = gamma_r_exact(s.graph).witness
    profiles = copy_weight_profile(f, s)
    marked = {p.prefix for p in profiles if p.corner_linked}
    # the extreme of copy (0,1) is word 011, an endpoint of a level-2 edge
    assert (0, 1) in marked
    # copies whose extreme is a global extreme keep the base degree
    assert (0, 0) not in marked and (2, 2) not in marked


def test_copy_profile_rejects_non_path_bases():
    s = build(cycle_graph(4), 2)
    f = gamma_r_exact(s.graph).witness
    with pytest.raises(ValueError):
        copy_weight_profile(f, s)
    s2 = build(complete_graph(3), 2)
    f2 = gamma_r_exact(s2.graph).witness
    with pytest.raises(ValueError):
        copy_weight_profile(f2, s2)


def test_copy_profile_rejects_invalid_labelings():
    s = build(path_graph(4), 2)
    with pytest.raises(ContractError):
        copy_weight_profile(RomanFunction((0,) * 16), s)


def test_star_has_trivial_roman_structure():
    g = star_graph(6)
    f = RomanFunction.from_sets(6, twos=[0])
    assert is_roman_dominating(f, g)
    ds = derived_sets(f, g)
    assert ds.linked_positive == frozenset()
    assert ds.junction_twos == frozenset()


def _per_edge_perfect_code(labels, g):
    """Reference: one pass over the edges counts the 2s in each closed neighborhood."""
    count = [x == 2 for x in labels]
    for u, v in g.edges:
        count[u] += labels[v] == 2
        count[v] += labels[u] == 2
    return set(count) == {1}


def _near_misses(labels, rng):
    """labels, then labels with one of its 2s turned to 0, when it has a 2."""
    yield labels
    twos = [v for v, x in enumerate(labels) if x == 2]
    if twos:
        miss = list(labels)
        miss[rng.choice(twos)] = 0
        yield miss


def test_run_bitmask_checks_match_the_per_edge_checks():
    """On S(G, t) the Roman and perfect-code checks read the edge runs as
    bitmasks; on seeded random bases of order 2-6 (edgeless and disconnected
    among them) and the two-digit-letter base of order 11, t = 1-4, they agree
    with the per-edge checks on the decoded graph, for random labelings,
    dominating ones, perfect codes, and each with one 2 turned to 0."""
    rng = random.Random(27)
    bases = []
    for _ in range(40):
        n, p = rng.randint(2, 6), rng.choice((0.0, 0.25, 0.5, 0.9))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        bases.append((Graph(n, edges), rng.randint(1, 4)))
    bases += [(Graph(11, [(i, (i + 1) % 11) for i in range(11)] + [(0, 5)]), t) for t in (1, 2, 3, 4)]
    bases += [(complete_graph(n), t) for n, t in ((3, 3), (4, 2), (4, 3), (5, 1))]
    seen = set()
    for base, t in bases:
        s = build(base, t)
        g = s.graph
        assert g.order == s.order
        labelings = [[rng.choice((0, 0, 1, 2)) for _ in range(s.order)] for _ in range(3)]
        dominating = list(labelings[0])
        for v in g.vertices:  # every 0 without a neighboring 2 becomes a 1
            if dominating[v] == 0 and all(dominating[u] != 2 for u in g.neighbors(v)):
                dominating[v] = 1
        labelings.append(dominating)
        if base.size == base.order * (base.order - 1) // 2:  # a complete base has a perfect code
            code = perfect_code_knt(base.order, t)
            labelings.append([2 if v in code else 0 for v in g.vertices])
        for labels in labelings:
            for case in _near_misses(labels, rng):
                f = RomanFunction(tuple(case))
                roman = is_roman_dominating(f, s)
                assert roman == is_roman_dominating(f, g) == is_rdf_by_definition(g, case)
                code = _is_perfect_code(case, s)
                assert code == _per_edge_perfect_code(case, g)
                seen.add((roman, code))
    assert {(True, True), (True, False), (False, False)} <= seen
