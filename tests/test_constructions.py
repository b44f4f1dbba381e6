"""Explicit labelings: the rewrite construction, pattern families, codes."""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from sierpdom import (
    Certificate,
    ContractError,
    Graph,
    RomanFunction,
    bound_value,
    build,
    complete_graph,
    complete_graph_construction,
    cycle_construction,
    cycle_graph,
    extreme_vertices,
    gamma_knt,
    gamma_r_exact,
    gamma_r_knt_upper,
    gamma_r_sierpinski_path,
    is_roman_dominating,
    lift_base_function,
    path_construction,
    path_graph,
    perfect_code_knt,
    random_connected_graph,
    roman_graph_bound,
    star_graph,
    theorem_upper_bound_construction,
)
from oracles import perfect_codes_enumerated


def k33():
    return Graph(6, [(i, j) for i in range(3) for j in range(3, 6)], name="K33")


def test_lift_replicates_per_copy():
    f = RomanFunction((0, 2, 0))
    g = lift_base_function(f, path_graph(3), 2)
    assert g.labels == (0, 2, 0) * 3
    assert g.weight == 6
    assert is_roman_dominating(g, build(path_graph(3), 2).graph)
    h = lift_base_function(RomanFunction((2, 0, 0, 0)), complete_graph(4), 2)
    assert h.weight == 8
    assert is_roman_dominating(h, build(complete_graph(4), 2).graph)


def test_lift_validation():
    with pytest.raises(ContractError):
        lift_base_function(RomanFunction((0, 0, 1)), path_graph(3), 2)
    with pytest.raises(ValueError):
        lift_base_function(RomanFunction((0, 2, 0)), path_graph(3), 1)


def test_bound_value_examples():
    # the canonical optimum on P7 has 2s on 1 and 4 and a lone 1 on 6
    f = RomanFunction((0, 2, 0, 0, 2, 0, 1))
    assert bound_value(f, path_graph(7), 2) == 32
    assert bound_value(f, path_graph(7), 2) == gamma_r_sierpinski_path(7, 2)
    assert bound_value(f, path_graph(7), 3) == 7 * 32


def test_bound_value_rejects_odd_linked_ones():
    f = RomanFunction((1, 1, 1))  # a 1-triangle cannot pair up
    with pytest.raises(AssertionError):
        bound_value(f, complete_graph(3), 2)


def test_bound_value_deeper_products():
    # an all-ones pair collapses to a 2 and a 0 after pairing
    assert bound_value(RomanFunction((1, 1)), path_graph(2), 3) == 6
    # a star center valued 2 reproduces the universal-vertex value
    assert bound_value(RomanFunction((2, 0, 0, 0)), star_graph(4), 3) == 28


def test_bound_value_brackets_path_formula():
    # the closed form never beats the product bound taken from an optimal
    # base labeling, and matches it except on the 3k+2 residue
    for n in range(3, 8):
        base = path_graph(n)
        bound = bound_value(gamma_r_exact(base).witness, base, 2)
        formula = gamma_r_sierpinski_path(n, 2)
        assert formula <= bound
        if n % 3 == 2:
            assert formula < bound
        else:
            assert formula == bound


def test_rewrite_construction_on_p7():
    base = path_graph(7)
    cert = gamma_r_exact(base)
    rep = theorem_upper_bound_construction(cert.witness, base, 2, cert)
    assert rep.valid
    assert rep.predicted_weight == 32
    assert rep.actual_weight <= 32
    assert "step1" in rep.steps_applied and "step4" in rep.steps_applied
    assert rep.notes == ()
    # intermediate weights never increase
    ws = [w for _, w in rep.step_weights]
    assert ws == sorted(ws, reverse=True)
    assert rep.step_weights[0][0] == "lift"


def test_rewrite_construction_exercises_adjacent_ones():
    """Two adjacent 1s on K2 trigger the matched-pair rewrite."""
    base = path_graph(2)
    f = RomanFunction((1, 1))
    cert = gamma_r_exact(base)
    assert cert.value == f.weight
    rep = theorem_upper_bound_construction(f, base, 2, cert)
    assert "step3" in rep.steps_applied
    assert rep.predicted_weight == 3
    assert rep.actual_weight == 3  # tight: S(P2,2) is P4
    assert rep.valid


def test_rewrite_construction_exercises_adjacent_twos():
    base = k33()
    cert = gamma_r_exact(base)
    assert cert.witness.twos == {0, 3}
    rep = theorem_upper_bound_construction(cert.witness, base, 2, cert)
    assert rep.valid
    assert "step1" in rep.steps_applied and "step2" in rep.steps_applied
    assert rep.predicted_weight == 20
    assert rep.actual_weight <= 20


def test_rewrite_construction_validates_each_step_once(monkeypatch):
    from sierpdom import constructions

    real = constructions.is_roman_dominating
    orders = []

    def counting(f, g):
        orders.append(g.order)
        return real(f, g)

    monkeypatch.setattr(constructions, "is_roman_dominating", counting)
    base = path_graph(7)
    cert = gamma_r_exact(base)
    assert theorem_upper_bound_construction(cert.witness, base, 3, cert).valid
    # the base labeling, one check of S(G, 2) per rewrite step, and the lift once
    assert orders == [7, 49, 49, 49, 49, 343]


def test_rewrite_construction_contract_checks():
    base = complete_graph(3)
    good = gamma_r_exact(base)
    with pytest.raises(ContractError):
        theorem_upper_bound_construction(RomanFunction((0, 0, 0)), base, 2, good)
    stale = Certificate("roman", 99, good.witness, 0, 0.0)
    with pytest.raises(ContractError):
        theorem_upper_bound_construction(good.witness, base, 2, stale)
    wrong_kind = Certificate("domination", 2, frozenset({0}), 0, 0.0)
    with pytest.raises(ContractError):
        theorem_upper_bound_construction(good.witness, base, 2, wrong_kind)


def test_rewrite_construction_rejects_non_matching_ones():
    base = complete_graph(3)
    f = RomanFunction((1, 1, 1))
    fake = Certificate("roman", 3, f, 0, 0.0)  # weight matches, optimality faked
    with pytest.raises(ContractError):
        theorem_upper_bound_construction(f, base, 2, fake)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6), st.sampled_from((0.15, 0.35, 0.6)))
def test_rewrite_construction_random_bases(n, seed, extra):
    base = random_connected_graph(n, random.Random(seed), extra)
    cert = gamma_r_exact(base)
    rep = theorem_upper_bound_construction(cert.witness, base, 2, cert)
    assert rep.valid
    assert rep.actual_weight <= rep.predicted_weight
    assert rep.actual_weight <= bound_value(cert.witness, base, 2)
    ws = [w for _, w in rep.step_weights]
    assert ws == sorted(ws, reverse=True)


def test_roman_graph_bound_on_c5():
    rep = roman_graph_bound(cycle_graph(5), 2)
    assert rep.valid
    # gamma(C5) = 2 nonadjacent 2s, so the bound collapses to 2 * (2n - 1)
    assert rep.predicted_weight == 18
    assert rep.actual_weight <= 18


def test_roman_graph_bound_more_examples():
    rep = roman_graph_bound(path_graph(3), 2)
    assert rep.valid and rep.predicted_weight == 5
    rep = roman_graph_bound(complete_graph(4), 2)
    assert rep.valid and rep.predicted_weight == 7
    rep = roman_graph_bound(path_graph(6), 2)
    assert rep.valid and rep.predicted_weight == 22
    assert rep.actual_weight <= 22


def test_roman_graph_bound_rejects_other_bases():
    with pytest.raises(ContractError):
        roman_graph_bound(path_graph(7), 2)


def test_path_construction_values():
    rep = path_construction(5, 2)
    assert rep.valid and rep.actual_weight == rep.predicted_weight == 17
    rep = path_construction(8, 2)
    assert rep.valid and rep.actual_weight == 43
    rep = path_construction(5, 3)
    assert rep.valid and rep.actual_weight == 85


def test_path_construction_matches_solver_at_n5():
    rep = path_construction(5, 2)
    assert rep.actual_weight == gamma_r_exact(build(path_graph(5), 2).graph).value


def test_path_construction_residue_guard():
    for bad in (4, 6, 7):
        with pytest.raises(ValueError):
            path_construction(bad, 2)
    with pytest.raises(ValueError):
        path_construction(5, 1)
    with pytest.raises(ValueError):
        path_construction(2, 2)


def test_cycle_construction_each_residue():
    rep4 = cycle_construction(4, 2)
    assert rep4.valid and rep4.actual_weight == 8 and rep4.lower_bound is None
    rep5 = cycle_construction(5, 2)
    assert rep5.valid and rep5.actual_weight == 15
    assert rep5.steps_applied == ("packing-blocks", "shift-ones")
    rep7 = cycle_construction(7, 2)
    assert rep7.valid and rep7.actual_weight == 28
    assert rep7.steps_applied == ("packing-blocks",)
    # no 2 ever lands on a word with a repeated final letter
    assert all(rep7.function.labels[i * 7 + i] != 2 for i in range(7))


def test_cycle_construction_multiple_of_three_reports_bracket():
    rep = cycle_construction(6, 2)
    assert rep.valid
    assert rep.actual_weight == rep.predicted_weight == 22
    assert rep.lower_bound == 18
    assert any("open" in note for note in rep.notes)


def test_cycle_construction_guards():
    with pytest.raises(ValueError):
        cycle_construction(3, 2)
    with pytest.raises(ValueError):
        cycle_construction(5, 1)


def test_cycle_construction_deeper():
    rep = cycle_construction(5, 3)
    assert rep.valid and rep.actual_weight == 25 * 3


def test_perfect_code_small_cases():
    assert perfect_code_knt(3, 2) == {0, 4, 8}  # words 00, 11, 22
    assert perfect_code_knt(2, 2) == {0, 3}
    code = perfect_code_knt(3, 3)
    assert len(code) == 7
    assert code & {0, 13, 26} == {0}  # odd depth keeps one extreme only


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4))
def test_perfect_code_is_an_exact_cover(n, t):
    s = build(complete_graph(n), t)
    code = perfect_code_knt(n, t)
    assert len(code) == gamma_knt(n, t)
    seen = 0
    for v in code:
        cm = s.graph.closed_masks[v]
        assert not (cm & seen)
        seen |= cm
    assert seen == (1 << s.order) - 1


@pytest.mark.parametrize(
    "n,t", [(n, t) for n in range(2, 7) for t in range(1, 9) if n**t <= 256]
)
def test_perfect_code_is_the_one_through_the_extreme_vertices(n, t):
    """An exact cover lists every perfect code: one at even depth, n at odd
    depth, and the letter rule's is the one through every extreme vertex
    (through 0..0 at odd depth)."""
    s = build(complete_graph(n), t)
    codes = perfect_codes_enumerated(s.graph)
    assert len(codes) == (1 if t % 2 == 0 else n)
    anchors = set(extreme_vertices(s)) if t % 2 == 0 else {0}
    assert [c for c in codes if anchors <= c] == [perfect_code_knt(n, t)]


def test_perfect_code_memory_is_linear():
    """Nine times the vertices may cost at most fifteen times the peak memory."""
    assert _peak_bytes(perfect_code_knt, 3, 9) <= 15 * _peak_bytes(perfect_code_knt, 3, 7)


def test_perfect_code_guards():
    with pytest.raises(ValueError):
        perfect_code_knt(1, 2)
    with pytest.raises(ValueError):
        perfect_code_knt(3, 0)


def test_complete_construction_depth_two():
    rep = complete_graph_construction(3, 2)
    assert rep.valid
    assert rep.actual_weight == 5
    assert rep.function.labels == (1, 0, 0, 2, 0, 0, 2, 0, 0)
    assert rep.steps_applied == ("depth-2-base",)


def test_complete_construction_odd_depth():
    rep = complete_graph_construction(3, 3)
    assert rep.valid and rep.actual_weight == 14
    assert rep.function.ones == frozenset()
    rep2 = complete_graph_construction(2, 3)
    assert rep2.valid and rep2.actual_weight == 6


def test_complete_construction_doubled_depth():
    rep = complete_graph_construction(3, 4)
    assert rep.valid
    assert rep.actual_weight == gamma_r_knt_upper(3, 4) == 41
    assert rep.steps_applied == ("depth-2-base", "double-to-4")
    assert rep.function.labels[0] == 1


def test_complete_construction_beyond_the_recursion_limit():
    # depth 9 is 19,683 vertices, far more than the default recursion limit
    rep = complete_graph_construction(3, 9)
    assert rep.valid
    assert rep.actual_weight == gamma_r_knt_upper(3, 9) == 9842


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4))
def test_complete_construction_meets_the_bound(n, t):
    rep = complete_graph_construction(n, t)
    assert rep.valid
    assert rep.actual_weight == gamma_r_knt_upper(n, t)


def test_complete_construction_is_optimal_when_checkable():
    for n, t in ((2, 2), (3, 2), (2, 3)):
        rep = complete_graph_construction(n, t)
        assert rep.actual_weight == gamma_r_exact(build(complete_graph(n), t).graph).value


def _peak_bytes(construction, n, t):
    tracemalloc.start()
    try:
        construction(n, t)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cycle_construction_memory_is_linear():
    """Four times the vertices may cost at most six times the peak memory."""
    assert _peak_bytes(cycle_construction, 4, 7) <= 6 * _peak_bytes(cycle_construction, 4, 6)


def test_complete_construction_builds_once(monkeypatch):
    from sierpdom import constructions

    real = constructions.build
    depths = []

    def counting_build(base, t, *args, **kwargs):
        depths.append(t)
        return real(base, t, *args, **kwargs)

    monkeypatch.setattr(constructions, "build", counting_build)
    assert complete_graph_construction(3, 3).valid
    assert depths == [3]


# sha256 of to_json(), recorded before the constructions were rewritten
CONSTRUCTION_SHA256 = {
    ("P7", 2): "42f3f106de9107a223450895fd535a02c2824d64f49818b558bfbcb9dd571d0c",
    ("P7", 3): "7ea07b396dcdbb4d0263f86ef9cdceae2585201457d1f3b51322cfc3d354a2f9",
    ("P2", 2): "bdb147a0b99a2a43c5b1b9aa8263b8bd269178cd1bc803f245d6127a9ab3f8e4",
    ("P2", 3): "136350b656a2d1d45b22509932b90a283a17063c600113b409164b8ec61e34fb",
    ("K33", 2): "41306c6b7369473154e8ab0a0b04f6a2408e7a072655fac81d6c2ca7999be38b",
    ("K33", 3): "ac2336fe667d5489fd25b3cfc987664c44cf3b27fc0f4f7e4a07c5468c301244",
    ("P5", 2): "ea70683f44ddc12b5484512ad04cf80f686bdfc42a25b7a8137bf05456e71943",
    ("P5", 3): "9b5d29d682a8dd24f3546676156a739df28afe8ddceb028626420c4c50c81abe",
    ("P7", 4): "e2a2d8e950f87fd3eff6873c2e5365b865c5341f1f5250a894fec4b37f46a67a",
    ("P2", 4): "e9cdc1aa7ed42896467b8787e04644ddef7f1142b46dfe887f09e9e779bfe028",
    ("K33", 4): "b4edb1b9b39b41f1028e9aaf7713a9e5549d97fef1d6638e69718f297e9fb663",
    ("P5", 4): "7291e4663782ba1f9f71f639a6959eca174c573f97e6abb944a4471070ddcd66",
    "cycle(6,2)": "4c2efa937bc2226701e9f3d3a44429ee4f602c1f27ec70a03400be925e6973ef",
    "complete(3,4)": "e19188d105ec965067c5670d17f22a3a31b32932139ea08c23997b146922abb4",
    "complete(3,6)": "1f1961f58341fcde4d95805b08ec8572b6cc71a27a24f60b2122a7870f58bd88",
    "complete(4,6)": "57ba047e9288f695c5cf6bde96dfd555461f4747cf94a8a202f70ff5e30118ee",
}


def _sha(rep):
    return hashlib.sha256(rep.to_json().encode()).hexdigest()


def test_construction_reports_are_pinned():
    # P7 runs steps 1 and 4, P2 with (1, 1) step 3, K33 steps 1 and 2, and
    # P5 with (1, 0, 2, 0, 1) skips step 4 on a junction with two partners
    cases = {
        "P7": (path_graph(7), None),
        "P2": (path_graph(2), RomanFunction((1, 1))),
        "K33": (k33(), None),
        "P5": (path_graph(5), RomanFunction((1, 0, 2, 0, 1))),
    }
    got = {}
    for name, (base, f) in cases.items():
        cert = gamma_r_exact(base)
        for t in (2, 3, 4):
            rep = theorem_upper_bound_construction(f or cert.witness, base, t, cert)
            got[name, t] = _sha(rep)
    got["cycle(6,2)"] = _sha(cycle_construction(6, 2))
    # depth 4 runs the letter swap on two-letter words only, depth 6 on four-letter ones too
    for n, t in ((3, 4), (3, 6), (4, 6)):
        got[f"complete({n},{t})"] = _sha(complete_graph_construction(n, t))
    assert got == CONSTRUCTION_SHA256
