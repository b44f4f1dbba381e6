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
from oracles import masks_from_neighbors, perfect_codes_enumerated


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
    with pytest.raises(ContractError):
        bound_value(f, complete_graph(3), 2)
    # four linked 1s on P4 pair up by count, but the middle two have two linked neighbors
    with pytest.raises(ContractError, match="matching"):
        bound_value(RomanFunction((1, 1, 1, 1)), path_graph(4), 2)


def test_cycle_construction_refuses_a_broken_perfect_code(monkeypatch):
    """S(C7, 2)'s 2s must form a perfect code: one 2 moved to a 0 keeps the
    weight, so only the perfect-code check can catch it."""
    from sierpdom import constructions

    real = constructions._pair_table

    def moved(n, twos, ones):
        table = real(n, twos, ones)
        table[table.index(2)], table[table.index(0)] = 0, 2
        return table

    monkeypatch.setattr(constructions, "_pair_table", moved)
    with pytest.raises(AssertionError, match="perfect code"):
        cycle_construction(7, 2)


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
    masks = masks_from_neighbors(s.graph)
    seen = 0
    for v in code:
        cm = masks[v]
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


def test_complete_construction_memory_is_linear():
    """Nine times the vertices may cost at most fifteen times the peak memory."""
    peak = _peak_bytes(complete_graph_construction, 3, 6)
    assert _peak_bytes(complete_graph_construction, 3, 8) <= 15 * peak


def test_complete_construction_peak_is_small():
    """S(K4, 8) has 65,536 vertices and 131,070 edges; validated on its edge runs, with
    no Graph decoded, the construction and its report peak below 8 MiB under tracemalloc."""
    tracemalloc.start()
    try:
        complete_graph_construction(4, 8).to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


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


# sha256 of bytes(labels) of complete_graph_construction(n, t) at every n = 2..6
# with n**t <= 50,000, recorded while even depths were still built by doubling
COMPLETE_LABELS_SHA256 = {
    (2, 1): "99be5efb88ca2013bd8e4eb035fd42d5245468fe9afa70d8ba9c1c419a48c4e8",
    (2, 2): "7b11c1133330cd161071bf23a0c9b6ce5320a8f3a0f83620035a72be46df4104",
    (2, 3): "be77f869ca2456c361932b0bf2cc56f1e9e57e5012cd11a24bd38abe0b4b6248",
    (2, 4): "0b52b62d4811a20cd17fa188d6e6dc09af075ea1d5f2e260c214309d4315464a",
    (2, 5): "aacf728c5373e1492f8ba2391476df7a66e326ac7e87b31d61cb3aae76c09b31",
    (2, 6): "2547f042c5166976f3b07b7b7417e55ad52d3255132daeb9957b53952551a916",
    (2, 7): "c51290568d86c0a0081155fcfa6e9f1002be540885a8868741091e5161d1a067",
    (2, 8): "16c1ed9742a3d7a675e7fd7c250f4909dc07da433f6be6685c3542be86d0ae54",
    (2, 9): "1fffd9c61152dfe94262639ddf6cd464e85fb2a5ae867452bc31f04da58737ea",
    (2, 10): "2d42992f1d256bca2a6c6da9ab60db87f09ee69ff26be43edde1cc3956258818",
    (2, 11): "758be6a17abedff721b28e31c6e2e069f3de49ed6cdcbb36d54d7bc2a6b6ce68",
    (2, 12): "cd85dd123229500ef269b0e1aff7ce2ace868df055ffa6bc5dc14eb5785ac561",
    (2, 13): "cbd63f1460769e602b05102928134a481cd2afca52c4f04227cbb13d75e109b8",
    (2, 14): "a27277baead20a977b0ad245f365b076146a7e9b61d1f909e8cf6c4ab6e70092",
    (2, 15): "dc3f3dd61f87a8c963eae717165a66acc3acc93536beebd956c64cd7c091ede5",
    (3, 1): "070b13c004e9475fa155cd84d90de9f87db1b7dea6707329638a6ce66043d246",
    (3, 2): "eb8bfb5c169df318d784df484d066d558738c71d9765e4e51a4b059ed05583a4",
    (3, 3): "963d775a2b04667daba9f74bd86e5c3bf2a4830d01ac79ff5e8dfa61fbbb7a52",
    (3, 4): "cebad491fcf11eddc20d1a6ae8d0a6a287386aa2cb3a76ec0a9cbf9e5a8f56c9",
    (3, 5): "79872dedd3a02ad1c62b8fade62bb2797006e964595128f2a5503ae96df6d449",
    (3, 6): "a23ad855587626060f045a828ae5afe226660cd8182fefccc66460ffd191957f",
    (3, 7): "a12b8c5f52c0a1fa2d6acc8deb01e49aa37e6ce6c7e3e532c9ef5b579768e786",
    (3, 8): "f8e5e899f8626dca6eaf11db3443f2eb1f65e461989eff0ac70b9bfcb7acb7fe",
    (3, 9): "45531f909f166af3af388ac4de09397766a8128ee0714bc096a7be0f29976603",
    (4, 1): "26b25d457597a7b0463f9620f666dd10aa2c4373a505967c7c8d70922a2d6ece",
    (4, 2): "ed2a4ad6074941d44b30359b919b1a6f354db703e0fa4f79e607954f668663de",
    (4, 3): "045ff409dbfe1ae0fe40c97c61127ddde999d8db997f6a794de1f6a0d4df33a9",
    (4, 4): "356645fedb4395474730097a353a44c83502cea027a124d18ab3e3303b6a4dc3",
    (4, 5): "c3cd5940e4fb782f2f9c35b609a727b4492ce6b9889bb3ee9346326672386e08",
    (4, 6): "1d59a6061593f47c715b07a79dceae426a03c362223ce6502b58b65a75bc58ad",
    (4, 7): "839719998d370d197afd4c971e845d8cb9712234ae068b7c0ba6a8a610d139e1",
    (5, 1): "395c2f5598a1643a205154c6f4c46ce36895b28e6c35660a95e5c6fd5ef9aeab",
    (5, 2): "7453010ce12629d1b7790374691784fec4e9e07d1c4308ee6e33e14b4ff3e7d2",
    (5, 3): "2c06d10f9fd9e5e6a6d9cdbe79c5ec8f5736129436a91601e69d9e51aaed5b97",
    (5, 4): "d56ac961a72d90b415bab4f9aedb0b390023cc62de810bd7ec5236ce6f1b8aa9",
    (5, 5): "37749beba0c494367939a4afa721ce6b6d6e4392a9089ab07f221e62e5b36d80",
    (5, 6): "83380b294a8f16eb7e8944a02dcc4e8f5bd8935fa9c404ad152bfe0ee9f0e0ff",
    (6, 1): "c05d231da83665dd60560fc424059d66b433774afcff4d3b053b407f057d54ba",
    (6, 2): "046ba997c1bfd5ae4b58ec78b2f64077205bbb80cf917d687de4820d1a6a8430",
    (6, 3): "66f43d24d338eeb426e7fcb2232036196b82eabb2b294937ac787a7b0be5885a",
    (6, 4): "d93c5b7d7d6711d29fec5c1263922429e8d07c83fa08b3d3aefad8db53b8aecd",
    (6, 5): "a714a094fc6fe9eee079e6bf6d1ae5991aa96033d358471abfd2009db6715bf9",
    (6, 6): "ae6523254c577ad68285d68cb3894568141ac494526391927b7a7d59d9fd5e34",
}


def test_complete_labelings_are_pinned():
    got = {}
    for n, t in COMPLETE_LABELS_SHA256:
        labels = complete_graph_construction(n, t).function.labels
        got[n, t] = hashlib.sha256(bytes(labels)).hexdigest()
    assert got == COMPLETE_LABELS_SHA256
