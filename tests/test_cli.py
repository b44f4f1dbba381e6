"""Command line behavior: output shapes, exit codes, determinism."""

import hashlib
import json
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from sierpdom import (
    DEFAULT_VERTEX_BUDGET,
    Graph,
    RomanFunction,
    SolveTimeout,
    build,
    complete_graph,
    cycle_graph,
    extreme_vertices,
    format_edge_list,
    is_roman_dominating,
    parse_edge_list,
    path_graph,
    to_dot,
)
from sierpdom import graphs
from sierpdom.cli import _build_parser, main
from oracles import written


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_edgelist(capsys):
    code, out, _ = run(capsys, "gen", "--family", "path", "--n", "3", "--t", "2")
    assert code == 0
    g = parse_edge_list(out)
    assert g.order == 9 and g.size == 8


def test_gen_dot(capsys):
    code, out, _ = run(capsys, "gen", "--family", "cycle", "--n", "4", "--t", "1", "--format", "dot")
    assert code == 0
    assert out.startswith("graph S {")
    assert "0 -- 1;" in out


def test_gen_meta_block(capsys, tmp_path):
    target = tmp_path / "g.txt"
    code, out, _ = run(
        capsys, "gen", "--family", "complete", "--n", "3", "--t", "2",
        "--out", str(target), "--meta", "-",
    )
    assert code == 0
    meta = json.loads(out)
    assert meta["order"] == 9 and meta["size"] == 12
    assert meta["extreme_vertices"] == ["00", "11", "22"]
    assert parse_edge_list(target.read_text()).order == 9


def _random_base(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))), name=f"rand{n}")


@pytest.mark.parametrize("seed", range(8))
def test_gen_streams_the_bytes_of_the_built_graph(tmp_path, seed):
    """gen writes from the edge keys what the writers make of the built Graph."""
    rng = random.Random(seed)
    n, t = rng.randint(2, 11), rng.randint(1, 4)
    base = Graph(n, name="E") if seed == 0 else _random_base(rng, n)  # seed 0: edgeless
    (tmp_path / "base.txt").write_text(written(format_edge_list, base))
    s = build(base, t)
    expect = {
        "edgelist": written(format_edge_list, s.graph),
        "dot": written(to_dot, s.graph, labels=s.word_labels()),
    }
    for fmt, text in expect.items():
        out, meta = tmp_path / f"s.{fmt}", tmp_path / f"meta.{fmt}"
        argv = ["gen", "--base", str(tmp_path / "base.txt"), "--t", str(t), "--format", fmt]
        assert main([*argv, "--out", str(out), "--meta", str(meta)]) == 0
        assert out.read_text() == text
        assert json.loads(meta.read_text()) == {
            "config": {"command": "gen", "budget": DEFAULT_VERTEX_BUDGET},
            "base_order": n,
            "base_size": base.size,
            "depth": t,
            "order": s.order,
            "size": s.graph.size,
            "extreme_vertices": [s.word_label(v) for v in extreme_vertices(s)],
        }


@pytest.mark.parametrize("fmt", ["edgelist", "dot"])
@pytest.mark.parametrize("meta", [[], ["--meta", "-"]])
def test_gen_to_stdout_prints_the_writer_bytes(capsys, fmt, meta):
    """Without --out, gen prints what the writer makes of the built graph,
    across slice boundaries, then the meta line when --meta is -."""
    s = build(complete_graph(4), 5)  # 1024 vertices, 2046 edges
    if fmt == "dot":
        text = written(to_dot, s.graph, labels=s.word_labels())
    else:
        text = written(format_edge_list, s.graph)
    if meta:
        text += json.dumps(
            {
                "config": {"command": "gen", "budget": DEFAULT_VERTEX_BUDGET},
                "base_order": 4,
                "base_size": 6,
                "depth": 5,
                "order": s.order,
                "size": s.graph.size,
                "extreme_vertices": [s.word_label(v) for v in extreme_vertices(s)],
            },
            sort_keys=True,
        ) + "\n"
    argv = ["gen", "--family", "complete", "--n", "4", "--t", "5", "--format", fmt, *meta]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == text


@pytest.mark.parametrize(
    "flag,argv,exit_code",
    [
        ("--out", ["gen", "--family", "path", "--n", "3", "--t", "3", "--budget", "26"], 3),
        ("--out", ["gen", "--family", "path", "--n", "3", "--t", "0", "--format", "dot"], 2),
        ("--out", ["gen", "--family", "path", "--t", "2"], 2),
        ("--dot", ["construct", "--family", "complete", "--n", "3", "--t", "3", "--budget", "26"], 3),
        ("--dot", ["construct", "--family", "path", "--n", "5", "--t", "0"], 2),
        ("--dot", ["construct", "--family", "complete", "--n", "1", "--t", "2"], 2),
    ],
)
def test_early_failure_leaves_the_output_file_untouched(capsys, tmp_path, flag, argv, exit_code):
    """A budget error or bad input is raised before the output file is opened."""
    target = tmp_path / "kept"
    target.write_bytes(b"earlier output\n")
    code, out, err = run(capsys, *argv, flag, str(target))
    assert code == exit_code and "error:" in err and out == ""
    assert target.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "path", "--n", "3", "--t", "9100"],
        ["solve", "--family", "path", "--n", "3", "--depth", "9100"],
        ["construct", "--family", "complete", "--n", "3", "--t", "9100"],
    ],
)
def test_depth_with_a_vertex_count_of_thousands_of_digits_exits_3(capsys, tmp_path, argv):
    """The budget refuses S(P3, 9100) and S(K3, 9100) without formatting their
    4,343-digit vertex counts, so the exit is 3, not 2, and no file is made."""
    target = tmp_path / "F"
    flag = {"gen": "--out", "solve": "--out", "construct": "--dot"}[argv[0]]
    code, out, err = run(capsys, *argv, flag, str(target))
    assert code == 3 and "budget" in err and len(err) < 200 and out == ""
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "path", "--n", "300000", "--t", "1"],
        ["solve", "--family", "path", "--n", "100000"],
        ["construct", "--family", "path", "--n", "1100", "--t", "2"],
        ["construct", "--family", "complete", "--n", "800", "--t", "2"],
        ["gen", "--family", "complete", "--n", "800", "--t", "1", "--budget", "500"],
        ["solve", "--family", "complete", "--n", "300", "--depth", "2"],
        ["solve", "--base", "K20.txt", "--depth", "4"],
    ],
    ids=[
        "gen-path", "solve-path", "construct-path", "construct-complete", "gen-complete",
        "solve-depth-complete", "solve-depth-base",
    ],
)
def test_budget_is_checked_before_the_base_is_made(capsys, tmp_path, monkeypatch, argv):
    """A --family base over the vertex budget, or a solve over the solver's
    order limit, is refused before the base, the patterns, K_n or, for a
    --base file, S(G, t) are made: exit 3 with a traced peak under 1 MiB.
    S(K300, 2) and S(K20, 4) are inside the vertex budget but over the
    solver's limit, and used to be built before the solver refused them."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "K20.txt").write_text(written(format_edge_list, complete_graph(20)))
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3 and "budget" in err
    assert peak < 2**20


def test_construct_dot_peak_holds_no_dot_text(tmp_path):
    """construct --dot on S(K4, 7) (16,384 vertices) writes its DOT a slice at
    a time: the traced peak stays below 4.5 MiB."""
    argv = ["construct", "--family", "complete", "--n", "4", "--t", "7"]
    tracemalloc.start()
    try:
        code = main([*argv, "--dot", str(tmp_path / "s.dot"), "--out", str(tmp_path / "r.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4.5 * 2**20


def test_gen_needs_a_base(capsys):
    code, _, err = run(capsys, "gen", "--t", "2")
    assert code == 2
    assert "error:" in err


def test_solve_human_output(capsys):
    code, out, _ = run(capsys, "solve", "--family", "path", "--n", "4")
    assert code == 0
    assert "Roman domination number = 3" in out
    assert "label 2 on: {1}" in out
    assert "label 1 on: {3}" in out


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", "--family", "path", "--n", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 3 and doc["witness"] == [0, 2, 0, 1]
    assert "elapsed_s" not in doc


def test_solve_beyond_the_recursion_limit(capsys):
    # the witness search runs about 1500 levels deep, past Python's default limit
    code, out, _ = run(capsys, "solve", "--family", "path", "--n", "1500", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 1000
    f = RomanFunction(tuple(doc["witness"]))
    assert f.weight == 1000 and is_roman_dominating(f, path_graph(1500))


def test_solve_s_c8_2_within_its_timeout(capsys):
    # the witness phase used to outrun this limit (exit 3)
    code, out, _ = run(capsys, "solve", "--family", "cycle", "--n", "8", "--depth", "2", "--timeout", "15")
    assert code == 0
    assert "S(C8,2): Roman domination number = 40" in out


def test_solve_domination_with_depth(capsys):
    code, out, _ = run(
        capsys, "solve", "--family", "complete", "--n", "3", "--depth", "2", "--domination"
    )
    assert code == 0
    assert "domination number = 3" in out
    witness_line = next(line for line in out.splitlines() if "witness set" in line)
    # three vertices, printed as two-letter words of the built graph
    names = witness_line.split("{")[1].rstrip("}").split(", ")
    assert len(names) == 3 and all(len(w) == 2 for w in names)


def test_solve_oracle_agrees(capsys):
    code, out, _ = run(capsys, "solve", "--family", "cycle", "--n", "6", "--oracle", "--json")
    doc = json.loads(out)
    code2, out2, _ = run(capsys, "solve", "--family", "cycle", "--n", "6", "--json")
    assert code == code2 == 0
    assert doc["value"] == json.loads(out2)["value"] == 4


def test_solve_from_files(capsys, tmp_path):
    base = tmp_path / "base.txt"
    base.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "solve", "--base", str(base), "--depth", "2", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 5
    code, out, _ = run(capsys, "solve", "--base", str(base), "--json")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_construct_path_json(capsys):
    code, out, _ = run(capsys, "construct", "--family", "path", "--n", "5", "--t", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["actual_weight"] == doc["predicted_weight"] == 17
    assert sum(doc["function"]["labels"]) == 17


def test_construct_cycle_words(capsys):
    code, out, _ = run(capsys, "construct", "--family", "cycle", "--n", "4", "--t", "2", "--words")
    assert code == 0
    doc = json.loads(out)
    assert doc["actual_weight"] == 8
    assert "labels_by_word" in doc["function"]
    assert set(len(k) for k in doc["function"]["labels_by_word"]) == {2}


def test_construct_complete_with_dot(capsys, tmp_path):
    dot = tmp_path / "s.dot"
    code, out, _ = run(
        capsys, "construct", "--family", "complete", "--n", "3", "--t", "2", "--dot", str(dot)
    )
    assert code == 0
    assert json.loads(out)["actual_weight"] == 5
    text = dot.read_text()
    assert 'fillcolor="black"' in text and 'fillcolor="white"' in text
    assert (
        hashlib.sha256(dot.read_bytes()).hexdigest()
        == "c34ab4ffb3c92ba9fbce86a7315bdb2dbde439f633ee8e8cea243c3fca14c554"
    )


def test_construct_theorem_needs_matching_weight(capsys, tmp_path):
    base = tmp_path / "base.txt"
    base.write_text("3 2\n0 1\n1 2\n")
    fn = tmp_path / "f.json"
    fn.write_text(RomanFunction((0, 2, 0)).to_json())
    code, out, _ = run(
        capsys, "construct", "--family", "theorem", "--base", str(base),
        "--function", str(fn), "--t", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True and doc["actual_weight"] == 5
    fn.write_text(RomanFunction((1, 1, 1)).to_json())
    code, _, err = run(
        capsys, "construct", "--family", "theorem", "--base", str(base),
        "--function", str(fn), "--t", "2",
    )
    assert code == 2
    assert "optimal" in err


@pytest.mark.parametrize(
    "family,n,t",
    [("path", 5, 3), ("cycle", 4, 3), ("cycle", 6, 3), ("complete", 3, 4), ("complete", 3, 3)],
)
def test_construct_builds_its_graph_once(capsys, monkeypatch, tmp_path, family, n, t):
    """--dot and --words reuse the S(G, t) the construction validated."""
    depths = []

    def counting_build(base, depth, *rest):
        depths.append(depth)
        return build(base, depth, *rest)

    for module in ("sierpdom.cli", "sierpdom.constructions"):
        monkeypatch.setattr(f"{module}.build", counting_build)
    dot = tmp_path / "s.dot"
    code, out, _ = run(
        capsys, "construct", "--family", family, "--n", str(n), "--t", str(t),
        "--words", "--dot", str(dot),
    )
    assert code == 0
    assert depths.count(t) == 1
    if family == "complete":  # every perfect code comes off the letter rule, not a smaller graph
        assert depths == [t]
    assert len(json.loads(out)["function"]["labels_by_word"]) == n**t
    assert dot.read_text().startswith("graph S {")


def _count_graphs(monkeypatch) -> list:
    """Record the order of every Graph that S(G, t) makes of copies of the
    level below; _levels gives the orders that making the Graph of one
    S(G, t) records."""
    made = []

    def count(g, k, *args):
        made.append(k * g.order)
        return graphs.copies(g, k, *args)

    monkeypatch.setattr("sierpdom.sierpinski.copies", count)
    return made


def _levels(n: int, t: int) -> list[int]:
    """The orders n², .., nᵗ of S(G, 2), .., S(G, t), or n for S(G, 1), one per copies call."""
    return [n**d for d in range(2, t + 1)] or [n]


@pytest.mark.parametrize("words", [False, True])
@pytest.mark.parametrize(
    "family,n,t", [("path", 5, 3), ("cycle", 4, 3), ("cycle", 6, 3), ("complete", 3, 4), ("theorem", 4, 3)]
)
def test_construct_without_dot_decodes_no_graph(capsys, monkeypatch, tmp_path, family, n, t, words):
    """Validation reads S(G, t)'s edge runs, so construct makes no Graph of
    S(G, t) unless --words names it and digests that Graph, once.  The
    name is kept from when no Graph was made at all, so the test ids stay
    stable."""
    args = ["--family", family, "--t", str(t)] + ["--words"] * words
    if family == "theorem":
        (tmp_path / "P4.txt").write_text(written(format_edge_list, path_graph(4)))
        (tmp_path / "f.json").write_text(RomanFunction((0, 2, 0, 1)).to_json())
        args += ["--base", str(tmp_path / "P4.txt"), "--function", str(tmp_path / "f.json")]
    else:
        args += ["--n", str(n)]

    made = _count_graphs(monkeypatch)
    code, out, _ = run(capsys, "construct", *args)
    assert code == 0 and json.loads(out)["valid"] is True
    assert made == _levels(n, t) * words
    monkeypatch.undo()
    if words:  # the name and digest of the Graph that build makes
        bases = {"path": path_graph, "cycle": cycle_graph, "complete": complete_graph}
        if family in bases:
            s = build(bases[family](n), t)
        else:
            s = build(parse_edge_list((tmp_path / "P4.txt").read_text(), name="P4.txt"), t)
        assert json.loads(out)["function"]["graph"] == {"name": s.graph.name, "sha256": s.graph.digest()}


@pytest.mark.parametrize("family,n,t", [("complete", 3, 2), ("cycle", 4, 3)])
def test_construct_dot_decodes_no_graph(capsys, monkeypatch, tmp_path, family, n, t):
    """--dot writes S(G, t)'s Graph in the canonical edge order, and with
    --words too the digest reads the same Graph: one Graph either way.  The
    name is kept from when no Graph was made at all, so the test ids stay
    stable."""
    base = {"cycle": cycle_graph, "complete": complete_graph}[family](n)
    want = [f"  {u} -- {v};" for u, v in build(base, t).graph.edges]
    args = ["construct", "--family", family, "--n", str(n), "--t", str(t)]
    for words in ([], ["--words"]):
        dot = tmp_path / f"s{len(words)}.dot"
        made = _count_graphs(monkeypatch)
        code, out, _ = run(capsys, *args, "--dot", str(dot), *words)
        assert code == 0 and made == _levels(n, t)
        monkeypatch.undo()
        assert [line for line in dot.read_text().splitlines() if " -- " in line] == want
        if words:
            s = build(base, t)
            assert json.loads(out)["function"]["graph"] == {"name": s.graph.name, "sha256": s.graph.digest()}


def test_construct_residue_error(capsys):
    code, _, err = run(capsys, "construct", "--family", "path", "--n", "4", "--t", "2")
    assert code == 2
    assert "3k + 2" in err


def test_construct_needs_n(capsys):
    code, _, err = run(capsys, "construct", "--family", "cycle", "--t", "2")
    assert code == 2
    assert "--n" in err


@pytest.mark.parametrize("family,n", [("path", "5"), ("complete", "3")])
def test_construct_invalid_labeling_exits_1(capsys, monkeypatch, family, n):
    # a labeling that fails validation is a failed property: printed, then exit 1
    monkeypatch.setattr("sierpdom.constructions.is_roman_dominating", lambda f, g: False)
    code, out, _ = run(capsys, "construct", "--family", family, "--n", n, "--t", "2")
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_formula_outputs(capsys):
    code, out, _ = run(capsys, "formula", "--name", "path", "--n", "6", "--t", "2")
    assert code == 0
    assert json.loads(out) == {"formula": "path", "n": 6, "t": 2, "value": 22}
    code, out, _ = run(capsys, "formula", "--name", "cycle", "--n", "6", "--t", "2")
    doc = json.loads(out)
    assert (doc["lower"], doc["upper"], doc["exact"]) == (18, 22, None)
    code, out, _ = run(capsys, "formula", "--name", "complete-lower-any", "--n", "3", "--t", "2")
    doc = json.loads(out)
    assert doc["value"] == 5 and doc["method"] == "exact-solve"


def test_formula_rejects_bad_arguments(capsys):
    code, _, err = run(capsys, "formula", "--name", "universal", "--n", "3", "--t", "2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("t", ["0", "-3"])
def test_formula_path_cycle_refuses_a_depth_below_one(capsys, t):
    # every other formula name refuses such a depth; path-cycle used to print it
    code, out, err = run(capsys, "formula", "--name", "path-cycle", "--n", "5", "--t", t)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "name,t,exit_code",
    [
        ("complete-gamma", "9000", 0),  # 3**9000 has 4,295 digits
        ("path-cycle", "100000000", 0),  # its value does not depend on t
        ("complete-gamma", "9100", 3),  # 3**9100 has 4,342
        ("complete-gamma", "100000000", 3),
        ("cycle", "100000000", 3),
    ],
)
def test_formula_refuses_a_depth_whose_value_cannot_be_printed(capsys, name, t, exit_code):
    """A depth at which 3**t has more digits than Python prints of an int (4,300
    by default) exits 3 at once, before any power is computed; below it, and for
    path-cycle at any depth, the value prints."""
    start = time.perf_counter()
    code, out, err = run(capsys, "formula", "--name", name, "--n", "3", "--t", t)
    assert time.perf_counter() - start < 1
    assert code == exit_code
    if exit_code:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1 and f"3**{t}" in err
    else:
        assert json.loads(out)["value"] == ((3**9000 + 3) // 4 if name == "complete-gamma" else 2)


def test_formula_path_above_depth_two_is_rejected(capsys):
    # the lifted depth-2 value, 224 for S(P7, 3), is only an upper bound
    code, out, err = run(capsys, "formula", "--name", "path", "--n", "7", "--t", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "construct --family path" in err


def test_solve_modes_are_exclusive(capsys, monkeypatch):
    # --oracle with --domination used to solve for gamma and exit 0
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--family", "path", "--n", "4", "--oracle", "--domination"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument" in err
    # the only mode flags; any other is an unknown argument
    assert "[--domination | --oracle]" in err


def test_solve_oracle_refuses_a_timeout(capsys, tmp_path):
    # --oracle used to drop --timeout and exit 0, where the default solver times out
    base = tmp_path / "P3.txt"
    base.write_text(written(format_edge_list, path_graph(3)))
    solve = ["solve", "--base", str(base), "--depth", "2"]
    for timeout in ("0", "1"):
        code, out, err = run(capsys, *solve, "--oracle", "--timeout", timeout)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--oracle" in err and "--timeout" in err
    code, out, err = run(capsys, *solve, "--timeout", "0")
    assert (code, out) == (3, "")
    assert run(capsys, *solve, "--oracle")[0] == 0


def test_verify_perfect_codes(capsys, tmp_path):
    rows_file = tmp_path / "rows.jsonl"
    code, out, _ = run(
        capsys, "verify", "--families", "perfect-codes", "--out", str(rows_file)
    )
    assert code == 0
    assert "S(K3,3)" in out and "pass" in out
    rows = [json.loads(line) for line in rows_file.read_text().splitlines()]
    assert len(rows) == 3
    assert all(r["status"] == "pass" for r in rows)


def test_verify_universal_family(capsys):
    code, out, _ = run(capsys, "verify", "--families", "universal")
    assert code == 0
    assert "S(star4,2)" in out
    assert out.count("pass") == 3


def test_verify_paths_family(capsys):
    code, out, _ = run(capsys, "verify", "--families", "paths")
    assert code == 0
    assert "S(P3,2)" in out
    assert out.count("pass") == 4
    assert "fail" not in out


def test_sweep_is_deterministic(capsys):
    args = ("sweep", "--count", "4", "--max-n", "5", "--seed", "7")
    code1, out1, err1 = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "4/4 instances passed" in err1
    rows = [json.loads(line) for line in out1.splitlines()]
    assert all(r["status"] == "pass" for r in rows)
    assert all(r["config"]["seed"] == 7 for r in rows)


def test_sweep_full_checks_product_bounds(capsys):
    code, out, _ = run(
        capsys, "sweep", "--count", "3", "--max-n", "4", "--seed", "1", "--t", "2", "--full"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    for r in rows:
        assert r["checks"]["product-bound"] is True
        assert r["checks"]["complete-base-lower"] is True


@pytest.mark.parametrize("prob", ["nan", "5", "-0.5"])
def test_sweep_rejects_extra_prob_outside_the_unit_interval(capsys, prob):
    code, out, err = run(capsys, "sweep", "--count", "2", "--extra-prob", prob)
    assert code == 2
    assert out == "" and "between 0 and 1" in err


@pytest.mark.parametrize(
    "command",
    [
        ["solve", "--family", "complete", "--n", "3"],
        ["sweep", "--count", "2"],
        ["verify", "--families", "perfect-codes", "--max-n", "4", "--max-t", "2"],
        ["solve", "--family", "path", "--n", "3", "--oracle"],
    ],
)
def test_nan_timeout_is_bad_input(capsys, command):
    code, out, err = argparse_exit(capsys, *command, "--timeout", "nan")
    assert code == 2
    assert out == "" and "NaN" in err


def test_sweep_timeout_exits_3(capsys):
    """Row 1 of this depth-3 run does not finish in minutes without a limit."""
    start = time.monotonic()
    code, out, err = run(
        capsys, "sweep", "--count", "2", "--max-n", "5", "--seed", "1", "--full", "--t", "3",
        "--timeout", "0.5",
    )
    assert code == 3
    assert out == "" and "time limit" in err
    assert time.monotonic() - start < 10


def test_budget_flag(capsys):
    code, out, _ = run(
        capsys, "gen", "--family", "path", "--n", "3", "--t", "3", "--budget", "27"
    )
    assert code == 0
    assert out.splitlines()[0] == "27 26"
    code, _, err = run(
        capsys, "gen", "--family", "path", "--n", "3", "--t", "3", "--budget", "26"
    )
    assert code == 3
    assert "budget" in err
    code, _, err = run(
        capsys, "gen", "--family", "path", "--n", "3", "--t", "3", "--budget", "0"
    )
    assert code == 3
    assert "budget" in err


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "solve", "--base", "/nonexistent/edges.txt")
    assert code == 2
    assert "error:" in err


def argparse_exit(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("command", ["gen", "solve"])
def test_base_graph_named_twice_is_rejected(capsys, tmp_path, command):
    # gen used to build from the file and ignore --family
    base = tmp_path / "P3.txt"
    base.write_text("3 2\n0 1\n1 2\n")
    code, out, err = argparse_exit(capsys, command, "--family", "cycle", "--base", str(base))
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err
    # --n goes with --family only; it used to be ignored next to --base
    code, out, err = run(capsys, command, "--base", str(base), "--n", "5")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["gen", "solve"])
def test_base_order_past_the_edge_key_is_bad_input(capsys, tmp_path, command):
    # an edge key holds two 32-bit vertices, so the order is refused as the file is read
    base = tmp_path / "huge.txt"
    base.write_text(f"{2**33} 1\n0 {2**33 - 1}\n")
    code, out, err = run(capsys, command, "--base", str(base))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "2**32" in err


def test_construct_order_named_twice_is_rejected(capsys, tmp_path):
    base = tmp_path / "P3.txt"
    base.write_text("3 2\n0 1\n1 2\n")
    fn = tmp_path / "f.json"
    fn.write_text(RomanFunction((0, 2, 0)).to_json())
    code, out, err = argparse_exit(
        capsys, "construct", "--family", "theorem", "--n", "3", "--base", str(base),
        "--function", str(fn), "--t", "2",
    )
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err


def test_solve_takes_its_graph_one_way(capsys):
    # --base FILE and --depth D replace the two file flags solve used to have
    code, out, _ = argparse_exit(capsys, "solve", "--help")
    assert code == 0
    assert set(re.findall(r"--[a-z]+", out)) - {"--help"} == {
        "--family", "--base", "--n", "--depth", "--domination", "--oracle",
        "--timeout", "--json", "--out", "--budget",
    }
    code, out, err = argparse_exit(capsys, "solve", "--family", "path", "--n", "3", "--file", "x")
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "extra", [("--n", "4", "--function", "f.json"), ("--function", "f.json"), ("--base", "b.txt")]
)
def test_construct_theorem_needs_base_and_function(capsys, tmp_path, monkeypatch, extra):
    # with --n instead of --base this used to exit 4 with KeyError: 'theorem'
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b.txt").write_text("3 2\n0 1\n1 2\n")
    (tmp_path / "f.json").write_text(RomanFunction((0, 2, 0)).to_json())
    code, out, err = run(capsys, "construct", "--family", "theorem", "--t", "2", *extra)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--base FILE and --function FILE" in err


@pytest.mark.parametrize(
    "doc",
    [
        '{"weight": 2}',
        "[0, 2, 0]",
        '{"labels": 5}',
        '{"labels": [0, 2.0, 0]}',
        '{"labels_by_word": {"0": 0, "1": 2, "2": 0}}',
        "not json",
    ],
)
def test_malformed_labeling_file_is_bad_input(capsys, tmp_path, doc):
    # the first three used to exit 4 with KeyError or TypeError, and the
    # fourth to print a labeling with float weights
    base = tmp_path / "P3.txt"
    base.write_text("3 2\n0 1\n1 2\n")
    fn = tmp_path / "f.json"
    fn.write_text(doc)
    code, out, err = run(
        capsys, "construct", "--family", "theorem", "--base", str(base),
        "--function", str(fn), "--t", "2",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args", [("--count", "0"), ("--count", "-3"), ("--full", "--t", "1"), ("--full", "--t", "0")]
)
def test_sweep_that_checks_nothing_is_bad_input(capsys, monkeypatch, args):
    # each used to exit 0: "0/0 instances passed", or rows without the product checks
    def no_solve(*a, **k):
        raise AssertionError("solved before rejecting the arguments")

    monkeypatch.setattr("sierpdom.cli.gamma_exact", no_solve)
    code, out, err = run(capsys, "sweep", *args)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("family, n", [("path", "5"), ("cycle", "4"), ("complete", "3")])
def test_construct_function_with_another_family_is_bad_input(
    capsys, tmp_path, monkeypatch, family, n
):
    # used to print the family's report and exit 0 without opening the file
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "construct", "--family", family, "--n", n, "--t", "2", "--function", "nonexist.json"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--function" in err


def test_sweep_max_n_over_the_solve_limit_exits_3_before_any_graph(capsys, monkeypatch):
    # used to make a random base of up to 100,000 vertices, O(n**2) pairs, before
    # the solver refused it
    def no_graph(*a, **k):
        raise AssertionError("made a base before checking --max-n")

    monkeypatch.setattr("sierpdom.cli.random_connected_graph", no_graph)
    code, out, err = run(capsys, "sweep", "--count", "1", "--max-n", "100000")
    assert (code, out) == (3, "")
    assert err == "error: graph order 100000 exceeds the solve budget of 65536\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (("--t", "3", "--max-n", "50"), "graph order 125000 exceeds the solve budget of 65536"),
        (
            ("--t", "2", "--max-n", "20", "--budget", "300"),
            "S(G,2) has 20**2 vertices, over the budget of 300",
        ),
    ],
    ids=["solve-order", "budget"],
)
def test_sweep_full_checks_max_n_to_the_t_before_any_solve(capsys, monkeypatch, args, message):
    # used to solve rows, and build S(G, t) of up to max_n**t words, before the solver
    # or the build refused one
    def no_solve(*a, **k):
        raise AssertionError("solved before checking --max-n**t")

    monkeypatch.setattr("sierpdom.cli.gamma_exact", no_solve)
    code, out, err = run(capsys, "sweep", "--count", "3", "--seed", "1", "--full", *args)
    assert (code, out) == (3, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("max_n", ["1", "0", "-4"])
def test_sweep_max_n_below_two_names_the_flag(capsys, monkeypatch, max_n):
    # used to exit 2 with "error: empty range for randrange() (2, 2, 0)"
    def no_solve(*a, **k):
        raise AssertionError("solved before rejecting the arguments")

    monkeypatch.setattr("sierpdom.cli.gamma_exact", no_solve)
    code, out, err = run(capsys, "sweep", "--max-n", max_n, "--count", "2")
    assert (code, out) == (2, "")
    assert err == "error: --max-n must be at least 2\n"


def test_readme_commands_parse():
    """Every documented command line parses; a removed flag left in README fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```")[1::2]  # the text inside each fenced block
    lines = [line for block in blocks for line in block.splitlines()]
    commands = [line for line in lines if line.startswith("sierpdom ")]
    assert len(commands) >= 12
    parser = _build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line, comments=True)[1:])


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_solve_depth_below_one_is_rejected(capsys, tmp_path, depth):
    # a depth below 1 used to solve the base (or S(base, 1)) and exit 0
    base = tmp_path / "P3.txt"
    base.write_text("3 2\n0 1\n1 2\n")
    for target in (["--family", "path", "--n", "3"], ["--base", str(base)]):
        code, out, err = run(capsys, "solve", *target, "--depth", depth, "--json")
        assert (code, out, err) == (2, "", "error: depth must be at least 1\n")


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    def deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("sierpdom.cli.gamma_r_exact", deep)
    code, out, err = run(capsys, "solve", "--family", "path", "--n", "4")
    assert code == 4
    assert out == ""
    assert err == "error: RecursionError: maximum recursion depth exceeded\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sierpdom.cli", "formula", "--name", "path", "--n", "5", "--t", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 17


# sha256 of stdout: word labels, DOT and word-keyed JSON must stay byte-identical
GOLDEN_STDOUT = [
    (
        "gen --family complete --n 11 --t 2 --format dot",
        "11026a0100c90071421cae3e4fe6b2c205f05c7dea7c024e361f6311c2eff2ab",
    ),
    (
        "gen --family path --n 3 --t 2 --format dot",
        "55631d944601c8485bd1da8dc4e11d39dc66cb48c4c8c79c831123b57be62f11",
    ),
    (
        "construct --family cycle --n 4 --t 2 --words",
        "d77eb3df98a9856b97534fe0ade90c1da48ceef0c4eb9786c7a662e2861ffd9f",
    ),
    (
        "construct --family complete --n 11 --t 1 --words",
        "a12e221bd2ff3a2112d73a7f5208973bd662e4a4702865ecdefff0799d2df123",
    ),
    (
        "construct --family path --n 5 --t 2",
        "cb626c15a08b74e53f1daa8e150ef894b6d866691cec8bde0c7bf3007fd26613",
    ),
    (
        "construct --family complete --n 3 --t 3",
        "1e6c5bbfa049a32be5bfd1ad043dd982ddd10963ccd93bf84a46654616c85229",
    ),
    (
        "formula --name path-cycle --n 5 --t 2",
        "f5833067bfdf6356d0950ddcb069b222a29e70661b0a290d93f411c91dca0d12",
    ),
    (
        "formula --name path --n 5 --t 2",
        "52f23df1d6076a92ad18c89e180126e2ddb993288f7906947c5ef2e48eb95efa",
    ),
    (
        "formula --name cycle --n 5 --t 2",
        "3a9ea3ac9b4df58f9ccb70aefd891f74328766e1506923cb2d65596f8d853ed1",
    ),
    (
        "formula --name complete-gamma --n 5 --t 2",
        "2c87448c79f1087ef4ee62f15b655aa060f389edf12f4bc20e454633b4de8df8",
    ),
    (
        "formula --name complete-roman-upper --n 5 --t 2",
        "6f02437f9e0c5b229f31bb00cacdba1a7808ef98ad0bc3f73afa88e98926a544",
    ),
    (
        "formula --name universal --n 5 --t 2",
        "08f80c120c7927d1f6ef025052ac6b35cd3c4f9ada768bea44de80be11b80eae",
    ),
    (
        "formula --name min-degree-lower --n 5 --t 2",
        "a5d8235bd4f3b5d5ed0c886c2c6133a74d677ead8712d2069ea34ffd905b0ad3",
    ),
    (
        "formula --name complete-lower-any --n 5 --t 2",
        "e52b64c3c67457a310a0546a0598a3427a20ea8ccede14f1d9299ec248a8a8dd",
    ),
    (
        "formula --help",
        "a6726bb4f1e2d157f080cc503ab2c80c770b5b4b603a77eae818563e7c0e1739",
    ),
    (
        "verify --help",
        "f29a1544053c4905f31db92e5f62bc871941d0212df5c59b10136c13afec54b0",
    ),
    (  # phase 2 runs about 900 levels deep
        "solve --family path --n 900 --json",
        "fb62affea470d980ed829b14fc37affcd37b1c6e5b86d0fcc63ad9c9921c9b00",
    ),
    (  # the exact cover runs 547 levels deep
        "construct --family complete --n 3 --t 7",
        "0fddc352e13fd72d1af1a48b1533c1614b688dd5ad699dfbc547b09a5e042f55",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT)
def test_golden_stdout(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help text to the terminal width
    try:
        code, out, _ = run(capsys, *argv.split())
    except SystemExit as exc:  # argparse exits after printing --help
        code, out = exc.code, capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of gen's file at the sizes the benchmark writes: S(K6, 6) as an edge
# list and as DOT, and S(P2, 16) as an edge list
GEN_SHA256 = [
    ("complete --n 6 --t 6", "edgelist", "f335930c158677ef63cd1ddc022498c4d7d05bd3fc4b6bd67ee00d675dd72251"),
    ("complete --n 6 --t 6", "dot", "e405278b1fa73935394457544f2b350db15c5ea65cf8dc0d2ef4d1a6273c6ca4"),
    ("path --n 2 --t 16", "edgelist", "c4167547b9931c7ecbaa54774d17e8f02ec3494da00d84155fbfbdc9b704b852"),
]


@pytest.mark.parametrize("family,fmt,digest", GEN_SHA256)
def test_gen_bytes_at_benchmark_sizes(capsys, tmp_path, family, fmt, digest):
    out = tmp_path / f"s.{fmt}"
    code, _, _ = run(capsys, "gen", "--family", *family.split(), "--format", fmt, "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# (verify arguments, rows that pass, sha256 of the --out rows)
VERIFY_ROWS = [
    ((), 16, "1437bf872c759c65de6e1659fb8485397e6ac227c860bfe89d7fe8cac3e73b2b"),
    (
        ("--families", "paths,cycles,complete", "--max-n", "4", "--max-t", "2"),
        5,
        "e24c1221fda72833be76b30fd723f25a463e609a63e6ced3d3ca9aeaba8c55e8",
    ),
]


def test_verify_rows_are_pinned(capsys, tmp_path):
    """The default and a reduced verify run write byte-identical JSON rows."""
    rows_file = tmp_path / "rows.jsonl"
    for args, passed, digest in VERIFY_ROWS:
        code, out, _ = run(capsys, "verify", *args, "--out", str(rows_file))
        assert code == 0
        assert out.count("pass") == passed
        assert hashlib.sha256(rows_file.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("families", ["path", "paths,cycle", ""])
def test_verify_rejects_unknown_families(capsys, families):
    code, out, err = run(capsys, "verify", "--families", families)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [
        ("--families", "paths", "--max-n", "2"),
        ("--families", "complete", "--max-t", "0"),
        ("--max-t", "0"),
        ("--families", "perfect-codes", "--max-t", "1"),
        ("--families", "universal", "--max-n", "3"),
        ("--families", "complete", "--max-n", "2"),
    ],
)
def test_verify_with_no_rows_is_bad_input(capsys, args):
    code, out, err = run(capsys, "verify", *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args,instances",
    [
        (("--families", "perfect-codes", "--max-t", "2"), ["S(K3,2)", "S(K2,2)"]),
        (("--families", "perfect-codes", "--max-n", "2"), ["S(K2,2)"]),
        (("--families", "universal", "--max-n", "4"), ["S(star4,2)", "S(star4+e,2)"]),
        (("--families", "paths,complete", "--max-t", "1"), ["S(K3,1)"]),
        (
            ("--families", "cycles,complete", "--max-n", "4"),
            ["S(C4,2)", "S(K3,1)", "S(K3,2)", "S(K3,3)"],
        ),
    ],
)
def test_verify_limits_bound_every_family(capsys, args, instances):
    """--max-n bounds the base order and --max-t the depth of every row."""
    code, out, _ = run(capsys, "verify", *args)
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[1:]] == instances


def test_verify_columns_line_up_under_short_names(capsys):
    code, out, _ = run(capsys, "verify", "--families", "paths", "--max-n", "3")
    assert code == 0
    header, row = out.splitlines()
    assert row.startswith("S(P3,2) ")
    assert row.index("paths") == header.index("family")
    assert row.index("pass") == header.index("status")


def test_verify_timeout_keeps_expected(capsys, monkeypatch, tmp_path):
    def give_up(*args, **kwargs):
        raise SolveTimeout("time limit reached")

    monkeypatch.setattr("sierpdom.cli.gamma_r_exact", give_up)
    rows_file = tmp_path / "rows.jsonl"
    code, out, _ = run(
        capsys, "verify", "--families", "paths,cycles,complete,universal",
        "--max-n", "4", "--max-t", "2", "--out", str(rows_file),
    )
    assert code == 3
    rows = [json.loads(line) for line in rows_file.read_text().splitlines()]
    assert len(rows) == 7  # --max-n 4 leaves out S(star5,2)
    assert all(r["status"] == "timeout" for r in rows)
    assert all("expected" in r for r in rows)
    assert "pass" not in out
