"""Source hygiene: every name a package module imports is used in it, the
package imports only the standard library and itself, takes no private
(_-prefixed) name from another of its modules, reads no
environment variable (its settings are CLI flags), and has no assert
statement (a certifying check is an explicit raise, which python -O
keeps).  Only graphs.py reads a Graph's _keys, so the key format is
known in one module, whose two ways into a Graph both check their input:
Graph(n, edges) each edge, and copies the order and each bridge between
the copies of a Graph.  Only sierpinski.py reads S(G, t)'s bridges, the
first edge of each of its edge runs, so one module knows how to expand
them.  Every function the benchmark's tracer wraps by name exists, build,
gen and both solvers run under the installed tracer, and a short
benchmark run finds every output it checks correct."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sierpdom"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_finds_an_unused_import():
    assert _unused_imports("from collections import deque\nimport os\nos.sep\n") == ["deque"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _foreign_imports(source: str) -> list[str]:
    """Top-level modules imported from outside the standard library and the package."""
    tree = ast.parse(source)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted(
        name
        for name in names
        if name.partition(".")[0] not in sys.stdlib_module_names | {PACKAGE.name}
    )


def test_checker_finds_a_foreign_import():
    source = "import os.path\nimport numpy as np\nfrom networkx import Graph\nfrom . import graphs\n"
    source += "from sierpdom.graphs import Graph\nfrom __future__ import annotations\n"
    assert _foreign_imports(source) == ["networkx", "numpy"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_standard_library_only(path):
    assert _foreign_imports(path.read_text()) == []


def _private_imports(source: str) -> list[str]:
    """_-prefixed names imported from a package module."""
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").partition(".")[0] == PACKAGE.name)
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_checker_finds_a_private_import():
    source = "from .solver import Certificate, _picks\nfrom sierpdom.graphs import _mask\n"
    source += "from os import _exit\nfrom . import roman\nfrom __future__ import annotations\n"
    assert _private_imports(source) == ["_mask", "_picks"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert _private_imports(path.read_text()) == []


def _environment_reads(source: str) -> list[str]:
    names = {"environ", "environb", "getenv", "getenvb"}
    return sorted(
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.Name) and node.id in names)
    )


def test_checker_finds_an_environment_read():
    source = "import os\nos.getenv('Y')\nos.environ.get('X')\n"
    assert _environment_reads(source) == ["environ", "getenv"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert _environment_reads(path.read_text()) == []


def _assert_statements(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_checker_finds_an_assert_statement():
    source = "x = 1\nassert x, 'stripped by -O'\nif not x:\n    raise AssertionError('kept')\n"
    assert _assert_statements(source) == [2]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert _assert_statements(path.read_text()) == []


def _key_reads(source: str) -> list[int]:
    """Lines that read or write an attribute named _keys."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "_keys"
    )


def test_checker_finds_a_key_read():
    source = "keys = g._keys\n_keys = [0]\nh._keys = _keys\nm = len(s.graph._keys)\n"
    assert _key_reads(source) == [1, 3, 4]


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "graphs.py"], ids=lambda p: p.name
)
def test_only_graphs_reads_keys(path):
    assert _key_reads(path.read_text()) == []


def _run_reads(source: str) -> list[int]:
    """Lines that read or write an attribute named bridges, the form S(G, t) holds its runs in."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "bridges"
    )


def test_checker_finds_a_run_read():
    source = (
        "for level in s.bridges:\n    pass\nbridges = [0]\ns.bridges = bridges\n"
        "m = len(report.sierpinski.bridges)\n"
    )
    assert _run_reads(source) == [1, 4, 5]


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "sierpinski.py"], ids=lambda p: p.name
)
def test_only_sierpinski_reads_runs(path):
    assert _run_reads(path.read_text()) == []


def _load_tracing():
    path = PACKAGE.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_exist():
    # the benchmark tracer reports a layer as absent when its function is
    # gone, so a renamed phase function would silently drop its metrics
    missing = [
        f"{mod}.{attr}"
        for _, mod, attr, _ in _load_tracing().TARGETS
        if not hasattr(importlib.import_module(f"{PACKAGE.name}.{mod}"), attr)
    ]
    assert missing == []


def test_benchmark_tracer_runs_build_and_gen(tmp_path, monkeypatch):
    # the tracer rebinds sierpinski.Graph to a plain function, so code that
    # reaches a Graph attribute through that name fails every traced op
    from sierpdom import cli, generators, sierpinski

    tracing = _load_tracing()
    # install() also rebinds the names of the benchmark's workloads module
    monkeypatch.setitem(sys.modules, "workloads", types.ModuleType("workloads"))
    base = generators.complete_graph(3)
    (tmp_path / "K3.txt").write_text("3 3\n0 1\n0 2\n1 2\n")
    argv = ["gen", "--base", str(tmp_path / "K3.txt"), "--t", "3", "--out", str(tmp_path / "s.txt")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        s = sierpinski.build(base, 3)
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert s.order == 27 and code == 0
    assert [span[-2] for span in tracer.spans] == [None] * len(tracer.spans)  # no errors
    assert [(span[0], span[-1]) for span in tracer.spans if span[0] == "sierpinski.build"] == [
        ("sierpinski.build", 27)
    ] * 2
    # gen writes the graph of S(G, t), which is made without Graph.__init__
    assert "graphs.init" not in {span[0] for span in tracer.spans}


def test_benchmark_tracer_runs_constructions_and_construct_dot(tmp_path, monkeypatch):
    # construct --dot writes the report's S(G, t) graph, and must not go through
    # sierpinski.Graph, the name the tracer rebinds
    from sierpdom import cli, constructions

    tracing = _load_tracing()
    monkeypatch.setitem(sys.modules, "workloads", types.ModuleType("workloads"))
    dot = tmp_path / "s.dot"
    argv = ["construct", "--family", "complete", "--n", "3", "--t", "3", "--dot", str(dot)]
    argv += ["--out", str(tmp_path / "report.json")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = constructions.complete_graph_construction(3, 3)
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert report.valid and code == 0
    assert [span[-2] for span in tracer.spans] == [None] * len(tracer.spans)  # no errors
    assert [(span[0], span[-1]) for span in tracer.spans if span[0] == "sierpinski.build"] == [
        ("sierpinski.build", 27)
    ] * 2
    assert dot.read_text().startswith("graph S {")


def test_benchmark_tracer_runs_the_solvers(monkeypatch):
    # the per-layer metrics of the benchmark read the phase functions' results:
    # phase 1's ticks, and each phase-2 attempt's ticks and whether it found a set
    from sierpdom import generators, sierpinski, solver

    importlib.import_module("sierpdom.cli")  # install() wraps a function of every module it names

    tracing = _load_tracing()
    monkeypatch.setitem(sys.modules, "workloads", types.ModuleType("workloads"))
    c6 = sierpinski.build(generators.cycle_graph(6), 2).graph
    p7 = sierpinski.build(generators.path_graph(7), 2).graph
    tracer = tracing.Tracer()
    tracer.install()
    try:
        roman = solver.gamma_r_exact(c6)
        dom = solver.gamma_exact(p7)
    finally:
        tracer.uninstall()
    assert [span[-2] for span in tracer.spans] == [None] * len(tracer.spans)  # no errors
    facts = {}
    for span in tracer.spans:
        facts.setdefault(span[0], []).append(span[-1])
    assert facts["solver.phase1"] == [6_143]
    assert facts["solver.phase2"] == [(8_299, False), (7_847, True)]
    assert 6_143 + 8_299 + 7_847 == roman.nodes == 22_289
    assert facts["solver.gamma_exact"] == [dom.nodes] == [81]


@pytest.mark.parametrize("workload", ["families", "large", "sweep"])
def test_benchmark_checks_its_outputs(workload):
    # a short traced run of the benchmark checks every output against its pins
    # (digests, MILP values, node counts equal across passes, phase splits that
    # add up) and reports correct: false or failed ops when one does not hold
    root = PACKAGE.parent.parent
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=root, capture_output=True, text=True, check=True
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0)
