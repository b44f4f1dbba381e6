"""Record a parent-versus-change benchmark comparison as a BENCH_*.json file.

    python3 tools/bench_json.py --parent REV --change REV --pairs N \
        --seeds 3,7 --out BENCH_X.json

Run from a git checkout.  Each revision is exported with `git archive`
into its own fresh directory, and the benchmark command runs there, so
both sides use their own committed benchmark and package.  The change's
BENCHMARK.json names the command, the workloads, the run length and the
end-to-end metrics with the direction that is better.  For each workload
the script runs N pairs, one run of each side per pair, alternating which
side runs first; pair i uses seed i modulo the seed list.  It reads the
JSON object that the command prints last and writes, per workload and
side, every end-to-end metric's median, quartiles and run values, the ops
attempted and failed and whether every run was correct, plus how many
pairs the change won on each metric (ties count for neither side).
After the pairs, each side runs the workload once more with --trace 1,
on the first seed, and the record keeps the per-layer metrics that
BENCHMARK.json names under per_layer, leaving out those the run reports
absent.  The record also names the Python version, the CPU, the seeds
and both commits.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def quartiles(values: list[float]) -> dict:
    """Median and inclusive quartiles of values (one value is its own quartiles)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def summarize(lines: list[str], better: dict[str, str]) -> dict:
    """One side's runs, each the benchmark's last stdout line, in run order.

    better maps each end-to-end metric to "lower" or "higher".
    """
    runs = [json.loads(line) for line in lines]
    metrics = {}
    for name in better:
        metrics[name] = quartiles([r["metrics"][name]["value"] for r in runs])
        metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
    return {
        "metrics": metrics,
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "correct": all(r["correct"] for r in runs),
    }


def layers(line: str, names: list[str]) -> dict:
    """A traced run's per-layer metrics, value and unit, for each of names it reports."""
    metrics = json.loads(line)["metrics"]
    return {name: metrics[name] for name in names if name in metrics}


def change_wins(parent: dict, change: dict, better: dict[str, str]) -> dict:
    """Per metric, the pairs in which the change read better than the parent."""
    wins = {}
    for name, direction in better.items():
        pairs = zip(parent["metrics"][name]["values"], change["metrics"][name]["values"])
        if direction == "lower":
            wins[name] = sum(c < p for p, c in pairs)
        else:
            wins[name] = sum(c > p for p, c in pairs)
    return wins


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def export(rev: str, into: Path) -> str:
    """Extract the committed files of rev into a new directory; return its full hash."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=git("archive", commit), check=True)
    return commit


def run_once(
    checkout: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int = 0
) -> str:
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    cmd += ["--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()[-1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated workload seeds, cycled over the pairs")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    with tempfile.TemporaryDirectory(prefix="bench-json-") as tmp:
        dirs = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), dirs[side]) for side in dirs}
        spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        per_layer = [m["name"] for m in spec["per_layer"]]
        seconds = spec["run_seconds"]
        record = {
            "python": platform.python_version(),
            "cpu": cpu_model(),
            "seeds": seeds,
            "seconds": seconds,
            "pairs": args.pairs,
            "commits": commits,
            "workloads": {},
        }
        for workload in (w["name"] for w in spec["workloads"]):
            lines = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                seed = seeds[i % len(seeds)]
                for side in order:
                    lines[side].append(run_once(dirs[side], spec["command"], workload, seed, seconds))
                    print(f"{workload} pair {i + 1}/{args.pairs} {side} done", file=sys.stderr, flush=True)
            sides = {side: summarize(lines[side], better) for side in lines}
            wins = change_wins(sides["parent"], sides["change"], better)
            trace = {"seed": seeds[0]}
            for side in lines:
                line = run_once(dirs[side], spec["command"], workload, seeds[0], seconds, trace=1)
                trace[side] = layers(line, per_layer)
                print(f"{workload} traced {side} done", file=sys.stderr, flush=True)
            record["workloads"][workload] = {**sides, "change_wins": wins, "trace": trace}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0

if __name__ == "__main__":
    sys.exit(main())
