"""sierpdom benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see BENCHMARK.json for why
each exists): families, sweep and large, plus frontier, the instances
the package cannot solve yet (timeouts and recursion depth), which is
left out of BENCHMARK.json because every one of its ops fails today.

Each workload is a closed loop with one client: one process runs its
ops in sequence, in whole passes, for about S seconds.  The measuring
process is fresh, so its ru_maxrss is the workload's peak memory;
set-up (importing the package and generating the inputs) is timed in
that process and in SETUP_SAMPLES more that only set up, and reported as
the median.  --trace 1 runs every pass untraced and then traced and
reports per-layer metrics instead of end-to-end ones.

Times are scaled to a fixed machine speed.  On a shared 2-vCPU Xeon VM
the same pure-Python work ran up to 1.9x slower for stretches longer
than a run, so the worker times its own fixed calibration loop at op
boundaries (at most every 0.1 s) and multiplies each op's wall time by
the reference loop time over the loop time measured around it.  The
loop is benchmark code, so a change to the package cannot move it.
The raw wall times are printed next to each metric and kept in the run
record.

Every output is checked after its op's timer stops.  The human-readable
report goes to stdout, and the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A record of the
run (machine, every op, failure causes, node counts) is written under
.perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
SETUP_SAMPLES = 6
DEADLINE_S = 170.0

RUN_FAILURES = ("timeout", "recursion-error", "exception")
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker(args, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(WORKDIR),
        *extra,
    ]
    timeout = deadline - time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def end_to_end(res: dict, setup: list[float]) -> tuple[dict, list[str]]:
    """Metrics from op times scaled to the reference machine speed; raw figures in the notes."""
    recs = [r for r in res["records"] if not r["traced"]]
    ok = sum(1 for r in recs if r["cause"] is None)
    lat = sorted(r["limit"] if r["cause"] == "timeout" else r["time"] * r["scale"] for r in recs)
    raw = sorted(r["time"] for r in recs)
    n = len(lat)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ok / sum(r["time"] * r["scale"] for r in recs),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": percentile(lat, 0.9),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups",
        "ops_per_s": f"{ok} ok ops; raw {ok / sum(raw):.6g}",
        "latency_p50_s": f"n={n}; raw {statistics.median(raw):.6g}",
        "latency_p90_s": f"n={n}, {n - math.ceil(0.9 * n)} beyond; raw {percentile(raw, 0.9):.6g}",
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    lines = [f"{k:<16}{v:>14.6g} {E2E_UNITS[k]:<6} {notes[k]}" for k, v in values.items()]
    failed = n - ok
    lines.append(f"{'error_rate':<16}{failed / n:>14.6g} {'ratio':<6} {failed}/{n} ops failed")
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("families", "frontier", "sweep", "large"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    machine = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg_before": os.getloadavg(),
    }
    samples = [worker(args, deadline, "--setup-only") for _ in range(SETUP_SAMPLES)]
    res = worker(args, deadline)
    machine["loadavg_after"] = os.getloadavg()
    samples.append(res)
    setup = [s["setup_s"] * s["setup_scale"] for s in samples]

    recs = [r for r in res["records"] if not r["traced"]]
    failed = [r for r in recs if r["cause"] is not None]
    # an op that ran but whose output failed its check makes the run incorrect
    wrong = [r for r in res["records"] if r["cause"] and r["cause"].split(":")[0] not in RUN_FAILURES]
    correct = not wrong and not res["nondeterministic"]

    print(f"# sierpdom benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# python {machine['python']}, nproc {machine['nproc']}, cpu {machine['cpu']!r}, "
          f"load {machine['loadavg_before'][0]:.2f} -> {machine['loadavg_after'][0]:.2f}")
    cal = res["calibration_s"]
    pairs = " (each untraced, then traced)" if args.trace else ""
    print(f"# {res['passes']} passes{pairs}, wall {res['wall_s']:.3f} s, process cpu {res['cpu_s']:.3f} s, "
          f"calibration loop {min(cal) * 1e3:.3f}..{max(cal) * 1e3:.3f} ms "
          f"(reference {res['cal_ref_s'] * 1e3:g} ms)")
    milp = res["milp"]
    print(f"# MILP cross-check: {milp['checked']} agreed, {milp['mismatches']} disagreed, "
          f"{milp['skipped']} skipped")
    for cause in sorted({r["cause"] for r in failed}):
        names = sorted({r["op"] for r in failed if r["cause"] == cause})
        print(f"# failed ({cause}): {', '.join(names[:12])}{' ...' if len(names) > 12 else ''}")
    for line in res["nondeterministic"][:5]:
        print(f"# nondeterministic node count: {line}")

    if args.trace:
        units = dict(tracing.LAYER_METRICS)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["layers"].items()}
        for k, v in metrics.items():
            print(f"{k:<34}{v['value']:>16.6g} {v['unit']}")
        for k in res["absent"]:
            print(f"{k:<34}{'absent':>16}")
        if res["layers"].get("solver.gamma_r_exact_s"):
            share = res["layers"].get("solver.phase2_s", 0.0) / res["layers"]["solver.gamma_r_exact_s"]
            print(f"# phase 2 share of gamma_R solver time: {share:.3f}")
    else:
        metrics, lines = end_to_end(res, setup)
        print("\n".join(lines))

    WORKDIR.mkdir(exist_ok=True)
    record = {"args": vars(args), "machine": machine, "setup_samples_s": setup, "metrics": metrics, **res}
    with open(WORKDIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": correct, "attempted": len(recs), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
