"""One measurement process: set up one workload, run its passes, check every output.

Started by run.py; prints one JSON document on stdout.  The clock for
set-up starts before the package is imported.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sierpdom  # noqa: E402

if Path(sierpdom.__file__).resolve().parent != ROOT / "src" / "sierpdom":
    raise SystemExit(f"sierpdom imported from {sierpdom.__file__}, not from this checkout")

from sierpdom.errors import SolveTimeout  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PINS = Path(__file__).resolve().parent / "expected.json"
CAL_REF_S = 0.002  # the speed all times are scaled to: calibrate() taking 2 ms
CAL_EVERY_S = 0.1


def run_op(op, tracer, label):
    """Time one op; classify any failure; check the output outside the timed region."""
    if tracer:
        tracer.op = label
    cause = out = None
    start = time.perf_counter()
    try:
        out = op.run()
    except SolveTimeout:
        cause = "timeout"
    except RecursionError:
        cause = "recursion-error"
    except Exception as exc:  # the run goes on; the op counts as failed with its cause
        cause = f"exception: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    rec = {"op": op.name, "time": elapsed, "limit": op.limit}
    if cause is None:
        try:
            cause = op.check(out)
            rec.update(op.facts(out))
        except Exception as exc:
            cause = f"check-error: {type(exc).__name__}: {exc}"
    rec["cause"] = cause
    return rec


def milp_cross_check(ops_by_name, records):
    """Compare every recorded value with the ReVelle-Rosing MILP, once per distinct instance."""
    done: dict = {}
    status = {"checked": 0, "skipped": 0, "mismatches": 0}
    for rec in records:
        op = ops_by_name[rec["op"]]
        if op.milp is None or rec["cause"] is not None:
            continue
        n, base, t, roman = op.milp
        key = (n, tuple(base), t, roman)
        if key not in done:
            done[key] = oracle.milp_value(n**t, list(oracle.sierpinski_edges(n, base, t)), roman)
        want = done[key]
        if want is None:
            status["skipped"] += 1
            rec["milp"] = "skipped: scipy not importable"
        elif want != rec["value"]:
            status["mismatches"] += 1
            rec["cause"] = f"wrong-value: {rec['value']} != MILP {want}"
        else:
            status["checked"] += 1
    return status


def node_determinism(records, splits):
    """Each op must report the same node count on every pass, traced or not."""
    seen: dict = {}
    bad = []
    for rec in records:
        if "nodes" not in rec:
            continue
        split = splits.get(rec["label"])
        if split is not None:
            rec["phase_nodes"] = split
            if sum(split) != rec["nodes"]:
                bad.append(f"{rec['op']}: phases {split} do not add up to {rec['nodes']}")
        first = seen.setdefault(rec["op"], rec["nodes"])
        if first != rec["nodes"]:
            bad.append(f"{rec['op']}: {first} then {rec['nodes']} nodes")
    return bad


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of int, bit and list work, best of two.

    A shared host's speed can swing by up to 1.9x for minutes; sampled
    between ops, this loop tracks the swing so that op times can be scaled
    to a fixed machine speed (CAL_REF_S) while the raw times are kept.
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        acc, masks = 0, []
        for i in range(4000):
            m = (i * 2654435761) & 0xFFFFFFFFFFFF
            acc += (m & ~acc).bit_count()
            masks.append(m >> (i & 7))
        masks.sort()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Calibration samples taken at op boundaries, at least CAL_EVERY_S apart."""

    def __init__(self):
        self.samples = [calibrate()]
        self.at = time.perf_counter()

    def tick(self, force=False) -> int:
        if force or time.perf_counter() - self.at >= CAL_EVERY_S:
            self.samples.append(calibrate())
            self.at = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """CAL_REF_S over the mean of the samples just before and just after an op."""
        return CAL_REF_S / ((self.samples[before] + self.samples[before + 1]) / 2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true", help="rewrite expected.json from this run")
    args = ap.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    pins = workloads.Pins(str(PINS), args.record)
    passes = workloads.WORKLOADS[args.workload](args.seed, pins, args.workdir)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_scale": CAL_REF_S / calibrate()}))
        return

    tracer = tracing.Tracer() if args.trace else None
    clock = Clock()
    records, layer_passes, overheads = [], [], []
    splits: dict = {}
    cpu0, wall0 = time.process_time(), time.perf_counter()
    k = 0
    # Whole passes; start another while it would end nearer the deadline than stopping now.
    # The trace mode runs each pass twice, untraced then traced, to measure the overhead.
    while True:
        ops = passes(k)
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.install()
                lo = len(tracer.spans)
            before = clock.tick(force=True)
            pass_recs = []
            for i, op in enumerate(ops):
                label = f"{k}:{i}:{int(traced)}"
                rec = run_op(op, tracer if traced else None, label)
                rec.update({"pass": k, "traced": traced, "label": label, "cal": before})
                before = clock.tick(force=i == len(ops) - 1)
                pass_recs.append(rec)
            records += pass_recs
            if traced:
                tracer.uninstall()
                hi = len(tracer.spans)
                layer_passes.append(tracer.layer_totals(lo, hi))
                splits.update(tracer.op_splits(lo, hi))
                overheads.append(sum(r["time"] for r in pass_recs) - untraced_time)
            else:
                untraced_time = sum(r["time"] for r in pass_recs)
        k += 1
        elapsed = time.perf_counter() - wall0
        if (k >= 2 or tracer) and elapsed + elapsed / k / 2 >= args.seconds:
            break
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for rec in records:
        rec["scale"] = clock.scale(rec["cal"])

    ops_by_name = {op.name: op for p in range(k) for op in passes(p)}
    milp = milp_cross_check(ops_by_name, records)
    nondeterministic = node_determinism(records, splits)
    if args.record:
        pins.save()

    layers = None
    if tracer:
        layers = tracing.median_totals(layer_passes)
        layers["trace.overhead_s"] = statistics.median(overheads)
        for m in tracer.absent_metrics():
            layers.pop(m, None)
        tracer.dump(os.path.join(args.workdir, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "setup_scale": clock.scale(0),
                "cal_ref_s": CAL_REF_S,
                "passes": k,
                "wall_s": wall,
                "cpu_s": cpu,
                "calibration_s": clock.samples,
                "peak_rss_mb": peak_rss_mb,
                "records": records,
                "milp": milp,
                "nondeterministic": nondeterministic,
                "layers": layers,
                "absent": sorted(tracer.absent_metrics()) if tracer else [],
            }
        )
    )


if __name__ == "__main__":
    main()
