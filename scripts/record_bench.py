#!/usr/bin/env python3
"""Record a BENCH_<pr>.json file from runs of perfbench/run.py.

    python3 scripts/record_bench.py --pr N --seconds 30 --pairs 10 \\
        --baseline ../parent-checkout

Runs the four workloads at --trace 0, and relations and crystals at
--trace 1 in the first --trace-pairs pairs, for this checkout and, with
--baseline, for a second checkout (the parent commit), alternating which
side runs first.  Pair k runs seed k, traced runs included, so the traced
runs of both sides are spread over the recording as the untraced ones are.
For each side the file holds the run metadata (commit, Python, nproc, src/
line count), the median and the per-run values of every end-to-end metric
and of failed_ratio for each workload, the medians of the per-layer *.s
totals of the traced relations runs ("per_layer_s", per run in
"per_layer_s_runs"), and those of the traced crystals runs ("runs" per run)
with the build_irreducible cache misses of each op of its seed-1 run per
traced pass ("crystals_trace").  With --baseline, "compare" gives for each
workload and metric (all lower-is-better) the pairs the change wins, the
parent's quartiles, and a verdict: "unchanged" when the medians differ by
no more than the parent's interquartile range, else "better" or "worse"
when at least 9 in 10 pairs agree, else "unresolved"; "compare_traced"
gives the same for each *.s total of the traced relations and crystals
runs.  Runs inherit the environment as it is, as the benchmark's
own runs do; the file records whether PYTHONDONTWRITEBYTECODE is set.  When
it is, no .pyc is written, so every process compiles the package and the
cli workload pays that on every command, while the Python install's .pyc
files are read as usual.  A checkout with .pyc files under src/ or
perfbench/ is then refused, since its runs would read them and skip the
compiling the other side does.  (A fresh PYTHONPYCACHEPREFIX would hide
them, but also every .pyc of the install, and compiling the standard
library too put cli at 8 s a pass against 2.3 s.)  Exits 1 if any run
reports a wrong result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("relations", "category", "crystals", "cli")
TRACED = ("relations", "crystals")


def run_bench(checkout, workload, seed, seconds, trace):
    """One perfbench run: its metadata, metrics and failed ratio."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    meta = json.loads(next(l for l in lines if l.startswith("# meta "))[7:])
    result = json.loads(lines[-1])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    values["failed_ratio"] = result["failed"] / max(result["attempted"], 1)
    return meta, values, result["correct"]


def op_misses(checkout, workload, cache):
    """{op name: misses of the cache in each traced pass}, from the detail
    file of the workload's traced seed-1 run; each op starts with empty
    caches."""
    detail = json.loads((checkout / "perfbench" / "out" / (
        "%s-seed1-trace1.json" % workload)).read_text())
    misses = {}
    for run in detail["passes"]:
        for op in run["ops"] if run["traced"] else ():
            misses.setdefault(op["name"], []).append(op["caches"][cache][1])
    return misses


def summarise(runs):
    return {k: {"median": median(r[k] for r in runs),
                "runs": [r[k] for r in runs]} for k in runs[0]}


def compare(parent, change):
    """Wins, parent quartiles and verdict of change against parent."""
    out = {}
    for key in parent[0]:
        old = [r[key] for r in parent]
        new = [r[key] for r in change]
        wins = sum(b < a for a, b in zip(old, new))
        losses = sum(b > a for a, b in zip(old, new))
        q1, _, q3 = quantiles(old, n=4) if len(old) > 1 else (old[0],) * 3
        shift = median(new) - median(old)
        verdict = "unchanged" if abs(shift) <= q3 - q1 else "unresolved"
        if verdict != "unchanged" and max(wins, losses) * 10 >= 9 * len(old):
            verdict = "better" if shift < 0 else "worse"
        out[key] = {"change_wins": wins, "parent_q1": q1, "parent_q3": q3,
                    "median_shift": shift, "verdict": verdict}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--pairs", type=int, default=1,
                        help="runs per workload and side, seeds 1..pairs")
    parser.add_argument("--trace-pairs", type=int, default=1,
                        help="pairs that also run relations and crystals "
                        "traced (at most --pairs)")
    parser.add_argument("--baseline", type=Path,
                        help="checkout of the parent commit to run as well")
    parser.add_argument("--out", type=Path,
                        help="output file (default BENCH_<pr>.json here)")
    args = parser.parse_args(argv)

    sides = {"change": ROOT}
    if args.baseline:
        sides["parent"] = args.baseline.resolve()
    dont_write_bytecode = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    cached = [str(pyc) for checkout in sides.values()
              for tree in ("src", "perfbench")
              for pyc in (checkout / tree).rglob("*.pyc")]
    if dont_write_bytecode and cached:
        parser.error("PYTHONDONTWRITEBYTECODE is set, but runs would read "
                     "these .pyc files: " + " ".join(cached))
    if not 1 <= args.trace_pairs <= args.pairs:
        parser.error("--trace-pairs must be between 1 and --pairs")
    metas = {}
    runs = {side: {w: [] for w in WORKLOADS} for side in sides}
    traced = {side: {w: [] for w in TRACED} for side in sides}
    correct = True
    for k in range(args.pairs):
        order = list(sides) if k % 2 == 0 else list(sides)[::-1]
        for workload in WORKLOADS:
            for side in order:
                meta, values, ok = run_bench(sides[side], workload, k + 1,
                                             args.seconds, 0)
                metas.setdefault(side, meta)
                runs[side][workload].append(values)
                correct &= ok
        for workload in TRACED if k < args.trace_pairs else ():
            for side in order:
                _, layers, ok = run_bench(sides[side], workload, k + 1,
                                          args.seconds, 1)
                traced[side][workload].append(
                    {name: v for name, v in layers.items()
                     if name.endswith(".s")})
                correct &= ok
    record = {"pr": args.pr, "seconds": args.seconds, "pairs": args.pairs,
              "trace_pairs": args.trace_pairs,
              "seeds": list(range(1, args.pairs + 1)),
              "dont_write_bytecode": dont_write_bytecode}
    for side in sides:
        spans = {w: summarise(traced[side][w]) for w in TRACED}
        record[side] = {
            "meta": metas[side],
            "end_to_end": {w: summarise(runs[side][w]) for w in WORKLOADS},
            "per_layer_s": {name: v["median"]
                            for name, v in spans["relations"].items()},
            "per_layer_s_runs": traced[side]["relations"],
            "crystals_trace": {
                "per_layer_s": {name: v["median"]
                                for name, v in spans["crystals"].items()},
                "runs": traced[side]["crystals"],
                "build_irreducible_misses": op_misses(
                    sides[side], "crystals", "crystal.build_irreducible"),
            },
        }
    if args.baseline:
        record["compare"] = {w: compare(runs["parent"][w], runs["change"][w])
                             for w in WORKLOADS}
        record["compare_traced"] = {
            w: compare(traced["parent"][w], traced["change"][w])
            for w in TRACED}
    out = args.out or ROOT / ("BENCH_%d.json" % args.pr)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
