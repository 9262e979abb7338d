#!/usr/bin/env python3
"""Benchmark of cactus-crystal; run it from the root of a checkout.

    python3 perfbench/run.py --workload relations --seed 1 --seconds 30 --trace 0

Runs the workload's op list (perfbench/ops.py) pass after pass, as a closed
loop with one client, for about --seconds seconds, and checks every result
against its known answer.  Each op runs in a child forked from this process,
which has imported cactus_crystal from ./src and run nothing; the cli
workload instead spawns one ``python -m cactus_crystal.cli`` per op.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced passes with traced ones, records spans around the calls
the ops make into each module, and reports the per-layer metrics.  The
output is one line per metric, then the result as one JSON line.  Details
(per-op times, spans, cache counters, run metadata) go to perfbench/out/.
"""

import argparse
import json
import math
import os
import platform
import resource
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

HARD_LIMIT_S = 170      # every run must end within 180 s
# Set-up is timed this many times, spread evenly over the run: the host's
# speed drifts by a third over a few seconds, so samples taken back to back
# all land in the same slow or fast spell.
SETUP_SAMPLES = 20
IMPORT_CLI = ["-c", "import cactus_crystal.cli"]
PROBE = {"kind": "probe", "name": "probe", "id": -1}


class Runner:
    """Runs ops one at a time and keeps what later ops of a pass read."""

    def __init__(self, ops, deadline):
        self.ops = ops
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.state = {}
        self.timed_out = False
        self.setup_times = []

    def remaining(self):
        return self.deadline - time.monotonic()

    def spawn(self, argv):
        """Runs a fresh interpreter to its exit."""
        return subprocess.run([sys.executable] + argv, env=self.env,
                              cwd=ROOT, capture_output=True,
                              timeout=max(self.remaining(), 1))

    def warm_up(self):
        """One fresh interpreter importing the CLI, which writes the
        bytecode caches that every later run reads."""
        self.spawn(IMPORT_CLI).check_returncode()

    def time_setup(self):
        """Times a fresh interpreter importing the CLI."""
        with Speedometer(ticks=False) as clock:
            self.spawn(IMPORT_CLI)
        self.setup_times.append(clock.times())

    def run_op(self, op, traced):
        if op["kind"] != "cli":
            rec = self.fork(op, traced)
        else:
            rec = self.command(op)
            if traced and rec["ok"]:
                inner = self.fork(dict(op, kind="cli_main"), traced)
                rec["spans"], rec["caches"] = inner["spans"], inner["caches"]
                rec["ok"], rec["error"] = inner["ok"], inner["error"]
        if op.get("provides") and rec["ok"]:
            self.provide(op["provides"], rec.pop("output"))
        rec.pop("output", None)
        rec["name"], rec["id"] = op["name"], op["id"]
        return rec

    def provide(self, key, value):
        self.state[key] = value
        if key == "category":
            path = OUT / ("category-%d.json" % os.getpid())
            path.write_text(json.dumps(value))
            self.state["category_file"] = str(path)

    def command(self, op):
        argv = [self.state.get("category_file", a)
                if a == self.ops.CATEGORY_FILE else a for a in op["argv"]]
        try:
            with Speedometer(ticks=False) as clock:
                proc = self.spawn(["-m", "cactus_crystal.cli"] + argv)
        except subprocess.TimeoutExpired:
            self.timed_out = True
            return failed("timed out")
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            report = {}
        rec = dict(clock.times(), ok=True, error=None, spans=[], caches=None,
                   counters={"cli.output_bytes": len(proc.stdout)},
                   output=report.get("data"))
        if proc.returncode != 0 or report.get("ok") is not True:
            rec["ok"] = False
            rec["error"] = "exit %d, ok %r: %s" % (
                proc.returncode, report.get("ok"),
                proc.stderr.decode(errors="replace")[-300:])
        return rec

    def fork(self, op, traced):
        """Runs ops.execute(op) in a forked child and returns its record."""
        sys.stdout.flush()
        sys.stderr.flush()
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(rfd)
                result = self.ops.execute(op, traced, self.state)
                with os.fdopen(wfd, "wb") as fh:
                    fh.write(json.dumps(result).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(wfd)
        try:
            data = self.read(rfd, pid)
        finally:
            os.close(rfd)
            _, status = os.waitpid(pid, 0)
        if data is None:
            return failed("timed out")
        try:
            return json.loads(data)
        except ValueError:
            return failed("child exited with status %d and no result"
                          % status)

    def read(self, fd, pid):
        chunks = []
        while True:
            left = self.remaining()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                self.timed_out = True
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)

    def measure(self, ops, seconds, trace):
        """Passes over ops until the next one would end after `seconds`.

        Traced runs alternate untraced and traced passes, starting untraced,
        and make at least one of each; a traced pass starts with the probe.
        Returns a list of (traced, wall seconds, op records).
        """
        passes = []
        start = time.monotonic()
        setup_every = seconds / SETUP_SAMPLES
        while not self.timed_out:
            traced = bool(trace) and len(passes) % 2 == 1
            records = []
            t0 = time.perf_counter()
            for op in ([PROBE] if traced else []) + ops:
                records.append(self.run_op(op, traced))
                if self.timed_out:
                    break
                due = start + len(self.setup_times) * setup_every
                if not trace and time.monotonic() >= due:
                    self.time_setup()
            wall = time.perf_counter() - t0
            passes.append((traced, wall, records))
            elapsed = time.monotonic() - start
            if (elapsed + wall > seconds and (not trace or len(passes) >= 2)
                    or elapsed + wall > HARD_LIMIT_S / 2):
                break
        return passes


def failed(error):
    return {"ok": False, "error": error, "s": 0.0, "wall_s": 0.0,
            "ref_s": None, "spans": [], "counters": {}, "caches": None,
            "output": None}


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def op_times(passes, traced):
    """Each op's median time at the reference speed, over the untraced or
    the traced passes.

    Taking the median per op, rather than per pass, lets a slow spell of
    the host spoil one sample of an op without spoiling a whole pass.
    """
    times = {}
    for t, _, recs in passes:
        if t == traced:
            for r in recs:
                if r["id"] != PROBE["id"]:
                    times.setdefault(r["id"], []).append(r["s"])
    return [median(v) for v in times.values()]


def end_to_end(setup_times, passes):
    ops = op_times(passes, False)
    return {
        "setup_s": median(t["s"] for t in setup_times),
        "pass_s": sum(ops),
        "op_s.p50": median(ops),
        "op_s.p90": percentile(ops, 0.9),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def per_layer(passes):
    """Per-layer metrics, per traced pass, from spans and counters.

    A span's self time is its duration minus the time its child spans
    cover.  Cache counters are summed over the ops, each of which starts
    with empty caches.
    """
    traced = [recs for t, _, recs in passes if t]
    totals, values = {}, {}
    for recs in traced:
        for rec in recs:
            spans = rec["spans"]
            covered = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent is not None:
                    covered[parent] += end - start
            for (name, start, end, _, _), inner in zip(spans, covered):
                calls, s, self_s = totals.get(name, (0, 0.0, 0.0))
                totals[name] = (calls + 1, s + end - start,
                                self_s + end - start - inner)
            for name, value in rec["counters"].items():
                values[name] = values.get(name, 0) + value
            for key, (hits, misses, size) in (rec["caches"] or {}).items():
                layer = key.split(".")[0]
                for stat, v in (("hits", hits), ("misses", misses),
                                ("currsize", size)):
                    name = "%s.cache.%s" % (layer, stat)
                    values[name] = values.get(name, 0) + v
    for name, (calls, s, self_s) in totals.items():
        values[name + ".calls"] = calls
        values[name + ".s"] = s
        values[name + ".self_s"] = self_s
    values = {k: v / max(len(traced), 1) for k, v in values.items()}

    def ratio(num, den):
        return num / den if den else 0.0

    verify_s = values.get("actions.verify_relations.s", 0.0)
    values["actions.instances_per_s"] = ratio(
        values.get("actions.instances", 0), verify_s)
    values["actions.letters_per_s"] = ratio(
        values.get("actions.letters", 0), verify_s)
    mutants = values.get("category_data.mutants", 0)
    values["category_data.mutants_per_s"] = ratio(
        mutants, values.get("category_data.mutate_category.s", 0.0)
        + values.get("category_data.is_valid.s", 0.0))
    values["category_data.mutants_caught_ratio"] = ratio(
        values.get("category_data.mutants_caught", 0), mutants)

    values["trace_overhead_ratio"] = ratio(
        sum(op_times(passes, True)), sum(op_times(passes, False)))
    return values


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata():
    """Context of the run; recorded, never gated."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("relations", "category", "crystals", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cactus_crystal" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no package source at %s\n" % SRC)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import ops

    # The reference loop must run on the CPU that runs the op: two CPUs of
    # the host do not drift together.  Forked and spawned children inherit
    # the mask.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    runner = Runner(ops, time.monotonic() + HARD_LIMIT_S)
    runner.warm_up()
    passes = runner.measure(ops.build_ops(args.workload, args.seed),
                            args.seconds, args.trace)
    if not runner.setup_times:
        runner.time_setup()

    if args.trace:
        values, wanted = per_layer(passes), spec["per_layer"]
    else:
        values = end_to_end(runner.setup_times, passes)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    records = [r for _, _, recs in passes for r in recs]
    bad = [r for r in records if not r["ok"]]
    meta = metadata()
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "meta": meta,
              "setup_s": runner.setup_times, "metrics": metrics,
              "passes": [{"traced": t, "wall_s": wall,
                          "ops": [{k: r[k] for k in ("id", "name", "s",
                                                     "wall_s", "ref_s", "ok",
                                                     "error", "caches")}
                                  for r in recs]}
                         for t, wall, recs in passes]}
    if args.trace:
        detail["spans"] = [[pass_no] + span
                           for pass_no, (t, _, recs) in enumerate(passes)
                           for r in recs for span in r["spans"]]
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                        args.trace))).write_text(
        json.dumps(detail, indent=1))
    path = runner.state.get("category_file")
    if path:
        os.remove(path)

    print("# meta %s" % json.dumps(meta, sort_keys=True))
    for r in bad:
        print("# failed op %s: %s" % (r["name"], r["error"]))
    if not args.trace:
        print("# pass_s and op_s.* come from the median time of each op "
              "over %d passes; setup_s is the median of %d samples"
              % (len(passes), len(runner.setup_times)))
    for name, m in metrics.items():
        print("%-44s %-14.6g %s" % (name, m["value"], m["unit"]))
    print("%-44s %-14.6g %s" % ("failed_ratio",
                                len(bad) / max(len(records), 1), "ratio"))
    print(json.dumps({"correct": not bad and bool(records)
                      and not runner.timed_out,
                      "attempted": len(records), "failed": len(bad),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
