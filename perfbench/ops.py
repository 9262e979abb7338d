"""The benchmark's four workloads: op lists built from a seed, and op bodies.

A workload is a fixed list of ops that run.py runs as a closed loop with
one client.  An op body calls the package's public functions inside spans
named ``<module>.<function>`` and raises WrongAnswer when a result differs
from its known answer in oracles.py.  run.py runs each body in a child
forked from a process that has imported the package and run nothing, so
every op starts with empty module caches.  Ops of kind ``cli`` are instead
run by run.py as a fresh ``python -m cactus_crystal.cli`` process.

It uses no API that ROADMAP.md plans to remove: no ``threads`` argument,
no ``internal_cactus`` and no ``ActionContext``; of a cli report it reads
only the exit code, ``ok`` and the ``data`` of ``category build``.
"""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager, nullcontext, redirect_stdout
from itertools import permutations, product
from math import factorial, prod
from statistics import median
from time import perf_counter

import cactus_crystal
from cactus_crystal import category_data as cdata
from cactus_crystal import commutor as comm
from cactus_crystal import crystal
from cactus_crystal.actions import LabeledPoint, orbit, verify_relations
from cactus_crystal.cartan import cartan_type_a
from cactus_crystal.cli import main as cli_main
from cactus_crystal.groups import (
    CactusGen,
    PermGen,
    cabling,
    defining_relation_families,
    mc_relation_suite,
    word,
)
from cactus_crystal.tableaux import bk_braid_witness, rsk_crosscheck

import oracles
from speed import Speedometer

# Placeholder in cli argv for the category document that run.py writes.
CATEGORY_FILE = "{category}"

# The lru_caches whose counters a traced run reads after each op, by layer.
CACHES = {
    "crystal": (crystal, ("build_irreducible", "product_of_weights")),
    "commutor": (comm, ("reversal_table", "commutor_table")),
}


class WrongAnswer(Exception):
    """A result differs from its known answer."""


def expect(ok, what):
    if not ok:
        raise WrongAnswer(what)


class Recorder:
    """Spans and counters of one op, kept in memory until the op ends.

    A span is [name, start, end, parent, op id], where parent is the index
    of the enclosing span in this op's list.  Untraced, span() does nothing.
    """

    def __init__(self, op_id, traced):
        self.op_id = op_id
        self.traced = traced
        self.spans = []
        self.counters = {}
        self._open = []

    def span(self, name):
        return self._span(name) if self.traced else nullcontext()

    @contextmanager
    def _span(self, name):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = [name, start, end, parent, self.op_id]

    def add(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value


# ---------------------------------------------------------------------------
# op lists


def _verify_op(kind, n, rank, choices, rng):
    count, families = oracles.RELATIONS[(kind, n)]
    return {"kind": "verify", "name": "verify_%s%d_A%d" % (kind, n, rank),
            "flavour": kind, "n": n, "rank": rank, "choices": choices,
            "order_seed": rng.randrange(2 ** 32),
            "expect": {"relations": count, "families": families,
                       "points": oracles.sweep_points(choices, n)}}


def relations_ops(rng):
    a1 = [(1,), (2,)]
    ops = [_verify_op(kind, 4, 1, a1, rng) for kind in ("C", "vC", "AC", "MC")]
    ops.append(_verify_op("vC", 3, 2, [(1, 0), (0, 1)], rng))
    weights = [rng.choice([(1,), (2,), (3,)]) for _ in range(6)]
    entries = [rng.randrange(oracles.weyl_dim(w)) for w in weights]
    ops.append({"kind": "orbit", "name": "orbit_A1_n6", "weights": weights,
                "entries": entries,
                "expect": {"size": oracles.rearrangements(
                    list(zip(weights, entries)))}})
    rng.shuffle(ops)
    return ops


A2_CORE = [(0, 0), (1, 0), (0, 1), (1, 1)]
# The sweep is mutate_category seeds 0..7 on every run, as in the acceptance
# sweep; the workload seed only orders them.  The time to catch one mutant
# varies by a factor of ten with where the swap lands, so a seeded choice of
# eight would move the pass time by more than the bound between seeds.
MUTANT_SEEDS = range(8)


def category_ops(rng):
    # Table sizes of the A2 core, recorded once from the package; the
    # colour-set sizes are also checked against the Weyl dimension.
    ops = [{"kind": "category_build", "name": "from_crystals_A2",
            "rank": 2, "core": A2_CORE, "provides": "category",
            "expect": {"mult": 689, "colours": 33, "sigma": 72, "phi": 72,
                       "assoc": 400}},
           {"kind": "category_validate", "name": "validate_A2"},
           {"kind": "category_roundtrip", "name": "roundtrip_A2"}]
    mutants = [{"kind": "category_mutant", "name": "mutant%d" % k, "seed": k}
               for k in MUTANT_SEEDS]
    rng.shuffle(mutants)
    return ops + mutants


HEXAGON_WEIGHTS = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
REVERSAL_WEIGHTS = [(1, 0), (0, 1), (1, 1), (1, 1)]


def crystals_ops(rng):
    triples = list(product(HEXAGON_WEIGHTS, repeat=3))
    rng.shuffle(triples)
    factors = list(REVERSAL_WEIGHTS)
    rng.shuffle(factors)
    cabled = {(n, i, j): oracles.translations(n, i, j)
              for n in range(2, 7)
              for i in range(1, n) for j in range(i + 1, n + 1)}
    ops = [{"kind": "product", "name": "product_A3", "rank": 3,
            "left": (2, 1, 1), "right": (1, 1, 0)},
           {"kind": "hexagon", "name": "hexagon_A2", "triples": triples},
           {"kind": "reversal", "name": "reversal4_A2", "weights": factors},
           {"kind": "rsk", "name": "rsk_crosscheck5", "n": 5},
           {"kind": "bk", "name": "bk_braid_witness"},
           {"kind": "cabling", "name": "cabling_n6", "expect": cabled}]
    rng.shuffle(ops)
    return ops


def cli_ops(rng):
    perm = list(range(1, 6))
    rng.shuffle(perm)
    argvs = [
        ["crystal", "--cartan", "A2", "--weight", "1,1"],
        ["tensor", "--weights", "1 1"],
        ["commutor", "--left", "1", "--right", "2"],
        ["group", "--kind", "C", "--n", "3", "--relations"],
        ["group", "--kind", "MC", "--n", "4", "--s0j", "2"],
        ["group", "--n", "4", "--cabling", "w[2,3,1];2,3"],
        ["act", "--weights", "1 2", "--word", "s1_2",
         "--point", "%d,%d" % (rng.randrange(2), rng.randrange(3))],
        ["verify", "--kind", "vC", "--type", "A1", "--weights", "1,1,1"],
        ["verify", "--kind", "AC", "--n", "3", "--choices", "1,2"],
        ["orbit", "--weights", "1 2", "--gens", "s1_2",
         "--point", "%d,%d" % (rng.randrange(2), rng.randrange(3))],
        ["image", "--shape", "2,2,1", "--report", "contains-alternating"],
        ["rsk", "--perm", ",".join(map(str, perm))],
        ["evac", "--tableau", "1,2;3"],
        ["bk", "--braid-witness"],
        ["crosscheck", "--n", "4"],
    ]
    rng.shuffle(argvs)
    argvs += [
        ["category", "build", "--colours", "0 1 2"],
        ["category", "validate", "--input", CATEGORY_FILE],
        ["category", "roundtrip", "--input", CATEGORY_FILE],
        ["category", "mutate", "--input", CATEGORY_FILE, "--count", "3",
         "--seed", str(rng.randrange(10 ** 6))],
    ]
    ops = [{"kind": "cli", "argv": a,
            "name": "cli_" + "_".join(a[:2] if a[0] == "category" else a[:1])}
           for a in argvs]
    ops[-4]["provides"] = "category"
    return ops


def build_ops(workload, seed):
    """The op list of one pass; the same seed gives the same list."""
    builders = {"relations": relations_ops, "category": category_ops,
                "crystals": crystals_ops, "cli": cli_ops}
    ops = builders[workload](random.Random("%s:%d" % (workload, seed)))
    for k, op in enumerate(ops):
        op["id"] = k
    return ops


# ---------------------------------------------------------------------------
# op bodies: each takes (op, recorder, state) and returns extra output


def run_verify(op, rec, state):
    kind, n = op["flavour"], op["n"]
    want = op["expect"]
    with rec.span("groups.relations"):
        rels = (mc_relation_suite(n) if kind == "MC"
                else defining_relation_families(kind, n))
    rec.add("groups.relations.count", len(rels))
    expect(len(rels) == want["relations"],
           "%d relations, expected %d" % (len(rels), want["relations"]))
    expect({f for f, _, _ in rels} == want["families"], "family set differs")
    tuples = sorted(set(product(op["choices"], repeat=n)))
    random.Random(op["order_seed"]).shuffle(tuples)
    cartan = cartan_type_a(op["rank"])
    with rec.span("actions.verify_relations"):
        rep = verify_relations(cartan, kind, n, tuples)
    expect(rep["passed"] is True, "relation fails: %s" % rep["failures"][:1])
    expect(rep["relations"] == want["relations"]
           and rep["points"] == want["points"]
           and set(rep["families"]) == want["families"],
           "report counts differ from the known answer")
    letters = sum(len(lhs.gens) + len(rhs.gens) for _, lhs, rhs in rels)
    rec.add("actions.instances", len(rels) * rep["points"])
    rec.add("actions.letters", letters * rep["points"])


def run_orbit(op, rec, state):
    weights = tuple(op["weights"])
    n = len(weights)
    gens = []
    for k in range(1, n):
        swap = list(range(1, n + 1))
        swap[k - 1], swap[k] = swap[k], swap[k - 1]
        gens.append(word("vC", n, [PermGen(tuple(swap))]))
    start = LabeledPoint(weights, tuple(op["entries"]))
    with rec.span("actions.orbit"):
        points = orbit(cartan_type_a(1), gens, start)
    expect(len(points) == op["expect"]["size"],
           "orbit has %d points, expected %d"
           % (len(points), op["expect"]["size"]))


def _load_category(rec, state):
    with rec.span("category_data.category_from_json"):
        return cdata.category_from_json(state["category"])


def run_category_build(op, rec, state):
    with rec.span("category_data.from_crystals"):
        data = cdata.from_crystals(cartan_type_a(op["rank"]), op["core"])
    want = op["expect"]
    sizes = {"mult": len(data.mult), "colours": len(data.cl),
             "sigma": len(data.sigma), "phi": len(data.phi),
             "assoc": len(data.assoc)}
    expect(sizes == want, "table sizes %s, expected %s" % (sizes, want))
    for colour, ids in data.cl.items():
        expect(len(ids) == oracles.weyl_dim(colour),
               "colour %r has %d elements" % (colour, len(ids)))
    rec.add("category_data.table_entries", len(data.mult) + sum(
        len(t) for tables in (data.sigma, data.phi, data.assoc)
        for t in tables.values()))
    with rec.span("category_data.category_to_json"):
        doc = cdata.category_to_json(data)
    return doc


def run_category_validate(op, rec, state):
    data = _load_category(rec, state)
    with rec.span("category_data.validate"):
        rep = cdata.validate(data)
    expect(rep["passed"] is True, "validate fails: %s" % rep["failures"][:1])


def run_category_roundtrip(op, rec, state):
    data = _load_category(rec, state)
    with rec.span("category_data.covering_from_category"):
        fs = cdata.covering_from_category(data)
    with rec.span("category_data.verify_fiber_system"):
        rep = cdata.verify_fiber_system(fs)
    expect(rep["passed"] is True, "fibre system fails: %s"
           % rep["failures"][:1])
    with rec.span("category_data.category_from_covering"):
        back = cdata.category_from_covering(fs)
    expect(back == data, "category_from_covering(fs) != data")


def run_category_mutant(op, rec, state):
    data = _load_category(rec, state)
    with rec.span("category_data.mutate_category"):
        mutant, note = cdata.mutate_category(data, seed=op["seed"])
    with rec.span("category_data.is_valid"):
        valid = cdata.is_valid(mutant)
    rec.add("category_data.mutants")
    rec.add("category_data.mutants_caught", not valid)
    expect(not valid, "mutant not caught: %s" % note)


def run_product(op, rec, state):
    cartan = cartan_type_a(op["rank"])
    with rec.span("crystal.build_irreducible"):
        left = crystal.build_irreducible(cartan, op["left"])
    with rec.span("crystal.build_irreducible"):
        right = crystal.build_irreducible(cartan, op["right"])
    expect(left.size == oracles.weyl_dim(op["left"])
           and right.size == oracles.weyl_dim(op["right"]),
           "factor sizes differ from the Weyl dimension")
    with rec.span("crystal.tensor"):
        t = crystal.tensor(left, right)
    with rec.span("crystal.components"):
        parts = crystal.components(t)
    for head, sub in parts:
        expect(sub.size == oracles.weyl_dim(t.wt(head)),
               "component of weight %r has %d elements"
               % (t.wt(head), sub.size))
    expect(sum(sub.size for _, sub in parts) == t.size == left.size
           * right.size, "components do not partition the product")
    with rec.span("crystal.normality_report"):
        rep = crystal.normality_report(t)
    expect(rep["status"] == "normal", "product is %s" % rep["status"])
    with rec.span("commutor.schutzenberger"):
        xi = comm.schutzenberger(t)
    expect(all(xi(xi(b)) == b for b in range(t.size)),
           "Schutzenberger map is not an involution")
    with rec.span("commutor.commutor"):
        there = comm.commutor(left, right)
    with rec.span("commutor.commutor"):
        back = comm.commutor(right, left)
    expect(all(back(there(b)) == b for b in range(t.size)),
           "commutor there and back is not the identity")
    rec.add("crystal.elements", left.size + right.size + t.size)


def run_hexagon(op, rec, state):
    cartan = cartan_type_a(2)
    for lam, mu, nu in op["triples"]:
        with rec.span("commutor.hexagon_holds"):
            holds = comm.hexagon_holds(cartan, lam, mu, nu)
        expect(holds, "hexagon fails at %r" % ((lam, mu, nu),))


def run_reversal(op, rec, state):
    cartan = cartan_type_a(2)
    weights = tuple(op["weights"])
    with rec.span("commutor.reversal_table"):
        there = comm.reversal_table(cartan, weights)
    with rec.span("commutor.reversal_table"):
        back = comm.reversal_table(cartan, weights[::-1])
    size = prod(oracles.weyl_dim(w) for w in weights)
    expect(len(there) == len(back) == size, "reversal table size differs")
    expect(all(back[there[x]] == x for x in there),
           "reversing twice is not the identity")


def run_rsk(op, rec, state):
    with rec.span("tableaux.rsk_crosscheck"):
        rep = rsk_crosscheck(op["n"])
    expect(rep["passed"] is True and rep["perm_rule"] == ["precompose"]
           and "one-line/Q" in rep["winners"],
           "crosscheck story differs: %s %s"
           % (rep["perm_rule"], rep["winners"]))


def run_bk(op, rec, state):
    with rec.span("tableaux.bk_braid_witness"):
        witness = bk_braid_witness()
    expect(witness is not None
           and witness["tableau"] == oracles.braid_witness(),
           "braid witness differs: %s" % (witness,))


def run_cabling(op, rec, state):
    for (n, i, j), translations in op["expect"].items():
        q = j - i
        image = set()
        for u in permutations(range(1, n - q + 1)):
            with rec.span("groups.cabling"):
                image.add(cabling(u, i, j, n))
        expect(len(image) == factorial(n - q) and image == translations,
               "cabling [%d, %d] at n=%d is not onto the translations"
               % (i, j, n))


def _spawn_median(argv, repeats=3):
    """Median wall time and last stdout of a fresh interpreter run."""
    src = os.path.dirname(os.path.dirname(cactus_crystal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    times, out = [], b""
    for _ in range(repeats):
        start = perf_counter()
        out = subprocess.run([sys.executable] + argv, env=env, check=True,
                             capture_output=True, timeout=60).stdout
        times.append(perf_counter() - start)
    return median(times), out


def run_main_in_process(argv, rec):
    buf = io.StringIO()
    with redirect_stdout(buf):
        with rec.span("cli.main"):
            code = cli_main(argv)
    expect(code == 0 and json.loads(buf.getvalue())["ok"] is True,
           "cli %s exits %s" % (argv[:2], code))
    return len(buf.getvalue().encode())


def run_cli_main(op, rec, state):
    argv = [state.get("category_file", a) if a == CATEGORY_FILE else a
            for a in op["argv"]]
    run_main_in_process(argv, rec)


def run_probe(op, rec, state):
    """Calls every traced function once on its smallest input.

    Each traced run starts its traced passes with this op, so that every
    per-layer metric is measured on every workload: a layer a workload does
    not use reads near zero instead of a constant 0.
    """
    a1 = cartan_type_a(1)
    one = (1,)
    with rec.span("groups.relations"):
        rels = defining_relation_families("C", 2)
    rec.add("groups.relations.count", len(rels))
    with rec.span("actions.verify_relations"):
        rep = verify_relations(a1, "C", 2, [(one, one)])
    expect(rep["passed"] is True and rep["points"] == 4, "probe verify")
    rec.add("actions.instances", rep["relations"] * rep["points"])
    rec.add("actions.letters", 2 * rep["points"])
    gens = [word("C", 2, [CactusGen(1, 2)])]
    with rec.span("actions.orbit"):
        orbit(a1, gens, LabeledPoint((one, one), (0, 0)))
    with rec.span("groups.cabling"):
        cabling((1,), 1, 2, 2)
    with rec.span("crystal.build_irreducible"):
        b1 = crystal.build_irreducible(a1, one)
    with rec.span("crystal.tensor"):
        t = crystal.tensor(b1, b1)
    with rec.span("crystal.components"):
        crystal.components(t)
    with rec.span("crystal.normality_report"):
        crystal.normality_report(t)
    rec.add("crystal.elements", b1.size + t.size)
    with rec.span("commutor.schutzenberger"):
        comm.schutzenberger(b1)
    with rec.span("commutor.commutor"):
        comm.commutor(b1, b1)
    with rec.span("commutor.reversal_table"):
        comm.reversal_table(a1, (one, one))
    with rec.span("commutor.hexagon_holds"):
        expect(comm.hexagon_holds(a1, one, one, one), "probe hexagon")
    with rec.span("tableaux.rsk_crosscheck"):
        rsk_crosscheck(2)
    with rec.span("tableaux.bk_braid_witness"):
        bk_braid_witness(max_cells=3)
    with rec.span("category_data.from_crystals"):
        data = cdata.from_crystals(a1, [(0,), one])
    rec.add("category_data.table_entries", len(data.mult))
    with rec.span("category_data.category_to_json"):
        doc = cdata.category_to_json(data)
    with rec.span("category_data.category_from_json"):
        data = cdata.category_from_json(doc)
    with rec.span("category_data.validate"):
        cdata.validate(data)
    with rec.span("category_data.covering_from_category"):
        fs = cdata.covering_from_category(data)
    with rec.span("category_data.verify_fiber_system"):
        cdata.verify_fiber_system(fs)
    with rec.span("category_data.category_from_covering"):
        cdata.category_from_covering(fs)
    with rec.span("category_data.mutate_category"):
        mutant, _ = cdata.mutate_category(data, seed=0)
    with rec.span("category_data.is_valid"):
        expect(not cdata.is_valid(mutant), "probe mutant not caught")
    rec.add("category_data.mutants")
    rec.add("category_data.mutants_caught")
    rec.add("cli.output_bytes",
            run_main_in_process(["rsk", "--perm", "2,1,3"], rec))
    spawn_s, _ = _spawn_median(["-c", "pass"])
    import_s, out = _spawn_median(
        ["-c", "import time; t = time.perf_counter(); "
               "import cactus_crystal.cli; print(time.perf_counter() - t)"])
    rec.add("cli.spawn_s", spawn_s)
    rec.add("cli.import_s", float(out))


BODIES = {
    "verify": run_verify, "orbit": run_orbit,
    "category_build": run_category_build,
    "category_validate": run_category_validate,
    "category_roundtrip": run_category_roundtrip,
    "category_mutant": run_category_mutant,
    "product": run_product, "hexagon": run_hexagon, "reversal": run_reversal,
    "rsk": run_rsk, "bk": run_bk, "cabling": run_cabling,
    "cli_main": run_cli_main, "probe": run_probe,
}


def cache_counters():
    """hits, misses and currsize of each lru_cache that still exists."""
    out = {}
    for layer, (module, names) in CACHES.items():
        for name in names:
            info = getattr(getattr(module, name, None), "cache_info", None)
            if info is not None:
                hits, misses, _, currsize = info()
                out["%s.%s" % (layer, name)] = [hits, misses, currsize]
    return out


def execute(op, traced, state):
    """Run one op body; failures are recorded, never raised."""
    rec = Recorder(op["id"], traced)
    output, error = None, None
    with Speedometer() as clock:
        try:
            with rec.span("op." + op["kind"]):
                output = BODIES[op["kind"]](op, rec, state)
        except Exception as exc:  # counted in failed, the run goes on
            error = "%s: %s" % (type(exc).__name__, exc)
    return dict(clock.times(), ok=error is None, error=error,
                spans=rec.spans, counters=rec.counters,
                caches=cache_counters() if traced else None, output=output)
