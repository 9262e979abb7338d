"""Command line driver.

Exit codes: 0 on success, 1 when a requested check fails (relation suites,
validation, roundtrips, thresholds), 2 on bad input.  Output is a JSON run
report on stdout or --out; --emit dot switches graph-producing commands to
Graphviz source.  CACTUS_CRYSTAL_MAX_POINTS caps exhaustive point spaces.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import prod

from . import CactusError, __version__, check_budget, point_budget


class UsageError(CactusError):
    pass


def _read_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError("cannot read %s %r: %s" % (what, path, exc)) from None


def _parse_cartan(args):
    from .cartan import cartan_from_json, cartan_type_a

    if getattr(args, "cartan_file", None):
        return cartan_from_json(_read_json(args.cartan_file, "Cartan data"))
    name = args.cartan
    if not (name.startswith("A") and name[1:].isdigit()):
        raise UsageError("unsupported Cartan name %r; use A<rank> or --cartan-file"
                         % name)
    return cartan_type_a(int(name[1:]))


def _parse_weight(text, rank):
    parts = text.split(",")
    try:
        coeffs = tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError("bad weight %r" % text) from None
    if len(coeffs) != rank:
        raise UsageError("weight %r has %d coefficients, expected %d"
                         % (text, len(coeffs), rank))
    return coeffs


def _parse_weights(text, rank):
    """Weight list: tokens are coefficient vectors; one comma token means
    coefficient singletons at rank 1 and fundamental indices at higher rank."""
    tokens = text.split()
    if not tokens:
        raise UsageError("empty weight list")
    if len(tokens) == 1:
        parts = tokens[0].split(",")
        if rank == 1:
            try:
                return tuple((int(p),) for p in parts)
            except ValueError:
                raise UsageError("bad weight list %r" % text) from None
        out = []
        for p in parts:
            try:
                idx = int(p)
            except ValueError:
                raise UsageError("bad fundamental index %r" % p) from None
            if not 1 <= idx <= rank:
                raise UsageError("fundamental index %d out of range 1..%d"
                                 % (idx, rank))
            out.append(tuple(1 if k == idx - 1 else 0 for k in range(rank)))
        return tuple(out)
    return tuple(_parse_weight(tok, rank) for tok in tokens)


def _parse_tableau(text):
    rows = []
    for row in text.split(";"):
        try:
            rows.append(tuple(int(v) for v in row.split(",") if v != ""))
        except ValueError:
            raise UsageError("bad tableau row %r" % row) from None
    return tuple(r for r in rows if r)


def _parse_point(text, weights):
    from .actions import LabeledPoint

    try:
        entries = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError("bad point %r" % text) from None
    if len(entries) != len(weights):
        raise UsageError("point has %d entries, expected %d"
                         % (len(entries), len(weights)))
    return LabeledPoint(tuple(weights), entries)


def _emit(args, payload, dot=None):
    """Write the report (or dot) and return its exit code: 0 if ok, else 1."""
    if getattr(args, "emit", "json") == "dot":
        if dot is None:
            raise UsageError("this command has no dot output")
        text = dot
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if payload["ok"] else 1


def _report(command, ok, **payload):
    rep = {"command": command, "ok": bool(ok), "version": __version__}
    rep.update(payload)
    return rep


def cmd_crystal(args):
    from .crystal import build_irreducible, export_graph, to_dot, weyl_dimension

    cartan = _parse_cartan(args)
    weight = _parse_weight(args.weight, cartan.rank)
    check_budget(weyl_dimension(cartan, weight), "the crystal")
    graph = build_irreducible(cartan, weight)
    payload = _report("crystal", True, graph=export_graph(graph),
                      size=graph.size)
    return _emit(args, payload, dot=to_dot(graph))


def cmd_tensor(args):
    from .crystal import (build_irreducible, components, export_graph,
                          normality_report, tensor_many, to_dot)

    cartan = _parse_cartan(args)
    weights = _parse_weights(args.weights, cartan.rank)
    factors = [build_irreducible(cartan, w) for w in weights]
    check_budget(prod(f.size for f in factors), "the product")
    graph = tensor_many(factors)
    comps = components(graph)
    norm = normality_report(graph)
    payload = _report("tensor", True, graph=export_graph(graph),
                      factors=[list(w) for w in weights],
                      components=[{"head": h, "weight": list(graph.wt(h)),
                                   "size": sub.size} for h, sub in comps],
                      normality=norm)
    return _emit(args, payload, dot=to_dot(graph))


def cmd_commutor(args):
    from .commutor import commutor
    from .crystal import build_irreducible

    cartan = _parse_cartan(args)
    left = build_irreducible(cartan, _parse_weight(args.left, cartan.rank))
    right = build_irreducible(cartan, _parse_weight(args.right, cartan.rank))
    check_budget(left.size * right.size, "the product")
    bij = commutor(left, right)
    payload = _report("commutor", True,
                      left=args.left, right=args.right,
                      pairs=bij.to_pairs(),
                      labels=[[repr(bij.domain.labels[b]),
                               repr(bij.codomain.labels[bij(b)])]
                              for b in bij.domain.elements()])
    return _emit(args, payload)


def cmd_group(args):
    from .groups import (cabling, defining_relation_families, format_word,
                         mc_s0j_word, parse_word, project_to_symmetric,
                         to_virtual)
    from .perms import PermError, parse_perm

    n = args.n
    if args.relations:
        fams = defining_relation_families(args.kind, n)
        payload = _report("group", True, kind=args.kind, n=n,
                          relations=[{"family": f, "lhs": format_word(l),
                                      "rhs": format_word(r)} for f, l, r in fams])
    elif args.project is not None:
        w = parse_word(args.project, args.kind, n)
        payload = _report("group", True, kind=args.kind, n=n,
                          word=format_word(w),
                          projection=list(project_to_symmetric(w)))
    elif args.to_virtual is not None:
        w = parse_word(args.to_virtual, args.kind, n)
        payload = _report("group", True, kind=args.kind, n=n,
                          word=format_word(w), image=format_word(to_virtual(w)))
    elif args.s0j is not None:
        w = mc_s0j_word(args.s0j, n)
        payload = _report("group", True, kind="MC", n=n, j=args.s0j,
                          word=format_word(w),
                          projection=list(project_to_symmetric(w)))
    elif args.cabling is not None:
        try:
            utext, interval = args.cabling.split(";")
            u = parse_perm(utext.strip())
            i, j = (int(v) for v in interval.split(","))
        except (ValueError, PermError):
            raise UsageError("--cabling wants 'w[..];i,j'") from None
        w = cabling(u, i, j, n)
        payload = _report("group", True, n=n, u=list(u), i=i, j=j,
                          cabled=list(w))
    else:
        raise UsageError("choose one of --relations/--project/--to-virtual/"
                         "--s0j/--cabling")
    return _emit(args, payload)


def cmd_act(args):
    from .actions import act_word
    from .groups import format_word, parse_word

    cartan = _parse_cartan(args)
    weights = _parse_weights(args.weights, cartan.rank)
    word = parse_word(args.word, args.kind, len(weights))
    point = _parse_point(args.point, weights)
    out = act_word(cartan, word, point)
    payload = _report("act", True, kind=args.kind, word=format_word(word),
                      point={"weights": [list(w) for w in point.weights],
                             "entries": list(point.entries)},
                      image={"weights": [list(w) for w in out.weights],
                             "entries": list(out.entries)})
    return _emit(args, payload)


def cmd_verify(args):
    from .actions import verify_relations, weight_orderings

    cartan = _parse_cartan(args)
    if args.choices:
        if args.n is None:
            raise UsageError("--choices needs an explicit --n")
        from itertools import product as iproduct
        opts = _parse_weights(args.choices, cartan.rank)
        tuples = sorted(set(iproduct(opts, repeat=args.n)))
    else:
        if not args.weights:
            raise UsageError("give --weights or --choices")
        base = _parse_weights(args.weights, cartan.rank)
        if args.n is None:
            args.n = len(base)
        if len(base) != args.n:
            raise UsageError("--weights gives %d factors, --n is %d"
                             % (len(base), args.n))
        tuples = weight_orderings(base) if args.all_orderings else [tuple(base)]
    rep = verify_relations(cartan, args.kind, args.n, tuples)
    payload = _report("verify", rep["passed"], **rep)
    return _emit(args, payload)


def cmd_orbit(args):
    from .actions import orbit
    from .groups import parse_word

    cartan = _parse_cartan(args)
    weights = _parse_weights(args.weights, cartan.rank)
    words = [parse_word(w, args.kind, len(weights))
             for w in args.gens.split(";")]
    point = _parse_point(args.point, weights)
    pts = orbit(cartan, words, point)
    payload = _report("orbit", True, kind=args.kind, size=len(pts),
                      points=[{"weights": [list(w) for w in p.weights],
                               "entries": list(p.entries)} for p in pts])
    return _emit(args, payload)


def cmd_image(args):
    from .actions import contains_alternating, permutation_image
    from .tableaux import bk_cactus_act, standard_tableaux

    try:
        shape = tuple(int(v) for v in args.shape.split(","))
    except ValueError:
        raise UsageError("bad shape %r" % args.shape) from None
    n = sum(shape)
    states = standard_tableaux(shape)
    maps = []
    gens = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            gens.append((i, j))
            maps.append({t: bk_cactus_act(i, j, t) for t in states})
    rep = permutation_image(states, maps, limit=point_budget())
    alternating = (contains_alternating(rep["group"], rep["degree"])
                   if rep["degree"] <= 8 else None)
    ok = rep["order"] >= args.min_order and (alternating is not False)
    if args.report == "contains-alternating":
        ok = ok and alternating is True
    payload = _report("image", ok, shape=list(shape), tableaux=rep["degree"],
                      generators=["s%d_%d" % g for g in gens],
                      order=rep["order"], even=rep["even"], odd=rep["odd"],
                      contains_alternating=alternating,
                      min_order=args.min_order)
    return _emit(args, payload)


def cmd_rsk(args):
    from .perms import parse_perm
    from .tableaux import rsk

    if (args.word is None) == (args.perm is None):
        raise UsageError("give exactly one of --word or --perm")
    text = args.word if args.word is not None else args.perm
    sep = None if args.word is not None else ","
    try:
        word = tuple(int(v) for v in text.split(sep))
    except ValueError:
        raise UsageError("bad word %r" % text) from None
    if args.perm is not None:
        parse_perm("w[%s]" % ",".join(str(v) for v in word))
    p, q = rsk(word)
    payload = _report("rsk", True, word=list(word),
                      insertion=[list(r) for r in p],
                      recording=[list(r) for r in q])
    return _emit(args, payload)


def cmd_evac(args):
    from .tableaux import evacuation, partial_evacuation

    t = _parse_tableau(args.tableau)
    out = partial_evacuation(args.partial, t) if args.partial else evacuation(t)
    payload = _report("evac", True, tableau=[list(r) for r in t],
                      partial=args.partial,
                      result=[list(r) for r in out])
    return _emit(args, payload)


def cmd_bk(args):
    from .tableaux import bender_knuth, bk_braid_witness, bk_cactus_act

    if args.braid_witness:
        w = bk_braid_witness(max_cells=args.max_cells, max_entry=args.max_entry)
        found = w is not None
        payload = _report("bk", found, witness=(
            None if w is None else {
                "tableau": [list(r) for r in w["tableau"]],
                "index": w["index"], "cells": w["cells"],
                "shape": list(w["shape"]),
                "lhs": [list(r) for r in w["lhs"]],
                "rhs": [list(r) for r in w["rhs"]]}))
        return _emit(args, payload)
    t = _parse_tableau(args.tableau)
    if args.interval:
        try:
            i, j = (int(v) for v in args.interval.split(","))
        except ValueError:
            raise UsageError("--interval wants 'i,j'") from None
        out = bk_cactus_act(i, j, t)
        op = "q%d_%d" % (i, j)
    elif args.i is not None:
        out = bender_knuth(args.i, t)
        op = "t%d" % args.i
    else:
        raise UsageError("choose --i, --interval or --braid-witness")
    payload = _report("bk", True, tableau=[list(r) for r in t], op=op,
                      result=[list(r) for r in out])
    return _emit(args, payload)


def cmd_crosscheck(args):
    from .tableaux import rsk_crosscheck

    rep = rsk_crosscheck(args.n)
    payload = _report("crosscheck", rep["passed"], **rep)
    return _emit(args, payload)


def _load_category(path):
    from .category_data import category_from_json

    return category_from_json(_read_json(path, "category data"))


def cmd_category(args):
    from .category_data import (category_from_covering, category_to_json,
                                covering_from_category, from_crystals,
                                mutate_category, validate, verify_fiber_system)

    if args.cat_op == "build":
        cartan = _parse_cartan(args)
        colours = _parse_weights(args.colours, cartan.rank)
        data = from_crystals(cartan, colours)
        rep = validate(data)
        payload = _report("category build", rep["passed"],
                          colours=[list(c) for c in colours],
                          sizes={"colours": len(data.cl), "mult": len(data.mult),
                                 "sigma": len(data.sigma), "phi": len(data.phi),
                                 "assoc": len(data.assoc)},
                          validation={"passed": rep["passed"],
                                      "failures": rep["failures"][:5]},
                          data=category_to_json(data))
        return _emit(args, payload)
    if args.cat_op == "validate":
        data = _load_category(args.input)
        rep = validate(data)
        payload = _report("category validate", rep["passed"],
                          checks=rep["checks"],
                          failures=rep["failures"][:10])
        return _emit(args, payload)
    if args.cat_op == "roundtrip":
        data = _load_category(args.input)
        fs = covering_from_category(data)
        back = category_from_covering(fs)
        fs_rep = verify_fiber_system(fs)
        same = back == data
        payload = _report("category roundtrip", same and fs_rep["passed"],
                          identical=same, fiber_checks=fs_rep["checks"],
                          fiber_failures=fs_rep["failures"][:10])
        return _emit(args, payload)
    if args.cat_op == "mutate":
        data = _load_category(args.input)
        caught = 0
        notes = []
        for k in range(args.count):
            mut, note = mutate_category(data, seed=(args.seed or 0) + k)
            bad = not validate(mut, fail_fast=True)["passed"]
            caught += bad
            notes.append({"mutation": note, "caught": bad})
        ok = caught == args.count
        payload = _report("category mutate", ok, count=args.count,
                          caught=caught, mutations=notes)
        return _emit(args, payload)
    raise UsageError("unknown category operation %r" % args.cat_op)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cactus-crystal",
        description="Cactus group actions on crystal products and the "
                    "coboundary category data validators.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, cartan=True, emit=True):
        if cartan:
            p.add_argument("--cartan", "--type", default="A1",
                           help="Cartan name A<rank> (default A1)")
            p.add_argument("--cartan-file",
                           help="JSON file with an explicit Cartan matrix")
        if emit:
            p.add_argument("--emit", choices=("json", "dot"), default="json")
            p.add_argument("--out", help="write output to this file")

    p = sub.add_parser("crystal", help="export one irreducible crystal")
    add_common(p)
    p.add_argument("--weight", required=True, help="comma-joined coefficients")
    p.set_defaults(func=cmd_crystal)

    p = sub.add_parser("tensor", help="product crystal with components")
    add_common(p)
    p.add_argument("--weights", required=True)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("commutor", help="commutor bijection of a pair")
    add_common(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_commutor)

    p = sub.add_parser("group", help="presentations, projections, cabling")
    add_common(p, cartan=False)
    p.add_argument("--kind", choices=("C", "vC", "MC", "AC"), default="C")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--relations", action="store_true")
    p.add_argument("--project", help="word to project to the symmetric group")
    p.add_argument("--to-virtual", help="word to push through the virtual map")
    p.add_argument("--s0j", type=int, help="distinguished mirabolic word index")
    p.add_argument("--cabling", help="'w[..];i,j' to cable a permutation")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("act", help="apply one word to one point")
    add_common(p)
    p.add_argument("--kind", choices=("C", "vC", "MC", "AC"), default="C")
    p.add_argument("--weights", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--point", required=True, help="comma-joined entry ids")
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("verify", help="exhaustive relation verification")
    add_common(p)
    p.add_argument("--kind", choices=("C", "vC", "MC", "AC"), required=True)
    p.add_argument("--n", type=int, default=None,
                   help="factor count; defaults to the --weights length")
    p.add_argument("--weights", help="one weight tuple")
    p.add_argument("--all-orderings", action="store_true")
    p.add_argument("--choices", help="weight set; all n-tuples are used")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("orbit", help="orbit of a point under words")
    add_common(p)
    p.add_argument("--kind", choices=("C", "vC", "MC", "AC"), default="C")
    p.add_argument("--weights", required=True)
    p.add_argument("--gens", required=True, help="';'-separated words")
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("image", help="permutation image on standard tableaux")
    add_common(p, cartan=False)
    p.add_argument("--shape", required=True, help="comma-joined partition")
    p.add_argument("--min-order", type=int, default=1)
    p.add_argument("--report", choices=("contains-alternating",), default=None,
                   help="also gate the exit code on this check")
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("rsk", help="row insertion of a word")
    add_common(p, cartan=False)
    p.add_argument("--word", help="space-separated letters")
    p.add_argument("--perm", help="comma-joined one-line permutation")
    p.set_defaults(func=cmd_rsk)

    p = sub.add_parser("evac", help="evacuation, optionally partial")
    add_common(p, cartan=False)
    p.add_argument("--tableau", required=True, help="rows 'a,b;c'")
    p.add_argument("--partial", type=int, default=None)
    p.set_defaults(func=cmd_evac)

    p = sub.add_parser("bk", help="Bender-Knuth moves and interval operators")
    add_common(p, cartan=False)
    p.add_argument("--tableau")
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--interval", help="'i,j' interval operator")
    p.add_argument("--braid-witness", action="store_true")
    p.add_argument("--max-cells", type=int, default=6)
    p.add_argument("--max-entry", type=int, default=4)
    p.set_defaults(func=cmd_bk)

    p = sub.add_parser("crosscheck", help="crystal action vs RSK bookkeeping")
    add_common(p, cartan=False)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("category", help="coboundary category data tools")
    cat = p.add_subparsers(dest="cat_op", required=True)
    pb = cat.add_parser("build", help="build data from crystals")
    add_common(pb)
    pb.add_argument("--colours", required=True)
    pb.set_defaults(func=cmd_category)
    pv = cat.add_parser("validate", help="validate a data file")
    add_common(pv, cartan=False)
    pv.add_argument("--input", required=True)
    pv.set_defaults(func=cmd_category)
    pr = cat.add_parser("roundtrip", help="cover and reconstruct a data file")
    add_common(pr, cartan=False)
    pr.add_argument("--input", required=True)
    pr.set_defaults(func=cmd_category)
    pm = cat.add_parser("mutate", help="mutation sweep against the validator")
    add_common(pm, cartan=False)
    pm.add_argument("--seed", type=int, default=None)
    pm.add_argument("--input", required=True)
    pm.add_argument("--count", type=int, default=10)
    pm.set_defaults(func=cmd_category)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CactusError, FileNotFoundError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
