"""Command line driver.

Each cmd_* handler returns its JSON run report, or the Graphviz source for
crystal and tensor under --emit dot; main alone writes it to stdout or --out.
Exit codes: 0 on success, 1 when a requested check fails (relation suites,
validation, roundtrips, thresholds), 2 on bad input, an --out that cannot be
written included.  CACTUS_CRYSTAL_MAX_POINTS caps exhaustive point spaces.
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

    if args.cartan_file:
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
            rows.append(tuple(int(v) for v in row.split(",")))
        except ValueError:  # an empty row or entry too
            raise UsageError("bad tableau row %r" % row) from None
    return tuple(rows)


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


def _report(command, ok, **payload):
    """A run report; main writes its tuples as JSON lists."""
    return {"command": command, "ok": bool(ok), "version": __version__,
            **payload}


def cmd_crystal(args):
    from .crystal import build_irreducible, export_graph, to_dot, weyl_dimension

    cartan = _parse_cartan(args)
    weight = _parse_weight(args.weight, cartan.rank)
    check_budget(weyl_dimension(cartan, weight), "the crystal")
    graph = build_irreducible(cartan, weight)
    if args.emit == "dot":
        return to_dot(graph)
    return _report("crystal", True, graph=export_graph(graph), size=graph.size)


def cmd_tensor(args):
    from .crystal import (components, export_graph, normality_report,
                          product_of_weights, to_dot, weyl_dimension)

    cartan = _parse_cartan(args)
    weights = _parse_weights(args.weights, cartan.rank)
    check_budget(prod(weyl_dimension(cartan, w) for w in weights), "the product")
    graph = product_of_weights(cartan, weights)
    if args.emit == "dot":
        return to_dot(graph)
    return _report("tensor", True, graph=export_graph(graph), factors=weights,
                   components=[{"head": h, "weight": graph.wt(h),
                                "size": sub.size}
                               for h, sub in components(graph)],
                   normality=normality_report(graph))


def cmd_commutor(args):
    from .commutor import commutor
    from .crystal import build_irreducible, weyl_dimension

    cartan = _parse_cartan(args)
    weights = [_parse_weight(w, cartan.rank) for w in (args.left, args.right)]
    check_budget(prod(weyl_dimension(cartan, w) for w in weights), "the product")
    left, right = (build_irreducible(cartan, w) for w in weights)
    bij = commutor(left, right)
    return _report("commutor", True, left=args.left, right=args.right,
                   pairs=bij.to_pairs(),
                   labels=[[repr(divmod(b, right.size)),
                            repr(divmod(bij(b), left.size))]
                           for b in bij.domain.elements()])


def cmd_group(args):
    from .groups import (cabling, defining_relation_families, format_word,
                         mc_s0j_word, parse_word, project_to_symmetric,
                         to_virtual)
    from .perms import PermError, parse_perm

    n = args.n
    if args.relations:
        fams = defining_relation_families(args.kind, n)
        return _report("group", True, kind=args.kind, n=n,
                       relations=[{"family": f, "lhs": format_word(l),
                                   "rhs": format_word(r)} for f, l, r in fams])
    if args.project is not None:
        w = parse_word(args.project, args.kind, n)
        return _report("group", True, kind=args.kind, n=n,
                       word=format_word(w), projection=project_to_symmetric(w))
    if args.to_virtual is not None:
        w = parse_word(args.to_virtual, args.kind, n)
        return _report("group", True, kind=args.kind, n=n,
                       word=format_word(w), image=format_word(to_virtual(w)))
    if args.s0j is not None:
        w = mc_s0j_word(args.s0j, n)
        return _report("group", True, kind="MC", n=n, j=args.s0j,
                       word=format_word(w), projection=project_to_symmetric(w))
    try:
        utext, interval = args.cabling.split(";")
        u = parse_perm(utext.strip())
        i, j = (int(v) for v in interval.split(","))
    except (ValueError, PermError):
        raise UsageError("--cabling wants 'w[..];i,j'") from None
    return _report("group", True, n=n, u=u, i=i, j=j,
                   cabled=cabling(u, i, j, n))


def _point_json(p):
    return {"weights": p.weights, "entries": p.entries}


def cmd_act(args):
    from .actions import act_word
    from .groups import format_word, parse_word

    cartan = _parse_cartan(args)
    weights = _parse_weights(args.weights, cartan.rank)
    word = parse_word(args.word, args.kind, len(weights))
    point = _parse_point(args.point, weights)
    out = act_word(cartan, word, point)
    return _report("act", True, kind=args.kind, word=format_word(word),
                   point=_point_json(point), image=_point_json(out))


def cmd_verify(args):
    from .actions import check_closure, verify_relations, weight_orderings
    from .crystal import weyl_dimension

    cartan = _parse_cartan(args)
    if args.choices:
        if args.n is None or args.n < 1:
            raise UsageError("--choices needs an explicit positive --n")
        from itertools import product as iproduct
        opts = _parse_weights(args.choices, cartan.rank)
        # the closure of all n-tuples is every n-tuple of every choice
        check_budget(sum(weyl_dimension(cartan, c) for c in set(opts))
                     ** args.n, "point space")
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
        if args.all_orderings:
            check_closure(cartan, [base])
        tuples = weight_orderings(base) if args.all_orderings else [tuple(base)]
    rep = verify_relations(cartan, args.kind, args.n, tuples)
    return _report("verify", rep["passed"], **rep)


def cmd_orbit(args):
    from .actions import orbit
    from .groups import parse_word

    cartan = _parse_cartan(args)
    weights = _parse_weights(args.weights, cartan.rank)
    words = [parse_word(w, args.kind, len(weights))
             for w in args.gens.split(";")]
    pts = orbit(cartan, words, _parse_point(args.point, weights))
    return _report("orbit", True, kind=args.kind, size=len(pts),
                   points=[_point_json(p) for p in pts])


def cmd_image(args):
    from .perms import permutation_image
    from .tableaux import (bk_cactus_act, count_standard_tableaux,
                           standard_tableaux)

    try:
        shape = tuple(int(v) for v in args.shape.split(","))
    except ValueError:
        raise UsageError("bad shape %r" % args.shape) from None
    n = sum(shape)
    gens = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    check_budget(count_standard_tableaux(shape) * len(gens),
                 "the action of %d generators on standard tableaux" % len(gens))
    states = standard_tableaux(shape)
    maps = [{t: bk_cactus_act(i, j, t) for t in states} for i, j in gens]
    rep = permutation_image(states, maps, limit=point_budget())
    alternating = rep["contains_alternating"]
    ok = rep["order"] >= args.min_order and (alternating is not False)
    if args.report == "contains-alternating":
        ok = ok and alternating is True
    return _report("image", ok, shape=shape, tableaux=rep["degree"],
                   generators=["s%d_%d" % g for g in gens],
                   order=rep["order"], even=rep["even"], odd=rep["odd"],
                   contains_alternating=alternating,
                   min_order=args.min_order)


def cmd_rsk(args):
    from .perms import parse_perm
    from .tableaux import rsk

    text, sep = ((args.word, None) if args.word is not None
                 else (args.perm, ","))
    try:
        word = tuple(int(v) for v in text.split(sep))
    except ValueError:
        raise UsageError("bad word %r" % text) from None
    if args.perm is not None:
        parse_perm("w[%s]" % ",".join(str(v) for v in word))
    p, q = rsk(word)
    return _report("rsk", True, word=word, insertion=p, recording=q)


def cmd_evac(args):
    from .tableaux import evacuation, partial_evacuation

    t = _parse_tableau(args.tableau)
    out = (evacuation(t) if args.partial is None
           else partial_evacuation(args.partial, t))
    return _report("evac", True, tableau=t, partial=args.partial, result=out)


def cmd_bk(args):
    from .tableaux import bender_knuth, bk_braid_witness, bk_cactus_act

    if args.braid_witness:
        if args.max_cells < 1 or args.max_entry < 1:
            raise UsageError("--max-cells and --max-entry must be positive")
        w = bk_braid_witness(max_cells=args.max_cells, max_entry=args.max_entry)
        return _report("bk", w is not None, witness=w)
    if args.tableau is None:
        raise UsageError("--i and --interval need a --tableau")
    t = _parse_tableau(args.tableau)
    if args.interval is not None:
        try:
            i, j = (int(v) for v in args.interval.split(","))
        except ValueError:
            raise UsageError("--interval wants 'i,j'") from None
        return _report("bk", True, tableau=t, op="q%d_%d" % (i, j),
                       result=bk_cactus_act(i, j, t))
    return _report("bk", True, tableau=t, op="t%d" % args.i,
                   result=bender_knuth(args.i, t))


def cmd_crosscheck(args):
    from .tableaux import rsk_crosscheck

    rep = rsk_crosscheck(args.n)
    return _report("crosscheck", rep["passed"], **rep)


def _load_category(path):
    """Category data from a data document or a category build report."""
    from .category_data import category_from_json

    doc = _read_json(path, "category data")
    if isinstance(doc, dict) and doc.get("command") == "category build":
        doc = doc.get("data")
    return category_from_json(doc)


def cmd_category_build(args):
    from .category_data import category_to_json, from_crystals, validate

    cartan = _parse_cartan(args)
    colours = _parse_weights(args.colours, cartan.rank)
    data = from_crystals(cartan, colours)
    rep = validate(data)
    return _report("category build", rep["passed"], colours=colours,
                   sizes={"colours": len(data.cl), "mult": len(data.mult),
                          "sigma": len(data.sigma), "phi": len(data.phi),
                          "assoc": len(data.assoc)},
                   validation={"passed": rep["passed"],
                               "failures": rep["failures"][:5]},
                   data=category_to_json(data))


def cmd_category_validate(args):
    from .category_data import validate

    rep = validate(_load_category(args.input))
    return _report("category validate", rep["passed"], checks=rep["checks"],
                   failures=rep["failures"][:10])


def cmd_category_roundtrip(args):
    from .category_data import (category_from_covering, covering_from_category,
                                verify_fiber_system)

    data = _load_category(args.input)
    fs = covering_from_category(data)
    same = category_from_covering(fs) == data
    fs_rep = verify_fiber_system(fs)
    return _report("category roundtrip", same and fs_rep["passed"],
                   identical=same, fiber_checks=fs_rep["checks"],
                   fiber_failures=fs_rep["failures"][:10])


def cmd_category_mutate(args):
    from .category_data import mutate_category, validate

    if args.count < 0:
        raise UsageError("--count must not be negative")
    data = _load_category(args.input)
    notes = []
    for k in range(args.count):
        mut, note = mutate_category(data, seed=(args.seed or 0) + k)
        notes.append({"mutation": note,
                      "caught": not validate(mut, fail_fast=True)["passed"]})
    caught = sum(m["caught"] for m in notes)
    return _report("category mutate", caught == args.count, count=args.count,
                   caught=caught, mutations=notes)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cactus-crystal",
        description="Cactus group actions on crystal products and the "
                    "coboundary category data validators.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, cartan=True, parent=sub):
        p = parent.add_parser(name, help=help)
        if cartan:
            p.add_argument("--cartan", "--type", default="A1",
                           help="Cartan name A<rank> (default A1)")
            p.add_argument("--cartan-file",
                           help="JSON file with an explicit Cartan matrix")
        p.add_argument("--out", help="write output to this file")
        p.set_defaults(func=func)
        return p

    p = command("crystal", cmd_crystal, "export one irreducible crystal")
    p.add_argument("--weight", required=True, help="comma-joined coefficients")
    p.add_argument("--emit", choices=("json", "dot"), default="json")

    p = command("tensor", cmd_tensor, "product crystal with components")
    p.add_argument("--weights", required=True)
    p.add_argument("--emit", choices=("json", "dot"), default="json")

    p = command("commutor", cmd_commutor, "commutor bijection of a pair")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = command("group", cmd_group, "presentations, projections, cabling",
                cartan=False)
    p.add_argument("--kind", choices=("C", "vC", "MC", "AC"), default="C")
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--relations", action="store_true")
    mode.add_argument("--project", help="word to project to the symmetric group")
    mode.add_argument("--to-virtual",
                      help="word to push through the virtual map")
    mode.add_argument("--s0j", type=int,
                      help="distinguished mirabolic word index")
    mode.add_argument("--cabling", help="'w[..];i,j' to cable a permutation")

    p = command("act", cmd_act, "apply one word to one point")
    p.add_argument("--kind", choices=("C", "vC", "MC", "AC"), default="C")
    p.add_argument("--weights", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--point", required=True, help="comma-joined entry ids")

    p = command("verify", cmd_verify, "exhaustive relation verification")
    p.add_argument("--kind", choices=("C", "vC", "MC", "AC"), required=True)
    p.add_argument("--n", type=int, default=None,
                   help="factor count; defaults to the --weights length")
    p.add_argument("--weights", help="one weight tuple")
    p.add_argument("--all-orderings", action="store_true")
    p.add_argument("--choices", help="weight set; all n-tuples are used")

    p = command("orbit", cmd_orbit, "orbit of a point under words")
    p.add_argument("--kind", choices=("C", "vC", "MC", "AC"), default="C")
    p.add_argument("--weights", required=True)
    p.add_argument("--gens", required=True, help="';'-separated words")
    p.add_argument("--point", required=True)

    p = command("image", cmd_image, "permutation image on standard tableaux",
                cartan=False)
    p.add_argument("--shape", required=True, help="comma-joined partition")
    p.add_argument("--min-order", type=int, default=1)
    p.add_argument("--report", choices=("contains-alternating",), default=None,
                   help="also gate the exit code on this check")

    p = command("rsk", cmd_rsk, "row insertion of a word", cartan=False)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--word", help="space-separated letters")
    mode.add_argument("--perm", help="comma-joined one-line permutation")

    p = command("evac", cmd_evac, "evacuation, optionally partial",
                cartan=False)
    p.add_argument("--tableau", required=True, help="rows 'a,b;c'")
    p.add_argument("--partial", type=int, default=None)

    p = command("bk", cmd_bk, "Bender-Knuth moves and interval operators",
                cartan=False)
    p.add_argument("--tableau")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--i", type=int, default=None)
    mode.add_argument("--interval", help="'i,j' interval operator")
    mode.add_argument("--braid-witness", action="store_true")
    p.add_argument("--max-cells", type=int, default=6)
    p.add_argument("--max-entry", type=int, default=4)

    p = command("crosscheck", cmd_crosscheck,
                "crystal action vs RSK bookkeeping", cartan=False)
    p.add_argument("--n", type=int, required=True)

    cat = sub.add_parser("category", help="coboundary category data tools")
    cat = cat.add_subparsers(dest="cat_op", required=True)
    p = command("build", cmd_category_build, "build data from crystals",
                parent=cat)
    p.add_argument("--colours", required=True)
    p = command("validate", cmd_category_validate, "validate a data file",
                cartan=False, parent=cat)
    p.add_argument("--input", required=True)
    p = command("roundtrip", cmd_category_roundtrip,
                "cover and reconstruct a data file", cartan=False, parent=cat)
    p.add_argument("--input", required=True)
    p = command("mutate", cmd_category_mutate,
                "mutation sweep against the validator", cartan=False,
                parent=cat)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--input", required=True)
    p.add_argument("--count", type=int, default=10)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        result = args.func(args)
    except CactusError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    text = (result if isinstance(result, str)
            else json.dumps(result, indent=2, sort_keys=True) + "\n")
    if not args.out:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write("error: cannot write %r: %s\n"
                             % (args.out, exc.strerror or exc))
            return 2
    return 0 if isinstance(result, str) or result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
