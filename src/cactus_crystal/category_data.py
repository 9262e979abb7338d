"""Concrete coboundary category data over a finite colour set, and its
operadic covering presentation.

The category side stores, per colour, a finite element set CL; per colour
pair, multiplicity sets, a commutor bijection on CL(a) x CL(b), and the
expansion bijection

    phi:  union_mu  mult(a,b;mu) x CL(mu)  ->  CL(a) x CL(b);

per colour triple, the associator as a bijection between the two bracketed
multiplicity parametrisations.  Validation checks well-formedness, the
pentagon on quadruples, the collapsed pentagon tying phi to the associator,
involutivity, and the coboundary hexagon, with composite commutors induced
blockwise through phi.

The covering side stores fibres over small ordered colour tuples (truncated
at three factors), parallel transport (adopted as primitive data), the glue
maps between bracketed fibres, and the interval actions.  The two builders
are mutually inverse on the nose, which the roundtrip check exercises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from . import CactusError
from .commutor import commutor_on
from .crystal import (build_irreducible, component_members, multiplicity_set,
                      tensor)


class CategoryError(CactusError):
    pass


UNIT_X = "*"


def _ckey(c):
    return (0, c) if isinstance(c, tuple) else (1, str(c))


@dataclass
class CategoryData:
    """Category data over a finite colour set.

    Treated as immutable after construction: the decompositions
    ``comp(a, b)`` are indexed from ``mult`` once, so changed tables go into
    a new object, as ``mutate_category``, ``category_from_json`` and
    ``category_from_covering`` do.
    """

    core_colours: tuple
    cl: dict
    mult: dict
    sigma: dict
    phi: dict
    assoc: dict
    _comp: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comp = {}
        for a, b, mu in self.mult:
            comp.setdefault((a, b), set()).add(mu)
        self._comp = {pair: tuple(sorted(mus, key=_ckey))
                      for pair, mus in comp.items()}

    def colours(self):
        return sorted(self.cl, key=_ckey)

    def comp(self, a, b):
        return list(self._comp.get((a, b), ()))


def needed_triples(core, comp):
    """Colour triples whose associator data the pentagon checks touch."""
    triples = {t for t in product(core, repeat=3)}
    for a, b, c, d in product(core, repeat=4):
        for g in comp(a, b):
            triples.add((g, c, d))
        for t in comp(b, c):
            triples.add((a, t, d))
        for p in comp(c, d):
            triples.add((a, b, p))
    return sorted(triples, key=lambda t: tuple(_ckey(x) for x in t))


def needed_pairs(core, comp):
    """Pairs needing mult, phi and sigma data, as a dict of three lists."""
    core = list(core)
    triples = needed_triples(core, comp)
    mult_pairs = set()
    for x, y, z in triples:
        mult_pairs.add((x, y))
        mult_pairs.add((y, z))
        for g in comp(x, y):
            mult_pairs.add((g, z))
        for t in comp(y, z):
            mult_pairs.add((x, t))
    phi_pairs = {(a, b) for a in core for b in core}
    sigma_pairs = {(a, b) for a in core for b in core}
    for a, b, c in product(core, repeat=3):
        for g in comp(a, b):
            phi_pairs.add((g, c))
        for t in comp(b, c):
            phi_pairs.add((a, t))
        for m in comp(c, b):
            sigma_pairs.add((a, m))
        for m in comp(b, a):
            sigma_pairs.add((m, c))
    mult_pairs |= phi_pairs | sigma_pairs

    def srt(ps):
        return sorted(ps, key=lambda p: (_ckey(p[0]), _ckey(p[1])))
    return {"mult": srt(mult_pairs), "phi": srt(phi_pairs),
            "sigma": srt(sigma_pairs)}


def _embedding(ref, graph, head):
    """Strict embedding of ref into the component of head, by parallel BFS."""
    ref_heads = ref.highest_weight_elements()
    if len(ref_heads) != 1:
        raise CategoryError("reference crystal is not irreducible")
    emb = {ref_heads[0]: head}
    frontier = [ref_heads[0]]
    while frontier:
        b = frontier.pop()
        for i in ref.index_range():
            c = ref.f(i, b)
            if c is None:
                continue
            img = graph.f(i, emb[b])
            if img is None:
                raise CategoryError("component does not carry the reference crystal")
            if c not in emb:
                emb[c] = img
                frontier.append(c)
            elif emb[c] != img:
                raise CategoryError("component embedding is inconsistent")
    return emb


def from_crystals(cartan, core_weights):
    """Category data of a finite family of irreducible highest weights."""
    core = [tuple(w) for w in core_weights]
    if len(set(core)) != len(core):
        raise CategoryError("repeated colour in the core list")

    graphs = {}

    def graph(w):
        if w not in graphs:
            graphs[w] = build_irreducible(cartan, w)
        return graphs[w]

    tensors = {}

    def tens(a, b):
        if (a, b) not in tensors:
            tensors[(a, b)] = tensor(graph(a), graph(b))
        return tensors[(a, b)]

    comp_cache = {}

    def comp(a, b):
        if (a, b) not in comp_cache:
            t = tens(a, b)
            comp_cache[(a, b)] = sorted({t.wt(h)
                                         for h, _ in component_members(t)})
        return comp_cache[(a, b)]

    pairs = needed_pairs(core, comp)
    triples = needed_triples(core, comp)

    colours = set(core)
    for a, b in pairs["mult"]:
        colours.add(a)
        colours.add(b)
        colours.update(comp(a, b))
    cl = {c: tuple(str(k) for k in range(graph(c).size))
          for c in sorted(colours)}

    mult = {}
    for a, b in pairs["mult"]:
        t = tens(a, b)
        for mu in comp(a, b):
            mult[(a, b, mu)] = tuple(str(m) for m in multiplicity_set(t, mu))

    emb_cache = {}

    def emb(a, b, mu, m):
        key = (a, b, mu, m)
        if key not in emb_cache:
            emb_cache[key] = _embedding(graph(mu), tens(a, b), m)
        return emb_cache[key]

    phi = {}
    for a, b in pairs["phi"]:
        t = tens(a, b)
        table = {}
        for mu in comp(a, b):
            for m in multiplicity_set(t, mu):
                e = emb(a, b, mu, m)
                for x in graph(mu).elements():
                    p, q = t.labels[e[x]]
                    table[(mu, str(m), str(x))] = (str(p), str(q))
        phi[(a, b)] = table

    sigma = {}
    for a, b in pairs["sigma"]:
        comm = commutor_on(graph(a), graph(b), tens(a, b), tens(b, a))
        table = {}
        for t_id in comm.domain.elements():
            x, y = comm.domain.labels[t_id]
            u, v = comm.codomain.labels[comm(t_id)]
            table[(str(x), str(y))] = (str(u), str(v))
        sigma[(a, b)] = table

    assoc = {}
    for a, b, c in triples:
        left = {}
        for g in comp(a, b):
            for m1 in multiplicity_set(tens(a, b), g):
                e1 = emb(a, b, g, m1)
                t_gc = tens(g, c)
                for rho in comp(g, c):
                    for m2 in multiplicity_set(t_gc, rho):
                        gg, z = t_gc.labels[m2]
                        p, q = tens(a, b).labels[e1[gg]]
                        left[(g, rho, str(m1), str(m2))] = (str(p), str(q), str(z))
        right = {}
        for t in comp(b, c):
            for m4 in multiplicity_set(tens(b, c), t):
                e2 = emb(b, c, t, m4)
                t_at = tens(a, t)
                for rho in comp(a, t):
                    for m3 in multiplicity_set(t_at, rho):
                        x, tt = t_at.labels[m3]
                        y, z = tens(b, c).labels[e2[tt]]
                        right[(str(x), str(y), str(z))] = (rho, t, str(m3), str(m4))
        if len(left) != len(right):
            raise CategoryError("bracketed head counts disagree for %r" % ((a, b, c),))
        table = {}
        for key, flat in left.items():
            if flat not in right:
                raise CategoryError("head matching failed for %r" % ((a, b, c),))
            table[key] = right[flat]
        assoc[(a, b, c)] = table

    return CategoryData(core_colours=tuple(core), cl=cl, mult=mult,
                        sigma=sigma, phi=phi, assoc=assoc)


def _phi_inverse(table):
    inv = {}
    for k, v in table.items():
        if v in inv:
            raise CategoryError("expansion is not injective")
        inv[v] = k
    return inv


def sigma_right_composite(data, a, pair):
    """sigma_{a, b (x) c} on triples, induced blockwise through phi."""
    b, c = pair
    table = {}
    inv = _phi_inverse(data.phi[pair])
    for x in data.cl[a]:
        for y in data.cl[b]:
            for z in data.cl[c]:
                mu, m, w = inv[(y, z)]
                w2, x2 = data.sigma[(a, mu)][(x, w)]
                y2, z2 = data.phi[pair][(mu, m, w2)]
                table[(x, y, z)] = (y2, z2, x2)
    return table


def sigma_left_composite(data, pair, c):
    """sigma_{a (x) b, c} on triples, induced blockwise through phi."""
    a, b = pair
    table = {}
    inv = _phi_inverse(data.phi[pair])
    for x in data.cl[a]:
        for y in data.cl[b]:
            mu, m, w = inv[(x, y)]
            for z in data.cl[c]:
                z2, w2 = data.sigma[(mu, c)][(w, z)]
                x2, y2 = data.phi[pair][(mu, m, w2)]
                table[(x, y, z)] = (z2, x2, y2)
    return table


def _check_bijection(table, domain, codomain):
    if set(table) != domain:
        return "domain mismatch"
    values = list(table.values())
    if len(set(values)) != len(values):
        return "not injective"
    if set(values) != codomain:
        return "codomain mismatch"
    return None


def validate(data, fail_fast=False):
    """Full validation report; report["passed"] is the verdict."""
    checks = []
    failed = set()

    def fail(name, instance, detail):
        checks.append({"check": name, "instance": instance, "ok": False,
                       "detail": detail})
        failed.add(name)
        return fail_fast

    def ok(name, count):
        if name not in failed:
            checks.append({"check": name, "instances": count, "ok": True})

    def report():
        failures = [c for c in checks if not c["ok"]]
        return {"passed": not failures, "checks": checks,
                "failures": failures}

    pairs_mult = {(a, b) for (a, b, _) in data.mult}

    for c in data.core_colours:
        if c not in data.cl:
            if fail("colour_sets", str(c), "core colour has no element set"):
                return report()
    for c, ids in data.cl.items():
        if len(set(ids)) != len(ids) or not ids:
            if fail("colour_sets", str(c), "element ids not distinct and nonempty"):
                return report()
    ok("colour_sets", len(data.cl))

    for (a, b, mu), ids in data.mult.items():
        if mu not in data.cl or len(set(ids)) != len(ids) or not ids:
            if fail("mult_sets", str((a, b, mu)), "bad multiplicity set"):
                return report()
    ok("mult_sets", len(data.mult))

    for pair, table in data.phi.items():
        a, b = pair
        mus = data.comp(a, b)
        missing = sorted({a, b, *mus} - data.cl.keys(), key=_ckey)
        if missing:
            if fail("phi_bijection", str(pair),
                    "no element set for %r" % (missing,)):
                return report()
            continue
        domain = set()
        for mu in mus:
            for m in data.mult[(a, b, mu)]:
                for x in data.cl[mu]:
                    domain.add((mu, m, x))
        codomain = set(product(data.cl[a], data.cl[b]))
        err = _check_bijection(table, domain, codomain)
        if err:
            if fail("phi_bijection", str(pair), err):
                return report()
    ok("phi_bijection", len(data.phi))

    for pair, table in data.sigma.items():
        a, b = pair
        missing = sorted({a, b} - data.cl.keys(), key=_ckey)
        if missing:
            if fail("sigma_bijection", str(pair),
                    "no element set for %r" % (missing,)):
                return report()
            continue
        err = _check_bijection(table, set(product(data.cl[a], data.cl[b])),
                               set(product(data.cl[b], data.cl[a])))
        if err:
            if fail("sigma_bijection", str(pair), err):
                return report()
    ok("sigma_bijection", len(data.sigma))

    for (a, b, c), table in data.assoc.items():
        missing = [(g, c) for g in data.comp(a, b) if (g, c) not in pairs_mult]
        missing += [(a, t) for t in data.comp(b, c) if (a, t) not in pairs_mult]
        if missing:
            if fail("assoc_bijection", str((a, b, c)),
                    "missing multiplicity data for %r" % (missing,)):
                return report()
            continue
        domain = set()
        for g in data.comp(a, b):
            for rho in data.comp(g, c):
                domain.update((g, rho, m1, m2)
                              for m1 in data.mult[(a, b, g)]
                              for m2 in data.mult[(g, c, rho)])
        codomain = set()
        for t in data.comp(b, c):
            for rho in data.comp(a, t):
                codomain.update((rho, t, m3, m4)
                                for m3 in data.mult[(a, t, rho)]
                                for m4 in data.mult[(b, c, t)])
        err = _check_bijection(table, domain, codomain)
        if err:
            if fail("assoc_bijection", str((a, b, c)), err):
                return report()
        else:
            for (g, rho, m1, m2), (rho2, t, m3, m4) in table.items():
                if rho2 != rho:
                    if fail("assoc_bijection", str((a, b, c)),
                            "total colour not preserved"):
                        return report()
                    break
    ok("assoc_bijection", len(data.assoc))

    if failed:
        return report()

    count = 0
    for (a, b), table in data.sigma.items():
        if (b, a) not in data.sigma:
            continue
        back = data.sigma[(b, a)]
        for k, v in table.items():
            count += 1
            if back[v] != k:
                if fail("involutivity", str((a, b)),
                        "sigma_%s o sigma_%s moves %r" % ((b, a), (a, b), k)):
                    return report()
    ok("involutivity", count)

    core = data.core_colours
    count = 0
    for a, b, c in product(core, repeat=3):
        try:
            lhs_outer = sigma_right_composite(data, a, (c, b))
            rhs_outer = sigma_left_composite(data, (b, a), c)
            sig_bc = data.sigma[(b, c)]
            sig_ab = data.sigma[(a, b)]
        except (KeyError, CategoryError) as exc:
            if fail("hexagon", str((a, b, c)), "missing data: %s" % exc):
                return report()
            continue
        for x, y, z in product(data.cl[a], data.cl[b], data.cl[c]):
            u, v = sig_bc[(y, z)]
            lhs = lhs_outer[(x, u, v)]
            p, q = sig_ab[(x, y)]
            rhs = rhs_outer[(p, q, z)]
            count += 1
            if lhs != rhs:
                if fail("hexagon", str((a, b, c)),
                        "paths differ at %r: %r vs %r" % ((x, y, z), lhs, rhs)):
                    return report()
                break
    ok("hexagon", count)

    count = 0
    for a, b, c in product(core, repeat=3):
        table = data.assoc.get((a, b, c))
        if table is None:
            if fail("collapsed_pentagon", str((a, b, c)), "missing associator"):
                return report()
            continue
        try:
            for (g, rho, m1, m2), (rho2, t, m3, m4) in table.items():
                for x in data.cl[rho]:
                    u, w = data.phi[(a, t)][(rho, m3, x)]
                    v1, v2 = data.phi[(b, c)][(t, m4, w)]
                    gx, z2 = data.phi[(g, c)][(rho, m2, x)]
                    u2, v1b = data.phi[(a, b)][(g, m1, gx)]
                    count += 1
                    if (u, v1, v2) != (u2, v1b, z2):
                        if fail("collapsed_pentagon", str((a, b, c)),
                                "paths differ at %r" % ((g, rho, m1, m2, x),)):
                            return report()
                        raise StopIteration
        except StopIteration:
            continue
        except KeyError as exc:
            if fail("collapsed_pentagon", str((a, b, c)), "missing data: %s" % exc):
                return report()
    ok("collapsed_pentagon", count)

    count = 0
    for quad in product(core, repeat=4):
        a, b, c, d = quad
        try:
            states = []
            for g in data.comp(a, b):
                for dd in data.comp(g, c):
                    for m1 in data.mult[(a, b, g)]:
                        for m2 in data.mult[(g, c, dd)]:
                            for rho in data.comp(dd, d):
                                for m3 in data.mult[(dd, d, rho)]:
                                    states.append((g, dd, rho, m1, m2, m3))
            for g, dd, rho, m1, m2, m3 in states:
                dd1, t, n1, n2 = data.assoc[(a, b, c)][(g, dd, m1, m2)]
                rho1, k, p1, p2 = data.assoc[(a, t, d)][(dd1, rho, n1, m3)]
                k1, pi, q1, q2 = data.assoc[(b, c, d)][(t, k, n2, p2)]
                upper = (pi, k1, rho1, q2, q1, p1)
                rho2, pi2, r1, r2 = data.assoc[(g, c, d)][(dd, rho, m2, m3)]
                rho3, k2, s1, s2 = data.assoc[(a, b, pi2)][(g, rho2, m1, r1)]
                lower = (pi2, k2, rho3, r2, s2, s1)
                count += 1
                if upper != lower:
                    if fail("pentagon", str(quad),
                            "paths differ at %r" % ((g, dd, rho, m1, m2, m3),)):
                        return report()
                    break
        except KeyError as exc:
            if fail("pentagon", str(quad), "missing data: %s" % exc):
                return report()
    ok("pentagon", count)

    return report()


def is_valid(data):
    return validate(data, fail_fast=True)["passed"]


def terminal_category():
    """One colour, one element, one morphism everywhere."""
    star = UNIT_X
    return CategoryData(
        core_colours=(star,),
        cl={star: ("0",)},
        mult={(star, star, star): ("0",)},
        sigma={(star, star): {("0", "0"): ("0", "0")}},
        phi={(star, star): {(star, "0", "0"): ("0", "0")}},
        assoc={(star, star, star): {(star, star, "0", "0"): (star, star, "0", "0")}},
    )


def mutate_category(data, rng=None, seed=None):
    """Swap two values inside one stored bijection; returns (mutant, note)."""
    if rng is None:
        rng = random.Random(seed)
    targets = []
    for pair, table in sorted(data.sigma.items(), key=lambda kv: repr(kv[0])):
        if len(table) >= 2:
            targets.append(("sigma", pair))
    for pair, table in sorted(data.phi.items(), key=lambda kv: repr(kv[0])):
        if len(table) >= 2:
            targets.append(("phi", pair))
    for triple, table in sorted(data.assoc.items(), key=lambda kv: repr(kv[0])):
        if len(table) >= 2:
            targets.append(("assoc", triple))
    if not targets:
        raise CategoryError("nothing to mutate")
    kind, where = targets[rng.randrange(len(targets))]
    source = getattr(data, kind)
    table = dict(source[where])
    k1, k2 = rng.sample(sorted(table, key=repr), 2)
    table[k1], table[k2] = table[k2], table[k1]
    patched = {k: (table if k == where else dict(v)) for k, v in source.items()}
    fields = {"core_colours": data.core_colours,
              "cl": dict(data.cl),
              "mult": dict(data.mult),
              "sigma": {k: dict(v) for k, v in data.sigma.items()},
              "phi": {k: dict(v) for k, v in data.phi.items()},
              "assoc": {k: dict(v) for k, v in data.assoc.items()}}
    fields[kind] = patched
    note = {"kind": kind, "where": repr(where),
            "swapped": [repr(k1), repr(k2)]}
    return CategoryData(**fields), note


def _colour_to_str(c):
    if isinstance(c, tuple):
        return ",".join(str(v) for v in c)
    return str(c)


def _colour_from_str(s):
    parts = s.split(",")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        return s


def category_to_json(data):
    def c(x):
        return _colour_to_str(x)

    def phi_entries(table):
        return sorted([[ [c(mu), m, x], list(v) ]
                       for (mu, m, x), v in table.items()])

    def assoc_entries(table):
        return sorted([[ [c(g), c(r), m1, m2], [c(v[0]), c(v[1]), v[2], v[3]] ]
                       for (g, r, m1, m2), v in table.items()])

    return {
        "format": "coboundary-category-data",
        "version": 1,
        "core_colours": [c(x) for x in data.core_colours],
        "cl": {c(k): list(v) for k, v in sorted(data.cl.items(), key=lambda kv: _ckey(kv[0]))},
        "mult": sorted([[c(a), c(b), c(mu), list(ids)]
                        for (a, b, mu), ids in data.mult.items()]),
        "sigma": sorted([[c(a), c(b), sorted([list(k), list(v)]
                                             for k, v in t.items())]
                         for (a, b), t in data.sigma.items()]),
        "phi": sorted([[c(a), c(b), phi_entries(t)]
                       for (a, b), t in data.phi.items()]),
        "assoc": sorted([[c(a), c(b), c(cc), assoc_entries(t)]
                         for (a, b, cc), t in data.assoc.items()]),
    }


def category_from_json(doc):
    if not isinstance(doc, dict) \
            or doc.get("format") != "coboundary-category-data":
        raise CategoryError("not a category data document")
    for key in ("core_colours", "cl", "mult", "sigma", "phi", "assoc"):
        if key not in doc:
            raise CategoryError("category data document has no %r" % key)
    colours = {}

    def f(s):
        if s not in colours:
            colours[s] = _colour_from_str(s)
        return colours[s]

    try:
        cl = {f(k): tuple(v) for k, v in doc["cl"].items()}
        mult = {(f(a), f(b), f(mu)): tuple(ids)
                for a, b, mu, ids in doc["mult"]}
        sigma = {}
        for a, b, entries in doc["sigma"]:
            sigma[(f(a), f(b))] = {tuple(k): tuple(v) for k, v in entries}
        phi = {}
        for a, b, entries in doc["phi"]:
            phi[(f(a), f(b))] = {(f(k[0]), k[1], k[2]): tuple(v)
                                 for k, v in entries}
        assoc = {}
        for a, b, c, entries in doc["assoc"]:
            assoc[(f(a), f(b), f(c))] = {
                (f(k[0]), f(k[1]), k[2], k[3]): (f(v[0]), f(v[1]), v[2], v[3])
                for k, v in entries}
        core = tuple(f(x) for x in doc["core_colours"])
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise CategoryError("malformed category data: %s" % exc) from None
    return CategoryData(core_colours=core, cl=cl, mult=mult, sigma=sigma,
                        phi=phi, assoc=assoc)


@dataclass
class FiberSystem:
    """Operadic covering data truncated at three-factor tuples.

    e1 holds the fibres over single colours; x the bracketing-free morphism
    fibres over ordered tuples; transport the parallel transport of the
    two-factor fibres (primitive data here); gamma1/gamma2 the two glue maps
    whose mismatch carries the associator; e_act and x_act the stored
    interval-generator actions.  Concatenation of fibre points and the
    permutation pull are canonical and not stored.
    """
    core_colours: tuple
    depth: int
    e1: dict
    x: dict
    transport: dict
    gamma1: dict
    gamma2: dict
    e_act: dict
    x_act: dict
    meta: dict = field(default_factory=dict)


def _skey(i, j):
    return ("s", i, j)


def covering_from_category(data):
    """Build the covering presentation; inverse of category_from_covering."""
    rep = validate(data, fail_fast=True)
    if not rep["passed"]:
        raise CategoryError("refusing to cover invalid data: %s"
                            % rep["failures"][0])
    e1 = {c: tuple(ids) for c, ids in data.cl.items()}
    x = {}
    for c in data.cl:
        for mu in data.cl:
            x[((c,), mu)] = (UNIT_X,) if mu == c else ()
    for (a, b, mu), ids in data.mult.items():
        x[((a, b), mu)] = tuple(ids)
    for (a, b, c), table in data.assoc.items():
        fibers = {}
        for (g, rho, m1, m2) in table:
            fibers.setdefault(rho, []).append((g, m1, m2))
        for rho, elts in fibers.items():
            x[((a, b, c), rho)] = tuple(sorted(elts, key=repr))

    transport = {pair: dict(t) for pair, t in data.phi.items()}

    gamma1 = {}
    gamma2 = {}
    for (a, b, c), table in data.assoc.items():
        g2 = {}
        for (g, rho, m1, m2) in table:
            g2[(rho, c, (g, m1, m2), UNIT_X)] = (rho, (g, m1, m2))
        g1 = {}
        for (g, rho, m1, m2), (rho2, t, m3, m4) in table.items():
            g1[(rho, t, m3, m4)] = (rho, (g, m1, m2))
        gamma1[(a, b, c)] = g1
        gamma2[(a, b, c)] = g2

    e_act = {}
    for (a, b), table in data.sigma.items():
        e_act[((a, b), _skey(1, 2))] = dict(table)
    core = set(data.core_colours)
    for a, b, c in product(sorted(core, key=_ckey), repeat=3):
        triple = (a, b, c)
        t12 = {}
        t23 = {}
        for xx, yy, zz in product(data.cl[a], data.cl[b], data.cl[c]):
            u, v = data.sigma[(a, b)][(xx, yy)]
            t12[(xx, yy, zz)] = (u, v, zz)
            u, v = data.sigma[(b, c)][(yy, zz)]
            t23[(xx, yy, zz)] = (xx, u, v)
        t13 = {}
        inner = data.sigma[(b, c)]
        outer = sigma_right_composite(data, a, (c, b))
        for xx, yy, zz in product(data.cl[a], data.cl[b], data.cl[c]):
            u, v = inner[(yy, zz)]
            t13[(xx, yy, zz)] = outer[(xx, u, v)]
        e_act[(triple, _skey(1, 2))] = t12
        e_act[(triple, _skey(2, 3))] = t23
        e_act[(triple, _skey(1, 3))] = t13

    # expansion of a triple fibre element: outer pair (g, c) first, then (a, b)
    def expand3(triple, elt, mu, xx):
        a, b, c = triple
        g, m1, m2 = elt
        gx, z = data.phi[(g, c)][(mu, m2, xx)]
        p, q = data.phi[(a, b)][(g, m1, gx)]
        return (p, q, z)

    x_act = {}
    for (a, b) in data.sigma:
        if (a, b) not in data.phi or (b, a) not in data.phi:
            continue
        table = {}
        for mu in data.comp(a, b):
            for m in data.mult[(a, b, mu)]:
                match = None
                for m2 in data.mult.get((b, a, mu), ()):
                    if all(data.phi[(b, a)][(mu, m2, xx)]
                           == data.sigma[(a, b)][data.phi[(a, b)][(mu, m, xx)]]
                           for xx in data.cl[mu]):
                        if match is not None:
                            raise CategoryError(
                                "commutor matches several multiplicity labels")
                        match = m2
                if match is None:
                    raise CategoryError(
                        "commutor does not descend to the multiplicity sets "
                        "for %r" % ((a, b),))
                table[(mu, m)] = (mu, match)
        x_act[((a, b), _skey(1, 2))] = table
    for a, b, c in product(sorted(core, key=_ckey), repeat=3):
        triple = (a, b, c)
        for (i, j), target in (((1, 2), (b, a, c)), ((2, 3), (a, c, b)),
                               ((1, 3), (c, b, a))):
            table = {}
            eact = e_act[(triple, _skey(i, j))]
            for mu in data.cl:
                elts = x.get((triple, mu), ())
                for elt in elts:
                    match = None
                    for cand in x.get((target, mu), ()):
                        if all(expand3(target, cand, mu, xx)
                               == eact[expand3(triple, elt, mu, xx)]
                               for xx in data.cl[mu]):
                            if match is not None:
                                raise CategoryError(
                                    "interval action matches several fibre "
                                    "elements over %r" % (triple,))
                            match = cand
                    if match is None:
                        raise CategoryError(
                            "interval action does not descend to the fibre "
                            "over %r" % (triple,))
                    table[(mu, elt)] = (mu, match)
            x_act[(triple, _skey(i, j))] = table

    return FiberSystem(core_colours=data.core_colours, depth=3, e1=e1, x=x,
                       transport=transport, gamma1=gamma1, gamma2=gamma2,
                       e_act=e_act, x_act=x_act)


def category_from_covering(fs):
    """Read the category data back off the covering; inverse of the above."""
    cl = {c: tuple(ids) for c, ids in fs.e1.items()}
    mult = {}
    for (tup, mu), elts in fs.x.items():
        if len(tup) == 2 and elts:
            mult[(tup[0], tup[1], mu)] = tuple(elts)
    sigma = {}
    for (tup, key), table in fs.e_act.items():
        if len(tup) == 2 and key == _skey(1, 2):
            sigma[(tup[0], tup[1])] = dict(table)
    phi = {pair: dict(t) for pair, t in fs.transport.items()}
    assoc = {}
    for triple, g1 in fs.gamma1.items():
        g1_inv = {}
        for k, v in g1.items():
            if v in g1_inv:
                raise CategoryError("first glue map is not injective")
            g1_inv[v] = k
        table = {}
        for (rho, _c, elt, _u), v in fs.gamma2[triple].items():
            if v not in g1_inv:
                raise CategoryError("glue maps do not cover the same fibre")
            rho2, t, m3, m4 = g1_inv[v]
            g, m1, m2 = elt
            table[(g, rho, m1, m2)] = (rho2, t, m3, m4)
        assoc[triple] = table
    return CategoryData(core_colours=fs.core_colours, cl=cl, mult=mult,
                        sigma=sigma, phi=phi, assoc=assoc)


def verify_fiber_system(fs):
    """Internal consistency of the covering: typing, genuineness, naturality.

    A table or entry that a check needs and cannot find is a failure of that
    check ("missing data: ..."), never a KeyError or a skipped instance.
    """
    checks = []
    failed = set()

    def fail(name, instance, detail):
        checks.append({"check": name, "instance": instance, "ok": False,
                       "detail": detail})
        failed.add(name)

    def ok(name, count):
        if name not in failed:
            checks.append({"check": name, "instances": count, "ok": True})

    def missing(name, instance, exc):
        fail(name, instance, "missing data: %s" % exc)

    count = 0
    for (tup, mu), elts in fs.x.items():
        if len(set(elts)) != len(elts):
            fail("x_fibres", str((tup, mu)), "repeated fibre element")
        count += 1
    ok("x_fibres", count)

    count = 0
    for (tup, key), table in fs.e_act.items():
        count += 1
        i, j = key[1], key[2]
        target = tup[:i - 1] + tuple(reversed(tup[i - 1:j])) + tup[j:]
        try:
            pts = list(product(*(fs.e1[c] for c in tup)))
            tgt_pts = set(product(*(fs.e1[c] for c in target)))
        except KeyError as exc:
            missing("e_act_bijection", str((tup, key)), exc)
            continue
        if set(table) != set(pts) or set(table.values()) != tgt_pts \
                or len(set(table.values())) != len(table):
            fail("e_act_bijection", str((tup, key)), "not a fibre bijection")
    ok("e_act_bijection", count)

    count = 0
    for (tup, key), table in fs.e_act.items():
        if len(tup) != 3:
            continue
        i, j = key[1], key[2]
        if j - i != 1:
            continue
        pair = (tup[i - 1], tup[i])
        try:
            sub = fs.e_act[(pair, _skey(1, 2))]
            for pt, out in table.items():
                count += 1
                u, v = sub[(pt[i - 1], pt[i])]
                want = pt[:i - 1] + (u, v) + pt[j:]
                if out != want:
                    fail("concat_equivariance", str((tup, key)),
                         "embedded action disagrees at %r" % (pt,))
                    break
        except KeyError as exc:
            missing("concat_equivariance", str((tup, key)), exc)
    ok("concat_equivariance", count)

    count = 0
    for (tup, key), table in fs.x_act.items():
        if len(tup) != 2:
            continue
        pair = tup
        target = (pair[1], pair[0])
        try:
            eact = fs.e_act[(tup, key)]
            for (mu, m), (mu2, m2) in table.items():
                if mu2 != mu:
                    fail("transport_equivariance", str((tup, key)),
                         "total colour moved")
                    continue
                for xx in fs.e1[mu]:
                    count += 1
                    lhs = fs.transport[target][(mu, m2, xx)]
                    rhs = eact[fs.transport[pair][(mu, m, xx)]]
                    if lhs != rhs:
                        fail("transport_equivariance", str((tup, key)),
                             "squares do not commute at %r" % ((mu, m, xx),))
                        break
        except KeyError as exc:
            missing("transport_equivariance", str((tup, key)), exc)
    ok("transport_equivariance", count)

    # the glued triples are those of gamma1 and of the triple fibres of x;
    # interval actions, and so naturality, are stored over core triples only
    count = 0
    core = set(fs.core_colours)
    for triple in dict.fromkeys([*fs.gamma1, *(t for t, _ in fs.x if len(t) == 3)]):
        a, b, c = triple
        try:
            g1 = fs.gamma1[triple]
            if not core.issuperset(triple):
                continue
            sub = fs.x_act[((b, c), _skey(1, 2))]
            full = fs.x_act[(triple, _skey(2, 3))]
            other = fs.gamma1[(a, c, b)]
            for (rho, t, m3, m4), val in g1.items():
                count += 1
                t2, m4b = sub[(t, m4)]
                lhs = other[(rho, t2, m3, m4b)]
                rho2, big = val
                rhs = full[(rho, big)]
                if lhs != rhs:
                    fail("glue_naturality", str(triple),
                         "first glue not natural at %r" % ((rho, t, m3, m4),))
                    break
        except KeyError as exc:
            missing("glue_naturality", str(triple), exc)
    ok("glue_naturality", count)

    failures = [c for c in checks if not c["ok"]]
    return {"passed": not failures, "checks": checks, "failures": failures}
