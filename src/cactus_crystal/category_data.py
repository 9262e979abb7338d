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
from copy import copy
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import product

from . import CactusError, Memo, check_budget, point_budget


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
    _targets: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        comp = {}
        for a, b, mu in self.mult:
            comp.setdefault((a, b), set()).add(mu)
        self._comp = {pair: tuple(sorted(mus, key=_ckey))
                      for pair, mus in comp.items()}

    def comp(self, a, b):
        return list(self._comp.get((a, b), ()))


def needed_triples(core, comp):
    """Colour triples whose associator data the pentagon checks touch."""
    triples = set(product(core, repeat=3))
    for a, b, c, d in product(core, repeat=4):
        for g in comp(a, b):
            triples.add((g, c, d))
        for t in comp(b, c):
            triples.add((a, t, d))
        for p in comp(c, d):
            triples.add((a, b, p))
    return sorted(triples, key=lambda t: tuple(_ckey(x) for x in t))


def needed_pairs(core, comp):
    """Pairs needing mult, phi and sigma data and the ``needed_triples``,
    as a dict of four lists."""
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
            "sigma": srt(sigma_pairs), "triples": triples}


def from_crystals(cartan, core_weights):
    """Category data of a finite family of irreducible highest weights."""
    from .commutor import reversal_table
    from .crystal import (build_irreducible, product_heads, product_of_weights,
                          walk_in_step, weyl_dimension)

    core = [tuple(w) for w in core_weights]
    if len(set(core)) != len(core):
        raise CategoryError("repeated colour in the core list")

    graph = partial(build_irreducible, cartan)
    budget = point_budget(CategoryError)
    dim = lru_cache(maxsize=None)(partial(weyl_dimension, cartan))

    @lru_cache(maxsize=None)
    def heads(a, b):
        check_budget(dim(a) * dim(b), "the product %s (x) %s" % (a, b), budget,
                     CategoryError)
        return product_heads(cartan, a, b)

    @lru_cache(maxsize=None)
    def comp(a, b):
        return tuple(sorted(heads(a, b)))

    pairs = needed_pairs(core, comp)

    colours = set(core)
    for a, b in pairs["mult"]:
        colours.add(a)
        colours.add(b)
        colours.update(comp(a, b))
    # every element, head and product id is below the largest mult product
    ids = tuple(map(str, range(max((dim(a) * dim(b) for a, b in pairs["mult"]),
                                   default=0))))
    cl = {c: ids[:dim(c)] for c in sorted(colours)}

    mult = {}
    for a, b in pairs["mult"]:
        for mu in comp(a, b):
            mult[(a, b, mu)] = tuple(ids[m] for m in heads(a, b)[mu])

    # the whole product is built only here, for the phi pairs, and inside
    # reversal_table, for the sigma pairs; product entries are divmod(id, dim)
    @lru_cache(maxsize=None)
    def emb(a, b, mu, m):
        ref = graph(mu)
        walk = walk_in_step(ref, product_of_weights(cartan, (a, b)),
                            ref.highest_weight_elements()[0], m)
        if walk is None:
            raise CategoryError(
                "component does not carry the reference crystal")
        return walk

    phi = {}
    for a, b in pairs["phi"]:
        table = {}
        for mu in comp(a, b):
            for m in heads(a, b)[mu]:
                e = emb(a, b, mu, m)
                for x in range(dim(mu)):
                    p, q = divmod(e[x], dim(b))
                    table[(mu, ids[m], ids[x])] = (ids[p], ids[q])
        phi[(a, b)] = table

    sigma = {}
    for a, b in pairs["sigma"]:
        # sorted: in domain id order, as the frozen digests read it
        sigma[(a, b)] = {(ids[x], ids[y]): (ids[u], ids[v]) for (x, y), (u, v)
                         in sorted(reversal_table(cartan, (a, b)).items())}

    assoc = {}
    for a, b, c in pairs["triples"]:
        left = {}
        for g in comp(a, b):
            for m1 in heads(a, b)[g]:
                e1 = emb(a, b, g, m1)
                for rho in comp(g, c):
                    for m2 in heads(g, c)[rho]:
                        gg, z = divmod(m2, dim(c))
                        p, q = divmod(e1[gg], dim(b))
                        left[(g, rho, ids[m1], ids[m2])] = (ids[p], ids[q], ids[z])
        right = {}
        for t in comp(b, c):
            for m4 in heads(b, c)[t]:
                e2 = emb(b, c, t, m4)
                for rho in comp(a, t):
                    for m3 in heads(a, t)[rho]:
                        x, tt = divmod(m3, dim(t))
                        y, z = divmod(e2[tt], dim(c))
                        right[(ids[x], ids[y], ids[z])] = (rho, t, ids[m3], ids[m4])
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


def _injective_inverse(table, what):
    inv = {}
    for k, v in table.items():
        if v in inv:
            raise CategoryError("%s is not injective" % what)
        inv[v] = k
    return inv


def _expansion_inverses(data):
    """The inverse of each phi table, made on its first lookup."""
    return Memo(lambda pair: _injective_inverse(data.phi[pair], "expansion"))


def _sigma_into_pair(data, inv, a, pair, x, yz):
    """sigma_{a, b (x) c} at x (x) yz, induced blockwise through phi: the
    image y' (x) z' (x) x' as a triple, inv from _expansion_inverses."""
    mu, m, w = inv[pair][yz]
    w2, x2 = data.sigma[(a, mu)][(x, w)]
    return data.phi[pair][(mu, m, w2)] + (x2,)


def _check_bijection(table, domain, codomain):
    if table.keys() != domain:
        return "domain mismatch"
    values = set(table.values())
    if len(values) != len(table):
        return "not injective"
    if values != codomain:
        return "codomain mismatch"
    return None


def _run_checks(stages, fail_fast):
    """Run check stages into a report; report["passed"] is the verdict.

    A check is (name, keys, test), where test(key) returns (points checked,
    first witness or None); a KeyError or CategoryError raised by a test is
    that key's witness, as missing data.  Each failing key gets one entry
    naming str(key); a check none of whose keys failed gets one ok entry with
    the summed point count.  A stage with a failure ends the run, and under
    fail_fast so does the first failure.
    """
    checks, failures = [], []
    for stage in stages:
        for name, keys, test in stage:
            total, failed_before = 0, len(failures)
            for key in keys:
                try:
                    points, witness = test(key)
                except (KeyError, CategoryError) as exc:
                    points, witness = 0, "missing data: %s" % exc
                total += points
                if witness is not None:
                    failures.append({"check": name, "instance": str(key),
                                     "ok": False, "detail": witness})
                    checks.append(failures[-1])
                    if fail_fast:
                        return {"passed": False, "checks": checks,
                                "failures": failures}
            if len(failures) == failed_before:
                checks.append({"check": name, "instances": total, "ok": True})
        if failures:
            break
    return {"passed": not failures, "checks": checks, "failures": failures}


def validate(data, fail_fast=False):
    """Validation report; report["passed"] is the verdict.

    The structure checks run first, and a structure failure stops the run
    before the axiom checks.
    """
    cl, mult, comp, core = data.cl, data.mult, data.comp, data.core_colours
    pairs_mult = {(a, b) for (a, b, _) in mult}

    def unset(*colours):
        missing = sorted(set(colours) - cl.keys(), key=_ckey)
        return "no element set for %r" % (missing,) if missing else None

    def colour_set(c):
        if c not in cl:
            return 0, "core colour has no element set"
        ok = cl[c] and len(set(cl[c])) == len(cl[c])
        return 1, None if ok else "element ids not distinct and nonempty"

    def mult_set(key):
        ids = mult[key]
        ok = key[2] in cl and ids and len(set(ids)) == len(ids)
        return 1, None if ok else "bad multiplicity set"

    def phi_bijection(pair):
        a, b = pair
        mus = comp(a, b)
        return 1, unset(a, b, *mus) or _check_bijection(
            data.phi[pair],
            {(mu, m, x) for mu in mus for m in mult[(a, b, mu)] for x in cl[mu]},
            set(product(cl[a], cl[b])))

    def sigma_bijection(pair):
        a, b = pair
        return 1, unset(a, b) or _check_bijection(
            data.sigma[pair], set(product(cl[a], cl[b])),
            set(product(cl[b], cl[a])))

    def assoc_bijection(triple):
        a, b, c = triple
        missing = [(g, c) for g in comp(a, b) if (g, c) not in pairs_mult]
        missing += [(a, t) for t in comp(b, c) if (a, t) not in pairs_mult]
        if missing:
            return 1, "missing multiplicity data for %r" % (missing,)
        table = data.assoc[triple]
        err = _check_bijection(
            table,
            {(g, rho, m1, m2) for g in comp(a, b) for rho in comp(g, c)
             for m1 in mult[(a, b, g)] for m2 in mult[(g, c, rho)]},
            {(rho, t, m3, m4) for t in comp(b, c) for rho in comp(a, t)
             for m3 in mult[(a, t, rho)] for m4 in mult[(b, c, t)]})
        if err is None and any(k[1] != v[0] for k, v in table.items()):
            err = "total colour not preserved"
        return 1, err

    def involutivity(pair):
        a, b = pair
        back = data.sigma[(b, a)]
        count = 0
        for k, v in data.sigma[pair].items():
            count += 1
            if back[v] != k:
                return count, "sigma_%s o sigma_%s moves %r" % ((b, a), pair, k)
        return count, None

    inv = _expansion_inverses(data)

    def hexagon(triple):
        """sigma_{a, c (x) b} (1 (x) sigma_bc) against
        sigma_{b (x) a, c} (sigma_ab (x) 1), read point by point."""
        a, b, c = triple
        inv_ba, phi_ba = inv[(b, a)], data.phi[(b, a)]
        sig_bc, sig_ab = data.sigma[(b, c)], data.sigma[(a, b)]
        count = 0
        for x, y, z in product(cl[a], cl[b], cl[c]):
            lhs = _sigma_into_pair(data, inv, a, (c, b), x, sig_bc[(y, z)])
            mu, m, w = inv_ba[sig_ab[(x, y)]]
            z2, w2 = data.sigma[(mu, c)][(w, z)]
            rhs = (z2,) + phi_ba[(mu, m, w2)]
            count += 1
            if lhs != rhs:
                return count, "paths differ at %r: %r vs %r" % ((x, y, z), lhs, rhs)
        return count, None

    def collapsed_pentagon(triple):
        a, b, c = triple
        table = data.assoc.get(triple)
        if table is None:
            return 0, "missing associator"
        phi = data.phi
        count = 0
        for (g, rho, m1, m2), (rho2, t, m3, m4) in table.items():
            for x in cl[rho]:
                u, w = phi[(a, t)][(rho, m3, x)]
                v1, v2 = phi[(b, c)][(t, m4, w)]
                gx, z2 = phi[(g, c)][(rho, m2, x)]
                u2, v1b = phi[(a, b)][(g, m1, gx)]
                count += 1
                if (u, v1, v2) != (u2, v1b, z2):
                    return count, "paths differ at %r" % ((g, rho, m1, m2, x),)
        return count, None

    def pentagon(quad):
        a, b, c, d = quad
        assoc = data.assoc
        states = [(g, dd, rho, m1, m2, m3)
                  for g in comp(a, b) for dd in comp(g, c)
                  for m1 in mult[(a, b, g)] for m2 in mult[(g, c, dd)]
                  for rho in comp(dd, d) for m3 in mult[(dd, d, rho)]]
        count = 0
        for g, dd, rho, m1, m2, m3 in states:
            dd1, t, n1, n2 = assoc[(a, b, c)][(g, dd, m1, m2)]
            rho1, k, p1, p2 = assoc[(a, t, d)][(dd1, rho, n1, m3)]
            k1, pi, q1, q2 = assoc[(b, c, d)][(t, k, n2, p2)]
            rho2, pi2, r1, r2 = assoc[(g, c, d)][(dd, rho, m2, m3)]
            rho3, k2, s1, s2 = assoc[(a, b, pi2)][(g, rho2, m1, r1)]
            count += 1
            if (pi, k1, rho1, q2, q1, p1) != (pi2, k2, rho3, r2, s2, s1):
                return count, "paths differ at %r" % ((g, dd, rho, m1, m2, m3),)
        return count, None

    structure = [
        ("colour_sets", [c for c in core if c not in cl] + list(cl), colour_set),
        ("mult_sets", mult, mult_set),
        ("phi_bijection", data.phi, phi_bijection),
        ("sigma_bijection", data.sigma, sigma_bijection),
        ("assoc_bijection", data.assoc, assoc_bijection),
    ]
    axioms = [
        ("involutivity", [(a, b) for a, b in data.sigma if (b, a) in data.sigma],
         involutivity),
        ("hexagon", product(core, repeat=3), hexagon),
        ("collapsed_pentagon", product(core, repeat=3), collapsed_pentagon),
        ("pentagon", product(core, repeat=4), pentagon),
    ]
    return _run_checks([structure, axioms], fail_fast)


def is_valid(data):
    return validate(data, fail_fast=True)["passed"]


def mutate_category(data, seed=None):
    """Swap two values inside one stored bijection; returns (mutant, note).

    Only the patched table is copied; the mutant shares every other table
    with data, which is safe as CategoryData is treated as immutable, and
    the comp index too, as mult is one of the shared tables.  The patchable
    tables are listed once per data; a mutant, with the same keys, keeps them.
    """
    rng = random.Random(seed)
    targets = data._targets
    if targets is None:
        targets = data._targets = tuple(
            (kind, key) for kind, tables in (("sigma", data.sigma),
                                             ("phi", data.phi),
                                             ("assoc", data.assoc))
            for key in sorted(tables, key=repr) if len(tables[key]) >= 2)
    if not targets:
        raise CategoryError("nothing to mutate")
    kind, where = targets[rng.randrange(len(targets))]
    source = getattr(data, kind)
    table = dict(source[where])
    k1, k2 = rng.sample(sorted(table, key=repr), 2)
    table[k1], table[k2] = table[k2], table[k1]
    note = {"kind": kind, "where": repr(where),
            "swapped": [repr(k1), repr(k2)]}
    mutant = copy(data)
    setattr(mutant, kind, {**source, where: table})
    return mutant, note


def _colour_to_str(c):
    if isinstance(c, tuple):
        return ",".join(map(str, c))
    return str(c)


def _colour_from_str(s):
    parts = s.split(",")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        return s


def _not_lists(*values):
    """Raise for a string or object where a JSON list belongs, which tuple()
    and unpacking would read as its characters or keys.  The loader tests
    types inline and calls this only on failure, to keep entries cheap."""
    raise TypeError("expected a list, not %s" % ", ".join(
        repr(v) for v in values if type(v) is not list))


def category_to_json(data):
    c = Memo(_colour_to_str).__getitem__

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
    # every entry is unpacked to its exact arity, so extra fields are
    # malformed, and every list is type-tested inline (see _not_lists)
    f = Memo(_colour_from_str)
    try:
        cl = {f[k]: tuple(v) for k, v in doc["cl"].items()
              if type(v) is list or _not_lists(v)}
        mult = {(f[a], f[b], f[mu]): tuple(ids)
                for a, b, mu, ids in doc["mult"]
                if type(ids) is list or _not_lists(ids)}
        sigma = {(f[a], f[b]): {tuple(k): tuple(v) for k, v in entries
                                if type(k) is type(v) is list
                                or _not_lists(k, v)}
                 for a, b, entries in doc["sigma"]}
        phi = {(f[a], f[b]): {(f[mu], m, x): tuple(v)
                              for key, v in entries
                              if type(key) is type(v) is list
                              or _not_lists(key, v)
                              for mu, m, x in [key]}
               for a, b, entries in doc["phi"]}
        assoc = {(f[a], f[b], f[c]): {
            (f[g], f[rho], m1, m2): (f[rho2], f[t], m3, m4)
            for key, value in entries
            if type(key) is type(value) is list or _not_lists(key, value)
            for (g, rho, m1, m2), (rho2, t, m3, m4) in [(key, value)]}
            for a, b, c, entries in doc["assoc"]}
        colours = doc["core_colours"]
        if type(colours) is not list:
            _not_lists(colours)
        core = tuple(f[x] for x in colours)
        # table values are ids: a list or object among them raises here
        for table in (cl, mult, *sigma.values(), *phi.values(),
                      *assoc.values()):
            hash(tuple(table.values()))
    except (AttributeError, TypeError, ValueError) as exc:
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
    # one pass over each associator makes each fibre element (g, m1, m2)
    # once, for its triple fibre and both glue maps
    gamma1, gamma2 = {}, {}
    for (a, b, c), table in data.assoc.items():
        fibers, g1, g2 = {}, {}, {}
        for (g, rho, m1, m2), (_, t, m3, m4) in table.items():
            elt = (g, m1, m2)
            fibers.setdefault(rho, []).append(elt)
            g1[(rho, t, m3, m4)] = g2[(rho, c, elt, UNIT_X)] = (rho, elt)
        for rho, elts in fibers.items():
            x[((a, b, c), rho)] = tuple(sorted(elts, key=repr))
        gamma1[(a, b, c)], gamma2[(a, b, c)] = g1, g2

    transport = {pair: dict(t) for pair, t in data.phi.items()}

    e_act = {}
    for (a, b), table in data.sigma.items():
        e_act[((a, b), _skey(1, 2))] = dict(table)
    core = set(data.core_colours)
    inv = _expansion_inverses(data)
    for a, b, c in product(sorted(core, key=_ckey), repeat=3):
        triple = (a, b, c)
        sig_ab, sig_bc = data.sigma[(a, b)], data.sigma[(b, c)]
        t12, t23, t13 = {}, {}, {}
        for pt in product(data.cl[a], data.cl[b], data.cl[c]):
            xx, yy, zz = pt
            u, v = sig_ab[(xx, yy)]
            t12[pt] = (u, v, zz)
            u, v = sig_bc[(yy, zz)]
            t23[pt] = (xx, u, v)
            t13[pt] = _sigma_into_pair(data, inv, a, (c, b), xx, (u, v))
        e_act[(triple, _skey(1, 2))] = t12
        e_act[(triple, _skey(2, 3))] = t23
        e_act[(triple, _skey(1, 3))] = t13

    # expansion of a fibre element through phi; for a triple, the outer pair
    # (g, c) first, then (a, b)
    def expand(tup, mu, elt, xx):
        if len(tup) == 2:
            return data.phi[tup][(mu, elt, xx)]
        a, b, c = tup
        g, m1, m2 = elt
        gx, z = data.phi[(g, c)][(mu, m2, xx)]
        return data.phi[(a, b)][(g, m1, gx)] + (z,)

    # the expansions over CL(mu) of the fibre element elt over (tup, mu),
    # made once for the actions that read it, as source or as candidate
    def expansion(key):
        tup, mu, elt = key
        return tuple(expand(tup, mu, elt, xx) for xx in data.cl[mu])

    vectors = Memo(expansion)

    def descend(act, src, dst, mus):
        """The fibre element over dst that act carries each one over src to."""
        table = {}
        for mu in mus:
            for elt in x.get((src, mu), ()):
                image = tuple(map(act.__getitem__, vectors[(src, mu, elt)]))
                matches = [cand for cand in x.get((dst, mu), ())
                           if vectors[(dst, mu, cand)] == image]
                if len(matches) != 1:
                    raise CategoryError(
                        "the action over %r matches %d fibre elements over %r, "
                        "not one" % (src, len(matches), (dst, mu)))
                table[(mu, elt)] = (mu, matches[0])
        return table

    x_act = {}
    for (a, b) in data.sigma:
        if (a, b) in data.phi and (b, a) in data.phi:
            x_act[((a, b), _skey(1, 2))] = descend(
                data.sigma[(a, b)], (a, b), (b, a), data.comp(a, b))
    for a, b, c in product(sorted(core, key=_ckey), repeat=3):
        triple = (a, b, c)
        for (i, j), target in (((1, 2), (b, a, c)), ((2, 3), (a, c, b)),
                               ((1, 3), (c, b, a))):
            key = (triple, _skey(i, j))
            x_act[key] = descend(e_act[key], triple, target, data.cl)

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
        g1_inv = _injective_inverse(g1, "first glue map")
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
    e1, e_act, x_act = fs.e1, fs.e_act, fs.x_act
    core = set(fs.core_colours)

    def x_fibre(key):
        elts = fs.x[key]
        return 1, None if len(set(elts)) == len(elts) else "repeated fibre element"

    def e_act_bijection(key):
        tup, (_, i, j) = key
        target = tup[:i - 1] + tuple(reversed(tup[i - 1:j])) + tup[j:]
        pts = set(product(*(e1[c] for c in tup)))
        tgt_pts = set(product(*(e1[c] for c in target)))
        bad = _check_bijection(e_act[key], pts, tgt_pts)
        return 1, bad and "not a fibre bijection"

    def concat_equivariance(key):
        tup, (_, i, j) = key
        sub = e_act[((tup[i - 1], tup[i]), _skey(1, 2))]
        count = 0
        for pt, out in e_act[key].items():
            count += 1
            u, v = sub[(pt[i - 1], pt[i])]
            if out != pt[:i - 1] + (u, v) + pt[j:]:
                return count, "embedded action disagrees at %r" % (pt,)
        return count, None

    def transport_equivariance(key):
        pair, target = key[0], key[0][::-1]
        eact = e_act[key]
        count = 0
        for (mu, m), (mu2, m2) in x_act[key].items():
            if mu2 != mu:
                return count, "total colour moved"
            for xx in e1[mu]:
                count += 1
                lhs = fs.transport[target][(mu, m2, xx)]
                rhs = eact[fs.transport[pair][(mu, m, xx)]]
                if lhs != rhs:
                    return count, "squares do not commute at %r" % ((mu, m, xx),)
        return count, None

    def glue_naturality(triple):
        a, b, c = triple
        g1 = fs.gamma1[triple]
        if not core.issuperset(triple):
            return 0, None
        sub = x_act[((b, c), _skey(1, 2))]
        full = x_act[(triple, _skey(2, 3))]
        other = fs.gamma1[(a, c, b)]
        count = 0
        for (rho, t, m3, m4), (_, big) in g1.items():
            count += 1
            t2, m4b = sub[(t, m4)]
            if other[(rho, t2, m3, m4b)] != full[(rho, big)]:
                return count, "first glue not natural at %r" % ((rho, t, m3, m4),)
        return count, None

    # the glued triples are those of gamma1 and of the triple fibres of x;
    # interval actions, and so naturality, are stored over core triples only
    glued = dict.fromkeys([*fs.gamma1, *(t for t, _ in fs.x if len(t) == 3)])
    return _run_checks([[
        ("x_fibres", fs.x, x_fibre),
        ("e_act_bijection", e_act, e_act_bijection),
        ("concat_equivariance",
         [k for k in e_act if len(k[0]) == 3 and k[1][2] - k[1][1] == 1],
         concat_equivariance),
        ("transport_equivariance", [k for k in x_act if len(k[0]) == 2],
         transport_equivariance),
        ("glue_naturality", glued, glue_naturality),
    ]], fail_fast=False)
