"""Actions of the cactus family on products of irreducible crystals.

A point carries the tuple of highest weights of the factors together with one
element id per factor.  Interval generators s_ij apply the cached reversal of
the subproduct i..j to the entries and reverse the weight labels; permutation
generators act by pulling: entry k of the image is entry w(k) of the source.
Affine letters are straightened into virtual ones first.  act and act_word
are the definition of the action on a single point.

verify_relations runs on a compiled form of the same action.  CompiledAction
lists every point of the closure of the supplied weight tuples under
reordering once, since every generator maps that set to itself, and turns
each generator letter, on first use, into the flat list of the ids of its
images, computed by act.  A word then acts on a list of ids by composing
lists, and a relation holds when both sides send every supplied point to the
same id.  The point budget counts the points of that closure, which is what
the engine holds, not only the supplied points.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import permutations, product

from .cartan import cartan_to_json
from .commutor import reversal_table
from .crystal import build_irreducible
from .groups import (
    AffineR,
    AffineS,
    CactusGen,
    GroupError,
    GroupWord,
    MirabolicT,
    PermGen,
    _affine_gen_to_vc,
    defining_relation_families,
    mc_relation_suite,
)
from .perms import check_perm, mulclose, parity, transposition

MAX_POINTS_ENV = "CACTUS_CRYSTAL_MAX_POINTS"
DEFAULT_MAX_POINTS = 10 ** 6


def point_budget():
    raw = os.environ.get(MAX_POINTS_ENV)
    if raw is None:
        return DEFAULT_MAX_POINTS
    try:
        value = int(raw)
    except ValueError:
        raise GroupError("bad %s value %r" % (MAX_POINTS_ENV, raw)) from None
    if value <= 0:
        raise GroupError("%s must be positive" % MAX_POINTS_ENV)
    return value


@dataclass(frozen=True)
class LabeledPoint:
    weights: tuple
    entries: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.entries):
            raise GroupError("weights and entries disagree in length")


def check_point(cartan, point):
    """Raise GroupError unless every entry lies in the range of its factor."""
    for k, (w, e) in enumerate(zip(point.weights, point.entries), 1):
        size = build_irreducible(cartan, w).size
        if not 0 <= e < size:
            raise GroupError("point entry %d of factor %d is out of range "
                             "0..%d" % (e, k, size - 1))


def act(cartan, gen, point):
    """One letter on one point.  Entries are not range-checked here, as
    CompiledAction calls this once per point; act_word and orbit check."""
    n = len(point.weights)
    if isinstance(gen, CactusGen):
        if gen.j > n:
            raise GroupError("generator %s exceeds %d factors" % (gen, n))
        i, j = gen.i, gen.j
        table = reversal_table(cartan, point.weights[i - 1:j])
        new_entries = point.entries[:i - 1] + table[point.entries[i - 1:j]] \
            + point.entries[j:]
        new_weights = point.weights[:i - 1] + point.weights[i - 1:j][::-1] \
            + point.weights[j:]
        return LabeledPoint(new_weights, new_entries)
    if isinstance(gen, PermGen):
        w = gen.perm
        if len(w) != n:
            raise GroupError("generator %s wants %d factors, point has %d"
                             % (gen, len(w), n))
        return LabeledPoint(tuple(point.weights[w[k] - 1] for k in range(n)),
                            tuple(point.entries[w[k] - 1] for k in range(n)))
    if isinstance(gen, MirabolicT):
        if gen.i == 0:
            raise GroupError("t0 does not act on the factors")
        return act(cartan, PermGen(transposition(n, gen.i, gen.i + 1)), point)
    if isinstance(gen, (AffineS, AffineR)):
        for g in _affine_gen_to_vc(gen, n):
            point = act(cartan, g, point)
        return point
    raise GroupError("unknown generator %r" % (gen,))


def act_word(cartan, word, point):
    """Leftmost letter acts first."""
    check_point(cartan, point)
    gens = word.gens if isinstance(word, GroupWord) else tuple(word)
    for g in gens:
        point = act(cartan, g, point)
    return point


def iter_points(cartan, weights):
    weights = tuple(tuple(w) for w in weights)
    sizes = [build_irreducible(cartan, w).size for w in weights]
    for entries in product(*(range(s) for s in sizes)):
        yield LabeledPoint(weights, entries)


def count_points(cartan, weights):
    total = 1
    for w in weights:
        total *= build_irreducible(cartan, tuple(w)).size
    return total


def weight_orderings(weights):
    return sorted(set(permutations(tuple(tuple(w) for w in weights))))


class CompiledAction:
    """The action on the reordering closure of some weight tuples, as arrays.

    points lists every point of the closure once and index maps a point to
    its id.  table(g) is the list [index[act(cartan, g, p)] for p in points],
    built on first use; image(word, ids) composes those lists.  The closure
    is checked against the point budget before any point is listed.
    """

    def __init__(self, cartan, weight_tuples, max_points=None):
        budget = max_points if max_points is not None else point_budget()
        closure = sorted({o for t in weight_tuples for o in weight_orderings(t)})
        total = sum(count_points(cartan, t) for t in closure)
        if total > budget:
            raise GroupError(
                "point space has %d points, over the budget of %d; "
                "raise %s to override" % (total, budget, MAX_POINTS_ENV))
        self.cartan = cartan
        self.points = [p for t in closure for p in iter_points(cartan, t)]
        self.index = {p: k for k, p in enumerate(self.points)}
        self._tables = {}

    def table(self, gen):
        table = self._tables.get(gen)
        if table is None:
            index = self.index
            table = [index[act(self.cartan, gen, p)] for p in self.points]
            self._tables[gen] = table
        return table

    def image(self, word, ids):
        """Ids of the images of the points ids under word, leftmost first."""
        for g in word.gens:
            table = self.table(g)
            ids = [table[k] for k in ids]
        return ids


def _point_json(p):
    return [list(p.weights), list(p.entries)]


def verify_relations(cartan, kind, n, weight_tuples, max_points=None,
                     max_failures=5):
    """Exhaustively check every defining relation on every supplied point.

    weight_tuples is a list of weight tuples of length n; the point space is
    their disjoint union.  Returns a report dict; report["passed"] is the
    verdict and report["failures"] holds up to max_failures witnesses, in
    relation order and, within a relation, in supplied point order.
    """
    start = time.monotonic()
    tuples = [tuple(tuple(w) for w in t) for t in weight_tuples]
    for t in tuples:
        if len(t) != n:
            raise GroupError("weight tuple %r does not have %d factors" % (t, n))
    engine = CompiledAction(cartan, tuples, max_points=max_points)
    relations = (mc_relation_suite(n) if kind == "MC"
                 else defining_relation_families(kind, n))
    points = engine.points
    sources = [engine.index[p] for t in tuples for p in iter_points(cartan, t)]

    families = {}
    failures = []
    for family, lhs, rhs in relations:
        left = engine.image(lhs, sources)
        right = engine.image(rhs, sources)
        counts = families.setdefault(family, {"relations": 0, "instances": 0})
        counts["relations"] += 1
        counts["instances"] += len(sources)
        if left == right or len(failures) >= max_failures:
            continue
        for s, a, b in zip(sources, left, right):
            if a != b:
                failures.append({"family": family, "lhs": str(lhs),
                                 "rhs": str(rhs),
                                 "point": _point_json(points[s]),
                                 "got": _point_json(points[a]),
                                 "expected": _point_json(points[b])})
                if len(failures) >= max_failures:
                    break
    return {
        "cartan": cartan_to_json(cartan),
        "kind": kind,
        "n": n,
        "weight_tuples": [[list(w) for w in t] for t in tuples],
        "points": len(sources),
        "relations": len(relations),
        "families": families,
        "failures": failures,
        "passed": not failures,
        "duration_s": round(time.monotonic() - start, 3),
    }


def orbit(cartan, gens, point, max_points=None):
    """Deterministic BFS orbit under a list of generators or words."""
    budget = max_points if max_points is not None else point_budget()
    check_point(cartan, point)
    flat = []
    for g in gens:
        flat.append(tuple(g.gens) if isinstance(g, GroupWord) else (g,))
    seen = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for p in frontier:
            for gseq in flat:
                q = p
                for g in gseq:
                    q = act(cartan, g, q)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if len(seen) > budget:
                        raise GroupError("orbit exceeded the budget of %d points"
                                         % budget)
        frontier = sorted(nxt, key=lambda r: (r.weights, r.entries))
    return sorted(seen, key=lambda r: (r.weights, r.entries))


def permutation_image(states, maps, limit=None):
    """Closure of the permutations induced on a finite state list.

    maps is a list of dicts, each a bijection of the states.  Returns degree,
    order, the set of one-line tuples, and the even/odd census.
    """
    index = {s: k for k, s in enumerate(states)}
    gens = []
    for m in maps:
        img = tuple(index[m[s]] + 1 for s in states)
        gens.append(check_perm(img))
    group = mulclose(gens, limit=limit)
    evens = sum(1 for g in group if parity(g) == 0)
    return {"degree": len(states), "order": len(group), "group": group,
            "even": evens, "odd": len(group) - evens}


def contains_alternating(group, degree):
    """Does the set of one-line tuples contain every even permutation?"""
    if degree > 8:
        raise GroupError("alternating membership check capped at degree 8")
    return all(p in group for p in permutations(range(1, degree + 1))
               if parity(p) == 0)
