"""Actions of the cactus family on products of irreducible crystals.

A point carries the tuple of highest weights of the factors together with one
element id per factor.  What a letter does depends only on the weights, so
_resolve turns a letter and a weight tuple into the image weights and steps on
the entries.  It runs over the vC letters groups.virtual_letters gives (t_i
becomes the swap of factors i and i+1, affine letters are straightened):
s_ij applies the cached reversal of the subproduct i..j, and a permutation
pulls (entry k of the image is entry w(k) of the source).  act runs those
steps on one point, _apply_columns on a block of points as entry columns;
act_word and orbit check each reversal table against the budget first.

verify_relations runs on CompiledAction: the closure of the supplied weight
tuples under reordering (every letter maps it to itself), one block per weight
tuple, each letter turned on first use into the list of the ids of its images
by one resolve and one column pass per block.  The relations stream by from
groups.relation_stream and only a witness makes GroupWords; words compose
lists, keeping the image of each first letter.  A relation holds when both
sides send every supplied point to the same id.  The budget counts the closure.
"""

from __future__ import annotations

import time
from functools import lru_cache, partial
from itertools import permutations, product
from math import prod
from operator import itemgetter

from . import Frozen, check_budget, point_budget as _point_budget, setfield
from .cartan import cartan_to_json
from .commutor import reversal_table
from .crystal import build_irreducible
from .groups import (
    CactusGen,
    GroupError,
    GroupWord,
    relation_stream,
    virtual_letters,
)
from .perms import check_perm, mulclose, parity

point_budget = partial(_point_budget, GroupError)


class LabeledPoint(Frozen):
    __slots__ = ("weights", "entries")

    def __init__(self, weights, entries):
        if len(weights) != len(entries):
            raise GroupError("weights and entries disagree in length")
        setfield(self, "weights", weights)
        setfield(self, "entries", entries)
        setfield(self, "_key", (weights, entries))


def check_point(cartan, point):
    """Raise GroupError unless every entry lies in the range of its factor."""
    for k, (w, e) in enumerate(zip(point.weights, point.entries), 1):
        size = build_irreducible(cartan, w).size
        if not 0 <= e < size:
            raise GroupError("point entry %d of factor %d is out of range "
                             "0..%d" % (e, k, size - 1))


def _resolve(cartan, gen, weights, budget=None):
    """Image weights of gen on points with these weights, and its steps: pull
    tuples p (entry k becomes entry p[k]) or (i, j, table) on entries i..j-1.
    Given a budget, a reversal table over it raises before it is built."""
    n = len(weights)
    steps = ()
    for g in virtual_letters(gen, n):
        if isinstance(g, CactusGen):
            if g.j > n:
                raise GroupError("generator %s exceeds %d factors" % (g, n))
            i, j = g.i - 1, g.j
            if budget is not None:
                check_budget(count_points(cartan, weights[i:j]), "the reversal "
                             "of factors %d..%d" % (i + 1, j), budget, GroupError)
            steps += ((i, j, reversal_table(cartan, weights[i:j])),)
            weights = weights[:i] + weights[i:j][::-1] + weights[j:]
        else:
            if len(g.perm) != n:
                raise GroupError("generator %s wants %d factors, point has %d"
                                 % (g, len(g.perm), n))
            pull = tuple(k - 1 for k in g.perm)
            steps += (pull,)
            weights = tuple(weights[k] for k in pull)
    return weights, steps


def _apply(steps, entries):
    """Run the steps of a resolved letter on one entry tuple."""
    for step in steps:
        if len(step) == 3 and isinstance(step[2], dict):
            i, j, table = step
            entries = entries[:i] + table[entries[i:j]] + entries[j:]
        else:
            entries = tuple(map(entries.__getitem__, step))
    return entries


def act(cartan, gen, point, budget=None):
    """One letter on one point, unchecked unless a budget bounds its table."""
    weights, steps = _resolve(cartan, gen, point.weights, budget)
    return LabeledPoint(weights, _apply(steps, point.entries))


def act_word(cartan, word, point):
    """Leftmost letter acts first."""
    check_point(cartan, point)
    budget = point_budget()
    for g in (word.gens if isinstance(word, GroupWord) else word):
        point = act(cartan, g, point, budget)
    return point


def iter_points(cartan, weights):
    weights = tuple(tuple(w) for w in weights)
    sizes = [build_irreducible(cartan, w).size for w in weights]
    for entries in product(*(range(s) for s in sizes)):
        yield LabeledPoint(weights, entries)


def count_points(cartan, weights):
    return prod(build_irreducible(cartan, tuple(w)).size for w in weights)


def weight_orderings(weights):
    return sorted(set(permutations(tuple(tuple(w) for w in weights))))


def _apply_columns(steps, columns):
    """Run the steps of a resolved letter on a block given as entry columns."""
    columns = list(columns)
    for step in steps:
        if len(step) == 3 and isinstance(step[2], dict):
            i, j, table = step
            columns[i:j] = zip(*map(table.__getitem__, zip(*columns[i:j])))
        else:
            columns = [columns[k] for k in step]
    return columns


class CompiledAction:
    """The action on the reordering closure of some weight tuples, as arrays.

    points lists the closure in one block per weight tuple; blocks maps each
    weight tuple to its entry tuple -> id dict.  table(g), the ids of the
    images of points under g, resolves g once per block on first use and runs
    its steps on the block's entry columns; image(word, ids) composes tables.
    The budget is checked first.
    """

    def __init__(self, cartan, weight_tuples, max_points=None):
        closure = sorted({o for t in weight_tuples for o in weight_orderings(t)})
        check_budget(sum(count_points(cartan, t) for t in closure),
                     "point space", max_points, GroupError)
        self.cartan = cartan
        self.points = [p for t in closure for p in iter_points(cartan, t)]
        self.blocks = {t: {} for t in closure}
        for k, p in enumerate(self.points):
            self.blocks[p.weights][p.entries] = k
        self._tables = {}

    def table(self, gen):
        table = self._tables.get(gen)
        if table is None:
            table = []
            for weights, block in self.blocks.items():
                image, steps = _resolve(self.cartan, gen, weights)
                rows = zip(*_apply_columns(steps, zip(*block)))
                table.extend(map(self.blocks[image].__getitem__, rows))
            self._tables[gen] = table
        return table

    def image(self, word, ids):
        """Ids of the images of the points ids under word, leftmost first."""
        return self.images_of(ids)(word.gens)

    def images_of(self, ids):
        """image(letters), the ids of the images of ids under a letter tuple;
        the image of each first letter is kept, so a word costs one
        composition per letter after its first."""
        ids, heads = tuple(ids), {}

        def pull(g, src):
            table = self.table(g)
            return (itemgetter(*src)(table) if len(src) > 1
                    else tuple(table[k] for k in src))

        def image(letters):
            if not letters:
                return ids
            out = heads.get(letters[0])
            if out is None:
                out = heads[letters[0]] = pull(letters[0], ids)
            for g in letters[1:]:
                out = pull(g, out)
            return out
        return image


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
    points = engine.points
    sources = [k for t in tuples for k in engine.blocks[t].values()]
    image = engine.images_of(sources)

    counts = {}
    failures = []
    for family, lhs, rhs in relation_stream(kind, n):
        counts[family] = counts.get(family, 0) + 1
        left, right = image(lhs), image(rhs)
        if left == right or len(failures) >= max_failures:
            continue
        for s, a, b in zip(sources, left, right):
            if a != b:
                failures.append({"family": family,
                                 "lhs": str(GroupWord(kind, n, lhs)),
                                 "rhs": str(GroupWord(kind, n, rhs)),
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
        "relations": sum(counts.values()),
        "families": {family: {"relations": c, "instances": c * len(sources)}
                     for family, c in counts.items()},
        "failures": failures,
        "passed": not failures,
        "duration_s": round(time.monotonic() - start, 3),
    }


def orbit(cartan, gens, point, max_points=None):
    """Deterministic BFS orbit under a list of generators or words."""
    budget = max_points if max_points is not None else point_budget()
    check_point(cartan, point)
    flat = [tuple(g.gens) if isinstance(g, GroupWord) else (g,) for g in gens]
    resolve = lru_cache(maxsize=None)(partial(_resolve, cartan, budget=budget))
    seen = {(point.weights, point.entries)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for gseq in flat:
                weights, entries = p
                for g in gseq:
                    weights, steps = resolve(g, weights)
                    entries = _apply(steps, entries)
                q = (weights, entries)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if len(seen) > budget:
                        raise GroupError("orbit exceeded the budget of %d points"
                                         % budget)
        frontier = sorted(nxt)
    return [LabeledPoint(w, e) for w, e in sorted(seen)]


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
