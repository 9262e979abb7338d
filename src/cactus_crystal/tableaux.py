"""Tableau combinatorics: RSK, evacuation, Bender-Knuth operators.

Tableaux are tuples of row tuples.  Evacuation empties the tableau corner by
corner, sliding the smaller neighbour into the hole, and records complements;
the partial variant evacuates the subtableau of entries 1..j in place.  The
interval operators q_ij = q_1j q_{1,j-i+1} q_1j give the cactus action on
standard tableaux; the adjacent-swap operators are the Bender-Knuth moves.
Each public operator checks its input on entry and its result on exit; the
private kernels it and the scans in this module call repeat none of those
checks.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod
from operator import itemgetter

from . import MAX_POINTS_ENV, CactusError, check_budget, point_budget


class TableauError(CactusError):
    pass


def shape(t):
    return tuple(len(row) for row in t)


def size(t):
    return sum(len(row) for row in t)


def is_partition(shp):
    return all(isinstance(p, int) and p > 0 for p in shp) and \
        all(shp[r] >= shp[r + 1] for r in range(len(shp) - 1))


def partitions_of(n):
    """All partitions of n, largest part first, in lex order."""
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, acc + [p])
    rec(n, n, [])
    return out


def check_tableau(t):
    t = tuple(tuple(row) for row in t)
    if not is_partition(shape(t)):
        raise TableauError("rows do not form a partition shape: %r" % (t,))
    for row in t:
        for a, b in zip(row, row[1:]):
            if b < a:
                raise TableauError("row decreases in %r" % (t,))
    for r in range(len(t) - 1):
        for c in range(len(t[r + 1])):
            if t[r + 1][c] <= t[r][c]:
                raise TableauError("column does not increase in %r" % (t,))
    return t


def _numbered_once(t):
    """Whether the entries of t are 1..size(t), each once: on a tableau that
    check_tableau has passed, whether it is standard."""
    return sorted(v for row in t for v in row) == list(range(1, size(t) + 1))


def count_standard_tableaux(shp):
    """f^shp, the number of standard tableaux of the shape, by the
    hook-length formula, without listing them."""
    if not is_partition(shp):
        raise TableauError("not a partition: %r" % (shp,))
    hooks = prod(length - c + sum(1 for below in shp[r + 1:] if below > c)
                 for r, length in enumerate(shp) for c in range(length))
    return factorial(sum(shp)) // hooks


def standard_tableaux(shp):
    """All standard tableaux of the given shape, in lex order of row tuples."""
    if not is_partition(shp):
        raise TableauError("not a partition: %r" % (shp,))
    n = sum(shp)
    out = []

    def rec(rows, k):
        if k > n:
            out.append(tuple(tuple(r) for r in rows))
            return
        for r in range(len(shp)):
            c = len(rows[r])
            if c >= shp[r]:
                continue
            if r > 0 and len(rows[r - 1]) <= c:
                continue
            rows[r].append(k)
            rec(rows, k + 1)
            rows[r].pop()
    rec([[] for _ in shp], 1)
    return sorted(out)


def _insert_row(rows, qrows, k, value):
    r = 0
    while True:
        if r == len(rows):
            rows.append([value])
            qrows.append([k])
            return
        row = rows[r]
        pos = None
        for c, entry in enumerate(row):
            if entry > value:
                pos = c
                break
        if pos is None:
            row.append(value)
            qrows[r].append(k)
            return
        row[pos], value = value, row[pos]
        r += 1


def rsk(word):
    """Row-insert the word; returns (insertion, recording) tableaux."""
    rows, qrows = [], []
    for k, value in enumerate(word, start=1):
        if not isinstance(value, int) or value < 1:
            raise TableauError("word letters must be positive integers")
        _insert_row(rows, qrows, k, value)
    p = check_tableau(rows)
    q = check_tableau(qrows)
    return p, q


def rsk_inverse(p, q):
    """Recover the word from an insertion/recording pair of equal shape."""
    p = check_tableau(p)
    q = check_tableau(q)
    if shape(p) != shape(q) or not _numbered_once(q):
        raise TableauError("need equal shapes and a standard recording tableau")
    rows = [list(row) for row in p]
    n = size(q)
    pos = {q[r][c]: (r, c) for r in range(len(q)) for c in range(len(q[r]))}
    word = []
    for k in range(n, 0, -1):
        r, c = pos[k]
        value = rows[r].pop(c)
        for r2 in range(r - 1, -1, -1):
            row = rows[r2]
            slot = None
            for c2 in range(len(row) - 1, -1, -1):
                if row[c2] < value:
                    slot = c2
                    break
            if slot is None:
                raise TableauError("reverse insertion failed")
            row[slot], value = value, row[slot]
        word.append(value)
    if any(rows[r] for r in range(len(rows))):
        raise TableauError("reverse insertion left entries behind")
    return tuple(reversed(word))


def _evacuate(t):
    """Evacuation of a standard tableau of tuples, unchecked."""
    n = size(t)
    cur = [list(row) for row in t]
    out = [[None] * len(row) for row in t]
    for k in range(n):
        r = c = 0
        while True:
            right = cur[r][c + 1] if c + 1 < len(cur[r]) else None
            below = None
            if r + 1 < len(cur) and c < len(cur[r + 1]):
                below = cur[r + 1][c]
            if right is None and below is None:
                break
            if below is None or (right is not None and right < below):
                cur[r][c] = right
                c += 1
            else:
                cur[r][c] = below
                r += 1
        cur[r] = cur[r][:c]
        out[r][c] = n - k
    return tuple(tuple(row) for row in out)


def _partial_evacuate(j, t):
    """Partial evacuation of a standard tableau of tuples, unchecked: on an
    increasing row the entries 1..j are its first ones."""
    if j <= 1:
        return t
    prefix = [sum(1 for v in row if v <= j) for row in t]
    esub = _evacuate(tuple(row[:m] for row, m in zip(t, prefix) if m))
    return tuple((esub[r] if r < len(esub) else ()) + row[m:]
                 for r, (row, m) in enumerate(zip(t, prefix)))


def _bender_knuth(i, t):
    """t_i on a semistandard tableau of tuples: in each row the free
    entries must be the last i's and the first i+1's, next to each other."""
    rows = [list(row) for row in t]
    for r, row in enumerate(t):
        free = [c for c, v in enumerate(row) if
                (v == i and not (r + 1 < len(t) and c < len(t[r + 1])
                                 and t[r + 1][c] == i + 1))
                or (v == i + 1 and not (r > 0 and t[r - 1][c] == i))]
        if not free:
            continue
        if free[-1] - free[0] + 1 != len(free):
            raise TableauError("free entries are not contiguous in %r" % (t,))
        ones = sum(1 for c in free if row[c] == i)
        if any(row[c] == i for c in free[ones:]):
            raise TableauError("free entries out of order in %r" % (t,))
        rows[r][free[0]:free[-1] + 1] = ([i] * (len(free) - ones)
                                         + [i + 1] * ones)
    return tuple(tuple(row) for row in rows)


def _standard(t, what):
    """t as row tuples, refused unless it is a standard tableau."""
    t = check_tableau(t)
    if not _numbered_once(t):
        raise TableauError("%s wants a standard tableau" % what)
    return t


def evacuation(t):
    """Schutzenberger evacuation of a standard tableau."""
    return check_tableau(_evacuate(_standard(t, "evacuation")))


def partial_evacuation(j, t):
    """Evacuate the subtableau of entries 1..j, leaving the rest in place."""
    t = _standard(t, "partial evacuation")
    if not 0 <= j <= size(t):
        raise TableauError("cutoff %d out of range" % j)
    return check_tableau(_partial_evacuate(j, t))


def bk_cactus_act(i, j, t):
    """Interval operator on standard tableaux: q_ij = q_1j q_{1,j-i+1} q_1j."""
    if not 1 <= i < j <= size(t):
        raise TableauError("bad interval [%d, %d]" % (i, j))
    t = _partial_evacuate(j, _standard(t, "partial evacuation"))
    if i > 1:
        t = _partial_evacuate(j, _partial_evacuate(j - i + 1, t))
    return check_tableau(t)


def bender_knuth(i, t):
    """Swap the numbers of free i and i+1 entries in every row."""
    t = check_tableau(t)
    if i < 1:
        raise TableauError("index must be positive")
    return check_tableau(_bender_knuth(i, t))


def bk_braid_witness(max_cells=6, max_entry=4):
    """Smallest semistandard witness that adjacent swaps do not braid.

    Scans shapes by cell count, then fillings, then the index i; returns a
    dict with the tableau and both triple products, or None.  With entries
    below 3 there is no index to test, and a shape with more rows than
    max_entry has no filling, so neither is scanned.
    """
    from .crystal import semistandard_tableaux

    if max_entry < 3:
        return None
    for n in range(1, max_cells + 1):
        for shp in partitions_of(n):
            if len(shp) > max_entry:
                continue
            for t in sorted(semistandard_tableaux(shp, max_entry)):
                for i in range(1, max_entry - 1):
                    lhs = _bender_knuth(i, _bender_knuth(i + 1, _bender_knuth(i, t)))
                    rhs = _bender_knuth(i + 1, _bender_knuth(i, _bender_knuth(i + 1, t)))
                    if lhs != rhs:
                        return {"tableau": t, "index": i, "cells": n,
                                "shape": shp, "lhs": lhs, "rhs": rhs}
    return None


def rsk_crosscheck(n):
    """Compare the product-crystal action on permutation words with RSK.

    Acts on all length-n permutation sequences in the n-fold product of the
    defining crystal.  Discovers empirically (a) how permutation generators
    transform the one-line word, and (b) which RSK factor the interval
    generators move, under which identification of words with sequences.
    Returns a report dict; report["passed"] demands a unique coherent story.
    The interval letters build the reversal table of the whole product, so
    its n^n points are checked against the point budget before any work.
    """
    from .actions import _apply_columns, _resolve
    from .cartan import cartan_type_a, fundamental_weight
    from .groups import CactusGen, PermGen
    from .perms import all_perms, inverse

    if n < 2:
        raise TableauError("crosscheck needs n >= 2 factors, not n=%d" % n)
    budget = point_budget(TableauError)
    if n > budget.bit_length():  # so n ** n > 2 ** n > budget, left uncomputed
        raise TableauError("crosscheck at n=%d has n^n points, over the "
                           "budget of %d; raise %s to override"
                           % (n, budget, MAX_POINTS_ENV))
    check_budget(n ** n, "crosscheck at n=%d" % n, budget, TableauError)
    cartan = cartan_type_a(n - 1)
    weights = (fundamental_weight(cartan, 1),) * n
    words = all_perms(n)
    word_of = {tuple(v - 1 for v in a): a for a in words}
    columns = list(zip(*word_of))
    rsk_of = lru_cache(maxsize=None)(rsk)
    cactus_of = lru_cache(maxsize=None)(bk_cactus_act)

    def images(g):  # the image word of each word; g runs once on all columns
        _, steps = _resolve(cartan, g, weights)
        outs = list(zip(*_apply_columns(steps, columns)))
        try:
            return list(map(word_of.__getitem__, outs))
        except KeyError as exc:  # the first word sent outside them
            bad = exc.args[0]
            raise TableauError("letter %s maps the permutation word %s to "
                               "%s, which is not a permutation"
                               % (g, words[outs.index(bad)],
                                  tuple(e + 1 for e in bad))) from None

    # pull[u](v) is v o u, so a o w is pull[w](a) and w o a is pull[a](w); a
    # rule or story that fails is not tested again, as it cannot hold again
    pull = {a: itemgetter(*(v - 1 for v in a)) for a in words}
    perm_rules = {"precompose": True, "postcompose": True}
    for w in words:
        outs = images(PermGen(w))
        perm_rules["precompose"] = (perm_rules["precompose"]
                                    and outs == list(map(pull[w], words)))
        perm_rules["postcompose"] = (perm_rules["postcompose"]
                                     and outs == [pull[a](w) for a in words])

    def moves_only(i, j, factor, pairs):  # q_ij moves this RSK factor alone
        for src, dst in pairs:
            (p1, q1), (p2, q2) = rsk_of(src), rsk_of(dst)
            if factor == "P":
                p1, q1, p2, q2 = q1, p1, q2, p2
            if p2 != p1 or q2 != cactus_of(i, j, q1):
                return False
        return True

    inv = {a: inverse(a) for a in words}
    stories = {(ident, factor): True
               for ident in ("one-line", "inverse") for factor in ("P", "Q")}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            outs = images(CactusGen(i, j))
            for ident, factor in stories:
                if stories[ident, factor]:
                    pairs = zip(words, outs) if ident == "one-line" else \
                        ((inv[a], inv[out]) for a, out in zip(words, outs))
                    stories[ident, factor] = moves_only(i, j, factor, pairs)

    winners = [k for k, v in stories.items() if v]
    perm_winners = [k for k, v in perm_rules.items() if v]
    return {
        "n": n,
        "perm_rule": perm_winners,
        "perm_formula": {"precompose": "out(k) = a(w(k))",
                         "postcompose": "out(k) = w(a(k))"},
        "stories": {"%s/%s" % k: v for k, v in stories.items()},
        "winners": ["%s/%s" % k for k in winners],
        "passed": len(winners) >= 1 and len(perm_winners) >= 1,
    }
