"""Tableau combinatorics: RSK, evacuation, Bender-Knuth operators.

Tableaux are tuples of row tuples.  Evacuation empties the tableau corner by
corner, sliding the smaller neighbour into the hole, and records complements;
the partial variant evacuates the subtableau of entries 1..j in place.  The
interval operators q_ij = q_1j q_{1,j-i+1} q_1j give the cactus action on
standard tableaux; the adjacent-swap operators are the Bender-Knuth moves.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import MAX_POINTS_ENV, CactusError, check_budget, point_budget
from .perms import inverse


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


def is_semistandard(t):
    try:
        check_tableau(t)
    except TableauError:
        return False
    return all(v >= 1 for row in t for v in row)


def is_standard(t):
    if not is_semistandard(t):
        return False
    vals = sorted(v for row in t for v in row)
    return vals == list(range(1, size(t) + 1))


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


def semistandard_tableaux(shp, max_entry):
    """All semistandard tableaux of the shape with entries <= max_entry."""
    if not is_partition(shp):
        raise TableauError("not a partition: %r" % (shp,))
    cells = [(r, c) for r in range(len(shp)) for c in range(shp[r])]
    out = []

    def rec(idx, grid):
        if idx == len(cells):
            out.append(tuple(tuple(row) for row in grid))
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, max_entry + 1):
            grid[r].append(v)
            rec(idx + 1, grid)
            grid[r].pop()
    rec(0, [[] for _ in shp])
    return out


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
    if shape(p) != shape(q) or not is_standard(q):
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


def evacuation(t):
    """Schutzenberger evacuation of a standard tableau."""
    t = check_tableau(t)
    if not is_standard(t):
        raise TableauError("evacuation wants a standard tableau")
    n = size(t)
    cur = [list(row) for row in t]
    out = [[None] * len(row) for row in t]
    for k in range(n):
        r = c = 0
        while True:
            right = cur[r][c + 1] if c + 1 < len(cur[r]) and cur[r][c + 1] is not None else None
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
    return check_tableau(tuple(tuple(row) for row in out))


def partial_evacuation(j, t):
    """Evacuate the subtableau of entries 1..j, leaving the rest in place."""
    t = check_tableau(t)
    if not is_standard(t):
        raise TableauError("partial evacuation wants a standard tableau")
    if not 0 <= j <= size(t):
        raise TableauError("cutoff %d out of range" % j)
    if j <= 1:
        return t
    prefix = []
    for row in t:
        m = sum(1 for v in row if v <= j)
        if any(v <= j for v in row[m:]):
            raise TableauError("entries 1..%d are not a subtableau" % j)
        prefix.append(m)
    sub = tuple(tuple(row[:m]) for row, m in zip(t, prefix) if m)
    esub = evacuation(sub)
    rows = []
    for r, row in enumerate(t):
        head = esub[r] if r < len(esub) else ()
        rows.append(tuple(head) + row[prefix[r]:])
    return check_tableau(tuple(rows))


def bk_cactus_act(i, j, t):
    """Interval operator on standard tableaux: q_ij = q_1j q_{1,j-i+1} q_1j."""
    if not 1 <= i < j <= size(t):
        raise TableauError("bad interval [%d, %d]" % (i, j))
    if i == 1:
        return partial_evacuation(j, t)
    return partial_evacuation(
        j, partial_evacuation(j - i + 1, partial_evacuation(j, t)))


def bender_knuth(i, t):
    """Swap the numbers of free i and i+1 entries in every row."""
    t = check_tableau(t)
    if i < 1:
        raise TableauError("index must be positive")
    rows = [list(row) for row in t]
    for r, row in enumerate(rows):
        free = []
        for c, v in enumerate(row):
            if v == i:
                below = t[r + 1][c] if r + 1 < len(t) and c < len(t[r + 1]) else None
                if below != i + 1:
                    free.append((c, v))
            elif v == i + 1:
                above = t[r - 1][c] if r > 0 else None
                if above != i:
                    free.append((c, v))
        if not free:
            continue
        cols = [c for c, _ in free]
        if cols != list(range(cols[0], cols[0] + len(cols))):
            raise TableauError("free entries are not contiguous in %r" % (t,))
        ones = sum(1 for _, v in free if v == i)
        twos = len(free) - ones
        if any(v == i for _, v in free[ones:]):
            raise TableauError("free entries out of order in %r" % (t,))
        for c in range(cols[0], cols[0] + twos):
            rows[r][c] = i
        for c in range(cols[0] + twos, cols[0] + len(free)):
            rows[r][c] = i + 1
    return check_tableau(tuple(tuple(row) for row in rows))


def bk_braid_witness(max_cells=6, max_entry=4):
    """Smallest semistandard witness that adjacent swaps do not braid.

    Scans shapes by cell count, then fillings, then the index i; returns a
    dict with the tableau and both triple products, or None.
    """
    for n in range(1, max_cells + 1):
        for shp in partitions_of(n):
            for t in sorted(semistandard_tableaux(shp, max_entry)):
                for i in range(1, max_entry - 1):
                    lhs = bender_knuth(i, bender_knuth(i + 1, bender_knuth(i, t)))
                    rhs = bender_knuth(i + 1, bender_knuth(i, bender_knuth(i + 1, t)))
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
    from .perms import all_perms, compose

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

    def images(g):  # (word, image word) pairs; g runs once on all columns
        _, steps = _resolve(cartan, g, weights)
        for a, out in zip(words, zip(*_apply_columns(steps, columns))):
            if out not in word_of:
                raise TableauError("letter %s maps the permutation word %s to "
                                   "%s, which is not a permutation"
                                   % (g, a, tuple(e + 1 for e in out)))
            yield a, word_of[out]

    perm_rules = {"precompose": True, "postcompose": True}
    for w in words:
        for a, out in images(PermGen(w)):
            if out != compose(a, w):
                perm_rules["precompose"] = False
            if out != compose(w, a):
                perm_rules["postcompose"] = False

    stories = {(ident, factor): True
               for ident in ("one-line", "inverse") for factor in ("P", "Q")}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            for a, out in images(CactusGen(i, j)):
                for ident in ("one-line", "inverse"):
                    src = a if ident == "one-line" else inverse(a)
                    dst = out if ident == "one-line" else inverse(out)
                    p1, q1 = rsk_of(src)
                    p2, q2 = rsk_of(dst)
                    if not (p2 == p1 and q2 == cactus_of(i, j, q1)):
                        stories[(ident, "Q")] = False
                    if not (q2 == q1 and p2 == cactus_of(i, j, p1)):
                        stories[(ident, "P")] = False

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
