"""One-line permutations on {1..n} as tuples, w[k-1] = w(k)."""

from __future__ import annotations

from itertools import permutations

from . import MAX_POINTS_ENV, CactusError


class PermError(CactusError):
    pass


def check_perm(w):
    if sorted(w) != list(range(1, len(w) + 1)):
        raise PermError("not a permutation of 1..%d: %r" % (len(w), w))
    return tuple(w)


def identity(n):
    return tuple(range(1, n + 1))


def compose(u, v):
    """u o v, so (u o v)(k) = u(v(k))."""
    return tuple(u[v[k] - 1] for k in range(len(v)))


def inverse(w):
    inv = [0] * len(w)
    for k, v in enumerate(w):
        inv[v - 1] = k + 1
    return tuple(inv)


def power(w, d):
    out = identity(len(w))
    for _ in range(d):
        out = compose(out, w)
    return out


def transposition(n, a, b):
    w = list(range(1, n + 1))
    w[a - 1], w[b - 1] = b, a
    return tuple(w)


def interval_reversal(n, i, j):
    """w(k) = i + j - k on [i, j], identity elsewhere."""
    w = list(range(1, n + 1))
    for k in range(i, j + 1):
        w[k - 1] = i + j - k
    return tuple(w)


def long_cycle(n):
    """k -> k + 1 cyclically."""
    return tuple(list(range(2, n + 1)) + [1])


def cyclic_interval(n, i, j):
    """The points i, i+1, .., j read cyclically in {1..n}."""
    if i <= j:
        return list(range(i, j + 1))
    return list(range(i, n + 1)) + list(range(1, j + 1))


def cyclic_reversal(n, i, j):
    """Reverse the cyclic interval [i, j], identity off it."""
    pts = cyclic_interval(n, i, j)
    w = list(range(1, n + 1))
    for t, p in enumerate(pts):
        w[p - 1] = pts[len(pts) - 1 - t]
    return tuple(w)


def all_perms(n):
    return [tuple(p) for p in permutations(range(1, n + 1))]


def parity(w):
    seen = [False] * len(w)
    sign = 0
    for k in range(len(w)):
        if seen[k]:
            continue
        length = 0
        c = k
        while not seen[c]:
            seen[c] = True
            c = w[c] - 1
            length += 1
        sign += length - 1
    return sign % 2


def mulclose(gens, limit=None):
    """Closure of a set of permutations under composition."""
    gens = [check_perm(g) for g in gens]
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = compose(a, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
                    if limit is not None and len(seen) > limit:
                        raise PermError(
                            "the closure has more than %d elements; raise %s "
                            "to override" % (limit, MAX_POINTS_ENV))
        frontier = nxt
    return seen


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
    # no generators generate the trivial group
    group = (mulclose(gens, limit=limit) if gens
             else {tuple(range(1, len(states) + 1))})
    evens = sum(1 for g in group if parity(g) == 0)
    return {"degree": len(states), "order": len(group), "group": group,
            "even": evens, "odd": len(group) - evens}


def contains_alternating(group, degree):
    """Does the set of one-line tuples contain every even permutation?"""
    if degree > 8:
        raise PermError("alternating membership check capped at degree 8")
    return all(p in group for p in permutations(range(1, degree + 1))
               if parity(p) == 0)


def format_perm(w):
    return "w[%s]" % ",".join(str(v) for v in w)


def parse_perm(text):
    if not (text.startswith("w[") and text.endswith("]")):
        raise PermError("bad permutation token %r" % text)
    body = text[2:-1]
    try:
        vals = tuple(int(p) for p in body.split(","))
    except ValueError:
        raise PermError("bad permutation token %r" % text) from None
    return check_perm(vals)
