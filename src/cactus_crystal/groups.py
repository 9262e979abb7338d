"""Cactus group family: plain, virtual, mirabolic and affine flavours.

Words are tuples of generator tokens tagged with a flavour:

  C   interval reversers s_ij, 1 <= i < j <= n
  vC  s_ij together with arbitrary permutations w of the factors
  MC  s_ij together with adjacent swaps t_i; t_0 is allowed as a letter so
      that the distinguished words in the flavour make sense, but it has no
      image among the virtual generators
  AC  cyclic interval reversers s_ij (i != j, wrapping allowed) and the
      rotation r

The defining relations of C are the involutions, commutation of disjoint
intervals, and conjugation of nested intervals.  vC adds the symmetric group
multiplication table and the cabled relations w s_ij w^{-1} = s(cabling(w)) for
translations.  AC replaces nesting by its cyclic version and adds r^n = 1 and
r s_ij r^{-1} = s_{i+1,j+1}.  MC has no known presentation, so asking for its
relations raises; its verification goes through the vC image instead, which
virtual_letters gives letter by letter and to_virtual word by word.  One
generator lists the interval relations of every flavour (a standard interval
is a cyclic one [i, j] with i < j).  relation_stream checks the closed-form
count of relation_counts against the point budget, then yields every relation
as letter tuples, each letter checked once when it is interned; the word lists
are built from it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial

from . import (MAX_POINTS_ENV, CactusError, Frozen, check_budget, perms,
               point_budget, setfield)
from .perms import (
    check_perm,
    compose,
    cyclic_interval,
    cyclic_reversal,
    identity,
    interval_reversal,
    inverse,
    long_cycle,
    power,
    transposition,
)


class GroupError(CactusError):
    pass


class CactusGen(Frozen):
    __slots__ = ("i", "j")

    def __init__(self, i, j):
        setfield(self, "i", i)
        setfield(self, "j", j)
        setfield(self, "_key", (i, j))

    def __str__(self):
        return "s%d_%d" % (self.i, self.j)


class PermGen(Frozen):
    __slots__ = ("perm",)

    def __init__(self, perm):
        setfield(self, "perm", perm)
        setfield(self, "_key", (perm,))

    def __str__(self):
        return perms.format_perm(self.perm)


class MirabolicT(Frozen):
    __slots__ = ("i",)

    def __init__(self, i):
        setfield(self, "i", i)
        setfield(self, "_key", (i,))

    def __str__(self):
        return "t%d" % self.i


class AffineS(Frozen):
    __slots__ = ("i", "j")

    def __init__(self, i, j):
        setfield(self, "i", i)
        setfield(self, "j", j)
        setfield(self, "_key", (i, j))

    def __str__(self):
        return "s%d_%d" % (self.i, self.j)


class AffineR(Frozen):
    __slots__ = ()
    _key = ()

    def __str__(self):
        return "r"


LETTERS = {"C": (CactusGen,), "vC": (CactusGen, PermGen),
           "MC": (CactusGen, MirabolicT), "AC": (AffineS, AffineR)}
KINDS = tuple(LETTERS)


@lru_cache(maxsize=None)
def _check_generator(gen, kind, n):
    """gen, once it is checked as a letter of the flavour on n factors; the
    cache interns it, so a letter is checked the first time it is seen."""
    if not isinstance(gen, LETTERS[kind]):
        raise GroupError("%s is not a %s generator" % (gen, kind))
    if isinstance(gen, CactusGen):
        if not 1 <= gen.i < gen.j <= n:
            raise GroupError("bad interval s%d_%d for n=%d" % (gen.i, gen.j, n))
    elif isinstance(gen, PermGen):
        check_perm(gen.perm)
        if len(gen.perm) != n:
            raise GroupError("permutation length %d, expected %d" % (len(gen.perm), n))
    elif isinstance(gen, MirabolicT):
        if not 0 <= gen.i <= n - 1:
            raise GroupError("bad index t%d for n=%d" % (gen.i, n))
    elif isinstance(gen, AffineS):
        if gen.i == gen.j or not (1 <= gen.i <= n and 1 <= gen.j <= n):
            raise GroupError("bad cyclic interval s%d_%d for n=%d" % (gen.i, gen.j, n))
    return gen


class GroupWord(Frozen):
    __slots__ = ("kind", "n", "gens")

    def __init__(self, kind, n, gens):
        if kind not in KINDS:
            raise GroupError("unknown flavour %r" % (kind,))
        if n < 2:
            raise GroupError("need n >= 2")
        for g in gens:
            _check_generator(g, kind, n)
        setfield(self, "kind", kind)
        setfield(self, "n", n)
        setfield(self, "gens", gens)
        setfield(self, "_key", (kind, n, gens))

    def __len__(self):
        return len(self.gens)

    def __str__(self):
        return format_word(self)


def word(kind, n, gens):
    return GroupWord(kind, n, tuple(gens))


def format_word(w):
    return " ".join(str(g) for g in w.gens) if w.gens else "1"


def parse_word(text, kind, n):
    gens = []
    for tok in text.split():
        if tok == "1":
            continue
        gens.append(_parse_token(tok, kind))
    return GroupWord(kind, n, tuple(gens))


def _parse_token(tok, kind):
    if tok == "r":
        return AffineR()
    if tok.startswith("w["):
        return PermGen(perms.parse_perm(tok))
    if tok.startswith("t"):
        try:
            return MirabolicT(int(tok[1:]))
        except ValueError:
            raise GroupError("bad token %r" % tok) from None
    if tok.startswith("s"):
        body = tok[1:]
        if "_" in body:
            a, _, b = body.partition("_")
        elif len(body) == 2:
            a, b = body[0], body[1]
        else:
            raise GroupError("bad token %r" % tok)
        try:
            i, j = int(a), int(b)
        except ValueError:
            raise GroupError("bad token %r" % tok) from None
        return AffineS(i, j) if kind == "AC" else CactusGen(i, j)
    raise GroupError("bad token %r" % tok)


def _mod1(x, n):
    return (x - 1) % n + 1


def cabling(u, i, j, n):
    """Replace the point u^{-1}-sees-at-i by the whole block [i, j].

    u is a permutation of 1..n-(j-i); the result is the permutation of 1..n
    that moves the block i..j rigidly to start at u(i) and keeps the relative
    order of everything else.
    """
    q = j - i
    if not (1 <= i < j <= n):
        raise GroupError("bad interval [%d, %d] for n=%d" % (i, j, n))
    if len(u) != n - q:
        raise GroupError("cabling needs a permutation of 1..%d" % (n - q))
    check_perm(u)
    p = u[i - 1]
    w = []
    for a in range(1, n + 1):
        if a < i:
            b = u[a - 1]
            w.append(b if b < p else b + q)
        elif a <= j:
            w.append(p + a - i)
        else:
            b = u[a - q - 1]
            w.append(b if b < p else b + q)
    return check_perm(w)


def _interval_relations(kind, n, letter):
    """The involution, disjoint and nesting relations of the interval letters.

    AC runs over the cyclic intervals [i, j], i != j, read i, i+1, .., j
    around {1..n}; the other flavours over the standard ones, i < j.
    """
    make = AffineS if kind == "AC" else CactusGen
    spans = {(i, j): cyclic_interval(n, i, j)
             for i, j in permutations(range(1, n + 1), 2)
             if i < j or kind == "AC"}
    s = {p: letter(make(*p)) for p in spans}
    for p in spans:
        yield "involution", (s[p], s[p]), ()
    for (p, a), (q, b) in combinations(spans.items(), 2):
        if set(a).isdisjoint(b):
            yield "disjoint", (s[p], s[q]), (s[q], s[p])
    for (i, j), pts in spans.items():
        for k, l in spans:
            if (k, l) != (i, j) and k in pts and l in pts \
                    and pts.index(k) <= pts.index(l):
                flipped = (_mod1(i + j - l, n), _mod1(i + j - k, n))
                yield "nesting", (s[i, j], s[k, l], s[i, j]), (s[flipped],)


def relation_counts(kind, n):
    """{family: count} of the relations relation_stream(kind, n) yields, in
    closed form, without listing them."""
    if n < 2:
        raise GroupError("need n >= 2")
    if kind not in KINDS:
        raise GroupError("unknown flavour %r" % (kind,))
    cyclic = kind == "AC"
    # an interval of m points contains comb(m, 2) - 1 others; there are n
    # cyclic ones of each length, n + 1 - m standard ones; four points in
    # cyclic order bound two disjoint pairs of cyclic intervals, one of
    # standard ones
    counts = {"involution": n * (n - 1) if cyclic else comb(n, 2),
              "disjoint": (2 if cyclic else 1) * comb(n, 4),
              "nesting": sum((n if cyclic else n + 1 - m) * (comb(m, 2) - 1)
                             for m in range(2, n + 1))}
    if kind == "MC":
        return {"t_involution": n - 1, "t_disjoint": comb(n - 2, 2),
                "t_conjugation": sum(comb(i - 1, 2) + comb(n - i - 1, 2)
                                     for i in range(1, n)),
                **{"interval_" + f: c for f, c in counts.items()}}
    if kind == "vC":
        counts["perm_table"] = factorial(n) ** 2
        # n - q intervals of q + 1 points, each cabled by (n - q)! letters
        counts["cabled"] = sum((n - q) * factorial(n - q) for q in range(1, n))
    if cyclic:
        counts["rotation_order"] = 1
        counts["rotation_shift"] = n * (n - 1)
    return counts


def relation_stream(kind, n):
    """The relations of the flavour, yielded as (family, lhs, rhs) letter
    tuples: the defining relations of C, vC and AC, the mc_relation_suite of
    MC.  Their closed-form count is checked against the point budget before
    any is listed."""
    budget = point_budget(GroupError)
    if sum(relation_counts(kind, n).values()) > budget:
        raise GroupError("the %s relations for n=%d outnumber the budget of "
                         "%d; raise %s to override"
                         % (kind, n, budget, MAX_POINTS_ENV))
    return _relations(kind, n)


def _relations(kind, n):
    def letter(g):
        return _check_generator(g, kind, n)
    if kind == "MC":
        t = {i: letter(MirabolicT(i)) for i in range(1, n)}
        for i in t:
            yield "t_involution", (t[i], t[i]), ()
        for i in t:
            for j in range(i + 2, n):
                yield "t_disjoint", (t[i], t[j]), (t[j], t[i])
        for i in t:
            for k, l in combinations(range(1, n + 1), 2):
                if {i, i + 1}.isdisjoint(range(k, l + 1)):
                    s = letter(CactusGen(k, l))
                    yield "t_conjugation", (t[i], s, t[i]), (s,)
        for family, lhs, rhs in _interval_relations(kind, n, letter):
            yield "interval_" + family, lhs, rhs
        return
    yield from _interval_relations(kind, n, letter)
    if kind == "vC":
        w = {u: letter(PermGen(u)) for u in permutations(range(1, n + 1))}
        for u in w:
            for v in w:
                yield "perm_table", (w[u], w[v]), (w[compose(u, v)],)
        for i, j in combinations(range(1, n + 1), 2):
            q = j - i
            s = letter(CactusGen(i, j))
            for u in perms.all_perms(n - q):
                c = cabling(u, i, j, n)
                image = letter(CactusGen(c[i - 1], c[i - 1] + q))
                yield "cabled", (w[c], s, w[inverse(c)]), (image,)
    if kind == "AC":
        r = letter(AffineR())
        yield "rotation_order", (r,) * n, ()
        for i, j in permutations(range(1, n + 1), 2):
            shifted = letter(AffineS(_mod1(i + 1, n), _mod1(j + 1, n)))
            yield ("rotation_shift",
                   (r, letter(AffineS(i, j))) + (r,) * (n - 1), (shifted,))


def _word_list(kind, n):
    return [(family, GroupWord(kind, n, lhs), GroupWord(kind, n, rhs))
            for family, lhs, rhs in relation_stream(kind, n)]


def defining_relation_families(kind, n):
    """List of (family, lhs, rhs) word pairs presenting the flavour."""
    if kind == "MC" and n >= 2:
        raise GroupError("the mirabolic flavour has no known presentation")
    return _word_list(kind, n)


def mc_relation_suite(n):
    """Relations the vC image of the mirabolic flavour must satisfy.

    Not a presentation: the t_i need not braid.  The suite is the involutions,
    commutation of distant swaps, conjugation of swap-disjoint intervals (the
    cabled relations whose permutation is a translating transposition), and
    the interval relations inherited from the plain flavour.
    """
    return _word_list("MC", n)


def mc_s0j_word(j, n):
    """The distinguished extra generators: t_0, t_0 t_1 t_0, t_0 t_1 t_0 t_2 t_1 t_0, ..

    The word for index j concatenates the descending runs t_m t_{m-1} .. t_0
    for m = 0 .. j.  It lives in the flavour on n factors with the t_0 letter
    allowed; its symmetric-group projection reverses the stretch {0..j+1}.
    Its (j + 1)(j + 2)/2 letters are checked against the point budget first.
    """
    if not 0 <= j <= n - 1:
        raise GroupError("index %d out of range for n=%d" % (j, n))
    check_budget((j + 1) * (j + 2) // 2, "the s0j word for j=%d" % j,
                 error=GroupError)
    letters = [MirabolicT(k) for k in range(j + 1)]
    return GroupWord("MC", n, tuple(t for m in range(j + 1)
                                    for t in letters[m::-1]))


def virtual_letters(g, n):
    """The vC letters of one letter of any flavour on n factors, leftmost first.

    s_ij and w are their own image; t_i maps to the transposition of factors
    i, i+1 (t_0 has none); r maps to the long cycle c, and a wrapping AC s_ij
    to c^{-d} s_{i+d, j+d} c^{d} for the least d that makes the shifted
    interval standard.
    """
    if isinstance(g, (CactusGen, PermGen)):
        return (g,)
    if isinstance(g, MirabolicT):
        if g.i == 0:
            raise GroupError("t0 has no image among the virtual generators")
        return (PermGen(transposition(n, g.i, g.i + 1)),)
    if isinstance(g, AffineR):
        return (PermGen(long_cycle(n)),)
    if not isinstance(g, AffineS):
        raise GroupError("unknown generator %r" % (g,))
    if g.i < g.j:
        return (CactusGen(g.i, g.j),)
    c = long_cycle(n)
    for d in range(1, n):
        i2, j2 = _mod1(g.i + d, n), _mod1(g.j + d, n)
        if i2 < j2 and j2 - i2 == len(cyclic_interval(n, g.i, g.j)) - 1:
            return (PermGen(power(inverse(c), d)),
                    CactusGen(i2, j2),
                    PermGen(power(c, d)))
    raise GroupError("no rotation straightens s%d_%d" % (g.i, g.j))


def to_virtual(w):
    """The image of a C, MC or AC word in vC, letter by letter."""
    if w.kind == "vC":
        raise GroupError("the virtual map applies to C, MC or AC words")
    return GroupWord("vC", w.n, tuple(v for g in w.gens
                                      for v in virtual_letters(g, w.n)))


def generator_projection(g, n):
    """Image of one generator in the symmetric group on the factors."""
    if isinstance(g, CactusGen):
        return interval_reversal(n, g.i, g.j)
    if isinstance(g, PermGen):
        return g.perm
    if isinstance(g, MirabolicT):
        raise GroupError("t letters project on n+1 points; use project_to_symmetric")
    if isinstance(g, AffineS):
        return cyclic_reversal(n, g.i, g.j)
    if isinstance(g, AffineR):
        return long_cycle(n)
    raise GroupError("unknown generator %r" % (g,))


def project_to_symmetric(w):
    """Fold the word into a single permutation, leftmost letter acting first.

    C, vC and AC words land in the symmetric group on the n factors (one-line
    tuples on 1..n).  MC words land on the n+1 points {0..n}: the result is a
    tuple p of length n+1 with p[k] the image of point k.
    """
    if w.kind == "MC":
        acc = list(range(n + 1)) if (n := w.n) else []
        for g in w.gens:
            if isinstance(g, MirabolicT):
                acc[g.i], acc[g.i + 1] = acc[g.i + 1], acc[g.i]
            else:
                acc[g.i:g.j + 1] = acc[g.i:g.j + 1][::-1]
        return tuple(acc)
    acc = identity(w.n)
    for g in w.gens:
        acc = compose(acc, generator_projection(g, w.n))
    return acc
