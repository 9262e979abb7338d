"""Finite crystal graphs: irreducible type-A crystals on tableaux, tensor
products, components, and normality checking.

Conventions, fixed once and used everywhere:

* eps_i(b) is the number of times e_i applies to b, phi_i(b) the number of
  times f_i applies.
* On a two-fold product, e_i acts on the first factor iff
  eps_i(b1) > phi_i(b2), and f_i acts on the first factor iff
  eps_i(b1) >= phi_i(b2); otherwise they act on the second factor.  A move
  into an undefined operator makes the whole move undefined.
* So a (x) b is highest exactly when b is the highest element of its factor
  B(mu) and eps_i(a) <= phi_i(b) for every i: the highest elements of
  B(lambda) (x) B(mu) are read off B(lambda) alone (``product_heads``).

The product rule determines a bracket rule on words in the defining crystal:
mark i as '+' and i+1 as '-', cancel adjacent "-+" pairs, then e_i raises the
leftmost surviving '-' and f_i lowers the rightmost surviving '+'.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from itertools import compress
from math import factorial, prod
from types import SimpleNamespace
from weakref import ref

from . import CactusError, Memo, fields_repr
from .cartan import (
    cartan_to_json,
    cartan_type_a,
    simple_root,
    weight_add,
    weight_sub,
)


class CrystalError(CactusError):
    pass


class CrystalGraph:
    """A finite set with weights and partial lowering maps f_i.

    Treated as immutable after construction; ids are 0..size-1 and stable.
    ``f_maps`` maps i to a tuple of target ids or None; ``e_maps``, the same
    for the raising maps, holds their partial inverses, since f_i and the
    weights determine a crystal.  The eps and phi dicts are computed on
    their first read, by ``strings``, a function that derives them from
    graphs this one is built from, or else by walking each i-string.  Graphs
    are equal when their weights and f_i are, whatever they have cached, and
    unhashable.  A graph keeps what is computed from it once: its heads,
    component ids, xi, and, as the left factor, its two-fold products (see
    ``tensor``).
    """

    def __init__(self, cartan, wts, f_maps, strings=None):
        self.cartan, self.wts, self.f_maps = cartan, wts, f_maps
        self.e_maps = {i: _invert_partial(self, i) for i in self.index_range()}
        self._heads = self._comp = self._xi = self._products = None
        self._strings = strings

    def __getattr__(self, name):
        """Runs on the first read of _eps or _phi, and keeps both dicts."""
        if name not in ("_eps", "_phi"):
            raise AttributeError(name)
        strings = self.__dict__.pop("_strings", None)
        self._eps, self._phi = strings() if strings else _string_walk(self)
        return self.__dict__[name]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.cartan, self.wts, self.f_maps)
                == (other.cartan, other.wts, other.f_maps))

    def __repr__(self):
        return fields_repr(self, ("cartan", "wts", "f_maps"))

    # -- basic access ------------------------------------------------------

    @property
    def size(self):
        return len(self.wts)

    def elements(self):
        return range(self.size)

    def index_range(self):
        return self.cartan.index_range()

    def wt(self, b):
        return self.wts[b]

    def f(self, i, b):
        return self.f_maps[i][b]

    def e(self, i, b):
        return self.e_maps[i][b]

    def eps(self, i, b):
        return self._eps[i][b]

    def phi(self, i, b):
        return self._phi[i][b]

    def highest_weight_elements(self):
        if self._heads is None:
            self._heads = _undefined_everywhere(self, self.e_maps)
        return list(self._heads)

    def lowest_weight_elements(self):
        return list(_undefined_everywhere(self, self.f_maps))


def _invert_partial(graph, i):
    """e_i of a graph, the partial inverse of its f_i, which must satisfy
    axiom (2), wt(f_i b) = wt(b) - alpha_i, on every edge.  Axioms (3) and
    (4), that e_i and f_i invert each other, then hold by definition unless
    some element has two f_i-preimages, and (1) is (2) read backwards."""
    wts = graph.wts
    alpha = simple_root(graph.cartan, i)
    lowered = {w: weight_sub(w, alpha) for w in set(wts)}
    e_map = [None] * len(wts)
    for b, c in enumerate(graph.f_maps[i]):
        if c is None:
            continue
        if wts[c] != lowered[wts[b]]:
            raise CrystalError("axiom (2): wt(f_%d %d) != wt - alpha_%d at "
                               "element %d" % (i, b, i, b))
        if e_map[c] is not None:
            raise CrystalError(
                "axiom (3): element %d has two f_%d-preimages" % (c, i))
        e_map[c] = b
    return tuple(e_map)


def _undefined_everywhere(graph, maps):
    """Elements on which every operator of ``maps`` is undefined."""
    undefined = [True] * graph.size
    for i in graph.index_range():
        undefined = [u and c is None for u, c in zip(undefined, maps[i])]
    return tuple(compress(graph.elements(), undefined))


def _string_walk(graph):
    """The eps and phi dicts of a graph, index to tuple per element, by
    walking each i-string top to bottom: f_i lowers the weight by alpha_i
    (axiom (2)), so no string is a cycle, and as e_i inverts f_i, every
    element lies on one that starts at a top."""
    eps, phi = {}, {}
    for i in graph.index_range():
        e_map, f_map = graph.e_maps[i], graph.f_maps[i]
        up, down = [None] * graph.size, [None] * graph.size
        for top in graph.elements():
            if e_map[top] is not None:
                continue
            chain = [top]
            b = f_map[top]
            while b is not None:
                chain.append(b)
                b = f_map[b]
            length = len(chain) - 1
            for k, b in enumerate(chain):
                up[b], down[b] = k, length - k
        eps[i], phi[i] = tuple(up), tuple(down)
    return eps, phi


# ---------------------------------------------------------------------------
# irreducible type-A crystals on semistandard tableaux


def shape_of_weight(weight):
    """Partition whose column counts are the fundamental coefficients."""
    rank = len(weight)
    rows = []
    for i in range(rank):
        length = sum(weight[i:])
        if length > 0:
            rows.append(length)
    return tuple(rows)


def semistandard_tableaux(shp, max_entry):
    """All semistandard tableaux of the shape with entries <= max_entry,
    sorted by rows: row r holds r + 1 in each column of height max_entry, and
    the rest of the shape is filled in from the crystal of words of
    A_{max_entry-1}, whose closure lists the words in that order.
    """
    if not all(isinstance(p, int) and p > 0 for p in shp) or \
            any(a < b for a, b in zip(shp, shp[1:])):
        raise CrystalError("not a partition: %r" % (shp,))
    if not shp or len(shp) > max_entry:
        return [] if shp else [()]
    full = shp[-1] if len(shp) == max_entry else 0
    rest = tuple(p - full for p in shp if p > full)
    order = reading_order(rest)
    rows = [[k for k, (r, _) in enumerate(order) if r == row]
            for row in range(len(rest))]
    fillings = ([tuple(tuple(word[k] for k in row) for row in rows)
                 for word in _closure(cartan_type_a(max_entry - 1), rest)[0]]
                if rest else [()])
    pad = ((),) * (len(shp) - len(rest))
    return [tuple((r + 1,) * full + row for r, row in enumerate(t + pad))
            for t in fillings]


def reading_order(shape):
    """Cell order whose word realizes the product rule on tableaux.

    Columns left to right, bottom to top within each column; this is the
    mirror of the usual far-eastern reading, matching the mirrored product
    rule used here.
    """
    n_cols = shape[0] if shape else 0
    order = []
    for c in range(n_cols):
        col_height = sum(1 for row_len in shape if row_len > c)
        for r in reversed(range(col_height)):
            order.append((r, c))
    return order


def _lowered(i, word):
    """f_i of a word under the bracket rule, or None: it lowers the rightmost
    i that no earlier unmatched i+1 cancels."""
    j, unmatched, plus = i + 1, 0, None
    for pos, letter in enumerate(word):
        if letter == j:
            unmatched += 1
        elif letter == i:
            if unmatched:
                unmatched -= 1
            else:
                plus = pos
    return None if plus is None else word[:plus] + (j,) + word[plus + 1:]


def _word_weight(word, rank):
    counts = [0] * (rank + 2)
    for v in word:
        counts[v] += 1
    return tuple(counts[i] - counts[i + 1] for i in range(1, rank + 1))


def _check_weight(cartan, weight):
    """The shape of a dominant type-A weight; raise CrystalError otherwise."""
    if len(weight) != cartan.rank:
        raise CrystalError("weight length does not match rank")
    if any(c < 0 for c in weight):
        raise CrystalError("highest weight must be dominant")
    return shape_of_weight(weight)


def weyl_dimension(cartan, weight):
    """Size of build_irreducible(cartan, weight), without building it."""
    return semistandard_count(_check_weight(cartan, weight), cartan.rank + 1)


def semistandard_count(shape, max_entry):
    """len(semistandard_tableaux(shape, max_entry)) for max_entry >= 0, by
    the hook-content formula; a shape of more rows gets a factor 0."""
    num = den = 1
    for r, length in enumerate(shape):
        for c in range(length):
            num *= max_entry + c - r
            den *= length - c + sum(1 for below in shape[r + 1:] if below > c)
    return num // den


def multinomial(counts):
    """Distinct orderings of a multiset whose elements occur counts times."""
    return factorial(sum(counts)) // prod(map(factorial, counts))


@lru_cache(maxsize=None)
def build_irreducible(cartan, weight):
    """The connected normal crystal with highest weight ``weight``, on the
    reading words of the semistandard tableaux of its shape (see
    ``_closure``): id k is the k-th of ``semistandard_tableaux(shape,
    rank + 1)``.
    """
    words, crystal = _closure(cartan, _check_weight(cartan, weight))
    index = {word: k for k, word in enumerate(words)}
    f_maps = {i: tuple(index.get(f_map[word]) for word in words)
              for i, f_map in crystal.f_maps.items()}
    return CrystalGraph(cartan, tuple(crystal.wts[word] for word in words),
                        f_maps)


def _closure(cartan, shape):
    """The f-closure of the highest reading word of the shape in the crystal
    of words, connected by construction, and that crystal of words.  The
    words are sorted by their cells read row by row, which sorts their
    tableaux by rows, and the Memo'd f_i hold the closure's own word objects,
    so no word is kept twice.  Its size is checked by hook-content."""
    words = _word_crystal(cartan)
    order = reading_order(shape)
    top = tuple(r + 1 for r, _ in order)
    seen, frontier = {top: top}, [top]
    while frontier:
        word = frontier.pop()
        for f_map in words.f_maps.values():
            image = f_map[word]
            if image is not None:
                known = seen.setdefault(image, image)
                if known is image:
                    frontier.append(image)
                else:
                    f_map[word] = known
    size = semistandard_count(shape, cartan.rank + 1)
    if len(seen) != size:
        raise CrystalError("the crystal of words from the highest word of shape"
                           " %r has %d elements, not %d" % (shape, len(seen), size))
    by_rows = sorted(range(len(order)), key=order.__getitem__)
    return sorted(seen, key=lambda word: [word[k] for k in by_rows]), words


def component_ids(graph):
    """Component index per element, by BFS over e- and f-edges; computed on
    the first call and kept on the graph."""
    if graph._comp is None:
        graph._comp = _component_walk(graph)
    return list(graph._comp)


def _component_walk(graph):
    edges = [m[i] for i in graph.index_range() for m in (graph.f_maps, graph.e_maps)]
    comp = [None] * graph.size
    next_comp = 0
    for start in range(graph.size):
        if comp[start] is not None:
            continue
        comp[start] = next_comp
        frontier = [start]
        while frontier:
            b = frontier.pop()
            for arr in edges:
                nb = arr[b]
                if nb is not None and comp[nb] is None:
                    comp[nb] = next_comp
                    frontier.append(nb)
        next_comp += 1
    return tuple(comp)


# ---------------------------------------------------------------------------
# tensor products


def tensor(left, right):
    """Two-fold tensor product crystal.

    The element a (x) b has id a * right.size + b.  Its f_i follow the
    tensor rule, and its e_i, their inverses, follow it too.  By the tensor
    rule, eps(a (x) b) = eps(b) + max(0, eps(a) - phi(b)) and dually phi,
    computed on the first read of either.
    A two-fold product is built once per factor pair: the left factor keeps
    it, keyed by the identity of the right factor, which it holds weakly so
    that no reference cycle forms, and drops it when the right factor dies.
    """
    if left.cartan != right.cartan:
        raise CrystalError("tensor factors live over different Cartan data")
    if left._products is None:
        left._products = {}
    key = id(right)
    kept = left._products.get(key)
    if kept is None:
        kept = left._products[key] = (ref(right, _forget(ref(left), key)),
                                      _product(left, right))
    return kept[1]


def _forget(owner, key):
    """Callback for a right factor's weak reference: when it dies, drop its
    product from the left factor, which ``owner`` holds weakly too.  So an
    id in the memo always names a live right factor."""
    def drop(_):
        left = owner()
        if left is not None:
            del left._products[key]
    return drop


def _product(left, right):
    """left (x) right, its f_i built by the tensor rule."""
    cartan = left.cartan
    nleft, nright = left.size, right.size
    sums = {}
    wts = []
    for wa in left.wts:
        for wb in right.wts:
            wt = sums.get((wa, wb))
            if wt is None:
                wt = sums[(wa, wb)] = weight_add(wa, wb)
            wts.append(wt)
    f_maps = {}
    for i in cartan.index_range():
        l_eps, l_f = left._eps[i], left.f_maps[i]
        r_phi, r_f = right._phi[i], right.f_maps[i]
        f_arr = []
        for a in range(nleft):
            eps_a, fa, row = l_eps[a], l_f[a], a * nright
            for b in range(nright):
                if eps_a >= r_phi[b]:
                    f_arr.append(None if fa is None else fa * nright + b)
                else:
                    fb = r_f[b]
                    f_arr.append(None if fb is None else row + fb)
        f_maps[i] = tuple(f_arr)
    # a closure over the factors' dicts, not the factors, which tensor
    # holds weakly
    strings = partial(_tensor_strings, left._eps, left._phi,
                      right._eps, right._phi)
    return CrystalGraph(cartan, tuple(wts), f_maps, strings=strings)


def _tensor_strings(l_eps, l_phi, r_eps, r_phi):
    """The eps and phi dicts of a two-fold product from its factors' dicts,
    by the tensor rule; a product runs it on the first read of either."""
    eps, phi = {}, {}
    for i in l_eps:
        r_eps_i, r_phi_i = r_eps[i], r_phi[i]
        eps[i] = tuple(eb + (ea - pb if ea > pb else 0)
                       for ea in l_eps[i] for eb, pb in zip(r_eps_i, r_phi_i))
        phi[i] = tuple(pa + (pb - ea if pb > ea else 0)
                       for ea, pa in zip(l_eps[i], l_phi[i]) for pb in r_phi_i)
    return eps, phi


@lru_cache(maxsize=None)
def product_of_weights(cartan, weights):
    """Cached tensor product B(w_1) (x) .. (x) B(w_m) of irreducibles: the
    left fold of ``tensor``, so the element with entries (a_1, .., a_m) has
    their mixed-radix number as its id.  One weight gives B(w_1) itself."""
    if not weights:
        raise CrystalError("empty tensor product")
    return reduce(tensor, [build_irreducible(cartan, w) for w in weights])


def product_heads(cartan, left, right):
    """{weight: ascending ids} of the highest elements of B(left) (x) B(right),
    without building the product: a (x) head has id a * |B(right)| + head."""
    graph, other = build_irreducible(cartan, left), build_irreducible(cartan, right)
    head, = other.highest_weight_elements()
    bounds = [(graph._eps[i], other.phi(i, head)) for i in graph.index_range()]
    heads = {}
    for a in graph.elements():
        if all(eps[a] <= bound for eps, bound in bounds):
            heads.setdefault(weight_add(graph.wts[a], right), []).append(
                a * other.size + head)
    return {wt: tuple(ids) for wt, ids in heads.items()}


# ---------------------------------------------------------------------------
# components and normality


def components(graph):
    """Connected components as (highest element id, sub-crystal) pairs.

    Every component must contain exactly one element killed by all e_i.
    Element k of a sub-crystal is the k-th of the ascending parent ids that
    ``component_members`` lists with its head; each sub-crystal computes its
    own eps and phi on their first read.
    """
    return [(head, _subgraph(graph, group))
            for head, group in component_members(graph)]


def component_members(graph):
    """(highest element id, ascending member ids) per component, by head.

    Raises unless every component has exactly one element killed by all e_i.
    """
    comp = component_ids(graph)
    out = []
    for group, heads in zip(group_by_component(comp, graph.elements()),
                            group_by_component(comp, graph.highest_weight_elements())):
        if len(heads) != 1:
            raise CrystalError(
                "component %r has %d highest elements" % (group[:4], len(heads)))
        out.append((heads[0], group))
    out.sort(key=lambda pair: pair[0])
    return out


def group_by_component(comp, elements):
    """Split ascending ``elements`` into ascending lists, one per component."""
    groups = [[] for _ in range(max(comp) + 1 if comp else 0)]
    for b in elements:
        groups[comp[b]].append(b)
    return groups


def _subgraph(graph, members):
    local = {b: k for k, b in enumerate(members)}
    local[None] = None      # an undefined f_i stays undefined
    f_maps = {i: tuple(local[graph.f_maps[i][b]] for b in members)
              for i in graph.index_range()}
    return CrystalGraph(graph.cartan, tuple(graph.wts[b] for b in members),
                        f_maps)


def walk_in_step(graph, other, start, other_start):
    """Walk f-edges of two crystals in step from start and other_start.

    Returns the partner map from the elements of graph reached from start to
    the elements of other reached along the same f-paths, or None when two
    partners differ in weight or in which f_i are defined, or when two paths
    to one element give it different partners.  Of other it reads only
    ``wts`` and ``f_maps``, indexed by its elements.
    """
    moves = [(graph.f_maps[i], other.f_maps[i]) for i in graph.index_range()]
    wts, other_wts = graph.wts, other.wts
    partner = {start: other_start}
    frontier = [start]
    while frontier:
        b = frontier.pop()
        ob = partner[b]
        if wts[b] != other_wts[ob]:
            return None
        for f_map, other_f in moves:
            c, oc = f_map[b], other_f[ob]
            if c is None or oc is None:
                if c is not oc:
                    return None
            elif c not in partner:
                partner[c] = oc
                frontier.append(c)
            elif partner[c] != oc:
                return None
    return partner


def normality_report(graph):
    """Compare every component against B(wt) for the weight wt of its head.

    Each component is walked from its head in step with the crystal of
    words in 1..rank+1 from the reading word of the highest tableau of
    shape wt, whose component is B(wt); it must match it element for
    element, weyl_dimension of them.  Returns a dict with status "normal"
    or "not_normal".
    """
    cartan = graph.cartan
    words = _word_crystal(cartan)
    for head, members in component_members(graph):
        wt = graph.wt(head)
        if any(c < 0 for c in wt):
            return {"status": "not_normal", "head": head,
                    "detail": "highest weight %r is not dominant" % (wt,)}
        size = weyl_dimension(cartan, wt)
        top = tuple(r + 1 for r, _ in reading_order(shape_of_weight(wt)))
        partner = walk_in_step(graph, words, head, top)
        if (partner is None or len(members) != size or len(partner) != size
                or len(set(partner.values())) != size):
            return {"status": "not_normal", "head": head,
                    "detail": "component at %d is not B(%r)" % (head, wt)}
    return {"status": "normal"}


def _word_crystal(cartan):
    """The weights and f_i of the crystal of words in 1..rank+1, each computed
    on its first lookup, read by walk_in_step as a graph's wts and f_maps."""
    rank = cartan.rank
    return SimpleNamespace(
        wts=Memo(lambda word: _word_weight(word, rank)),
        f_maps={i: Memo(partial(_lowered, i)) for i in cartan.index_range()})


# ---------------------------------------------------------------------------
# export


def export_graph(graph):
    edges = []
    for i in graph.index_range():
        for b in graph.elements():
            c = graph.f(i, b)
            if c is not None:
                edges.append({"i": i, "from": b, "to": c})
    return {
        "cartan": cartan_to_json(graph.cartan),
        "elements": [{"id": b, "wt": list(graph.wt(b))} for b in graph.elements()],
        "edges": edges,
    }


_DOT_COLOURS = ["red", "blue", "darkgreen", "orange", "purple", "brown", "cyan4"]


def to_dot(graph):
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for b in graph.elements():
        lines.append('  n%d [label="%d:%s"];' % (b, b, ",".join(map(str, graph.wt(b)))))
    for i in graph.index_range():
        colour = _DOT_COLOURS[(i - 1) % len(_DOT_COLOURS)]
        for b in graph.elements():
            c = graph.f(i, b)
            if c is not None:
                lines.append('  n%d -> n%d [label="%d", color=%s];' % (b, c, i, colour))
    lines.append("}")
    return "\n".join(lines) + "\n"
