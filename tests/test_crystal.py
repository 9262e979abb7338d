import gc
import weakref
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cactus_crystal import clear_caches
from cactus_crystal import commutor as commutor_module
from cactus_crystal import crystal as crystal_module
from cactus_crystal.cartan import (
    cartan_type_a,
    fundamental_weight,
    weight_add,
)
from cactus_crystal.crystal import (
    CrystalError,
    CrystalGraph,
    _string_walk,
    build_irreducible,
    component_ids,
    component_members,
    components,
    export_graph,
    normality_report,
    product_of_weights,
    reading_order,
    semistandard_tableaux,
    shape_of_weight,
    tensor,
    weyl_dimension,
    to_dot,
    walk_in_step,
)

A1 = cartan_type_a(1)
A2 = cartan_type_a(2)
A3 = cartan_type_a(3)
W1 = fundamental_weight(A2, 1)
W2 = fundamental_weight(A2, 2)


def entries(b, sizes):
    """The entries (a_1, .., a_m) of the element with id b of a product of
    factors of these sizes: the digits of b in mixed radix."""
    digits = []
    for size in reversed(sizes):
        b, a = divmod(b, size)
        digits.append(a)
    return tuple(digits[::-1])


def plain_tensor(left, right):
    """(wts, f_maps, e_maps) of the product, through per-element method
    calls: the oracle for tensor, whose e_maps it checks by the e half of
    the tensor rule.  The element a (x) b has id a * |right| + b."""
    pairs = [(a, b) for a in left.elements() for b in right.elements()]
    wts = tuple(weight_add(left.wt(a), right.wt(b)) for a, b in pairs)
    nright = right.size
    f_maps, e_maps = {}, {}
    for i in left.index_range():
        f_arr, e_arr = [], []
        for a, b in pairs:
            if left.eps(i, a) >= right.phi(i, b):
                fa = left.f(i, a)
                f_arr.append(None if fa is None else fa * nright + b)
            else:
                fb = right.f(i, b)
                f_arr.append(None if fb is None else a * nright + fb)
            if left.eps(i, a) > right.phi(i, b):
                ea = left.e(i, a)
                e_arr.append(None if ea is None else ea * nright + b)
            else:
                eb = right.e(i, b)
                e_arr.append(None if eb is None else a * nright + eb)
        f_maps[i] = tuple(f_arr)
        e_maps[i] = tuple(e_arr)
    return wts, f_maps, e_maps


def plain_fold(factors):
    """B_1 (x) .. (x) B_m, whose element with entries (a_1, .., a_m) has id
    their mixed-radix number: the plain left fold through plain_tensor, into
    fresh graphs that walk their own i-strings.  The oracle for
    product_of_weights, sharing no product with it."""
    graph = fresh(factors[0])
    for right in factors[1:]:
        graph = CrystalGraph(graph.cartan, *plain_tensor(graph, right)[:2])
    return graph


def plain_component_ids(graph):
    comp = [None] * graph.size
    next_comp = 0
    for start in graph.elements():
        if comp[start] is not None:
            continue
        comp[start] = next_comp
        frontier = [start]
        while frontier:
            b = frontier.pop()
            for i in graph.index_range():
                for nb in (graph.f(i, b), graph.e(i, b)):
                    if nb is not None and comp[nb] is None:
                        comp[nb] = next_comp
                        frontier.append(nb)
        next_comp += 1
    return comp


# (cartan, left factor weights, right factor weight, fold), up to the
# 2800-element A3 product; a fold case is the product of product_of_weights
TENSOR_CASES = [
    (A1, ((1,),), (2,), False),
    (A1, ((3,),), (2,), False),
    (A2, ((1, 0),), (0, 1), False),
    (A2, ((1, 1),), (2, 0), False),
    (A2, ((0, 0),), (1, 1), False),
    (A2, ((1, 1), (1, 0)), (0, 1), True),
    (A2, ((2, 0), (0, 2)), (1, 1), False),
    (A3, ((2, 1, 1),), (1, 1, 0), False),
]


@pytest.mark.parametrize("cartan,left_weights,right_weight,fold", TENSOR_CASES)
def test_tensor_matches_plain_loop(cartan, left_weights, right_weight, fold):
    left = product_of_weights(cartan, left_weights)
    right = build_irreducible(cartan, right_weight)
    if fold:
        t = product_of_weights(cartan, left_weights + (right_weight,))
    else:
        t = tensor(left, right)
    assert (t.wts, t.f_maps, t.e_maps) == plain_tensor(left, right)
    assert component_ids(t) == plain_component_ids(t)


def plain_semistandard(shp, max_entry):
    """Every semistandard tableau of the shape with entries <= max_entry,
    cell by cell in row order, each entry from its lower bound up: the oracle
    for crystal.semistandard_tableaux, unsorted."""
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


def plain_irreducible(cartan, weight):
    """(wts, f_maps, e_maps) of B(weight) on tableaux, whose id k is the k-th
    of the sorted tableaux: the oracle for build_irreducible.  Lists the
    tableaux with plain_semistandard, reads the word once per colour and
    copies the whole tableau for every move."""
    rank = cartan.rank
    tableaux = sorted(plain_semistandard(shape_of_weight(weight), rank + 1))
    order = reading_order(shape_of_weight(weight))
    index = {t: k for k, t in enumerate(tableaux)}
    wts = []
    for t in tableaux:
        letters = [v for row in t for v in row]
        wts.append(tuple(letters.count(i) - letters.count(i + 1)
                         for i in range(1, rank + 1)))
    f_maps, e_maps = {}, {}
    for i in cartan.index_range():
        f_arr, e_arr = [], []
        for t in tableaux:
            # i is '+', i+1 is '-'; a '-' cancels the next unmatched '+'
            minus, plus = [], []
            for pos, letter in enumerate(t[r][c] for r, c in order):
                if letter == i + 1:
                    minus.append(pos)
                elif letter == i:
                    if minus:
                        minus.pop()
                    else:
                        plus.append(pos)
            # f_i lowers the rightmost '+', e_i raises the leftmost '-'
            for survivors, pick, delta, arr in ((plus, -1, 1, f_arr),
                                                (minus, 0, -1, e_arr)):
                if not survivors:
                    arr.append(None)
                    continue
                r, c = order[survivors[pick]]
                rows = [list(row) for row in t]
                rows[r][c] += delta
                arr.append(index[tuple(tuple(row) for row in rows)])
        f_maps[i], e_maps[i] = tuple(f_arr), tuple(e_arr)
    return tuple(wts), f_maps, e_maps


# every dominant weight at most (2, 1, 1, 1), cut to the rank, for A1..A4
IRREDUCIBLE_CASES = [(cartan, weight)
                     for cartan in (A1, A2, A3, cartan_type_a(4))
                     for weight in product(*(range(k + 1)
                                             for k in (2, 1, 1, 1)[:cartan.rank]))]


@pytest.mark.parametrize("cartan,weight", IRREDUCIBLE_CASES)
def test_build_irreducible_matches_plain_construction(cartan, weight):
    # id k is the k-th sorted tableau, and semistandard_tableaux lists them
    g = build_irreducible(cartan, weight)
    assert (g.wts, g.f_maps, g.e_maps) == plain_irreducible(cartan, weight)
    shp = shape_of_weight(weight)
    assert semistandard_tableaux(shp, cartan.rank + 1) \
        == sorted(plain_semistandard(shp, cartan.rank + 1))


@pytest.mark.parametrize("cartan,a,b,c", [
    (A1, (1,), (2,), (1,)),
    (A1, (3,), (1,), (2,)),
    (A2, (1, 0), (0, 1), (1, 1)),
    (A2, (1, 1), (2, 0), (0, 1)),
    (A3, (1, 0, 0), (0, 1, 0), (1, 0, 1)),
])
def test_tensor_is_associative_on_ids(cartan, a, b, c):
    flat = product_of_weights(cartan, (a, b, c))
    left, right = build_irreducible(cartan, a), build_irreducible(cartan, c)
    for nested in (tensor(left, product_of_weights(cartan, (b, c))),
                   tensor(product_of_weights(cartan, (a, b)), right)):
        assert (nested.wts, nested.f_maps, nested.e_maps) \
            == (flat.wts, flat.f_maps, flat.e_maps)


def a2_dim(a, b):
    # Weyl dimension formula for highest weight a w1 + b w2
    return (a + 1) * (b + 1) * (a + b + 2) // 2


@pytest.mark.parametrize("k", range(5))
def test_a1_dimensions(k):
    assert build_irreducible(A1, (k,)).size == k + 1


@pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0),
                                 (0, 2), (2, 1), (2, 2)])
def test_a2_dimensions(a, b):
    assert build_irreducible(A2, (a, b)).size == a2_dim(a, b)


@pytest.mark.parametrize("cartan, weight", [
    (A1, (0,)), (A1, (5,)), (A2, (2, 1)), (A2, (0, 3)), (A2, (3, 3)),
    (A3, (1, 0, 1)), (A3, (0, 2, 0)), (A3, (2, 1, 1)),
])
def test_weyl_dimension_is_the_crystal_size(cartan, weight):
    assert weyl_dimension(cartan, weight) == build_irreducible(cartan, weight).size
    if cartan is A2:
        assert weyl_dimension(cartan, weight) == a2_dim(*weight)


def test_weyl_dimension_keeps_the_construction_errors():
    with pytest.raises(CrystalError, match="dominant"):
        weyl_dimension(A2, (-1, 0))
    with pytest.raises(CrystalError, match="rank"):
        weyl_dimension(A2, (1,))


def _stops_at_a_2(i, word, lowered=crystal_module._lowered):
    """f_i, but f_1 is undefined once the word holds a 2."""
    return None if i == 1 and 2 in word else lowered(i, word)


def _unbracketed(i, word):
    """f_i lowering the last i of a word, whether an i+1 cancels it or not."""
    if i not in word:
        return None
    pos = len(word) - 1 - word[::-1].index(i)
    return word[:pos] + (i + 1,) + word[pos + 1:]


@pytest.mark.parametrize("fault, size", [
    (_stops_at_a_2, 3),     # the closure falls short
    (_unbracketed, 12),     # the closure leaves the tableau words
], ids=["stops_at_a_2", "unbracketed"])
def test_a_faulty_bracket_rule_fails_the_closure_size(monkeypatch, fault,
                                                      size):
    # every cache, build_irreducible's among them, so that B(1, 1) is built
    clear_caches()
    monkeypatch.setattr(crystal_module, "_lowered", fault)
    with pytest.raises(CrystalError, match="has %d elements, not 8" % size):
        build_irreducible(A2, (1, 1))


def test_defining_crystal_labels_frozen():
    # id k of B(omega_1) is the k-th one-box tableau
    g = build_irreducible(A2, W1)
    assert semistandard_tableaux((1,), 3) == [((1,),), ((2,),), ((3,),)]
    assert g.wt(0) == (1, 0)
    assert g.f(1, 0) == 1 and g.f(2, 1) == 2
    assert g.e(1, 1) == 0 and g.e(2, 2) == 1


def test_reading_order_columns_bottom_up():
    assert reading_order((2, 2)) == [(1, 0), (0, 0), (1, 1), (0, 1)]


def test_shape_of_weight():
    assert shape_of_weight((2, 1)) == (3, 1)
    assert shape_of_weight((0, 0)) == ()


@given(st.integers(1, 2), st.lists(st.integers(0, 2), min_size=2, max_size=2))
@settings(deadline=None, max_examples=30)
def test_string_statistics_are_normal(rank, coeffs):
    cartan = cartan_type_a(rank)
    lam = tuple(coeffs[:rank])
    g = build_irreducible(cartan, lam)
    for b in g.elements():
        for i in g.index_range():
            assert g.phi(i, b) - g.eps(i, b) == g.wt(b)[i - 1]


def test_unique_highest_weight():
    g = build_irreducible(A2, (1, 1))
    assert g.highest_weight_elements() == [0]
    assert g.wt(0) == (1, 1)


def test_tensor_weights_add():
    left = build_irreducible(A2, W1)
    right = build_irreducible(A2, W2)
    t = tensor(left, right)
    for a in range(left.size):
        for b in range(right.size):
            assert t.wt(a * right.size + b) == weight_add(left.wt(a), right.wt(b))


def heads_of_weight(graph, mu):
    return [h for h in graph.highest_weight_elements() if graph.wt(h) == mu]


def test_a1_pair_component_structure_frozen():
    t = tensor(build_irreducible(A1, (1,)), build_irreducible(A1, (1,)))
    comps = components(t)
    assert [(h, t.wt(h), sub.size) for h, sub in comps] == \
        [(0, (2,), 3), (2, (0,), 1)]
    assert heads_of_weight(t, (2,)) == [0]
    assert heads_of_weight(t, (0,)) == [2]
    assert normality_report(t)["status"] == "normal"


def test_trivial_component_sits_at_lowest_highest_pair():
    # the singleton component head is (second letter, first letter) = (1, 0)
    t = tensor(build_irreducible(A1, (1,)), build_irreducible(A1, (1,)))
    head = [h for h, sub in components(t) if sub.size == 1]
    assert head == [2]
    assert entries(2, (2, 2)) == (1, 0)


def test_product_of_one_weight_is_its_irreducible():
    g = product_of_weights(A1, ((1,),) * 3)
    assert g.size == 8
    # id 5 has entries (1, 0, 1), of weights -1, 1 and -1
    assert entries(5, (2, 2, 2)) == (1, 0, 1)
    assert g.wt(5) == (-1,)
    assert product_of_weights(A1, ((2,),)) is build_irreducible(A1, (2,))
    with pytest.raises(CrystalError, match="empty tensor product"):
        product_of_weights(A1, ())


@pytest.mark.parametrize("cartan", [A1, A2, A3], ids=["A1", "A2", "A3"])
def test_tensor_rule_strings_match_the_string_walk(cartan):
    # tensor reads eps/phi off its factors and components walk their own;
    # the plain path walks every i-string of the graph itself
    weights = [w for w in product(range(3), repeat=cartan.rank) if sum(w) <= 2]
    for left, right in product(weights, repeat=2):
        t = tensor(build_irreducible(cartan, left),
                   build_irreducible(cartan, right))
        for g in [t, *(sub for _, sub in components(t))]:
            assert (g._eps, g._phi) == _string_walk(g), (left, right)


@pytest.mark.parametrize("weights", [
    ((1, 1), (1, 0)),
    ((1, 0), (0, 1), (1, 1)),
    ((1, 0), (0, 1), (1, 0), (2, 0), (0, 1)),
], ids=["2-fold", "3-fold", "5-fold"])
def test_product_strings_are_read_on_first_use(weights):
    clear_caches()
    g = product_of_weights(A2, weights)
    assert "_eps" not in vars(g) and "_phi" not in vars(g)
    assert (g._eps, g._phi) == _string_walk(g)
    assert "_strings" not in vars(g) and g.eps(1, 0) == g._eps[1][0]


def test_hexagon_reads_no_strings_of_its_three_fold_products():
    clear_caches()
    lam, mu, nu = (1, 0), (1, 1), (0, 2)
    assert commutor_module.hexagon_holds(A2, lam, mu, nu)
    for weights in [(lam, nu, mu), (mu, lam, nu), (nu, mu, lam)]:
        g = product_of_weights(A2, weights)
        assert "_strings" in vars(g) and "_eps" not in vars(g), weights
        assert (g._eps, g._phi) == _string_walk(g)


@pytest.mark.parametrize("f_map", [(0, None), (1, 0)],
                         ids=["loop", "two-cycle"])
def test_an_f_string_that_closes_a_cycle_is_refused(f_map):
    # f_i lowers the weight by alpha_i, so no i-string returns to its start
    # and every element lies on a string that runs down from a top; e_i,
    # the inverse of f_i, would close the cycle too
    with pytest.raises(CrystalError, match=r"axiom \(2\)"):
        CrystalGraph(A1, ((0,), (0,)), {1: f_map})


def counted_strings(graph):
    """The eps and phi dicts by applying e_i and f_i until they are
    undefined: the oracle for the strings of a graph."""
    def moves(step, i, b):
        n, b = 0, step(i, b)
        while b is not None:
            n, b = n + 1, step(i, b)
        return n
    return tuple({i: tuple(moves(step, i, b) for b in graph.elements())
                  for i in graph.index_range()} for step in (graph.e, graph.f))


@pytest.mark.parametrize("cartan", [A1, A2, A3], ids=["A1", "A2", "A3"])
def test_strings_walked_on_first_read_count_the_moves(cartan):
    # irreducibles and sub-crystals walk their own i-strings when first read
    weights = [w for w in product(range(3), repeat=cartan.rank) if sum(w) <= 2]
    for w in weights:
        g = build_irreducible(cartan, w)
        assert (g._eps, g._phi) == _string_walk(g) == counted_strings(g), w
    for left, right in zip(weights, weights[::-1]):
        t = tensor(fresh(build_irreducible(cartan, left)),
                   build_irreducible(cartan, right))
        for (_, members), (_, sub) in zip(component_members(t),
                                          components(t)):
            assert "_eps" not in vars(sub) and "_phi" not in vars(sub)
            assert (sub._eps, sub._phi) == _string_walk(sub) \
                == counted_strings(sub), (left, right)
            # element k of a sub-crystal is the k-th of its members
            assert all(sub._eps[i] == tuple(t._eps[i][b] for b in members)
                       for i in sub.index_range())


def test_product_op_reads_no_strings_of_its_products():
    # the steps of the crystals benchmark's product op read eps and phi of
    # the two factors only
    left = fresh(build_irreducible(A3, (2, 1, 1)))
    right = fresh(build_irreducible(A3, (1, 1, 0)))
    t = tensor(left, right)
    parts = components(t)
    assert normality_report(t) == {"status": "normal"}
    commutor_module.schutzenberger(t)
    there = commutor_module.commutor(left, right)
    back = commutor_module.commutor(right, left)
    assert there.domain is t is back.codomain
    for g in [t, there.codomain, *(sub for _, sub in parts)]:
        assert "_eps" not in vars(g) and "_phi" not in vars(g)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.lists(st.tuples(st.integers(0, 2)), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
             min_size=1, max_size=4)))
def test_product_of_weights_equals_the_left_fold(weights):
    cartan = A1 if len(weights[0]) == 1 else A2
    weights = tuple(weights)
    extended = product_of_weights(cartan, weights)
    folded = plain_fold([build_irreducible(cartan, w) for w in weights])
    assert extended == folded
    assert (extended._eps, extended._phi) == (folded._eps, folded._phi)


def test_product_of_weights_cached():
    a = product_of_weights(A1, ((1,), (1,)))
    b = product_of_weights(A1, ((1,), (1,)))
    assert a is b


def fresh(graph):
    """An equal graph that is a new object, with nothing computed from it."""
    return CrystalGraph(graph.cartan, graph.wts, graph.f_maps)


def test_there_and_back_commutor_builds_two_products(monkeypatch):
    # the steps of the crystals benchmark's product op
    left = fresh(build_irreducible(A3, (2, 1, 1)))
    right = fresh(build_irreducible(A3, (1, 1, 0)))
    commutor_module.schutzenberger(left)
    commutor_module.schutzenberger(right)
    built, computed, walked = [], [], []
    product_of = crystal_module._product
    xi_of = commutor_module._xi_mapping
    walk = crystal_module._component_walk

    def counting_walk(graph):
        walked.append(graph)
        return walk(graph)

    def counting_product(a, b):
        built.append((a, b))
        return product_of(a, b)

    def counting_xi(graph):
        if graph._xi is None:
            computed.append(graph)
        return xi_of(graph)
    monkeypatch.setattr(crystal_module, "_product", counting_product)
    monkeypatch.setattr(commutor_module, "_xi_mapping", counting_xi)
    monkeypatch.setattr(crystal_module, "_component_walk", counting_walk)
    t = tensor(left, right)
    assert sum(sub.size for _, sub in components(t)) == t.size
    assert normality_report(t) == {"status": "normal"}
    there = commutor_module.commutor(left, right)
    back = commutor_module.commutor(right, left)
    xi = commutor_module.schutzenberger(t)
    assert [(a is left, b is right) for a, b in built] == [(True, True),
                                                          (False, False)]
    products = [id(t), id(there.codomain)]
    assert list(map(id, computed)) == products[::-1]
    assert [id(g) for g in walked if g.size == t.size] == products
    assert there.domain is t is back.codomain and xi.domain is t
    assert there.codomain is back.domain
    assert all(back(there(b)) == b for b in t.elements())


def test_two_fold_products_are_kept_by_identity():
    left, right = build_irreducible(A2, (1, 0)), build_irreducible(A2, (1, 1))
    t = tensor(left, right)
    assert tensor(left, right) is t
    twin = fresh(right)
    assert twin == right and tensor(left, twin) is not t
    assert tensor(left, twin) == t
    # a right factor that died leaves its id free for another graph
    for k in range(30):
        other = fresh(build_irreducible(A2, (k % 3, 0)))
        assert tensor(left, other).size == left.size * other.size
        del other


def test_kept_products_form_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        g = fresh(build_irreducible(A2, (1, 1)))
        dead = weakref.ref(tensor(g, build_irreducible(A2, (1, 0))))
        assert dead() is not None
        del g
        assert dead() is None
        g = fresh(build_irreducible(A2, (1, 1)))
        square = weakref.ref(tensor(g, g))
        assert square() is tensor(g, g)
        del g
        assert square() is None
    finally:
        gc.enable()


def test_kept_product_dies_with_its_right_factor():
    # a long-lived left factor keeps no product of a right factor that died
    left = build_irreducible(A2, (1, 1))
    tensor(left, left)
    kept = len(left._products)
    gc.collect()
    gc.disable()
    try:
        for k in range(5):
            right = fresh(build_irreducible(A2, (k % 3, 1)))
            product = weakref.ref(tensor(left, right))
            assert len(left._products) == kept + 1
            del right
            assert product() is None
            assert len(left._products) == kept
    finally:
        gc.enable()


def test_export_import_roundtrip():
    # the exported edges and weights rebuild the same f_maps
    g = build_irreducible(A2, (1, 1))
    doc = export_graph(g)
    assert [el["id"] for el in doc["elements"]] == list(g.elements())
    f_maps = {i: [None] * g.size for i in g.index_range()}
    for edge in doc["edges"]:
        f_maps[edge["i"]][edge["from"]] = edge["to"]
    h = CrystalGraph(cartan=A2,
                     wts=tuple(tuple(el["wt"]) for el in doc["elements"]),
                     f_maps={i: tuple(m) for i, m in f_maps.items()})
    assert h.wts == g.wts
    assert h.f_maps == g.f_maps
    assert h.e_maps == g.e_maps


# the constructor checks axioms (2) and (3); (1) and (4) hold by the
# definition of e_i as the inverse of f_i
def test_constructor_rejects_duplicate_targets():
    with pytest.raises(CrystalError) as info:
        CrystalGraph(cartan=A1, wts=((1,), (1,), (-1,)),
                     f_maps={1: (2, 2, None)})
    assert str(info.value) == "axiom (3): element 2 has two f_1-preimages"


def test_constructor_rejects_weight_mismatch():
    with pytest.raises(CrystalError) as info:
        CrystalGraph(cartan=A1, wts=((1,), (0,)), f_maps={1: (1, None)})
    assert str(info.value) == \
        "axiom (2): wt(f_1 0) != wt - alpha_1 at element 0"


# The ids are those the cases had when the constructor also took e-maps.
# e_i is now derived from f_i, so axioms (1) and (4) cannot fail on their own,
# and axiom (3), f_i e_i = id, fails only as an element with two f_i-preimages.
@pytest.mark.parametrize("wts,f_maps,message", [
    pytest.param(
        ((1,), (0,)), {1: (1, None)},
        "axiom (2): wt(f_1 0) != wt - alpha_1 at element 0",
        id="wts1-f_maps1-None-axiom (2): wt(f_1 0) != wt - alpha_1 at element 0"),
    pytest.param(
        ((1,), (-1,), (1,)), {1: (1, None, 1)},
        "axiom (3): element 1 has two f_1-preimages",
        id="wts2-f_maps2-e_maps2-axiom (3): f_1 e_1 != id at element 1"),
])
def test_each_axiom_names_itself(wts, f_maps, message):
    with pytest.raises(CrystalError) as info:
        CrystalGraph(cartan=A1, wts=wts, f_maps=f_maps)
    assert str(info.value) == message


# graphs whose single component is not normal, with the report's detail
NOT_NORMAL = [
    # one element of weight (1,): B(1) has two
    (CrystalGraph(cartan=A1, wts=((1,),), f_maps={1: (None,)}),
     "component at 0 is not B((1,))"),
    (CrystalGraph(cartan=A1, wts=((-1,),), f_maps={1: (None,)}),
     "highest weight (-1,) is not dominant"),
    # the size of B(1,0), but f_2 is defined on the head
    (CrystalGraph(cartan=A2, wts=((1, 0), (-1, 1), (2, -2)),
                  f_maps={1: (1, None, None), 2: (2, None, None)}),
     "component at 0 is not B((1, 0))"),
]


@pytest.mark.parametrize("graph,detail", NOT_NORMAL)
def test_normality_report_names_the_bad_component(graph, detail):
    assert normality_report(graph) == {"status": "not_normal", "head": 0,
                                       "detail": detail}


def test_normality_report_builds_no_sub_crystal(monkeypatch):
    def no_subgraph(*args):
        raise AssertionError("normality_report built a sub-crystal")

    monkeypatch.setattr(crystal_module, "_subgraph", no_subgraph)
    t = tensor(build_irreducible(A2, (1, 1)), build_irreducible(A2, (1, 0)))
    assert normality_report(t) == {"status": "normal"}


def plain_normality_report(graph):
    """normality_report through a reference B(wt) built per component: the
    oracle for the walk on reading words."""
    for head, members in crystal_module.component_members(graph):
        wt = graph.wt(head)
        if any(c < 0 for c in wt):
            return {"status": "not_normal", "head": head,
                    "detail": "highest weight %r is not dominant" % (wt,)}
        reference = build_irreducible(graph.cartan, wt)
        partner = walk_in_step(graph, reference, head,
                               reference.highest_weight_elements()[0])
        size = reference.size
        if (partner is None or len(members) != size or len(partner) != size
                or len(set(partner.values())) != size):
            return {"status": "not_normal", "head": head,
                    "detail": "component at %d is not B(%r)" % (head, wt)}
    return {"status": "normal"}


def reading_word(tableau):
    order = reading_order(tuple(map(len, tableau)))
    return tuple(tableau[r][c] for r, c in order)


def assert_word_walk_matches_reference(graph):
    """Each component's partner map on reading words is the map onto its
    reference B(wt) read through the sorted tableaux that name its ids."""
    words = crystal_module._word_crystal(graph.cartan)
    for head in graph.highest_weight_elements():
        reference = build_irreducible(graph.cartan, graph.wt(head))
        tableaux = sorted(plain_semistandard(shape_of_weight(graph.wt(head)),
                                             graph.cartan.rank + 1))
        top, = reference.highest_weight_elements()
        partner = walk_in_step(graph, reference, head, top)
        assert walk_in_step(graph, words, head, reading_word(tableaux[top])) \
            == {b: reading_word(tableaux[rb]) for b, rb in partner.items()}
    assert normality_report(graph) == plain_normality_report(graph) \
        == {"status": "normal"}


DOMINANT = st.one_of(
    st.tuples(st.integers(0, 3)),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)))


@settings(max_examples=40, deadline=None)
@given(DOMINANT, st.data())
def test_word_walk_matches_the_reference_walk(left, data):
    cartan = (A1, A2, A3)[len(left) - 1]
    right = data.draw(st.tuples(*[st.integers(0, 2 if cartan is A2 else 1)]
                                * cartan.rank))
    assert_word_walk_matches_reference(tensor(build_irreducible(cartan, left),
                                              build_irreducible(cartan, right)))


def test_word_walk_matches_the_reference_walk_on_the_a3_product():
    assert_word_walk_matches_reference(tensor(
        build_irreducible(A3, (2, 1, 1)), build_irreducible(A3, (1, 1, 0))))


def reroutings(graph):
    """graph rebuilt with one f_i/e_i edge pair swapped between two elements
    of one weight, for each such pair."""
    for i in graph.index_range():
        f_map = graph.f_maps[i]
        by_weight = {}
        for b in graph.elements():
            if f_map[b] is not None:
                by_weight.setdefault(graph.wt(b), []).append(b)
        for first, *others in by_weight.values():
            for b in others:
                swapped = list(f_map)
                swapped[b], swapped[first] = f_map[first], f_map[b]
                yield CrystalGraph(graph.cartan, graph.wts,
                                   {**graph.f_maps, i: tuple(swapped)})


def report_or_error(report, graph):
    try:
        return report(graph)
    except CrystalError as exc:
        return str(exc)


@pytest.mark.parametrize("graph,detail", NOT_NORMAL)
def test_not_normal_graphs_report_alike_on_both_paths(graph, detail):
    assert normality_report(graph) == plain_normality_report(graph)


@pytest.mark.parametrize("cartan,left,right", [
    (A1, (1,), (2,)),
    (A2, (1, 0), (1, 1)),
    (A2, (1, 1), (1, 1)),
    (A3, (1, 0, 0), (1, 1, 0)),
])
def test_rerouted_products_report_alike_on_both_paths(cartan, left, right):
    t = tensor(build_irreducible(cartan, left), build_irreducible(cartan, right))
    outcomes = []
    for graph in reroutings(t):
        outcomes.append(report_or_error(normality_report, graph))
        assert outcomes[-1] == report_or_error(plain_normality_report, graph)
    assert any(isinstance(o, dict) and o["status"] == "not_normal"
               for o in outcomes)


def test_normality_report_builds_no_irreducible(monkeypatch):
    t = tensor(build_irreducible(A3, (2, 1, 1)), build_irreducible(A3, (1, 1, 0)))

    def no_irreducible(*args):
        raise AssertionError("normality_report built an irreducible crystal")

    monkeypatch.setattr(crystal_module, "build_irreducible", no_irreducible)
    assert normality_report(t) == {"status": "normal"}


def test_walk_in_step_maps_a_component_onto_its_reference():
    t = tensor(build_irreducible(A2, W1), build_irreducible(A2, W2))
    ref = build_irreducible(A2, (1, 1))
    head, = heads_of_weight(t, (1, 1))
    ref_head = ref.highest_weight_elements()[0]
    partner = walk_in_step(t, ref, head, ref_head)
    assert sorted(partner.values()) == list(ref.elements())
    members = dict(crystal_module.component_members(t))[head]
    assert sorted(partner) == members
    for b, rb in partner.items():
        assert t.wt(b) == ref.wt(rb)
    # the other way round the partner map is the inverse
    back = walk_in_step(ref, t, ref_head, head)
    assert back == {rb: b for b, rb in partner.items()}
    # heads of different weight are not partners
    low, = heads_of_weight(t, (0, 0))
    assert walk_in_step(t, ref, low, ref_head) is None


def test_build_rejects_non_dominant():
    with pytest.raises(CrystalError):
        build_irreducible(A1, (-1,))


def test_dot_output_mentions_edges():
    g = build_irreducible(A1, (1,))
    dot = to_dot(g)
    assert "digraph" in dot and "->" in dot


def test_component_ids_partition():
    t = tensor(build_irreducible(A1, (1,)), build_irreducible(A1, (1,)))
    ids = component_ids(t)
    assert len(ids) == t.size
    assert ids[0] == ids[1] == ids[3]
    assert ids[2] != ids[0]
