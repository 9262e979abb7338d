from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cactus_crystal import crystal as crystal_module
from cactus_crystal.cartan import (
    cartan_explicit,
    cartan_type_a,
    fundamental_weight,
    pairing,
    weight_add,
)
from cactus_crystal.crystal import (
    CrystalError,
    CrystalGraph,
    build_irreducible,
    component_ids,
    components,
    export_graph,
    is_normal,
    multiplicity_set,
    normality_report,
    product_of_weights,
    reading_order,
    shape_of_weight,
    tensor,
    tensor_many,
    weyl_dimension,
    to_dot,
    walk_in_step,
)
from cactus_crystal.tableaux import semistandard_tableaux

A1 = cartan_type_a(1)
A2 = cartan_type_a(2)
A3 = cartan_type_a(3)
W1 = fundamental_weight(A2, 1)
W2 = fundamental_weight(A2, 2)


def plain_tensor(left, right, flatten=False):
    """(wts, f_maps, e_maps, labels) of the product, through per-element
    method calls: the oracle for tensor."""
    pairs = [(a, b) for a in left.elements() for b in right.elements()]
    if flatten:
        labels = tuple((left.labels[a] if isinstance(left.labels[a], tuple)
                        else (left.labels[a],)) + (b,) for a, b in pairs)
    else:
        labels = tuple(pairs)
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
    return wts, f_maps, e_maps, labels


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


# (cartan, left factor weights, right factor weight, flatten), up to the
# 2800-element A3 product
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


@pytest.mark.parametrize("cartan,left_weights,right_weight,flatten", TENSOR_CASES)
def test_tensor_matches_plain_loop(cartan, left_weights, right_weight, flatten):
    left = (build_irreducible(cartan, left_weights[0]) if len(left_weights) == 1
            else product_of_weights(cartan, left_weights))
    right = build_irreducible(cartan, right_weight)
    t = tensor(left, right, flatten=flatten)
    assert (t.wts, t.f_maps, t.e_maps, t.labels) == plain_tensor(left, right, flatten)
    assert component_ids(t) == plain_component_ids(t)


def plain_irreducible(cartan, weight):
    """(labels, wts, f_maps, e_maps) of B(weight) on tableaux: the oracle for
    build_irreducible.  Reads the word once per colour and copies the whole
    tableau for every move."""
    rank = cartan.rank
    tableaux = sorted(semistandard_tableaux(shape_of_weight(weight), rank + 1))
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
    return tuple(tableaux), tuple(wts), f_maps, e_maps


# every dominant weight at most (2, 1, 1), cut to the rank, for A1..A3
IRREDUCIBLE_CASES = [(cartan, weight)
                     for cartan in (A1, A2, A3)
                     for weight in product(*(range(k + 1)
                                             for k in (2, 1, 1)[:cartan.rank]))]


@pytest.mark.parametrize("cartan,weight", IRREDUCIBLE_CASES)
def test_build_irreducible_matches_plain_construction(cartan, weight):
    g = build_irreducible(cartan, weight)
    assert (g.labels, g.wts, g.f_maps, g.e_maps) \
        == plain_irreducible(cartan, weight)


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
    with pytest.raises(CrystalError, match="type A"):
        weyl_dimension(cartan_explicit([[2, -1], [-2, 2]]), (1, 0))
    with pytest.raises(CrystalError, match="rank"):
        weyl_dimension(A2, (1,))


def test_defining_crystal_labels_frozen():
    g = build_irreducible(A2, W1)
    assert g.labels == (((1,),), ((2,),), ((3,),))
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
            assert g.phi(i, b) - g.eps(i, b) == pairing(cartan, g.wt(b), i)


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


def test_a1_pair_component_structure_frozen():
    t = tensor(build_irreducible(A1, (1,)), build_irreducible(A1, (1,)))
    comps = components(t)
    assert [(h, t.wt(h), sub.size) for h, sub in comps] == \
        [(0, (2,), 3), (2, (0,), 1)]
    assert multiplicity_set(t, (2,)) == (0,)
    assert multiplicity_set(t, (0,)) == (2,)
    assert is_normal(t)


def test_trivial_component_sits_at_lowest_highest_pair():
    # the singleton component head is (second letter, first letter) = (1, 0)
    t = tensor(build_irreducible(A1, (1,)), build_irreducible(A1, (1,)))
    head = [h for h, sub in components(t) if sub.size == 1]
    assert head == [2]
    assert t.labels[2] == (1, 0)


def test_tensor_many_flat_labels():
    g = tensor_many([build_irreducible(A1, (1,))] * 3)
    assert g.size == 8
    assert g.labels[0] == (0, 0, 0)
    assert g.labels[5] == (1, 0, 1)
    single = tensor_many([build_irreducible(A1, (2,))])
    assert single.labels == ((0,), (1,), (2,))
    assert single.f_maps == build_irreducible(A1, (2,)).f_maps


def test_product_of_weights_cached():
    a = product_of_weights(A1, ((1,), (1,)))
    b = product_of_weights(A1, ((1,), (1,)))
    assert a is b


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


def test_constructor_rejects_duplicate_targets():
    with pytest.raises(CrystalError, match=r"axiom \(3\)"):
        CrystalGraph(cartan=A1, wts=((1,), (1,), (-1,)),
                     f_maps={1: (2, 2, None)})


def test_constructor_rejects_weight_mismatch():
    with pytest.raises(CrystalError, match=r"axiom"):
        CrystalGraph(cartan=A1, wts=((1,), (0,)), f_maps={1: (1, None)})


@pytest.mark.parametrize("wts,f_maps,e_maps,message", [
    (((1,), (0,)), {1: (None, None)}, {1: (None, 0)},
     "axiom (1): wt(e_1 1) != wt + alpha_1 at element 1"),
    (((1,), (0,)), {1: (1, None)}, None,
     "axiom (2): wt(f_1 0) != wt - alpha_1 at element 0"),
    (((1,), (-1,)), {1: (None, None)}, {1: (None, 0)},
     "axiom (3): f_1 e_1 != id at element 1"),
    (((1,), (-1,)), {1: (1, None)}, {1: (None, None)},
     "axiom (4): e_1 f_1 != id at element 0"),
])
def test_each_axiom_names_itself(wts, f_maps, e_maps, message):
    with pytest.raises(CrystalError) as info:
        CrystalGraph(cartan=A1, wts=wts, f_maps=f_maps, e_maps=e_maps)
    assert str(info.value) == message


def test_normality_report_unverifiable_outside_type_a():
    b2 = cartan_explicit([[2, -1], [-2, 2]])
    g = CrystalGraph(cartan=b2, wts=((0, 0),), f_maps={1: (None,), 2: (None,)})
    rep = normality_report(g)
    assert rep["status"] == "unverifiable"
    with pytest.raises(CrystalError):
        is_normal(g)


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
    assert not is_normal(graph)


def test_normality_report_builds_no_sub_crystal(monkeypatch):
    def no_subgraph(*args):
        raise AssertionError("normality_report built a sub-crystal")

    monkeypatch.setattr(crystal_module, "_subgraph", no_subgraph)
    t = tensor(build_irreducible(A2, (1, 1)), build_irreducible(A2, (1, 0)))
    assert normality_report(t) == {"status": "normal"}


def test_walk_in_step_maps_a_component_onto_its_reference():
    t = tensor(build_irreducible(A2, W1), build_irreducible(A2, W2))
    ref = build_irreducible(A2, (1, 1))
    head, = multiplicity_set(t, (1, 1))
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
    low, = multiplicity_set(t, (0, 0))
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
