import gc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cactus_crystal.cartan import (
    cartan_type_a,
    star,
    weight_sub,
)
from cactus_crystal import commutor as commutor_module
from cactus_crystal.commutor import (
    CrystalBijection,
    commutor,
    commutor_table,
    hexagon_holds,
    reversal_table,
    schutzenberger,
)
from cactus_crystal.crystal import (
    CrystalError,
    CrystalGraph,
    build_irreducible,
    component_ids,
    product_of_weights,
    tensor,
    walk_in_step,
)
from test_crystal import entries, plain_fold

A1 = cartan_type_a(1)
A2 = cartan_type_a(2)
A3 = cartan_type_a(3)


def internal_cactus(factors):
    """Reversal bijection tensor(B1..Bm) -> tensor(Bm..B1) on ids.

    Oracle for reversal_table: the same peeling recursion, but through
    ``commutor`` on the plain folds of test_crystal (not the cached
    product_of_weights) and entry lookups.
    """
    if not factors:
        raise CrystalError("empty product has no reversal")
    domain = plain_fold(factors)
    codomain = plain_fold(factors[::-1])
    if len(factors) == 1:
        return CrystalBijection(domain, codomain,
                                tuple(range(domain.size)))
    sizes = [f.size for f in factors]
    sub = internal_cactus(factors[1:])
    right = sub.codomain          # Bm (x) .. (x) B2
    left = factors[0]
    comm = commutor(left, right)
    tails = [entries(b, sizes[1:]) for b in sub.domain.elements()]
    heads = [entries(b, sizes[:0:-1]) for b in right.elements()]
    targets = [entries(b, sizes[::-1]) for b in codomain.elements()]
    mapping = []
    for b in domain.elements():
        flat = entries(b, sizes)
        tail_id = tails.index(flat[1:])
        b_id = sub(tail_id)
        pair = comm(flat[0] * right.size + b_id)
        b2, a2 = entries(pair, (right.size, left.size))
        mapping.append(targets.index(heads[b2] + (a2,)))
    return CrystalBijection(domain, codomain, tuple(mapping))


def plain_schutzenberger(graph):
    """xi through per-element method calls, with no cache: the oracle."""
    comp = component_ids(graph)
    n_comp = max(comp) + 1 if graph.size else 0
    members = [[] for _ in range(n_comp)]
    for b, c in enumerate(comp):
        members[c].append(b)
    xi = [None] * graph.size
    for group in members:
        heads = [b for b in group
                 if all(graph.e(i, b) is None for i in graph.index_range())]
        tails = [b for b in group
                 if all(graph.f(i, b) is None for i in graph.index_range())]
        if len(heads) != 1 or len(tails) != 1:
            raise CrystalError(
                "component is not normal: %d heads, %d tails" % (len(heads), len(tails)))
        xi[heads[0]] = tails[0]
        frontier = [heads[0]]
        while frontier:
            b = frontier.pop()
            for i in graph.index_range():
                c = graph.f(i, b)
                if c is None:
                    continue
                val = graph.e(star(graph.cartan, i), xi[b])
                if val is None:
                    raise CrystalError("xi recursion ran off the crystal")
                if xi[c] is None:
                    xi[c] = val
                    frontier.append(c)
                elif xi[c] != val:
                    raise CrystalError("xi recursion is inconsistent")
    if any(v is None for v in xi):
        raise CrystalError("crystal is not generated from its heads by f_i")
    return tuple(xi)


# (cartan, left factor weights, right factor weight or None, fold)
XI_CASES = [
    (A1, ((1,),), (2,), False),
    (A1, ((3,),), (2,), False),
    (A2, ((1, 0),), (0, 1), False),
    (A2, ((1, 1),), (2, 0), False),
    (A3, ((2, 1, 1),), (1, 1, 0), False),
    (A2, ((1, 1), (1, 0)), (0, 1), True),
    (A2, ((2, 1),), None, False),
]


def _graph(cartan, left_weights, right_weight, fold):
    if fold:
        return product_of_weights(cartan, left_weights + (right_weight,))
    left = product_of_weights(cartan, left_weights)
    if right_weight is None:
        return left
    return tensor(left, build_irreducible(cartan, right_weight))


# graphs whose components are not normal, with the error xi must raise
NON_NORMAL = [
    # one tail with two covers of different colours: two heads, one component
    (CrystalGraph(cartan=A2, wts=((2, -1), (-1, 2), (0, 0)),
                  f_maps={1: (2, None, None), 2: (None, 2, None)}),
     "2 heads, 1 tails"),
    # a lone f_1 edge: xi(f_1 b) would need e_2 of the tail
    (CrystalGraph(cartan=A2, wts=((1, 0), (-1, 1)),
                  f_maps={1: (1, None), 2: (None, None)}),
     "ran off the crystal"),
]


def matched_component_bijection(src, dst):
    """Pair components head-by-head; well defined iff multiplicity free.

    Independent of the xi construction: only uses edge-by-edge BFS, so it
    serves as an oracle for the commutor on multiplicity-free products.
    """
    mapping = [None] * src.size
    for h in src.highest_weight_elements():
        targets = [d for d in dst.highest_weight_elements()
                   if dst.wt(d) == src.wt(h)]
        assert len(targets) == 1, "oracle needs a multiplicity-free product"
        pair = {h: targets[0]}
        frontier = [h]
        while frontier:
            b = frontier.pop()
            mapping[b] = pair[b]
            for i in src.index_range():
                c, c2 = src.f(i, b), dst.f(i, pair[b])
                assert (c is None) == (c2 is None)
                if c is not None and c not in pair:
                    pair[c] = c2
                    frontier.append(c)
    assert None not in mapping
    return tuple(mapping)


def test_xi_frozen_defining_a2():
    xi = schutzenberger(build_irreducible(A2, (1, 0)))
    assert xi.mapping == (2, 1, 0)


def test_xi_frozen_a1_string():
    xi = schutzenberger(build_irreducible(A1, (3,)))
    assert xi.mapping == (3, 2, 1, 0)


@given(st.integers(1, 2), st.lists(st.integers(0, 2), min_size=2, max_size=2))
@settings(deadline=None, max_examples=25)
def test_xi_weight_rule(rank, coeffs):
    cartan = cartan_type_a(rank)
    g = build_irreducible(cartan, tuple(coeffs[:rank]))
    xi = schutzenberger(g)
    zero = (0,) * rank
    for b in g.elements():
        # xi(b) has weight w0(wt b), and -w0 reverses the coefficients in type A
        assert g.wt(xi(b)) == weight_sub(zero, g.wt(b)[::-1])


def test_xi_involution_on_tensor():
    t = tensor(build_irreducible(A2, (1, 0)), build_irreducible(A2, (1, 1)))
    xi = schutzenberger(t)
    assert xi.domain is xi.codomain is t
    assert [xi.mapping[c] for c in xi.mapping] == list(t.elements())


def test_xi_intertwines_f_with_starred_e():
    g = build_irreducible(A2, (1, 1))
    from cactus_crystal.cartan import star
    xi = schutzenberger(g)
    for b in g.elements():
        for i in g.index_range():
            c = g.f(i, b)
            if c is not None:
                assert xi(c) == g.e(star(A2, i), xi(b))


@pytest.mark.parametrize("cartan,left_weights,right_weight,fold", XI_CASES)
def test_xi_matches_plain_loop(cartan, left_weights, right_weight, fold):
    graph = _graph(cartan, left_weights, right_weight, fold)
    assert schutzenberger(graph).mapping == plain_schutzenberger(graph)


def test_xi_is_computed_once_per_graph():
    graph = _graph(A2, ((1, 0),), (0, 1), False)
    xi = schutzenberger(graph)
    assert schutzenberger(graph).mapping is xi.mapping
    assert xi.domain is graph and xi.codomain is graph


def test_commutor_leaves_no_reference_cycles():
    # the cached xi is a bare tuple, so a fresh tensor dies with its last
    # reference instead of waiting for the cyclic collector
    left, right = build_irreducible(A2, (1, 1)), build_irreducible(A2, (2, 1))
    commutor(left, right)
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            commutor(left, right)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_xi_cache_leaves_equality_alone():
    # the kept xi, component ids and two-fold products stay out of == and repr
    left, right = build_irreducible(A2, (1, 0)), build_irreducible(A2, (1, 1))
    cached = tensor(left, right)
    fresh = CrystalGraph(cached.cartan, cached.wts, cached.f_maps)
    schutzenberger(cached)
    component_ids(cached)
    tensor(cached, right)
    assert cached is not fresh
    assert cached == fresh and fresh == cached
    assert repr(cached) == repr(fresh)


@pytest.mark.parametrize("graph,message", NON_NORMAL)
def test_xi_raises_on_every_call_for_non_normal_graph(graph, message):
    for _ in range(2):
        with pytest.raises(CrystalError, match=message):
            schutzenberger(graph)
        with pytest.raises(CrystalError, match=message):
            plain_schutzenberger(graph)


def test_xi_rejects_two_heads_in_component():
    # one tail with two covers of different colours: two heads, one component
    g = CrystalGraph(
        cartan=A2,
        wts=((2, -1), (-1, 2), (0, 0)),
        f_maps={1: (2, None, None), 2: (None, 2, None)},
    )
    with pytest.raises(CrystalError, match="2 heads, 1 tails"):
        schutzenberger(g)


def test_commutor_a1_pair_is_identity():
    b = build_irreducible(A1, (1,))
    assert commutor(b, b).mapping == (0, 1, 2, 3)


@pytest.mark.parametrize("cartan,lw,rw", [
    (A1, (1,), (2,)),
    (A1, (2,), (3,)),
    (A2, (1, 0), (0, 1)),
    (A2, (1, 0), (1, 0)),
    (A2, (1, 1), (1, 0)),
])
def test_commutor_matches_component_oracle(cartan, lw, rw):
    left = build_irreducible(cartan, lw)
    right = build_irreducible(cartan, rw)
    sigma = commutor(left, right)
    oracle = matched_component_bijection(tensor(left, right), tensor(right, left))
    assert sigma.mapping == oracle


@pytest.mark.parametrize("cartan,lw,rw", [
    (A1, (1,), (2,)),
    (A2, (1, 0), (0, 1)),
    (A2, (1, 1), (1, 0)),
])
def test_commutor_strict_and_involutive(cartan, lw, rw):
    left = build_irreducible(cartan, lw)
    right = build_irreducible(cartan, rw)
    there = commutor(left, right)
    back = commutor(right, left)
    dom, cod = there.domain, there.codomain
    for head in dom.highest_weight_elements():
        walk = walk_in_step(dom, cod, head, there(head))
        assert walk is not None
        assert all(there(b) == c for b, c in walk.items())
    assert tuple(map(back, there.mapping)) == tuple(range(there.domain.size))


def test_single_factor_reversal_is_identity():
    b = build_irreducible(A1, (2,))
    assert internal_cactus([b]).mapping == (0, 1, 2)


# every tuple of length 1..5 over A1 {(1,), (2,)}, two A2 and one A3 case
REVERSAL_CASES = [
    (A1, ws) for m in range(1, 6) for ws in product(((1,), (2,)), repeat=m)
] + [
    (A2, ((1, 0), (0, 1), (1, 1))),
    (A2, ((1, 0), (0, 1), (1, 1), (1, 1))),
    (A3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
]


@pytest.mark.parametrize("cartan,weights", REVERSAL_CASES)
def test_internal_cactus_agrees_with_cached_table(cartan, weights):
    factors = [build_irreducible(cartan, w) for w in weights]
    sizes = [f.size for f in factors]
    rev = internal_cactus(factors)
    table = reversal_table(cartan, weights)
    assert rev.domain.size == len(table)
    for b in rev.domain.elements():
        assert table[entries(b, sizes)] == entries(rev(b), sizes[::-1])


def test_reversal_table_involutive():
    weights = ((1, 0), (0, 1))
    fwd = reversal_table(A2, weights)
    bwd = reversal_table(A2, tuple(reversed(weights)))
    for flat, out in fwd.items():
        assert bwd[out] == flat


def test_reversal_table_preserves_weight():
    from cactus_crystal.crystal import product_of_weights
    weights = ((1,), (2,))
    fwd = reversal_table(A1, weights)
    p = product_of_weights(A1, weights)
    q = product_of_weights(A1, tuple(reversed(weights)))
    p_entries = [entries(b, (2, 3)) for b in p.elements()]
    q_entries = [entries(b, (3, 2)) for b in q.elements()]
    for flat, out in fwd.items():
        assert p.wt(p_entries.index(flat)) == q.wt(q_entries.index(out))


@pytest.mark.parametrize("cartan,lam,mu,nu", [
    (A1, (1,), (1,), (1,)),
    (A1, (2,), (1,), (3,)),
    (A2, (1, 0), (0, 1), (1, 0)),
    (A2, (1, 0), (1, 1), (0, 1)),
])
def test_hexagon_small(cartan, lam, mu, nu):
    assert hexagon_holds(cartan, lam, mu, nu)


# the A2 weights of the benchmark's hexagon sweep
HEXAGON_WEIGHTS = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]


@pytest.mark.parametrize("lam", HEXAGON_WEIGHTS)
def test_outer_commutor_tables_match_nested_commutor(lam):
    b_lam = build_irreducible(A2, lam)
    for mu, nu in product(HEXAGON_WEIGHTS, repeat=2):
        b_mu, b_nu = build_irreducible(A2, mu), build_irreducible(A2, nu)
        outer_l = commutor_table(A2, (lam,), (nu, mu))
        assert outer_l.mapping \
            == commutor(b_lam, tensor(b_nu, b_mu)).mapping, (lam, mu, nu)
        outer_r = commutor_table(A2, (mu, lam), (nu,))
        assert outer_r.mapping \
            == commutor(tensor(b_mu, b_lam), b_nu).mapping, (lam, mu, nu)


def test_commutor_table_matches_the_nested_commutor():
    table = commutor_table(A2, ((1, 0),), ((0, 1), (1, 1)))
    assert table.domain is product_of_weights(A2, ((1, 0), (0, 1), (1, 1)))
    assert table.codomain is product_of_weights(A2, ((0, 1), (1, 1), (1, 0)))
    nested = commutor(build_irreducible(A2, (1, 0)),
                      product_of_weights(A2, ((0, 1), (1, 1))))
    # B1 (x) (B2 (x) B3) numbers its elements as B1 (x) B2 (x) B3 does
    assert nested.domain == table.domain
    assert nested.codomain is table.codomain
    assert nested.mapping == table.mapping


@pytest.mark.parametrize("which", range(4))
def test_hexagon_catches_a_wrong_commutor_table(monkeypatch, which):
    lam, mu, nu = (1, 0), (0, 1), (1, 1)
    # inner and outer tables of the left path, then of the right path
    tables = [((mu,), (nu,)), ((lam,), (nu, mu)),
              ((lam,), (mu,)), ((mu, lam), (nu,))]
    right = commutor_module.commutor_table

    def wrong(cartan, left_weights, right_weights):
        table = right(cartan, left_weights, right_weights)
        if (left_weights, right_weights) != tables[which]:
            return table
        mapping = list(table.mapping)
        mapping[0], mapping[1] = mapping[1], mapping[0]
        return CrystalBijection(table.domain, table.codomain, tuple(mapping))

    assert hexagon_holds(A2, lam, mu, nu)
    monkeypatch.setattr(commutor_module, "commutor_table", wrong)
    assert not hexagon_holds(A2, lam, mu, nu)


def test_commutor_table_cached():
    a = commutor_table(A1, ((1,),), ((2,),))
    b = commutor_table(A1, ((1,),), ((2,),))
    assert a is b


def test_bijection_validation():
    b = build_irreducible(A1, (1,))
    with pytest.raises(CrystalError):
        CrystalBijection(b, b, (0,))
    with pytest.raises(CrystalError):
        CrystalBijection(b, b, (0, 0))
    ident = CrystalBijection(b, b, (0, 1))
    assert ident.to_pairs() == [[0, 0], [1, 1]]
