"""xi and the reversal pinned from the tableau side, by RSK on words alone.

None of these oracles reads a crystal graph: they use tableaux.rsk and
rsk_inverse, and the labels of the irreducibles only to name ids.  With
N = r + 1, rev_comp(w) reverses w and sends each letter i to N + 1 - i.  The
word of a tableau reads its columns left to right, each bottom to top, and
the word of b_1 (x) .. (x) b_m is the words of its factors in factor order.

* xi on B(lambda): xi(T) = P(rev_comp(row word of T)), the row word reading
  the rows bottom to top, each left to right.
* xi on words: xi_word(w) = RSK^-1(xi(P(w)), Q(w)).
* The reversal of (e_1, .., e_m) is xi_word of the word of
  xi e_m (x) .. (x) xi e_1, cut into the shapes of the reversed factors,
  each filled in reading order.

Each oracle must catch two planted faults: two swapped entries of xi, and
the maps conjugated by tau, which swaps ids 0 and 1 of B(omega_1) in every
factor on A2.  tau is no crystal map, but an action conjugated by a bijection
satisfies every relation the action does, so no relation check can see it.
"""

from itertools import product
from math import log, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from cactus_crystal import clear_caches
from cactus_crystal import commutor as commutor_module
from cactus_crystal.cartan import cartan_type_a, fundamental_weight
from cactus_crystal.crystal import build_irreducible, product_of_weights
from cactus_crystal.tableaux import rsk, rsk_inverse, shape
from test_crystal import entries

A2 = cartan_type_a(2)
W1 = fundamental_weight(A2, 1)


def rev_comp(word, n):
    return tuple(n + 1 - v for v in reversed(word))


def cells(shp):
    """The cells of a shape in reading order: columns left to right, each
    bottom to top."""
    return [(r, c) for c in range(shp[0] if shp else 0)
            for r in reversed(range(len(shp))) if c < shp[r]]


def column_word(t):
    return tuple(t[r][c] for r, c in cells(shape(t)))


def fill(shp, word):
    rows = [[None] * length for length in shp]
    for (r, c), v in zip(cells(shp), word):
        rows[r][c] = v
    return tuple(map(tuple, rows))


def xi_tableau(t, n):
    return rsk(rev_comp(tuple(v for row in reversed(t) for v in row), n))[0]


def xi_word(word, n):
    p, q = rsk(word)
    return rsk_inverse(xi_tableau(p, n), q)


def reversal_by_rsk(cartan, weights):
    """The reversal of B(w_1) (x) .. (x) B(w_m) as a dict of entry tuples,
    in the form of commutor.reversal_table."""
    n = cartan.rank + 1
    labels = [build_irreducible(cartan, w).labels for w in weights]
    index = [{t: k for k, t in enumerate(ls)} for ls in labels]
    shapes = [shape(ls[0]) for ls in labels]
    table = {}
    for entries in product(*(range(len(ls)) for ls in labels)):
        word = tuple(v for ls, e in zip(labels[::-1], entries[::-1])
                     for v in column_word(xi_tableau(ls[e], n)))
        image, target = xi_word(word, n), []
        for k in reversed(range(len(weights))):
            size = sum(shapes[k])
            target.append(index[k][fill(shapes[k], image[:size])])
            image = image[size:]
        table[entries] = tuple(target)
    return table


# -- the three oracles: each returns the points where the crystal side differs


def tableau_disagreements(cartan, weight):
    graph = build_irreducible(cartan, weight)
    xi = commutor_module.schutzenberger(graph).mapping
    return [t for b, t in enumerate(graph.labels)
            if graph.labels[xi[b]] != xi_tableau(t, cartan.rank + 1)]


def word_disagreements(cartan, m):
    """xi of B(omega_1)^m, whose element with entries (a_1, .., a_m) is the
    word (a_1 + 1, .., a_m + 1)."""
    graph = product_of_weights(cartan, (fundamental_weight(cartan, 1),) * m)
    xi = commutor_module.schutzenberger(graph).mapping
    n = cartan.rank + 1
    words = [tuple(a + 1 for a in entries(u, (n,) * m))
             for u in graph.elements()]
    return [word for u, word in enumerate(words)
            if words[xi[u]] != xi_word(word, n)]


def reversal_disagreements(cartan, weights):
    table = commutor_module.reversal_table(cartan, weights)
    oracle = reversal_by_rsk(cartan, weights)
    assert table.keys() == oracle.keys()
    return [k for k in table if table[k] != oracle[k]]


RANKED_WEIGHT = st.integers(1, 3).flatmap(
    lambda r: st.tuples(st.just(cartan_type_a(r)),
                        st.tuples(*[st.integers(0, 4 - r)] * r)))


@given(RANKED_WEIGHT)
@settings(deadline=None, max_examples=30)
def test_xi_on_irreducibles_is_evacuation_by_rsk(case):
    cartan, weight = case
    assert tableau_disagreements(cartan, weight) == []


@given(st.integers(1, 3).flatmap(
    lambda r: st.tuples(st.just(cartan_type_a(r)), st.integers(1, 9 - 2 * r))))
@settings(deadline=None, max_examples=15)
def test_xi_on_words_is_rsk_conjugate(case):
    cartan, m = case
    assert word_disagreements(cartan, m) == []


@given(st.integers(1, 3).flatmap(lambda r: st.tuples(
    st.just(cartan_type_a(r)),
    st.lists(st.tuples(*[st.integers(0, 3 - r)] * r), min_size=1,
             max_size=3))))
@settings(deadline=None, max_examples=25)
def test_reversal_of_any_product_by_rsk(case):
    cartan, weights = case
    weights = tuple(weights)
    assume(prod(build_irreducible(cartan, w).size for w in weights) <= 400)
    assert reversal_disagreements(cartan, weights) == []


# -- planted faults


def tau(u, m):
    """tau in each of the m factors of B(omega_1)^m on A2, on flat ids."""
    digits = [(u // 3 ** k) % 3 for k in range(m)]
    return sum((1 - d if d < 2 else d) * 3 ** k for k, d in enumerate(digits))


def plant_swapped_xi(monkeypatch):
    original = commutor_module._xi_mapping

    def swapped(graph):
        xi = list(original(graph))
        xi[0], xi[1] = xi[1], xi[0]
        return tuple(xi)
    monkeypatch.setattr(commutor_module, "_xi_mapping", swapped)


def plant_tau_conjugation(monkeypatch):
    """xi of B(omega_1)^m and every reversal table, conjugated by tau."""
    original_xi = commutor_module.schutzenberger
    original_table = commutor_module.reversal_table

    def conjugated_xi(graph):
        xi, m = original_xi(graph), round(log(graph.size, 3))
        return commutor_module.CrystalBijection(graph, graph, tuple(
            tau(xi(tau(u, m)), m) for u in graph.elements()))

    def conjugated_table(cartan, weights):
        def t(entries):
            return tuple(1 - e if e < 2 else e for e in entries)
        return {t(k): t(v) for k, v in original_table(cartan, weights).items()}
    monkeypatch.setattr(commutor_module, "schutzenberger", conjugated_xi)
    monkeypatch.setattr(commutor_module, "reversal_table", conjugated_table)


ORACLES = {
    "tableau": lambda: tableau_disagreements(A2, W1),
    "word": lambda: word_disagreements(A2, 3),
    "reversal": lambda: reversal_disagreements(A2, (W1, W1, W1)),
}


@pytest.mark.parametrize("plant", [plant_swapped_xi, plant_tau_conjugation],
                         ids=["swapped", "tau"])
@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_oracles_catch_planted_faults(monkeypatch, oracle, plant):
    assert ORACLES[oracle]() == []
    clear_caches()  # so that the reversal table is made again under the fault
    plant(monkeypatch)
    try:
        assert ORACLES[oracle]() != []
    finally:
        monkeypatch.undo()
        clear_caches()
    assert ORACLES[oracle]() == []
