"""Acceptance gate: ten exhaustive checks at small rank with wall bounds.

Each test is one criterion; the pytest -v line is its pass/fail record.  The
checks are exact (no tolerances): either every instance agrees or the test
fails with a witness.
"""

import time
from itertools import product
from math import factorial

from cactus_crystal.actions import verify_relations
from cactus_crystal.cartan import cartan_type_a
from cactus_crystal.category_data import (
    category_from_covering,
    covering_from_category,
    from_crystals,
    is_valid,
    mutate_category,
    validate,
    verify_fiber_system,
)
from cactus_crystal.commutor import commutor, hexagon_holds
from cactus_crystal.crystal import (
    build_irreducible,
    components,
    normality_report,
    semistandard_tableaux,
    tensor,
)
from cactus_crystal.groups import (
    cabling,
    defining_relation_families,
    mc_s0j_word,
    project_to_symmetric,
)
from cactus_crystal.perms import (
    all_perms,
    contains_alternating,
    permutation_image,
)
from cactus_crystal.tableaux import (
    bender_knuth,
    bk_braid_witness,
    bk_cactus_act,
    rsk_crosscheck,
    standard_tableaux,
)

A1 = cartan_type_a(1)
A2 = cartan_type_a(2)

A1_WEIGHTS = [(k,) for k in range(4)]
A2_WEIGHTS = [(1, 0), (0, 1), (1, 1)]


def finish(start, bound, label):
    elapsed = time.monotonic() - start
    assert elapsed < bound, "%s took %.1fs, bound %ss" % (label, elapsed, bound)


def test_criterion_01_involutivity_and_hexagon_exhaustive():
    start = time.monotonic()
    for cartan, weights in ((A1, A1_WEIGHTS), (A2, A2_WEIGHTS)):
        for lw in weights:
            for rw in weights:
                left = build_irreducible(cartan, lw)
                right = build_irreducible(cartan, rw)
                there = commutor(left, right)
                back = commutor(right, left)
                assert tuple(map(back, there.mapping)) \
                    == tuple(range(there.domain.size)), (lw, rw)
        for lam, mu, nu in product(weights, repeat=3):
            assert hexagon_holds(cartan, lam, mu, nu), (lam, mu, nu)
    finish(start, 60, "coboundary axioms")


def test_criterion_02_virtual_cactus_relations_act_identically():
    start = time.monotonic()
    jobs = [
        (A1, 3, [(1,), (2,)]),
        (A1, 4, [(1,), (2,)]),
        (A2, 3, [(1, 0), (0, 1)]),
    ]
    for cartan, n, choices in jobs:
        tuples = sorted(set(product(choices, repeat=n)))
        rep = verify_relations(cartan, "vC", n, tuples)
        assert rep["passed"] is True, rep["failures"][:1]
        per_factor = sum(build_irreducible(cartan, w).size for w in choices)
        assert rep["points"] == per_factor ** n
        assert set(rep["families"]) >= {"involution", "perm_table", "cabled"}
    finish(start, 300, "virtual relation suite")


def test_criterion_03_cabling_bijects_onto_translations():
    start = time.monotonic()
    for n in range(2, 7):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                q = j - i
                image = {cabling(u, i, j, n) for u in all_perms(n - q)}
                assert len(image) == factorial(n - q), (n, i, j)
                translations = {w for w in all_perms(n) if all(
                    w[i - 1 + k] == w[i - 1] + k for k in range(q + 1))}
                assert image == translations, (n, i, j)
    finish(start, 30, "cabling bijection")


def test_criterion_04_permutation_words_move_one_rsk_factor():
    start = time.monotonic()
    for n in (3, 4):
        rep = rsk_crosscheck(n)
        assert rep["passed"] is True
        assert rep["perm_rule"] == ["precompose"], rep
        assert "one-line/Q" in rep["winners"], rep
        assert "one-line/P" not in rep["winners"], rep
    finish(start, 60, "rsk crosscheck")


def test_criterion_05_tableau_action_image_contains_alternating():
    start = time.monotonic()
    shape = (2, 2, 1)
    states = standard_tableaux(shape)
    assert len(states) == 5
    n = sum(shape)
    maps = [{t: bk_cactus_act(i, j, t) for t in states}
            for i in range(1, n) for j in range(i + 1, n + 1)]
    rep = permutation_image(states, maps)
    assert rep["order"] >= 60, rep["order"]
    assert contains_alternating(rep["group"], rep["degree"])
    finish(start, 10, "tableau action image")


def test_criterion_06_bender_knuth_swaps_do_not_braid():
    start = time.monotonic()
    witness = bk_braid_witness(max_cells=6, max_entry=4)
    assert witness is not None
    t, i = witness["tableau"], witness["index"]
    lhs = bender_knuth(i, bender_knuth(i + 1, bender_knuth(i, t)))
    rhs = bender_knuth(i + 1, bender_knuth(i, bender_knuth(i + 1, t)))
    assert lhs != rhs
    for n_cells in range(1, 7):
        from cactus_crystal.tableaux import partitions_of
        for shp in partitions_of(n_cells):
            for tab in semistandard_tableaux(shp, 4):
                for k in range(1, 4):
                    assert bender_knuth(k, bender_knuth(k, tab)) == tab
    finish(start, 10, "bender-knuth braid failure")


def test_criterion_07_affine_relations_including_wraparound():
    start = time.monotonic()
    seen_families = set()
    for n in (3, 4):
        tuples = sorted(set(product([(1,), (2,)], repeat=n)))
        rep = verify_relations(A1, "AC", n, tuples)
        assert rep["passed"] is True, rep["failures"][:1]
        seen_families |= set(rep["families"])
    assert seen_families == {"involution", "disjoint", "nesting",
                             "rotation_order", "rotation_shift"}
    finish(start, 120, "affine relation suite")


def test_criterion_08_mirabolic_words_and_action():
    start = time.monotonic()
    for n in range(2, 7):
        for j in range(n):
            got = project_to_symmetric(mc_s0j_word(j, n))
            expect = tuple(j + 1 - k if k <= j + 1 else k
                           for k in range(n + 1))
            assert got == expect, (n, j)
    for n in (3, 4):
        tuples = sorted(set(product([(1,), (2,)], repeat=n)))
        rep = verify_relations(A1, "MC", n, tuples)
        assert rep["passed"] is True, rep["failures"][:1]
    finish(start, 30, "mirabolic consistency")


def test_criterion_09_category_covering_roundtrip_and_mutations():
    start = time.monotonic()
    cores = [
        (A1, [(0,), (1,), (2,)]),
        (A2, [(0, 0), (1, 0), (0, 1), (1, 1)]),
    ]
    for cartan, colours in cores:
        data = from_crystals(cartan, colours)
        rep = validate(data)
        assert rep["passed"] is True, rep["failures"][:1]
        fs = covering_from_category(data)
        assert verify_fiber_system(fs)["passed"] is True
        assert category_from_covering(fs) == data
        caught = 0
        for seed in range(100):
            mutant, _ = mutate_category(data, seed=seed)
            caught += not is_valid(mutant)
        assert caught == 100, "only %d of 100 mutations caught" % caught
    finish(start, 120, "category roundtrip and mutation sweep")


def test_criterion_10_normality_and_decompositions():
    start = time.monotonic()
    t = tensor(build_irreducible(A1, (1,)), build_irreducible(A1, (1,)))
    assert [(t.wt(h), sub.size) for h, sub in components(t)] \
        == [((2,), 3), ((0,), 1)]
    t2 = tensor(build_irreducible(A2, (1, 0)), build_irreducible(A2, (0, 1)))
    assert [(t2.wt(h), sub.size) for h, sub in components(t2)] \
        == [((1, 1), 8), ((0, 0), 1)]
    assert t2.size == 9
    for cartan, weights in ((A1, A1_WEIGHTS), (A2, A2_WEIGHTS)):
        for lw in weights:
            for rw in weights:
                pair = tensor(build_irreducible(cartan, lw),
                              build_irreducible(cartan, rw))
                assert normality_report(pair)["status"] == "normal", (lw, rw)
    finish(start, 30, "normality of the test family")
