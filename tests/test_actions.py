import json
import os
import subprocess
import sys
import time
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from cactus_crystal import DEFAULT_MAX_POINTS, MAX_POINTS_ENV, actions
from cactus_crystal.actions import (
    CompiledAction,
    LabeledPoint,
    act,
    act_word,
    count_points,
    iter_points,
    orbit,
    point_budget,
    verify_relations,
    weight_orderings,
)
from cactus_crystal.cartan import cartan_type_a
from cactus_crystal.commutor import reversal_table
from cactus_crystal.crystal import build_irreducible
from cactus_crystal.groups import (
    AffineR,
    AffineS,
    CactusGen,
    GroupError,
    GroupWord,
    MirabolicT,
    PermGen,
    defining_relation_families,
    mc_relation_suite,
    parse_word,
    project_to_symmetric,
    virtual_letters,
    word,
)
from cactus_crystal.perms import (
    PermError,
    compose,
    contains_alternating,
    long_cycle,
    permutation_image,
    transposition,
)

A1 = cartan_type_a(1)
A2 = cartan_type_a(2)

W111 = ((1,), (1,), (1,))
W112 = ((1,), (1,), (2,))


def test_point_validation():
    with pytest.raises(GroupError):
        LabeledPoint(((1,), (1,)), (0,))


def test_perm_gen_pulls():
    p = LabeledPoint(((1,), (2,), (3,)), (0, 1, 2))
    q = act(A1, PermGen((2, 3, 1)), p)
    assert q.weights == ((2,), (3,), (1,))
    assert q.entries == (1, 2, 0)


def test_interval_gen_reverses_weight_slice():
    p = LabeledPoint(W112, (0, 0, 0))
    q = act(A1, CactusGen(2, 3), p)
    assert q.weights == ((1,), (2,), (1,))


def test_interval_gen_is_involution():
    for p in iter_points(A1, W112):
        for i, j in [(1, 2), (2, 3), (1, 3)]:
            g = CactusGen(i, j)
            assert act(A1, g, act(A1, g, p)) == p


def test_act_word_folds_leftmost_first():
    w1, w2 = (2, 3, 1), (2, 1, 3)
    p = LabeledPoint(((1,), (2,), (3,)), (0, 1, 2))
    two = act_word(A1, word("vC", 3, [PermGen(w1), PermGen(w2)]), p)
    one = act(A1, PermGen(compose(w1, w2)), p)
    assert two == one
    assert project_to_symmetric(word("vC", 3, [PermGen(w1), PermGen(w2)])) \
        == compose(w1, w2)


def test_mirabolic_t_acts_as_swap():
    p = LabeledPoint(((1,), (2,)), (1, 0))
    q = act(A1, MirabolicT(1), p)
    assert q == act(A1, PermGen((2, 1)), p)


def test_t0_refuses_to_act():
    p = LabeledPoint(((1,), (2,)), (0, 0))
    with pytest.raises(GroupError, match="t0"):
        act(A1, MirabolicT(0), p)


def test_affine_rotation_acts_as_long_cycle():
    p = LabeledPoint(((1,), (2,), (3,)), (0, 1, 2))
    assert act(A1, AffineR(), p) == act(A1, PermGen(long_cycle(3)), p)
    q = p
    for _ in range(3):
        q = act(A1, AffineR(), q)
    assert q == p


def test_affine_standard_interval_matches_plain():
    p = LabeledPoint(W112, (1, 0, 2))
    assert act(A1, AffineS(1, 2), p) == act(A1, CactusGen(1, 2), p)


def test_affine_wraparound_is_straightened_involution():
    p = LabeledPoint(W112, (1, 1, 0))
    q = act(A1, AffineS(3, 1), p)
    assert act(A1, AffineS(3, 1), q) == p
    assert q.weights == ((2,), (1,), (1,))


def test_interval_out_of_range():
    p = LabeledPoint(((1,), (1,)), (0, 0))
    with pytest.raises(GroupError):
        act(A1, CactusGen(1, 3), p)


def test_orbits_partition_the_point_space():
    gens = [CactusGen(1, 2), CactusGen(2, 3), CactusGen(1, 3)]
    space = [p for ordering in weight_orderings(W112)
             for p in iter_points(A1, ordering)]
    seen = {}
    for p in space:
        orb = orbit(A1, gens, p)
        assert p in orb
        for q in orb:
            assert orbit(A1, gens, q) == orb
        key = tuple(orb)
        for q in orb:
            assert seen.setdefault(q, key) == key
    assert set(seen) == set(space)


def test_orbit_budget_enforced(monkeypatch):
    p = LabeledPoint(W112, (0, 0, 0))
    monkeypatch.setenv(MAX_POINTS_ENV, "1")
    with pytest.raises(GroupError, match="budget"):
        orbit(A1, [CactusGen(1, 3)], p)


def test_orbit_budget_counts_the_orbit_and_the_reversal_tables(monkeypatch):
    # the orbit of (1, 1, 1) meets all six orderings: 36 points; s1_3
    # reverses all three factors, a table of 24 points
    gens = [CactusGen(1, 2), CactusGen(1, 3), PermGen((2, 3, 1))]
    p = LabeledPoint(((1,), (2,), (3,)), (1, 1, 1))
    assert len(orbit(A1, gens, p)) == 36
    monkeypatch.setenv(MAX_POINTS_ENV, "30")
    with pytest.raises(GroupError, match="orbit exceeded the budget of 30"):
        orbit(A1, gens, p)
    monkeypatch.setenv(MAX_POINTS_ENV, "23")
    with pytest.raises(GroupError, match="reversal of factors 1..3 has 24 "
                                         "points, over the budget of 23; "
                                         "raise " + MAX_POINTS_ENV):
        orbit(A1, gens, p)


def test_act_word_and_orbit_respect_the_point_budget(monkeypatch):
    p = LabeledPoint(((10,), (10,), (10,)), (0, 0, 0))
    monkeypatch.setenv(MAX_POINTS_ENV, "1000")
    for run in (lambda: act_word(A1, [CactusGen(1, 3)], p),
                lambda: orbit(A1, [CactusGen(1, 3)], p)):
        with pytest.raises(GroupError, match="1331 points.*" + MAX_POINTS_ENV):
            run()
    monkeypatch.setenv(MAX_POINTS_ENV, "1331")
    image = act_word(A1, [CactusGen(1, 3)], p)
    assert image == act(A1, CactusGen(1, 3), p)
    assert orbit(A1, [CactusGen(1, 3)], p) == sorted(
        {p, image}, key=lambda r: (r.weights, r.entries))


def test_act_word_and_orbit_budget_counts_only_the_tables_built(monkeypatch):
    # s1_2 reverses a product of 121 points and a permutation builds none,
    # so neither goes over a budget of 1000 on the 1331-point product
    p = LabeledPoint(((10,), (10,), (10,)), (3, 1, 4))
    monkeypatch.setenv(MAX_POINTS_ENV, "1000")
    for word in ([CactusGen(1, 2)], [PermGen((2, 3, 1))],
                 [CactusGen(2, 3), PermGen((3, 2, 1))]):
        expected = p
        for g in word:
            expected = _reference_act(A1, g, expected)
        assert act_word(A1, word, p) == expected
    swaps = [PermGen((2, 1, 3)), PermGen((1, 3, 2))]
    assert len(orbit(A1, swaps, p)) == 6
    # over A1 the commutor of two equal factors is the identity
    assert len(orbit(A1, [CactusGen(1, 2), PermGen((2, 3, 1))], p)) == 3


OUT_OF_RANGE = LabeledPoint(((1,), (2,)), (0, -1))


def test_act_word_rejects_out_of_range_point():
    with pytest.raises(GroupError, match=r"point entry -1 of factor 2 is out "
                                         r"of range 0\.\.2"):
        act_word(A1, [PermGen((2, 1))], OUT_OF_RANGE)
    with pytest.raises(GroupError, match="out of range 0..1"):
        act_word(A1, [], LabeledPoint(((1,), (2,)), (2, 0)))


def test_orbit_rejects_out_of_range_point():
    with pytest.raises(GroupError, match="point entry -1 of factor 2"):
        orbit(A1, [PermGen((2, 1))], OUT_OF_RANGE)
    with pytest.raises(GroupError, match="point entry 3 of factor 2"):
        orbit(A1, [CactusGen(1, 2)], LabeledPoint(((1,), (2,)), (0, 3)))


def test_point_budget_env(monkeypatch):
    monkeypatch.delenv(MAX_POINTS_ENV, raising=False)
    assert point_budget() == DEFAULT_MAX_POINTS
    monkeypatch.setenv(MAX_POINTS_ENV, "42")
    assert point_budget() == 42
    monkeypatch.setenv(MAX_POINTS_ENV, "zero")
    with pytest.raises(GroupError):
        point_budget()
    monkeypatch.setenv(MAX_POINTS_ENV, "-3")
    with pytest.raises(GroupError):
        point_budget()


def test_count_and_orderings():
    assert count_points(A1, W112) == 12
    assert len(weight_orderings(W112)) == 3
    assert len(weight_orderings(W111)) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                max_size=6).map(tuple))
def test_weight_orderings_lists_the_distinct_permutations(weights):
    assert weight_orderings(weights) == sorted(set(permutations(weights)))


def test_budget_counts_the_reordering_closure_before_listing_it(monkeypatch):
    # (1, 1, 2): 3 orderings of 12 points, and (1, 2, 2) 3 of 18
    monkeypatch.setenv(MAX_POINTS_ENV, "89")
    with pytest.raises(GroupError, match="point space has 90 points"):
        CompiledAction(A1, [W112, ((2,), (1,), (2,))])
    monkeypatch.setenv(MAX_POINTS_ENV, "90")
    engine = CompiledAction(A1, [W112, ((2,), (1,), (2,))])
    assert len(engine.points) == 90


def test_point_helpers():
    assert len(W112) == 3
    assert build_irreducible(A1, W112[2]).size == 3
    assert count_points(A1, W112) == len(list(iter_points(A1, W112))) == 12
    p = LabeledPoint(W112, (0, 0, 0))
    assert act_word(A1, [CactusGen(1, 2)], p) == act(A1, CactusGen(1, 2), p)


def test_verify_relations_c3_report():
    rep = verify_relations(A1, "C", 3, [W111])
    assert rep["passed"] is True
    assert rep["points"] == 8
    assert rep["relations"] == 5
    assert set(rep["families"]) == {"involution", "nesting"}
    assert rep["failures"] == []
    assert isinstance(rep["duration_s"], float)


def test_duration_covers_compiling_the_letters(monkeypatch):
    def slow_engine(*args, **kwargs):
        time.sleep(0.2)
        return CompiledAction(*args, **kwargs)

    monkeypatch.setattr(actions, "CompiledAction", slow_engine)
    rep = verify_relations(A1, "C", 3, [W111])
    assert rep["passed"] is True
    assert rep["duration_s"] >= 0.2


def test_verify_relations_all_kinds_small():
    for kind in ("C", "vC", "MC", "AC"):
        rep = verify_relations(A1, kind, 3, [W111, W112])
        assert rep["passed"] is True, (kind, rep["failures"][:1])


def test_verify_relations_threaded_agrees():
    a = verify_relations(A2, "C", 3, [((1, 0), (0, 1), (1, 0))])
    b = verify_relations(A2, "C", 3, [((1, 0), (0, 1), (1, 0))])
    assert a["passed"] and b["passed"]
    assert a["families"] == b["families"]


def test_verify_relations_budget(monkeypatch):
    monkeypatch.setenv(MAX_POINTS_ENV, "4")
    with pytest.raises(GroupError, match=MAX_POINTS_ENV):
        verify_relations(A1, "C", 3, [W111])


def test_verify_relations_budget_counts_the_reordering_closure(monkeypatch):
    w123 = ((1,), (2,), (3,))
    assert count_points(A1, w123) == 24
    monkeypatch.setenv(MAX_POINTS_ENV, "100")
    with pytest.raises(GroupError, match="144 points.*" + MAX_POINTS_ENV):
        verify_relations(A1, "C", 3, [w123])
    monkeypatch.setenv(MAX_POINTS_ENV, "144")
    assert verify_relations(A1, "C", 3, [w123])["points"] == 24


def _relations(kind, n):
    return (mc_relation_suite(n) if kind == "MC"
            else defining_relation_families(kind, n))


@pytest.mark.parametrize("cartan, kind, choices", [
    (A1, "C", [(1,), (2,)]),
    (A1, "vC", [(1,), (2,)]),
    (A1, "MC", [(1,), (2,)]),
    (A1, "AC", [(1,), (2,)]),
    (A2, "vC", [(1, 0), (0, 1)]),
])
def test_compiled_images_match_act_word(cartan, kind, choices):
    tuples = sorted(set(product(choices, repeat=3)))
    engine = CompiledAction(cartan, tuples)
    sources = [p for t in tuples for p in iter_points(cartan, t)]
    ids = [engine.blocks[p.weights][p.entries] for p in sources]
    for _, lhs, rhs in _relations(kind, 3):
        for w in (lhs, rhs):
            got = [engine.points[k] for k in engine.images_of(ids)(w.gens)]
            assert got == [act_word(cartan, w, p) for p in sources], str(w)


def _plain_failures(cartan, kind, n, tuples, max_failures):
    """Witnesses as a point-by-point sweep with act_word finds them."""
    def js(p):
        return [list(p.weights), list(p.entries)]
    out = []
    for family, lhs, rhs in _relations(kind, n):
        for t in tuples:
            for p in iter_points(cartan, t):
                left, right = act_word(cartan, lhs, p), act_word(cartan, rhs, p)
                if left != right and len(out) < max_failures:
                    out.append({"family": family, "lhs": str(lhs),
                                "rhs": str(rhs), "point": js(p),
                                "got": js(left), "expected": js(right)})
    return out


@pytest.mark.parametrize("swap", [slice(None, 2), slice(-2, None)])
@pytest.mark.parametrize("max_failures", [1, 5, 40])
def test_wrong_reversal_table_is_caught(monkeypatch, max_failures, swap):
    right = actions.reversal_table

    def wrong(cartan, weights):
        table = dict(right(cartan, weights))
        if len(table) > 1:
            a, b = sorted(table)[swap]
            table[a], table[b] = table[b], table[a]
        return table

    monkeypatch.setattr(actions, "reversal_table", wrong)
    tuples = sorted(set(product([(1,), (2,)], repeat=3)))
    rep = verify_relations(A1, "C", 3, tuples, max_failures=max_failures)
    expected = _plain_failures(A1, "C", 3, tuples, max_failures)
    assert rep["passed"] is False
    assert len(expected) == max_failures
    assert rep["failures"] == expected


def test_verify_vc5_exhaustive():
    start = time.monotonic()
    tuples = sorted(set(product([(1,), (2,)], repeat=5)))
    rep = verify_relations(A1, "vC", 5, tuples)
    elapsed = time.monotonic() - start
    assert rep["passed"] is True, rep["failures"][:1]
    assert rep["relations"] == 14559 and rep["points"] == 3125
    assert set(rep["families"]) == {"involution", "disjoint", "nesting",
                                    "perm_table", "cabled"}
    assert elapsed < 30, "vC n=5 took %.1fs, bound 30s" % elapsed


VC6_SWEEP = (
    "import json, time\n"
    "start = time.monotonic()\n"
    "from cactus_crystal.actions import verify_relations\n"
    "from cactus_crystal.cartan import cartan_type_a\n"
    "rep = verify_relations(cartan_type_a(1), 'vC', 6, [((1,),) * 6])\n"
    "print(json.dumps([rep['passed'], rep['relations'], rep['points'],\n"
    "                  time.monotonic() - start]))\n")
PEAK_OF_ONE_CHILD = (
    "import resource, subprocess, sys\n"
    "out = subprocess.run([sys.executable, '-c', sys.argv[1]], check=True,\n"
    "                     capture_output=True, text=True).stdout\n"
    "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
    "print(out.strip(), peak)\n")


def test_verify_vc6_streams_within_time_and_memory():
    # the 519,204 relations stream past the verifier, so no word list is held;
    # a fresh child runs the sweep and its own parent reads its peak RSS alone
    src = os.path.dirname(os.path.dirname(actions.__file__))
    proc = subprocess.run([sys.executable, "-c", PEAK_OF_ONE_CHILD, VC6_SWEEP],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report, peak_kb = proc.stdout.rsplit(None, 1)
    passed, relations, points, elapsed = json.loads(report)
    assert passed is True and relations == 519204 and points == 64
    assert elapsed < 8, "vC n=6 took %.1fs, bound 8s" % elapsed
    assert int(peak_kb) < 100 * 1024, "vC n=6 peaked at %s kB" % peak_kb


def _reference_act(cartan, gen, point):
    """The single-point action as written before letters were resolved per
    weight tuple: an independent plain path for the kernel."""
    n = len(point.weights)
    if isinstance(gen, CactusGen):
        if gen.j > n:
            raise GroupError("generator %s exceeds %d factors" % (gen, n))
        i, j = gen.i, gen.j
        table = reversal_table(cartan, point.weights[i - 1:j])
        new_entries = point.entries[:i - 1] + table[point.entries[i - 1:j]] \
            + point.entries[j:]
        new_weights = point.weights[:i - 1] + point.weights[i - 1:j][::-1] \
            + point.weights[j:]
        return LabeledPoint(new_weights, new_entries)
    if isinstance(gen, PermGen):
        w = gen.perm
        if len(w) != n:
            raise GroupError("generator %s wants %d factors, point has %d"
                             % (gen, len(w), n))
        return LabeledPoint(tuple(point.weights[w[k] - 1] for k in range(n)),
                            tuple(point.entries[w[k] - 1] for k in range(n)))
    if isinstance(gen, MirabolicT):
        if gen.i == 0:
            raise GroupError("t0 does not act on the factors")
        return _reference_act(cartan,
                              PermGen(transposition(n, gen.i, gen.i + 1)),
                              point)
    if isinstance(gen, (AffineS, AffineR)):
        for g in virtual_letters(gen, n):
            point = _reference_act(cartan, g, point)
        return point
    raise GroupError("unknown generator %r" % (gen,))


EXTRA_LETTERS = {"C": [], "vC": [], "MC": [MirabolicT(1), MirabolicT(2)],
                 "AC": [AffineS(3, 1), AffineS(2, 1), AffineS(3, 2),
                        AffineS(1, 3), AffineR()]}


@pytest.mark.parametrize("cartan, kind, choices", [
    (A1, "C", [(1,), (2,)]),
    (A1, "vC", [(1,), (2,)]),
    (A1, "MC", [(1,), (2,)]),
    (A1, "AC", [(1,), (2,)]),
    (A2, "vC", [(1, 0), (0, 1)]),
])
def test_every_letter_matches_the_reference_action(cartan, kind, choices):
    letters = {g for _, lhs, rhs in _relations(kind, 3)
               for g in lhs.gens + rhs.gens}
    assert set(EXTRA_LETTERS[kind]) <= letters
    tuples = sorted(set(product(choices, repeat=3)))
    engine = CompiledAction(cartan, tuples)
    assert len(engine.points) == sum(count_points(cartan, t) for t in tuples)
    for g in sorted(letters, key=str):
        table = engine.table(g)
        for k, p in enumerate(engine.points):
            expected = _reference_act(cartan, g, p)
            assert act(cartan, g, p) == expected, (str(g), p)
            assert engine.points[table[k]] == expected, (str(g), p)


@pytest.mark.parametrize("kind", ["C", "vC", "MC", "AC"])
def test_column_tables_match_the_reference_action_at_n4(kind):
    # n=3, and vC over A2, are the test above; AC straightens its wrapping
    # letters into three steps
    letters = {g for _, lhs, rhs in _relations(kind, 4)
               for g in lhs.gens + rhs.gens}
    engine = CompiledAction(A1, sorted(set(product([(1,), (2,)], repeat=4))))
    for g in sorted(letters, key=str):
        table = engine.table(g)
        assert [engine.points[k] for k in table] \
            == [_reference_act(A1, g, p) for p in engine.points], str(g)


def test_orbit_matches_a_plain_search_with_the_reference_action():
    gens = [PermGen((2, 3, 1)), CactusGen(1, 2),
            GroupWord("AC", 3, (AffineS(3, 1), AffineR()))]
    for p in iter_points(A1, W112):
        seen, frontier = {p}, [p]
        while frontier:
            q = frontier.pop()
            for g in gens:
                r = q
                for letter in (g.gens if isinstance(g, GroupWord) else (g,)):
                    r = _reference_act(A1, letter, r)
                if r not in seen:
                    seen.add(r)
                    frontier.append(r)
        assert orbit(A1, gens, p) == sorted(
            seen, key=lambda r: (r.weights, r.entries))


@pytest.mark.parametrize("kind", ["C", "vC", "MC", "AC"])
def test_verify_relations_on_a_one_point_space(kind):
    rep = verify_relations(A1, kind, 3, [((0,),) * 3])
    assert rep["passed"] is True and rep["failures"] == []
    assert rep["points"] == 1
    assert rep["relations"] == len(_relations(kind, 3))
    assert sum(f["instances"] for f in rep["families"].values()) \
        == rep["relations"]


@pytest.mark.parametrize("kind", ["C", "vC", "MC", "AC"])
def test_image_of_a_single_id_is_a_tuple(kind):
    engine = CompiledAction(A1, [W112])
    every = range(len(engine.points))
    for _, lhs, rhs in _relations(kind, 3):
        for w in (lhs, rhs):
            images = engine.images_of(every)(w.gens)
            assert engine.images_of([])(w.gens) == ()
            for k in every:
                assert engine.images_of([k])(w.gens) == (images[k],)


@pytest.mark.parametrize("kind", ["C", "vC", "MC", "AC"])
def test_verify_relations_on_a_single_supplied_tuple(monkeypatch, kind):
    # 12 supplied points in a closure of 36; a wrong table gives the
    # witnesses of a point-by-point sweep
    rep = verify_relations(A1, kind, 3, [W112])
    assert rep["passed"] is True and rep["points"] == 12
    right = actions.reversal_table

    def wrong(cartan, weights):
        table = dict(right(cartan, weights))
        a, b = sorted(table)[-2:]
        table[a], table[b] = table[b], table[a]
        return table

    monkeypatch.setattr(actions, "reversal_table", wrong)
    rep = verify_relations(A1, kind, 3, [W112], max_failures=40)
    assert rep["passed"] is False
    assert rep["failures"] == _plain_failures(A1, kind, 3, [W112], 40)


def test_verify_relations_shape_mismatch():
    with pytest.raises(GroupError):
        verify_relations(A1, "C", 3, [((1,), (1,))])


def test_distinct_generators_act_differently():
    # sanity: the harness can distinguish wrong relations
    p = LabeledPoint(W112, (0, 1, 2))
    assert act(A1, CactusGen(1, 2), p) != act(A1, CactusGen(1, 3), p)


def test_permutation_image_of_two_transpositions():
    states = ["a", "b", "c"]
    maps = [{"a": "b", "b": "a", "c": "c"}, {"a": "a", "b": "c", "c": "b"}]
    rep = permutation_image(states, maps)
    assert rep["degree"] == 3 and rep["order"] == 6
    assert rep["even"] == 3 and rep["odd"] == 3
    assert contains_alternating(rep["group"], 3)
    assert rep["contains_alternating"] is True


def test_permutation_image_answers_alternating_up_to_degree_8():
    # one state, as for the shapes (3) and (1, 1, 1): the trivial group is A_1
    assert permutation_image(["a"], [{"a": "a"}])["contains_alternating"] is True
    assert permutation_image(["a"], [])["contains_alternating"] is True
    swap = {"a": "b", "b": "a"}
    for extra, want in ((0, True), (6, False), (7, None)):
        states = ["a", "b", *range(extra)]
        rep = permutation_image(states, [{**swap, **{k: k for k in range(extra)}}])
        assert rep["contains_alternating"] is want, extra


def test_alternating_check_capped():
    with pytest.raises(PermError):
        contains_alternating(set(), 9)


def test_verify_accepts_parse_word_cycles():
    # a full r-orbit of intervals straightens consistently
    w = parse_word("r s1_2 r r", "AC", 3)
    p = LabeledPoint(W111, (0, 1, 1))
    assert act_word(A1, w, p) == act(A1, AffineS(2, 3), p)
