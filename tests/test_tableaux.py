from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from cactus_crystal import actions, tableaux
from cactus_crystal.crystal import CrystalError, semistandard_tableaux
from cactus_crystal.groups import (PermGen, defining_relation_families,
                                   format_word)
from cactus_crystal.tableaux import (
    TableauError,
    _numbered_once,
    bender_knuth,
    bk_braid_witness,
    bk_cactus_act,
    check_tableau,
    count_standard_tableaux,
    evacuation,
    partial_evacuation,
    partitions_of,
    rsk,
    rsk_crosscheck,
    rsk_inverse,
    shape,
    size,
    standard_tableaux,
)


def hook_length_count(shp):
    """Independent counting oracle for standard tableaux."""
    if not shp:
        return 1
    cols = [sum(1 for r in shp if r > c) for c in range(shp[0])]
    prod = 1
    for r, row in enumerate(shp):
        for c in range(row):
            prod *= (row - c - 1) + (cols[c] - r - 1) + 1
    return factorial(sum(shp)) // prod


def syt(shp):
    return sorted(standard_tableaux(shp))


def test_partitions_of_five():
    assert partitions_of(5) == [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1),
                                (2, 1, 1, 1), (1, 1, 1, 1, 1)]


@pytest.mark.parametrize("n", range(1, 7))
def test_standard_counts_match_hooks(n):
    for shp in partitions_of(n):
        assert len(standard_tableaux(shp)) == hook_length_count(shp)
        assert count_standard_tableaux(shp) == hook_length_count(shp)


def test_semistandard_count_is_a2_dimension():
    # shape (2,1) with entries <= 3 indexes the 8-element adjoint crystal
    assert len(semistandard_tableaux((2, 1), 3)) == 8


@pytest.mark.parametrize("shp", [(1, 2), (2, 0), (0,)])
def test_enumerators_and_counts_refuse_non_partitions(shp):
    for f in (standard_tableaux, count_standard_tableaux):
        with pytest.raises(TableauError, match="not a partition"):
            f(shp)
    with pytest.raises(CrystalError, match="not a partition"):
        semistandard_tableaux(shp, 3)


def test_check_tableau_errors():
    with pytest.raises(TableauError):
        check_tableau(((1,), (2, 3)))
    with pytest.raises(TableauError):
        check_tableau(((2, 1),))
    with pytest.raises(TableauError):
        check_tableau(((1, 2), (1,)))


def test_rsk_frozen():
    assert rsk((3, 1, 2)) == (((1, 2), (3,)), ((1, 3), (2,)))


def test_rsk_of_repeats():
    p, q = rsk((2, 1, 1, 2))
    assert check_tableau(p) == p and check_tableau(q) == q
    assert _numbered_once(q) and not _numbered_once(p)
    assert shape(p) == shape(q)


@given(st.permutations(list(range(1, 6))))
@settings(deadline=None, max_examples=60)
def test_rsk_roundtrip_on_permutations(a):
    a = tuple(a)
    p, q = rsk(a)
    assert rsk_inverse(p, q) == a


@given(st.lists(st.integers(1, 3), min_size=1, max_size=6))
@settings(deadline=None, max_examples=60)
def test_rsk_roundtrip_on_words(a):
    a = tuple(a)
    p, q = rsk(a)
    assert rsk_inverse(p, q) == a


def test_rsk_inverse_validates():
    with pytest.raises(TableauError):
        rsk_inverse(((1, 2),), ((1,), (2,)))
    with pytest.raises(TableauError):
        rsk_inverse(((1, 2),), ((1, 1),))
    with pytest.raises(TableauError):     # a recording entry below 1
        rsk_inverse(((1, 2),), ((0, 1),))


def test_evacuation_frozen():
    assert evacuation(((1, 2), (3,))) == ((1, 3), (2,))


def test_evacuation_rejects_semistandard_input():
    with pytest.raises(TableauError):
        evacuation(((1, 1),))


@pytest.mark.parametrize("t, message", [
    (((1, 1),), "wants a standard tableau"),
    (((1, 4), (2,)), "wants a standard tableau"),
    (((0, 1),), "wants a standard tableau"),
    (((2, 1),), "row decreases"),
    (((1, 2), (1,)), "column does not increase"),
    (((1,), (2, 3)), "partition shape"),
])
def test_evacuations_refuse_what_is_not_standard(t, message):
    refusers = [evacuation, lambda t: partial_evacuation(1, t),
                lambda t: bk_cactus_act(1, 2, t)]
    if "standard" not in message:     # not even semistandard
        refusers.append(lambda t: bender_knuth(1, t))
    for refuse in refusers:
        with pytest.raises(TableauError, match=message):
            refuse(t)


@pytest.mark.parametrize("shp", [(3,), (2, 1), (2, 2), (3, 2), (2, 2, 1)])
def test_evacuation_involution(shp):
    for t in syt(shp):
        assert evacuation(evacuation(t)) == t


def test_partial_evacuation_edges():
    t = ((1, 3), (2, 4))
    assert partial_evacuation(0, t) == t
    assert partial_evacuation(1, t) == t
    assert partial_evacuation(size(t), t) == evacuation(t)
    with pytest.raises(TableauError):
        partial_evacuation(5, t)


def test_partial_evacuation_keeps_suffix():
    t = ((1, 2, 5), (3, 4))
    out = partial_evacuation(4, t)
    assert out[0][2] == 5
    assert sorted(v for row in out for v in row) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("shp", [(2, 1), (2, 2), (2, 2, 1)])
def test_bk_cactus_involution(shp):
    n = sum(shp)
    for t in syt(shp):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                assert bk_cactus_act(i, j, bk_cactus_act(i, j, t)) == t


def test_bk_cactus_interval_validated():
    with pytest.raises(TableauError):
        bk_cactus_act(2, 2, ((1, 2), (3,)))


@pytest.mark.parametrize("n", range(1, 7))
def test_cactus_kernel_matches_the_checked_chain(n):
    # q_ij = q_1j q_{1,j-i+1} q_1j through the public, checked calls
    for shp in partitions_of(n):
        for t in syt(shp):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    want = partial_evacuation(j, t)
                    if i > 1:
                        want = partial_evacuation(
                            j, partial_evacuation(j - i + 1, want))
                    assert bk_cactus_act(i, j, t) == want


@pytest.mark.parametrize("i, j, t, message", [
    (2, 2, ((1, 1),), r"bad interval \[2, 2\]"),
    (0, 2, ((2, 1),), r"bad interval \[0, 2\]"),
    (1, 3, ((1, 2),), r"bad interval \[1, 3\]"),
    (1, 2, ((1, 1),), "partial evacuation wants a standard tableau"),
    (1, 3, ((1, 4), (2,)), "partial evacuation wants a standard tableau"),
])
def test_cactus_act_refuses_the_interval_then_the_tableau(i, j, t, message):
    with pytest.raises(TableauError, match=message):
        bk_cactus_act(i, j, t)


@pytest.mark.parametrize("i, t, message", [
    (0, ((2, 1),), "row decreases"),
    (0, ((1, 2),), "index must be positive"),
    # entries need not be integers: 1.5 or 2.5 parts the free entries
    (1, ((1, 1.5, 2),), "not contiguous"),
    (2, ((1, 1, 1), (2, 2.5, 3)), "not contiguous"),
])
def test_bender_knuth_refuses_what_is_not_semistandard(i, t, message):
    with pytest.raises(TableauError, match=message):
        bender_knuth(i, t)


def test_bk_cactus_satisfies_interval_relations():
    shp = (2, 2, 1)
    tabs = syt(shp)
    assert len(tabs) == 5
    n = sum(shp)

    def act_word(w, t):
        for g in w.gens:
            t = bk_cactus_act(g.i, g.j, t)
        return t

    for _, lhs, rhs in defining_relation_families("C", n):
        for t in tabs:
            assert act_word(lhs, t) == act_word(rhs, t), \
                "%s vs %s" % (format_word(lhs), format_word(rhs))


def test_bender_knuth_frozen_and_involutive():
    assert bender_knuth(1, ((1, 1, 2),)) == ((1, 2, 2),)
    for shp in (p for n in range(1, 6) for p in partitions_of(n)):
        for t in semistandard_tableaux(shp, 4) if len(shp) <= 4 else ():
            for i in (1, 2, 3):
                out = bender_knuth(i, t)
                assert shape(out) == shape(t) and bender_knuth(i, out) == t
                # the counts of i and i+1 trade places
                swapped = [{i: i + 1, i + 1: i}.get(v, v)
                           for row in t for v in row]
                assert sorted(v for row in out for v in row) == sorted(swapped)


def test_bender_knuth_balanced_row_is_fixed():
    # one free 1 and one free 2: swapping the counts changes nothing
    assert bender_knuth(1, ((1, 2, 3),)) == ((1, 2, 3),)
    # two free 2s and no free 3: the counts trade places
    assert bender_knuth(2, ((1, 2, 2),)) == ((1, 3, 3),)


def test_braid_witness_frozen():
    w = bk_braid_witness()
    assert w is not None
    assert w["cells"] == 3
    assert w["tableau"] == ((1, 2), (3,))
    assert w["index"] == 1


def test_braid_witness_none_when_capped():
    assert bk_braid_witness(max_cells=2) is None


def _plain_braid_witness(max_cells, max_entry):
    """Every shape and index, with no early exit: the oracle."""
    for n in range(1, max_cells + 1):
        for shp in partitions_of(n):
            for t in sorted(semistandard_tableaux(shp, max_entry)):
                for i in range(1, max_entry - 1):
                    lhs = bender_knuth(i, bender_knuth(i + 1, bender_knuth(i, t)))
                    rhs = bender_knuth(i + 1, bender_knuth(i, bender_knuth(i + 1, t)))
                    if lhs != rhs:
                        return t, i
    return None


@pytest.mark.parametrize("max_entry", [1, 2, 3, 4])
@pytest.mark.parametrize("max_cells", [1, 3, 5])
def test_braid_witness_matches_the_plain_scan(max_cells, max_entry):
    w = bk_braid_witness(max_cells=max_cells, max_entry=max_entry)
    found = None if w is None else (w["tableau"], w["index"])
    assert found == _plain_braid_witness(max_cells, max_entry)


def test_rsk_crosscheck_story():
    rep = rsk_crosscheck(3)
    assert rep["passed"] is True
    assert rep["perm_rule"] == ["precompose"]
    assert rep["winners"] == ["one-line/Q", "inverse/P"]
    assert rep["stories"]["one-line/P"] is False
    assert rep["stories"]["inverse/Q"] is False


# the report of the sweep without memoised RSK or partial evacuation; it is
# the same for n = 3, 4 and 5 apart from "n"
RECORDED_CROSSCHECK = {
    "perm_rule": ["precompose"],
    "perm_formula": {"precompose": "out(k) = a(w(k))",
                     "postcompose": "out(k) = w(a(k))"},
    "stories": {"one-line/P": False, "one-line/Q": True,
                "inverse/P": True, "inverse/Q": False},
    "winners": ["one-line/Q", "inverse/P"],
    "passed": True,
}


def test_rsk_crosscheck_respects_point_budget(monkeypatch):
    monkeypatch.setenv("CACTUS_CRYSTAL_MAX_POINTS", "100")
    with pytest.raises(TableauError, match="CACTUS_CRYSTAL_MAX_POINTS"):
        rsk_crosscheck(5)
    monkeypatch.setenv("CACTUS_CRYSTAL_MAX_POINTS", "256")
    assert rsk_crosscheck(4)["passed"] is True
    monkeypatch.delenv("CACTUS_CRYSTAL_MAX_POINTS")
    with pytest.raises(TableauError, match="10000000000 points"):
        rsk_crosscheck(10)


# at n = 2 both permutation rules and all four stories hold
RECORDED_CROSSCHECK_2 = dict(
    RECORDED_CROSSCHECK, n=2, perm_rule=["precompose", "postcompose"],
    stories=dict.fromkeys(RECORDED_CROSSCHECK["stories"], True),
    winners=["one-line/P", "one-line/Q", "inverse/P", "inverse/Q"])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rsk_crosscheck_matches_recorded_report(n):
    rep = rsk_crosscheck(n)
    assert rep == (RECORDED_CROSSCHECK_2 if n == 2
                   else dict(RECORDED_CROSSCHECK, n=n))
    assert list(rep) == ["n", "perm_rule", "perm_formula", "stories",
                         "winners", "passed"]
    assert list(rep["stories"]) == list(RECORDED_CROSSCHECK["stories"])


def test_rsk_crosscheck_fails_loudly_when_a_word_leaves_the_permutations(
        monkeypatch):
    right = actions.reversal_table

    def collapsing(cartan, weights):
        # every entry tuple goes to the image of the first one
        table = right(cartan, weights)
        return {k: table[min(table)] for k in table}

    monkeypatch.setattr(actions, "reversal_table", collapsing)
    with pytest.raises(TableauError, match=r"letter s1_2 maps the permutation "
                                           r"word \(1, 2, 3\) to \(1, 1, 3\), "
                                           r"which is not a permutation"):
        rsk_crosscheck(3)
    monkeypatch.setattr(actions, "reversal_table", right)
    assert rsk_crosscheck(3)["passed"] is True


def test_rsk_crosscheck_stopping_early_hides_no_fault(monkeypatch):
    right = tableaux.bk_cactus_act

    def wrong_at_1_4(i, j, t):  # q_14, evacuation at n = 4, does nothing
        return check_tableau(t) if (i, j) == (1, 4) else right(i, j, t)

    monkeypatch.setattr(tableaux, "bk_cactus_act", wrong_at_1_4)
    rep = rsk_crosscheck(4)
    assert rep["stories"] == dict.fromkeys(RECORDED_CROSSCHECK["stories"],
                                           False)
    assert rep["winners"] == [] and rep["passed"] is False
    assert rep["perm_rule"] == ["precompose"]


def test_rsk_crosscheck_stopping_early_hides_no_wrong_permutation(
        monkeypatch):
    right = actions._resolve

    def swapped(cartan, g, weights, budget=None):  # w[2,3,1] acts as w[3,1,2]
        if isinstance(g, PermGen) and g.perm == (2, 3, 1):
            g = PermGen((3, 1, 2))
        return right(cartan, g, weights, budget)

    monkeypatch.setattr(actions, "_resolve", swapped)
    rep = rsk_crosscheck(3)
    assert rep["perm_rule"] == [] and rep["passed"] is False
    assert rep["winners"] == ["one-line/Q", "inverse/P"]
