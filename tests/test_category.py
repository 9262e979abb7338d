import hashlib
import json
import time
from dataclasses import replace

import pytest

from cactus_crystal import clear_caches
from cactus_crystal.cartan import cartan_type_a
from cactus_crystal.category_data import (
    CategoryData,
    CategoryError,
    UNIT_X,
    category_from_covering,
    category_from_json,
    category_to_json,
    covering_from_category,
    from_crystals,
    is_valid,
    mutate_category,
    needed_pairs,
    needed_triples,
    validate,
    verify_fiber_system,
)
from cactus_crystal.crystal import (build_irreducible, product_heads,
                                    product_of_weights, tensor,
                                    weyl_dimension)

A1 = cartan_type_a(1)
A2 = cartan_type_a(2)
A3 = cartan_type_a(3)

CORE_A1 = [(0,), (1,), (2,)]
CORE_A2 = [(0, 0), (1, 0), (0, 1), (1, 1)]
# the minuscule colours of A3 with the adjoint
CORE_A3 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)]


@pytest.fixture(scope="module")
def a1_data():
    return from_crystals(A1, CORE_A1)


@pytest.fixture(scope="module")
def a1_cover(a1_data):
    return covering_from_category(a1_data)


@pytest.fixture
def terminal_category():
    """One colour, one element, one morphism everywhere."""
    star = UNIT_X
    return CategoryData(
        core_colours=(star,),
        cl={star: ("0",)},
        mult={(star, star, star): ("0",)},
        sigma={(star, star): {("0", "0"): ("0", "0")}},
        phi={(star, star): {(star, "0", "0"): ("0", "0")}},
        assoc={(star, star, star): {(star, star, "0", "0"):
                                    (star, star, "0", "0")}},
    )


def test_terminal_category_is_valid(terminal_category):
    data = terminal_category
    assert is_valid(data)
    assert category_from_covering(covering_from_category(data)) == data


def test_from_crystals_rejects_repeats():
    with pytest.raises(CategoryError):
        from_crystals(A1, [(1,), (1,)])


def test_a1_core_validates(a1_data):
    rep = validate(a1_data)
    assert rep["passed"] is True
    assert rep["failures"] == []
    names = {c["check"] for c in rep["checks"]}
    assert {"colour_sets", "mult_sets", "phi_bijection", "sigma_bijection",
            "assoc_bijection", "involutivity", "hexagon",
            "collapsed_pentagon", "pentagon"} <= names


def test_colour_list_contents(a1_data):
    assert set(a1_data.core_colours) == set(CORE_A1)
    # B(1) x B(1) = B(2) + B(0), so the closure adds nothing new here
    assert a1_data.comp((1,), (1,)) == [(0,), (2,)]
    assert len(a1_data.cl[(1,)]) == 2


def test_needed_pairs_tiers(a1_data):
    np_ = needed_pairs(a1_data.core_colours, a1_data.comp)
    assert set(np_["mult"]) >= set(np_["phi"]) | set(np_["sigma"])
    for a, b in np_["sigma"]:
        if a in a1_data.core_colours and b in a1_data.core_colours:
            assert (b, a) in np_["sigma"]
    stored_phi = set(a1_data.phi)
    assert set(np_["phi"]) <= stored_phi


def test_needed_triples_contains_core_cube(a1_data):
    core = a1_data.core_colours
    triples = needed_triples(core, a1_data.comp)
    for a in core:
        for b in core:
            for c in core:
                assert (a, b, c) in triples


def test_json_roundtrip(a1_data):
    doc = category_to_json(a1_data)
    assert doc["format"] == "coboundary-category-data"
    text = json.dumps(doc)  # must be serializable as-is
    back = category_from_json(json.loads(text))
    assert back == a1_data


def test_json_rejects_other_documents():
    with pytest.raises(CategoryError):
        category_from_json({"format": "crystal-graph"})


@pytest.mark.parametrize("seed", range(20))
def test_mutations_always_detected(a1_data, seed):
    mutant, note = mutate_category(a1_data, seed=seed)
    assert note["kind"] in ("sigma", "phi", "assoc")
    assert not is_valid(mutant)


def test_mutation_leaves_original_alone(a1_data):
    before = category_to_json(a1_data)
    mutate_category(a1_data, seed=1)
    assert category_to_json(a1_data) == before


def test_covering_shape(a1_cover, a1_data):
    fs = a1_cover
    assert fs.depth == 3
    assert fs.core_colours == a1_data.core_colours
    # singleton tuples cover only their own colour
    for c in a1_data.cl:
        assert fs.x[((c,), c)] == (UNIT_X,)
        for mu in a1_data.cl:
            if mu != c:
                assert fs.x[((c,), mu)] == ()
    for (a, b, mu), ids in a1_data.mult.items():
        assert fs.x[((a, b), mu)] == ids


def test_covering_verifies(a1_cover):
    rep = verify_fiber_system(a1_cover)
    assert rep["passed"] is True, rep["failures"][:2]
    names = {c["check"] for c in rep["checks"]}
    assert {"x_fibres", "e_act_bijection", "concat_equivariance",
            "transport_equivariance", "glue_naturality"} <= names


def test_roundtrip_is_literal_inverse(a1_data, a1_cover):
    assert category_from_covering(a1_cover) == a1_data


def test_double_roundtrip_idempotent(a1_data):
    once = covering_from_category(a1_data)
    back = category_from_covering(once)
    twice = covering_from_category(back)
    assert twice == once


def test_covering_refuses_invalid_input(a1_data):
    mutant, _ = mutate_category(a1_data, seed=3)
    with pytest.raises(CategoryError, match="refusing"):
        covering_from_category(mutant)


def _tampered(fs, **overrides):
    return replace(fs, **overrides)


def _failed_and_ok(rep):
    """Check names that a report marks both failed and ok."""
    return ({c["check"] for c in rep["failures"]}
            & {c["check"] for c in rep["checks"] if c["ok"]})


def test_tampered_pair_action_detected(a1_cover):
    pair = ((1,), (1,))
    key = (pair, ("s", 1, 2))
    table = dict(a1_cover.e_act[key])
    k1, k2 = sorted(table)[:2]
    table[k1], table[k2] = table[k2], table[k1]
    e_act = dict(a1_cover.e_act)
    e_act[key] = table
    rep = verify_fiber_system(_tampered(a1_cover, e_act=e_act))
    assert rep["passed"] is False
    assert any(c["check"] in ("concat_equivariance", "e_act_bijection",
                              "transport_equivariance")
               for c in rep["failures"])
    assert _failed_and_ok(rep) == set()


def test_tampered_glue_map_detected(a1_cover):
    target = None
    for triple, table in sorted(a1_cover.gamma2.items(), key=repr):
        if len(table) >= 2:
            target = triple
            break
    assert target is not None
    table = dict(a1_cover.gamma2[target])
    k1, k2 = sorted(table, key=repr)[:2]
    table[k1], table[k2] = table[k2], table[k1]
    gamma2 = dict(a1_cover.gamma2)
    gamma2[target] = table
    fs = _tampered(a1_cover, gamma2=gamma2)
    bad_cat = category_from_covering(fs)
    assert not is_valid(bad_cat)


@pytest.mark.parametrize("table,key,check", [
    ("transport", ((2,), (0,)), "transport_equivariance"),
    ("e1", (4,), "e_act_bijection"),
    ("e_act", (((1,), (2,)), ("s", 1, 2)), "concat_equivariance"),
    ("x_act", (((1,), (1,), (2,)), ("s", 2, 3)), "glue_naturality"),
    ("gamma1", ((1,), (4,), (1,)), "glue_naturality"),
    ("gamma1", ((0,), (2,), (1,)), "glue_naturality"),
])
def test_incomplete_covering_is_a_named_failure(a1_cover, table, key, check):
    entries = dict(getattr(a1_cover, table))
    del entries[key]
    rep = verify_fiber_system(_tampered(a1_cover, **{table: entries}))
    assert rep["passed"] is False
    assert any(f["check"] == check and f["detail"] == "missing data: %s" % (key,)
               for f in rep["failures"]), rep["failures"][:3]
    assert all(f["detail"].startswith("missing data: ") for f in rep["failures"])
    assert _failed_and_ok(rep) == set()


def test_json_names_a_missing_table(a1_data):
    doc = category_to_json(a1_data)
    del doc["cl"]
    with pytest.raises(CategoryError, match="'cl'"):
        category_from_json(doc)


@pytest.mark.parametrize("patch", [
    {"mult": 5},
    {"sigma": [["0", "1"]]},
    {"phi": [["0", "0", [[["0", "0"], ["0", "0"]]]]]},
    {"cl": {"0": 7}},
])
def test_json_malformed_tables_are_category_errors(a1_data, patch):
    doc = dict(category_to_json(a1_data), **patch)
    with pytest.raises(CategoryError, match="malformed"):
        category_from_json(doc)


# one extra field in a phi key, an assoc key or an assoc value
@pytest.mark.parametrize("table, path", [
    ("phi", (0, 2, 0, 0)),
    ("assoc", (0, 3, 0, 0)),
    ("assoc", (0, 3, 0, 1)),
], ids=["phi_key", "assoc_key", "assoc_value"])
def test_json_extra_entry_fields_are_category_errors(a1_data, table, path):
    doc = category_to_json(a1_data)
    entry = doc[table]
    for k in path:
        entry = entry[k]
    entry.append("junk")
    with pytest.raises(CategoryError, match="malformed category data"):
        category_from_json(doc)


# a JSON string where a list belongs: tuple() and unpacking would read its
# characters, and each of these would load equal to the clean data
@pytest.mark.parametrize("path, text", [
    (("sigma", 0, 2, 0, 0), "00"),
    (("phi", 0, 2, 0, 1), "00"),
    (("cl", "1"), "01"),
    (("mult", 0, 3), "0"),
    (("phi", 0, 2, 0, 0), "000"),
    (("assoc", 0, 3, 0, 0), "0000"),
    (("assoc", 0, 3, 0, 1), "0000"),
    (("core_colours",), "012"),
], ids=["sigma_key", "phi_value", "cl_list", "mult_ids", "phi_key",
        "assoc_key", "assoc_value", "core_colours"])
def test_json_string_for_a_list_is_a_category_error(a1_data, path, text):
    doc = category_to_json(a1_data)
    entry = doc
    for k in path[:-1]:
        entry = entry[k]
    assert "".join(entry[path[-1]]) == text
    entry[path[-1]] = text
    with pytest.raises(CategoryError, match="malformed category data: "
                                            "expected a list, not '%s'" % text):
        category_from_json(doc)


def test_mutant_shares_the_comp_index(a1_data):
    for seed in range(20):
        mutant, _ = mutate_category(a1_data, seed=seed)
        assert mutant._comp is a1_data._comp
        assert mutant.mult is a1_data.mult


def test_validate_reports_missing_sigma_table(a1_data):
    sigma = dict(a1_data.sigma)
    del sigma[((1,), (2,))]
    data = replace(a1_data, sigma=sigma)
    rep = validate(data)
    assert rep["passed"] is False
    assert rep["failures"][0] == {
        "check": "hexagon", "instance": str(((0,), (1,), (2,))), "ok": False,
        "detail": "missing data: %s" % (((1,), (2,)),)}
    assert {f["check"] for f in rep["failures"]} == {"hexagon"}
    assert not is_valid(data)


@pytest.mark.parametrize("colour", [(0,), (3,), (6,)])
def test_validate_reports_missing_element_set(a1_data, colour):
    cl = dict(a1_data.cl)
    del cl[colour]
    data = replace(a1_data, cl=cl)
    rep = validate(data)
    assert rep["passed"] is False
    assert {"mult_sets", "phi_bijection"} <= {f["check"]
                                              for f in rep["failures"]}
    assert any(f["check"] == "phi_bijection"
               and f["detail"] == "no element set for %r" % ([colour],)
               for f in rep["failures"])
    assert not is_valid(data)


# -- the derived indexes against plain scans -------------------------------


def _scan_comp(data, a, b):
    # all colours of these cores are integer tuples, so plain order applies
    return sorted({mu for (x, y, mu) in data.mult if (x, y) == (a, b)})


def _assert_comp_matches_scan(data):
    colours = sorted(set(data.cl) | {mu for key in data.mult for mu in key},
                     key=repr) + ["not a colour"]
    for a in colours:
        for b in colours:
            assert data.comp(a, b) == _scan_comp(data, a, b), (a, b)
    # the answer is a fresh list
    pair = next(iter(data.mult))[:2]
    data.comp(*pair).append("junk")
    assert "junk" not in data.comp(*pair)
    assert data.comp("not a colour", "not a colour") == []


@pytest.fixture(scope="module")
def a2_data():
    return from_crystals(A2, CORE_A2)


@pytest.fixture(params=["A1", "A2"])
def core_data(request, a1_data, a2_data):
    return {"A1": a1_data, "A2": a2_data}[request.param]


def test_mutant_shares_every_table_it_does_not_patch(a2_data):
    before = category_to_json(a2_data)
    kinds = set()
    for seed in range(8):
        mutant, note = mutate_category(a2_data, seed=seed)
        kinds.add(note["kind"])
        assert category_to_json(a2_data) == before, seed
        for name in ("cl", "mult", "sigma", "phi", "assoc"):
            tables, original = getattr(mutant, name), getattr(a2_data, name)
            if name != note["kind"]:
                assert tables is original, (seed, name)
                continue
            assert tables is not original and tables.keys() == original.keys()
            for key, table in tables.items():
                if repr(key) == note["where"]:
                    assert table is not original[key] and table != original[key]
                else:
                    assert table is original[key], (seed, key)
    assert kinds == {"sigma", "phi", "assoc"}


def test_full_report_never_marks_a_failed_check_ok(core_data):
    for seed in range(8):
        mutant, note = mutate_category(core_data, seed=seed)
        rep = validate(mutant)
        assert rep["passed"] is False, note
        assert _failed_and_ok(rep) == set(), (seed, note)
        assert validate(mutant, fail_fast=True)["failures"] \
            == rep["failures"][:1], (seed, note)


# sha256 of the sorted-key JSON dump of category_to_json(from_crystals(core))
FROZEN_CATEGORY_DIGESTS = {
    CORE_A1[0]: "48449426ca9f8050e159a146680969217870c0ea42b6527e65b24b1e4a75ada8",
    CORE_A2[0]: "31e119e67a96770ed4671b77c06320193384fb3d147f21b8277f6cf7ae5d2b5c",
}


def test_from_crystals_output_is_frozen(core_data):
    text = json.dumps(category_to_json(core_data), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() \
        == FROZEN_CATEGORY_DIGESTS[core_data.core_colours[0]]


def _validator_inputs(data):
    """The core, its mutants for seeds 0..19, and the core with one cl, one
    sigma and one assoc entry deleted (the middle key in repr order)."""
    yield data
    for seed in range(20):
        yield mutate_category(data, seed=seed)[0]
    for name in ("cl", "sigma", "assoc"):
        table = dict(getattr(data, name))
        del table[sorted(table, key=repr)[len(table) // 2]]
        yield replace(data, **{name: table})


# sha256 of the sorted-key JSON dump of the list of validate reports over
# _validator_inputs(core), by first core colour and fail_fast
FROZEN_REPORT_DIGESTS = {
    (CORE_A1[0], False):
        "55dced1c123c9a82d737c65dc5bc6baeac23f00899c6bf8cb35e4f2cbd57016a",
    (CORE_A1[0], True):
        "5e7e8439245ea2836a857d41c91ae1e14282ec25abcee4e27e35721d3ccbad96",
    (CORE_A2[0], False):
        "e5ead633e8df5f1efce83faf615128cf4c0dfda8c78739893b35e2ff4128774f",
    (CORE_A2[0], True):
        "aa339c32efd91e83128b12e36a540d607770e160b119251b44df91f10f642883",
}


@pytest.mark.parametrize("fail_fast", [False, True])
def test_validator_reports_are_frozen(core_data, fail_fast):
    reports = [validate(data, fail_fast=fail_fast)
               for data in _validator_inputs(core_data)]
    assert sum(not rep["passed"] for rep in reports) == len(reports) - 1
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() \
        == FROZEN_REPORT_DIGESTS[(core_data.core_colours[0], fail_fast)]


def test_full_report_lists_each_instance_once(core_data):
    for data in _validator_inputs(core_data):
        failures = [(f["check"], f["instance"])
                    for f in validate(data)["failures"]]
        assert len(failures) == len(set(failures)), failures


def test_comp_index_matches_scan(core_data):
    _assert_comp_matches_scan(core_data)


def test_comp_index_matches_scan_on_mutants(core_data):
    for seed in range(20):
        mutant, _ = mutate_category(core_data, seed=seed)
        _assert_comp_matches_scan(mutant)


def test_comp_index_matches_scan_after_json(core_data):
    back = category_from_json(json.loads(json.dumps(
        category_to_json(core_data))))
    assert back == core_data
    _assert_comp_matches_scan(back)


def test_comp_index_is_built_per_object(a1_data):
    # dropping one ordered pair makes mult asymmetric
    mult = {k: v for k, v in a1_data.mult.items()
            if k[:2] != ((1,), (2,))}
    data = CategoryData(a1_data.core_colours, a1_data.cl, mult,
                        a1_data.sigma, a1_data.phi, a1_data.assoc)
    _assert_comp_matches_scan(data)
    assert data.comp((1,), (2,)) == []
    assert data.comp((2,), (1,)) == [(1,), (3,)]
    assert a1_data.comp((1,), (2,)) == [(1,), (3,)]
    assert data != a1_data
    assert replace(data, mult=a1_data.mult) == a1_data
    assert replace(data, mult=a1_data.mult).comp((1,), (2,)) == [(1,), (3,)]


def _scan_heads(graph):
    return [b for b in graph.elements()
            if all(graph.e(i, b) is None for i in graph.index_range())]


@pytest.fixture(scope="module")
def a3_data():
    return from_crystals(A3, CORE_A3)


@pytest.mark.parametrize("core", ["A1", "A2", "A3"])
def test_highest_weight_cache_matches_scan(core, request):
    data = request.getfixturevalue(core.lower() + "_data")
    cartan = cartan_type_a(len(data.core_colours[0]))
    pairs = needed_pairs(data.core_colours, data.comp)["mult"]
    assert pairs
    for a, b in pairs:
        t = tensor(build_irreducible(cartan, a), build_irreducible(cartan, b))
        scan = _scan_heads(t)
        heads = t.highest_weight_elements()
        assert heads == scan, (a, b)
        heads.append(-1)
        assert t.highest_weight_elements() == scan
        by_weight = {}
        for h in scan:
            by_weight.setdefault(t.wt(h), []).append(h)
        assert product_heads(cartan, a, b) \
            == {wt: tuple(hs) for wt, hs in by_weight.items()}, (a, b)
        assert sorted(data.comp(a, b)) == sorted(by_weight)


def test_a3_adjoint_core_builds_validates_and_round_trips():
    clear_caches()
    start = time.monotonic()
    data = from_crystals(A3, CORE_A3)
    assert validate(data)["passed"] is True
    fs = covering_from_category(data)
    assert verify_fiber_system(fs)["passed"] is True
    assert category_from_covering(fs) == data
    elapsed = time.monotonic() - start
    text = json.dumps(category_to_json(data), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() \
        == "5e95e8bfca532019bedf44cc503b57b0a46bade748ec7a209a9d16189219e1d9"
    # the cached products stand in for memory: only the phi and sigma pairs
    assert product_of_weights.cache_info().currsize <= 135
    assert elapsed < 15, elapsed


@pytest.mark.parametrize("cartan, core, built", [(A2, CORE_A2, 20),
                                                  (A3, CORE_A3, 38)],
                         ids=["A2", "A3"])
def test_from_crystals_builds_only_the_irreducibles_it_walks(cartan, core,
                                                             built):
    clear_caches()
    data = from_crystals(cartan, core)
    # colour sets are sized by the Weyl dimension, not by a built crystal
    assert build_irreducible.cache_info().currsize == built
    for colour, ids in data.cl.items():
        assert len(ids) == weyl_dimension(cartan, colour), colour


def test_highest_weight_cache_leaves_equality_alone():
    left = tensor(build_irreducible(A2, (1, 0)), build_irreducible(A2, (1, 1)))
    right = tensor(build_irreducible(A2, (1, 0)), build_irreducible(A2, (1, 1)))
    assert left is not right
    text = repr(right)
    left.highest_weight_elements()
    assert left == right and right == left
    assert repr(left) == text
    right.highest_weight_elements()
    assert left == right
