import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cactus_crystal
from cactus_crystal import CactusError, category_data
from cactus_crystal.actions import LabeledPoint, act_word
from cactus_crystal.cartan import CartanError, cartan_type_a
from cactus_crystal.category_data import (
    CategoryError,
    category_to_json,
    from_crystals,
    mutate_category,
)
from cactus_crystal.cli import UsageError, main
from cactus_crystal.crystal import CrystalError
from cactus_crystal.groups import GroupError, parse_word
from cactus_crystal.perms import PermError
from cactus_crystal.tableaux import TableauError


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.startswith("{") else None
    return code, payload, captured


def test_crystal_json(capsys):
    code, payload, _ = run(capsys, ["crystal", "--cartan", "A2",
                                    "--weight", "1,0"])
    assert code == 0
    assert payload["command"] == "crystal" and payload["ok"] is True
    assert payload["size"] == 3
    assert len(payload["graph"]["elements"]) == 3


def test_crystal_dot(capsys):
    code, _, captured = run(capsys, ["crystal", "--weight", "2",
                                     "--emit", "dot"])
    assert code == 0
    assert captured.out.startswith("digraph")


def test_crystal_out_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code, payload, captured = run(capsys, ["crystal", "--weight", "1",
                                           "--out", str(target)])
    assert code == 0 and payload is None and captured.out == ""
    assert json.loads(target.read_text())["size"] == 2


def test_bad_weight_is_usage_error(capsys):
    code, _, captured = run(capsys, ["crystal", "--weight", "x"])
    assert code == 2
    assert captured.err.startswith("error:")


def test_bad_cartan_name(capsys):
    code, _, captured = run(capsys, ["crystal", "--cartan", "B2",
                                     "--weight", "1,0"])
    assert code == 2
    assert "A<rank>" in captured.err


def test_tensor_components(capsys):
    code, payload, _ = run(capsys, ["tensor", "--weights", "1 1"])
    assert code == 0
    assert payload["components"] == [
        {"head": 0, "weight": [2], "size": 3},
        {"head": 2, "weight": [0], "size": 1},
    ]
    assert payload["normality"]["status"] == "normal"


def test_commutor_identity_pair(capsys):
    code, payload, _ = run(capsys, ["commutor", "--left", "1", "--right", "1"])
    assert code == 0
    assert payload["pairs"] == [[0, 0], [1, 1], [2, 2], [3, 3]]


def test_group_relations(capsys):
    code, payload, _ = run(capsys, ["group", "--kind", "C", "--n", "3",
                                    "--relations"])
    assert code == 0
    assert len(payload["relations"]) == 5
    fams = {r["family"] for r in payload["relations"]}
    assert fams == {"involution", "nesting"}


def test_group_project(capsys):
    code, payload, _ = run(capsys, ["group", "--kind", "C", "--n", "3",
                                    "--project", "s1_2 s1_3"])
    assert code == 0
    assert payload["projection"] == [3, 1, 2]


def test_group_s0j(capsys):
    code, payload, _ = run(capsys, ["group", "--kind", "MC", "--n", "4",
                                    "--s0j", "2"])
    assert code == 0
    assert payload["word"] == "t0 t1 t0 t2 t1 t0"
    assert payload["projection"] == [3, 2, 1, 0, 4]


def test_group_cabling(capsys):
    code, payload, _ = run(capsys, ["group", "--n", "4",
                                    "--cabling", "w[2,3,1];2,3"])
    assert code == 0
    assert payload["cabled"] == [2, 3, 4, 1]


def test_group_to_virtual(capsys):
    code, payload, _ = run(capsys, ["group", "--kind", "AC", "--n", "3",
                                    "--to-virtual", "s3_1"])
    assert code == 0
    assert payload["image"] == "w[3,1,2] s1_2 w[2,3,1]"


def test_group_needs_a_mode(capsys):
    code, _, captured = run(capsys, ["group", "--n", "3"])
    assert code == 2 and "choose one of" in captured.err


def test_act_matches_library(capsys):
    code, payload, _ = run(capsys, ["act", "--weights", "1 2",
                                    "--word", "s1_2", "--point", "0,1"])
    assert code == 0
    cartan = cartan_type_a(1)
    w = parse_word("s1_2", "C", 2)
    out = act_word(cartan, w, LabeledPoint(((1,), (2,)), (0, 1)))
    assert payload["image"] == {"weights": [list(x) for x in out.weights],
                                "entries": list(out.entries)}
    assert payload["image"]["weights"] == [[2], [1]]


def test_verify_passing(capsys):
    code, payload, _ = run(capsys, ["verify", "--kind", "C", "--n", "3",
                                    "--weights", "1 1 1"])
    assert code == 0
    assert payload["passed"] is True and payload["points"] == 8


def test_verify_choices_and_threads(capsys):
    code, payload, _ = run(capsys, ["verify", "--kind", "vC", "--n", "3",
                                    "--choices", "1"])
    assert code == 0 and payload["passed"] is True


def test_verify_one_factor_is_usage_error(capsys):
    code, _, captured = run(capsys, ["verify", "--kind", "C", "--weights", "1"])
    assert code == 2 and "need n >= 2" in captured.err


@pytest.mark.parametrize("argv", [
    ["act", "--weights", "1 2", "--word", "s1_2", "--point", "0,9"],
    ["act", "--kind", "vC", "--weights", "1 2", "--word", "w[2,1]",
     "--point", "0,-1"],
    ["orbit", "--weights", "1 2", "--gens", "s1_2", "--point", "2,0"],
])
def test_out_of_range_point_is_usage_error(capsys, argv):
    code, payload, captured = run(capsys, argv)
    assert code == 2 and payload is None
    assert captured.err.startswith("error:") and "out of range" in captured.err


def test_verify_needs_weights(capsys):
    code, _, captured = run(capsys, ["verify", "--kind", "C", "--n", "3"])
    assert code == 2 and "--weights or --choices" in captured.err


def test_orbit(capsys):
    code, payload, _ = run(capsys, ["orbit", "--weights", "1 2",
                                    "--gens", "s1_2", "--point", "0,0"])
    assert code == 0
    assert payload["size"] == len(payload["points"]) >= 2


def test_image_order_gate(capsys):
    code, payload, _ = run(capsys, ["image", "--shape", "2,2,1",
                                    "--min-order", "120"])
    assert code == 0
    assert payload["tableaux"] == 5 and payload["order"] == 120
    assert payload["contains_alternating"] is True
    code2, _, _ = run(capsys, ["image", "--shape", "2,2,1",
                               "--min-order", "121"])
    assert code2 == 1


def test_rsk(capsys):
    code, payload, _ = run(capsys, ["rsk", "--word", "3 1 2"])
    assert code == 0
    assert payload["insertion"] == [[1, 2], [3]]
    assert payload["recording"] == [[1, 3], [2]]


def test_evac_full_and_partial(capsys):
    code, payload, _ = run(capsys, ["evac", "--tableau", "1,2;3"])
    assert code == 0 and payload["result"] == [[1, 3], [2]]
    code, payload, _ = run(capsys, ["evac", "--tableau", "1,2;3",
                                    "--partial", "2"])
    assert code == 0 and payload["result"] == [[1, 2], [3]]


def test_bk_moves(capsys):
    code, payload, _ = run(capsys, ["bk", "--tableau", "1,1,2", "--i", "1"])
    assert code == 0 and payload["result"] == [[1, 2, 2]]
    code, payload, _ = run(capsys, ["bk", "--tableau", "1,2;3",
                                    "--interval", "1,3"])
    assert code == 0 and payload["result"] == [[1, 3], [2]]


def test_bk_braid_witness(capsys):
    code, payload, _ = run(capsys, ["bk", "--braid-witness"])
    assert code == 0
    assert payload["witness"]["cells"] == 3
    code, payload, _ = run(capsys, ["bk", "--braid-witness",
                                    "--max-cells", "2"])
    assert code == 1 and payload["witness"] is None


@pytest.mark.parametrize("flag,value", [
    ("--max-cells", "-1"), ("--max-cells", "0"), ("--max-entry", "-3"),
])
def test_bk_non_positive_limit_is_usage_error(capsys, flag, value):
    code, payload, captured = run(capsys, ["bk", "--braid-witness",
                                           flag, value])
    assert code == 2 and payload is None
    assert flag in captured.err


def test_mutate_negative_count_is_usage_error(tmp_path, capsys):
    path = tmp_path / "data.json"
    data = from_crystals(cartan_type_a(1), [(0,), (1,)])
    path.write_text(json.dumps(category_to_json(data)))
    code, payload, captured = run(capsys, ["category", "mutate", "--input",
                                           str(path), "--count", "-1"])
    assert code == 2 and payload is None
    assert "--count" in captured.err
    code, payload, _ = run(capsys, ["category", "mutate", "--input",
                                    str(path), "--count", "0"])
    assert code == 0 and payload["count"] == 0


def test_type_is_an_alias_for_cartan(capsys):
    # the flag spelling and inferred --n from the weight list
    code, payload, _ = run(capsys, ["verify", "--kind", "vC", "--type", "A1",
                                    "--weights", "1,1,1"])
    assert code == 0 and payload["passed"] is True and payload["n"] == 3


def test_verify_choices_requires_n(capsys):
    code, _, captured = run(capsys, ["verify", "--kind", "C",
                                     "--choices", "1,2"])
    assert code == 2 and "--n" in captured.err
    code, _, captured = run(capsys, ["verify", "--kind", "C",
                                     "--choices", "1,2", "--n", "-1"])
    assert code == 2 and "--n" in captured.err


def test_rsk_perm_flag(capsys):
    code, payload, _ = run(capsys, ["rsk", "--perm", "2,1,3"])
    assert code == 0
    assert payload["insertion"] == [[1, 3], [2]]
    assert payload["recording"] == [[1, 3], [2]]
    assert "P" not in payload and "Q" not in payload
    code, _, captured = run(capsys, ["rsk", "--perm", "2,2,3"])
    assert code == 2  # not a permutation
    code, _, captured = run(capsys, ["rsk"])
    assert code == 2 and "exactly one" in captured.err


def test_image_report_flag(capsys):
    code, payload, _ = run(capsys, ["image", "--shape", "2,2,1",
                                    "--report", "contains-alternating"])
    assert code == 0 and payload["order"] >= 60
    # (3,1,1) has a small image that misses the alternating group
    code, payload, _ = run(capsys, ["image", "--shape", "3,1,1",
                                    "--report", "contains-alternating"])
    assert code == 1 and payload["contains_alternating"] is False


def test_crosscheck(capsys):
    code, payload, _ = run(capsys, ["crosscheck", "--n", "3"])
    assert code == 0
    assert "one-line/Q" in payload["winners"]


def test_category_pipeline(tmp_path, capsys):
    data_file = tmp_path / "cat.json"
    code, payload, _ = run(capsys, ["category", "build", "--colours", "0 1 2",
                                    "--out", str(data_file)])
    assert code == 0
    doc = json.loads(data_file.read_text())
    assert doc["ok"] is True
    # re-save just the data block for the file-consuming subcommands
    data_file.write_text(json.dumps(doc["data"]))

    code, payload, _ = run(capsys, ["category", "validate",
                                    "--input", str(data_file)])
    assert code == 0 and payload["ok"] is True

    code, payload, _ = run(capsys, ["category", "roundtrip",
                                    "--input", str(data_file)])
    assert code == 0 and payload["identical"] is True

    code, payload, _ = run(capsys, ["category", "mutate",
                                    "--input", str(data_file),
                                    "--count", "5", "--seed", "7"])
    assert code == 0 and payload["caught"] == 5


def test_category_commands_read_a_build_report(tmp_path, capsys):
    report = tmp_path / "data.json"
    code, _, _ = run(capsys, ["category", "build", "--colours", "0 1 2",
                              "--out", str(report)])
    assert code == 0
    for op in ("validate", "roundtrip"):
        code, payload, _ = run(capsys, ["category", op, "--input",
                                        str(report)])
        assert code == 0 and payload["ok"] is True, op


def test_category_string_for_a_list_is_usage_error(tmp_path, capsys):
    doc = category_to_json(from_crystals(cartan_type_a(1), [(0,), (1,)]))
    doc["sigma"][0][2][0][0] = "00"
    path = tmp_path / "string.json"
    path.write_text(json.dumps(doc))
    code, payload, captured = run(capsys, ["category", "validate",
                                           "--input", str(path)])
    assert code == 2 and payload is None and captured.out == ""
    assert captured.err.startswith("error: malformed category data")


def test_category_validate_rejects_corruption(tmp_path, capsys):
    data = from_crystals(cartan_type_a(1), [(0,), (1,)])
    mutant, _ = mutate_category(data, seed=2)
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(category_to_json(mutant)))
    code, payload, _ = run(capsys, ["category", "validate",
                                    "--input", str(bad_file)])
    assert code == 1
    assert payload["failures"]


def test_category_entry_with_extra_field_is_usage_error(tmp_path, capsys):
    doc = category_to_json(from_crystals(cartan_type_a(1), [(0,), (1,)]))
    doc["phi"][0][2][0][0].append("junk")
    path = tmp_path / "junk.json"
    path.write_text(json.dumps(doc))
    code, payload, captured = run(capsys, ["category", "validate",
                                           "--input", str(path)])
    assert code == 2 and payload is None and captured.out == ""
    assert captured.err.startswith("error: malformed category data")
    assert "Traceback" not in captured.err


def test_missing_input_file(capsys):
    code, _, captured = run(capsys, ["category", "validate",
                                     "--input", "/no/such/file.json"])
    assert code == 2 and captured.err.startswith("error:")


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["image", "--shape", "2,x"],
    ["bk", "--tableau", "1,2;3", "--interval", "1"],
    ["bk", "--tableau", "1,2;3", "--interval", "1,x"],
])
def test_bad_shape_and_interval_are_usage_errors(capsys, argv):
    code, payload, captured = run(capsys, argv)
    assert code == 2 and payload is None
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def _bad_category_inputs(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    no_cl = tmp_path / "no_cl.json"
    doc = category_to_json(from_crystals(cartan_type_a(1), [(0,), (1,)]))
    del doc["cl"]
    no_cl.write_text(json.dumps(doc))
    return {"invalid JSON": bad_json, "directory": tmp_path,
            "missing 'cl'": no_cl}


@pytest.mark.parametrize("op", ["validate", "roundtrip", "mutate"])
@pytest.mark.parametrize("case", ["invalid JSON", "directory", "missing 'cl'"])
def test_bad_category_input_is_usage_error(tmp_path, capsys, op, case):
    path = _bad_category_inputs(tmp_path)[case]
    code, payload, captured = run(capsys, ["category", op,
                                           "--input", str(path)])
    assert code == 2 and payload is None
    assert captured.err.startswith("error:")
    if case == "missing 'cl'":
        assert "'cl'" in captured.err


CARTAN_FILE_CASES = {
    "invalid JSON": "{not json",
    "a list": "[1]",
    "a string": '"A2"',
    "no rank": '{"type": "A"}',
    "non-integer rank": '{"type": "A", "rank": "x"}',
    "no matrix": '{"type": "explicit"}',
}


@pytest.mark.parametrize("case", ["directory"] + list(CARTAN_FILE_CASES))
def test_bad_cartan_file_is_usage_error(tmp_path, capsys, case):
    path = tmp_path
    if case != "directory":
        path = tmp_path / "cartan.json"
        path.write_text(CARTAN_FILE_CASES[case])
    code, payload, captured = run(capsys, ["crystal", "--cartan-file",
                                           str(path), "--weight", "1"])
    assert code == 2 and payload is None
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("matrix", ["[[2, false], [false, 2]]",
                                    "[[true, -1], [-1, 2]]"])
def test_boolean_cartan_entries_are_not_integers(tmp_path, capsys, matrix):
    path = tmp_path / "cartan.json"
    path.write_text('{"type": "explicit", "matrix": %s}' % matrix)
    code, _, captured = run(capsys, ["crystal", "--cartan-file", str(path),
                                     "--weight", "1,0"])
    assert code == 2
    assert captured.err == "error: Cartan matrix entries must be integers\n"


def test_cartan_file(tmp_path, capsys):
    path = tmp_path / "cartan.json"
    path.write_text('{"type": "explicit", "matrix": [[2, -1], [-1, 2]]}')
    code, payload, _ = run(capsys, ["crystal", "--cartan-file", str(path),
                                    "--weight", "1,0"])
    assert code == 0 and payload["size"] == 3


@pytest.mark.parametrize("source", ["name", "file"])
def test_large_type_a_rank_is_refused_before_the_matrix(tmp_path, capsys,
                                                        source):
    # A100000 has 10^10 matrix entries, over the default budget of 10^6
    argv = ["--cartan", "A100000"]
    if source == "file":
        path = tmp_path / "cartan.json"
        path.write_text('{"type": "A", "rank": 100000}')
        argv = ["--cartan-file", str(path)]
    start = time.monotonic()
    code, payload, captured = run(capsys, ["crystal", *argv, "--weight", "1"])
    assert time.monotonic() - start < 1
    assert code == 2 and payload is None
    assert "the Cartan matrix of A100000 has 10000000000 points" in captured.err
    assert "CACTUS_CRYSTAL_MAX_POINTS" in captured.err


def test_crosscheck_respects_point_budget(capsys, monkeypatch):
    monkeypatch.setenv("CACTUS_CRYSTAL_MAX_POINTS", "100")
    code, payload, captured = run(capsys, ["crosscheck", "--n", "5"])
    assert code == 2 and payload is None
    assert "CACTUS_CRYSTAL_MAX_POINTS" in captured.err
    monkeypatch.setenv("CACTUS_CRYSTAL_MAX_POINTS", "256")
    code, payload, _ = run(capsys, ["crosscheck", "--n", "4"])
    assert code == 0 and payload["passed"] is True


def test_crosscheck_counts_the_product_its_letters_build(capsys, monkeypatch):
    # s1_6 reverses the whole product of six defining crystals, 6^6 points
    monkeypatch.setenv("CACTUS_CRYSTAL_MAX_POINTS", "1000")
    code, payload, captured = run(capsys, ["crosscheck", "--n", "6"])
    assert code == 2 and payload is None
    assert "46656 points" in captured.err


def test_crosscheck_refuses_a_long_n_without_computing_its_count(capsys):
    # 2000 ** 2000 has 6,603 digits, more than Python turns into a string
    code, payload, captured = run(capsys, ["crosscheck", "--n", "2000"])
    assert code == 2 and payload is None
    assert "n=2000 has n^n points" in captured.err
    assert "CACTUS_CRYSTAL_MAX_POINTS" in captured.err
    assert "Traceback" not in captured.err


def test_crystal_respects_point_budget(capsys, monkeypatch):
    monkeypatch.setenv("CACTUS_CRYSTAL_MAX_POINTS", "10")
    code, payload, _ = run(capsys, ["crystal", "--cartan", "A2",
                                    "--weight", "1,1"])
    assert code == 0 and payload["size"] == 8
    code, payload, captured = run(capsys, ["crystal", "--cartan", "A2",
                                           "--weight=-1,0"])
    assert code == 2 and "highest weight must be dominant" in captured.err

    def refuse(*args):
        raise AssertionError("the crystal was built")
    monkeypatch.setattr(cactus_crystal.crystal, "build_irreducible", refuse)
    code, payload, captured = run(capsys, ["crystal", "--cartan", "A2",
                                           "--weight", "30,30"])
    assert code == 2 and payload is None
    assert "29791 points" in captured.err
    assert "CACTUS_CRYSTAL_MAX_POINTS" in captured.err


def test_image_respects_point_budget(capsys, monkeypatch):
    monkeypatch.setenv("CACTUS_CRYSTAL_MAX_POINTS", "100")
    code, payload, captured = run(capsys, ["image", "--shape", "3,2"])
    assert code == 2 and payload is None
    assert "Traceback" not in captured.err
    monkeypatch.delenv("CACTUS_CRYSTAL_MAX_POINTS")
    code, payload, _ = run(capsys, ["image", "--shape", "2,2,1"])
    assert code == 0 and payload["order"] == 120


def test_image_budget_message_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("CACTUS_CRYSTAL_MAX_POINTS", "100")
    code, payload, captured = run(capsys, ["image", "--shape", "3,2"])
    assert code == 2 and payload is None
    assert "more than 100 elements" in captured.err
    assert "raise CACTUS_CRYSTAL_MAX_POINTS to override" in captured.err


def test_category_build_respects_point_budget(capsys, monkeypatch):
    # the colours a, b of A1 multiply to (a + 1) * (b + 1) points, first
    # over 10 at 1 and 5; no product over the budget is built
    monkeypatch.setenv("CACTUS_CRYSTAL_MAX_POINTS", "10")

    built = category_data.product_of_weights

    def refuse_large(cartan, weights):
        (a,), (b,) = weights
        assert (a + 1) * (b + 1) <= 10, "built %r" % (weights,)
        return built(cartan, weights)
    monkeypatch.setattr(category_data, "product_of_weights", refuse_large)
    code, payload, captured = run(capsys, ["category", "build", "--colours",
                                           "0 1 2 3 4 5 6"])
    assert code == 2 and payload is None
    assert "12 points" in captured.err
    assert "CACTUS_CRYSTAL_MAX_POINTS" in captured.err
    assert "Traceback" not in captured.err
    monkeypatch.undo()
    # the largest product the core 0, 1 needs is 2 (x) 2, of 9 points
    for budget, want in (("8", 2), ("9", 0)):
        monkeypatch.setenv("CACTUS_CRYSTAL_MAX_POINTS", budget)
        code, _, _ = run(capsys, ["category", "build", "--colours", "0 1"])
        assert code == want, budget


@pytest.mark.parametrize("argv", [
    ["tensor", "--weights", "10 10 10"],
    ["commutor", "--left", "10", "--right", "120"],
    ["act", "--weights", "10 10 10", "--word", "s1_3", "--point", "0,0,0"],
    ["orbit", "--weights", "10 10 10", "--gens", "s1_3", "--point", "0,0,0"],
], ids=["tensor", "commutor", "act", "orbit"])
def test_products_respect_point_budget(capsys, monkeypatch, argv):
    # each builds or acts on a product of 11 * 11 * 11 = 1331 points
    monkeypatch.setenv("CACTUS_CRYSTAL_MAX_POINTS", "1000")
    code, payload, captured = run(capsys, argv)
    assert code == 2 and payload is None
    assert "1331 points" in captured.err
    assert "CACTUS_CRYSTAL_MAX_POINTS" in captured.err
    assert "Traceback" not in captured.err
    monkeypatch.setenv("CACTUS_CRYSTAL_MAX_POINTS", "zero")
    code, payload, captured = run(capsys, argv)
    assert code == 2 and payload is None
    assert "CACTUS_CRYSTAL_MAX_POINTS must be a positive integer" in captured.err
    monkeypatch.setenv("CACTUS_CRYSTAL_MAX_POINTS", "2000")
    code, payload, _ = run(capsys, argv)
    assert code == 0 and payload["ok"] is True


@pytest.mark.parametrize("argv", [
    ["act", "--weights", "10 10 10", "--word", "s1_2", "--point", "0,0,0"],
    ["act", "--kind", "vC", "--weights", "10 10 10", "--word", "w[2,3,1]",
     "--point", "0,1,2"],
    ["orbit", "--kind", "vC", "--weights", "10 10 10",
     "--gens", "s1_2;w[2,3,1]", "--point", "0,1,2"],
], ids=["act-s1_2", "act-perm", "orbit"])
def test_act_and_orbit_count_only_the_tables_they_build(capsys, monkeypatch,
                                                        argv):
    # s1_2 reverses 11 * 11 = 121 points and a permutation builds no table
    monkeypatch.setenv("CACTUS_CRYSTAL_MAX_POINTS", "1000")
    code, payload, _ = run(capsys, argv)
    assert code == 0 and payload["ok"] is True


def test_seed_is_only_an_option_of_mutate(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rsk", "--perm", "2,1", "--seed", "3"])
    assert exc.value.code == 2
    data = from_crystals(cartan_type_a(1), [(0,), (1,)])
    data_file = tmp_path / "cat.json"
    data_file.write_text(json.dumps(category_to_json(data)))
    code, payload, _ = run(capsys, ["category", "mutate", "--input",
                                    str(data_file), "--count", "2",
                                    "--seed", "7"])
    assert code == 0 and payload["caught"] == 2
    notes = [mutate_category(data, seed=7 + k)[1] for k in range(2)]
    assert [m["mutation"] for m in payload["mutations"]] == \
        json.loads(json.dumps(notes))


def test_error_classes_share_one_base():
    for cls in (CartanError, CrystalError, GroupError, TableauError,
                CategoryError, PermError, UsageError):
        assert issubclass(cls, CactusError) and issubclass(cls, ValueError)


def loaded_after(code):
    """The modules a fresh interpreter holds after running code: the short
    names of the package modules, and the standard-library modules by full
    name.  The test session's own imports do not leak in."""
    src = os.path.dirname(os.path.dirname(cactus_crystal.__file__))
    probe = code + ("\nimport sys\nsys.stderr.write(' '.join(sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names = proc.stderr.splitlines()[-1].split()
    layers = {n.replace("cactus_crystal.", "") for n in names
              if n.startswith("cactus_crystal")}
    stdlib = {n for n in names
              if n.partition(".")[0] in sys.stdlib_module_names}
    return layers, stdlib


# what dataclasses (with inspect) and fractions (with decimal) pull in at
# start-up; only the category commands need dataclasses
HEAVY_STDLIB = {"dataclasses", "inspect", "fractions", "decimal"}


def test_importing_the_cli_loads_no_layer():
    layers, stdlib = loaded_after("import cactus_crystal.cli")
    assert layers == {"cactus_crystal", "cli"}
    assert not stdlib & HEAVY_STDLIB, stdlib & HEAVY_STDLIB


TABLEAU_ONLY = {"cactus_crystal", "cli", "perms", "tableaux"}


@pytest.mark.parametrize("argv, allowed, forbidden", [
    (["rsk", "--perm", "2,1,3"], TABLEAU_ONLY, set()),
    (["evac", "--tableau", "1,2;3"], TABLEAU_ONLY, set()),
    (["bk", "--tableau", "1,2;3", "--interval", "1,3"], TABLEAU_ONLY, set()),
    (["group", "--kind", "C", "--n", "3", "--relations"],
     {"cactus_crystal", "cli", "groups", "perms"}, set()),
    (["crystal", "--weight", "1"], None, {"actions", "groups", "category_data"}),
    (["tensor", "--weights", "1 1"], None,
     {"actions", "groups", "category_data"}),
    (["commutor", "--left", "1", "--right", "2"], None,
     {"actions", "groups", "category_data"}),
    (["category", "build", "--colours", "0 1"], None, {"actions", "groups"}),
    (["act", "--weights", "1 2", "--word", "s1_2", "--point", "0,1"], None,
     {"category_data"}),
    (["orbit", "--weights", "1 2", "--gens", "s1_2", "--point", "0,0"], None,
     {"category_data"}),
    (["verify", "--kind", "C", "--weights", "1 1 1"], None,
     {"category_data"}),
    (["image", "--shape", "2,1"], None, {"category_data"}),
    (["crosscheck", "--n", "4"], None, {"category_data"}),
], ids=["rsk", "evac", "bk", "group", "crystal", "tensor", "commutor",
        "category-build", "act", "orbit", "verify", "image", "crosscheck"])
def test_each_command_loads_only_its_layers(tmp_path, argv, allowed,
                                            forbidden):
    out = tmp_path / "report.json"
    loaded, stdlib = loaded_after("from cactus_crystal.cli import main\n"
                                  "assert main(%r) == 0"
                                  % (argv + ["--out", str(out)]))
    assert "cli" in loaded
    if allowed is not None:
        assert loaded <= allowed, loaded - allowed
    assert not loaded & forbidden, loaded & forbidden
    if argv[0] != "category":
        assert not stdlib & HEAVY_STDLIB, stdlib & HEAVY_STDLIB


@pytest.mark.parametrize("op", ["validate", "roundtrip", "mutate"])
def test_category_file_commands_load_no_action_layer(tmp_path, op):
    data_file = tmp_path / "cat.json"
    data = from_crystals(cartan_type_a(1), [(0,), (1,)])
    data_file.write_text(json.dumps(category_to_json(data)))
    argv = ["category", op, "--input", str(data_file),
            "--out", str(tmp_path / "report.json")]
    loaded, _ = loaded_after("from cactus_crystal.cli import main\n"
                             "assert main(%r) == 0" % argv)
    assert "category_data" in loaded
    assert not loaded & {"actions", "groups"}, loaded


def test_clear_caches_empties_every_module_cache():
    from cactus_crystal import cartan, commutor, crystal, groups
    from cactus_crystal.actions import verify_relations

    caches = (crystal.build_irreducible, crystal.product_of_weights,
              commutor.reversal_table, commutor.commutor_table,
              cartan.weyl_elements, cartan.longest_element, cartan.star,
              groups._check_generator)
    a2 = cartan_type_a(2)

    def results():
        rep = verify_relations(a2, "vC", 3, [((1, 0), (0, 1), (1, 0))])
        del rep["duration_s"]
        return (rep, commutor.reversal_table(a2, ((1, 0), (1, 1))),
                commutor.commutor_table(a2, ((1, 0),), ((1, 1),)).mapping,
                cartan.longest_element(a2), cartan.star_weight(a2, (2, 1)))

    before = results()
    assert all(f.cache_info().currsize > 0 for f in caches)
    cactus_crystal.clear_caches()
    assert [f.cache_info().currsize for f in caches] == [0] * len(caches)
    assert results() == before


# -- argv fuzzing --------------------------------------------------------------

# small, often malformed option values: numbers, weight lists, points, words,
# tableaux and permutations, good and bad
FUZZ_TOKENS = ["0", "1", "2", "3", "-1", "x", "", " ", "1,2", "0,1", "1,0",
               "2,1", "1,1", "1 2", "1,0 0,1", "0 1 2", "1,x", ",", ";",
               "1,2;3", "1;2", "s1_2", "s1_3", "s2_3 t1", "w[2,1,3]", "r",
               "t0", "w[2,3,1];2,3", "2,1,3", "3,2", "2,2,1", "A1", "A2",
               "B2", "A0", "1,2,1,2"]
FUZZ_INTS = ["-2", "-1", "0", "1", "2", "3", "4", "x"]
FUZZ_SPECS = {
    ("crystal",): {"--cartan": FUZZ_TOKENS, "--weight": FUZZ_TOKENS,
                   "--emit": ["json", "dot"]},
    ("tensor",): {"--cartan": FUZZ_TOKENS, "--weights": FUZZ_TOKENS},
    ("commutor",): {"--cartan": FUZZ_TOKENS, "--left": FUZZ_TOKENS,
                    "--right": FUZZ_TOKENS},
    ("group",): {"--kind": ["C", "vC", "MC", "AC"], "--n": FUZZ_INTS,
                 "--relations": None, "--project": FUZZ_TOKENS,
                 "--to-virtual": FUZZ_TOKENS, "--s0j": FUZZ_INTS,
                 "--cabling": FUZZ_TOKENS},
    ("act",): {"--kind": ["C", "vC", "MC", "AC"], "--weights": FUZZ_TOKENS,
               "--word": FUZZ_TOKENS, "--point": FUZZ_TOKENS},
    ("verify",): {"--kind": ["C", "vC", "MC", "AC"], "--n": FUZZ_INTS,
                  "--weights": FUZZ_TOKENS, "--all-orderings": None,
                  "--choices": FUZZ_TOKENS, "--cartan": FUZZ_TOKENS},
    ("orbit",): {"--kind": ["C", "vC", "MC", "AC"], "--weights": FUZZ_TOKENS,
                 "--gens": FUZZ_TOKENS, "--point": FUZZ_TOKENS},
    ("image",): {"--shape": FUZZ_TOKENS, "--min-order": FUZZ_INTS,
                 "--report": ["contains-alternating"]},
    ("rsk",): {"--word": FUZZ_TOKENS, "--perm": FUZZ_TOKENS},
    ("evac",): {"--tableau": FUZZ_TOKENS, "--partial": FUZZ_INTS},
    ("bk",): {"--tableau": FUZZ_TOKENS, "--i": FUZZ_INTS,
              "--interval": FUZZ_TOKENS, "--braid-witness": None,
              "--max-cells": FUZZ_INTS, "--max-entry": FUZZ_INTS},
    ("crosscheck",): {"--n": FUZZ_INTS},
    ("category", "build"): {"--cartan": FUZZ_TOKENS,
                            "--colours": FUZZ_TOKENS},
    ("category", "validate"): {"--input": ["DATA", "NONE"]},
    ("category", "roundtrip"): {"--input": ["DATA", "NONE"]},
    ("category", "mutate"): {"--input": ["DATA", "NONE"], "--count": FUZZ_INTS,
                             "--seed": FUZZ_INTS},
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_SPECS)))
    argv = list(command)
    for flag, values in FUZZ_SPECS[command].items():
        if draw(st.booleans()):
            argv.append(flag)
            if values is not None:
                argv.append(draw(st.sampled_from(values)))
    return argv


@pytest.fixture
def fuzz_data(tmp_path):
    path = tmp_path / "data.json"
    data = from_crystals(cartan_type_a(1), [(0,), (1,)])
    path.write_text(json.dumps(category_to_json(data)))
    return {"DATA": str(path), "NONE": str(tmp_path / "missing.json")}


@given(argv=fuzz_argv())
@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_argv_keeps_the_exit_code_contract(monkeypatch, fuzz_data,
                                                  argv):
    monkeypatch.setenv(cactus_crystal.MAX_POINTS_ENV, "40")
    argv = [fuzz_data.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:      # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert json.loads(out.getvalue())["ok"] is False, argv
    if code == 2:
        assert out.getvalue() == "", argv
