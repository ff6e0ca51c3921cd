import json

import pytest

from liftlab import cli, verify
from liftlab.counting import count_congruence_lifts_formula
from liftlab.lifts import classify_all, find_witness
from liftlab.matrices import IntegerMatrix
from liftlab.presentation import generator_set


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_table_both_modes(capsys):
    code, out, err = run(capsys, "count", "--group", "gamma0", "--n", "1..16")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].split() == ["kind", "N", "branch", "formula", "engine",
                                "agree"]
    rows = {int(line.split()[1]): line.split() for line in lines[2:]}
    assert rows[8][-3:] == ["9", "9", "yes"]
    assert rows[7][-3:] == ["3", "3", "yes"]
    assert all(row[-1] == "yes" for row in rows.values())


def test_count_formula_json_round_trip(capsys):
    code, out, err = run(capsys, "count", "--group", "gamma", "--n", "2",
                         "--mode", "formula", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["count"] == 5
    assert payload[0] == count_congruence_lifts_formula("gamma", 2).to_dict()


def test_count_rejects_bad_range(capsys):
    code, _, err = run(capsys, "count", "--group", "gamma1", "--n", "0")
    assert code == 1
    assert "bad level range" in err
    code, _, _ = run(capsys, "count", "--group", "gamma1", "--n", "9..4")
    assert code == 1


def test_count_unknown_group_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["count", "--group", "gamma9", "--n", "4"])
    assert info.value.code == 1


def test_classify_csv_columns(capsys):
    code, out, _ = run(capsys, "classify", "--group", "gamma0", "--n", "6",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("kind,N,s,t,index,e2,e3,r,"
                        "total_lifts,congruence,noncongruence")
    assert lines[1] == "gamma0,6,1,1,12,0,0,3,9,5,4"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--group", "gamma1", "--n", "4..5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [(p["N"], p["total_lifts"], p["congruence"], p["noncongruence"])
            for p in payload] == [(4, 5, 5, 0), (5, 9, 3, 6)]
    assert payload[1]["witness"]["classification"] == "noncongruence"


def test_classify_rejects_gamma(capsys):
    code, _, err = run(capsys, "classify", "--group", "gamma", "--n", "4")
    assert code == 1
    assert "use `count`" in err


def test_witness_export_and_reverify(capsys, tmp_path):
    path = tmp_path / "w.json"
    code, out, _ = run(capsys, "witness", "--group", "gamma1", "--n", "5",
                       "--out", str(path))
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert set(data) == {"kind", "N", "character", "generators",
                         "classification", "certificate"}
    assert data["classification"] == "noncongruence"
    ok, message = verify.verify_witness_data(data)
    assert ok, message

    code, out, _ = run(capsys, "verify-witness", "--in", str(path))
    assert code == 0
    assert "witness re-verified" in out


def test_witness_tamper_detected(capsys, tmp_path):
    path = tmp_path / "w.json"
    run(capsys, "witness", "--group", "gamma0", "--n", "6",
        "--out", str(path))
    data = json.loads(path.read_text())
    data["character"]["free_signs"][0] *= -1
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify-witness", "--in", str(path))
    assert code == 2
    assert "do not match" in out


@pytest.mark.parametrize("group, n", [("gamma0", 36), ("gamma1", 11)])
def test_counted_witness_round_trip(capsys, tmp_path, group, n):
    path = tmp_path / "w.json"
    code, _, _ = run(capsys, "witness", "--group", group, "--n", str(n),
                     "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert isinstance(data["character"]["free_signs"], list)
    code, out, _ = run(capsys, "verify-witness", "--in", str(path))
    assert code == 0
    assert "witness re-verified" in out


def test_full_preimage_forgery_detected():
    data = json.loads(json.dumps(find_witness("gamma0", 12).to_dict()))
    assert verify.verify_witness_data(data)[0]
    # The full preimage with -I reaches the whole image mod 2N too, but it
    # is a congruence group and no lift: only the regenerated kernel
    # generators tell it apart.
    full_preimage = [list(m.entries())
                     for m in generator_set("gamma0", 12).matrices()]
    full_preimage.append([-1, 0, 0, -1])
    cases = [
        ("do not match", dict(data, generators=full_preimage)),
        ("do not match", dict(
            data, generators=data["generators"] + [[1, 0, 1, 1]])),
        ("do not match", dict(data, generators=data["generators"][:1])),
        ("!= certificate 1", dict(
            data, certificate=dict(data["certificate"], image_order=1))),
        ("contradicts orders", dict(data, classification="congruence")),
    ]
    # The full preimage itself reaches all of H and is a congruence group.
    full = json.loads(json.dumps(
        classify_all("gamma0", 12).descriptors[0].to_dict()))
    assert full["character"]["free_signs"] == "full"
    assert verify.verify_witness_data(full)[0]
    half = full["certificate"]["image_order"] // 2
    cases += [
        ("contradicts orders", dict(full, classification="noncongruence")),
        (f"!= certificate {half}", dict(
            full, certificate=dict(full["certificate"], image_order=half))),
    ]
    for complaint, bad in cases:
        ok, message = verify.verify_witness_data(bad)
        assert not ok and complaint in message, (complaint, message)


def test_generator_outside_h_is_rejected(monkeypatch):
    # A kernel generator that leaves H (S is not in Gamma0(12)) must fail
    # the audit, even though the closure then reaches more than |H|/2.
    s = IntegerMatrix(0, -1, 1, 0)
    regenerate = verify.lift_generators
    monkeypatch.setattr(verify, "lift_generators",
                        lambda character: regenerate(character) + (s,))
    data = json.loads(json.dumps(find_witness("gamma0", 12).to_dict()))
    data["generators"].append(list(s.entries()))
    ok, message = verify.verify_witness_data(data)
    assert not ok and "leave H" in message, message


@pytest.mark.parametrize("payload, complaint", [
    ({"kind": "gamma0", "N": 6}, "no 'character' key"),
    ({"kind": "gamma0", "N": 6, "character": {"free_signs": [1, 1, -1]},
      "generators": "[[1, 0, 0, 1]]", "classification": "noncongruence",
      "certificate": {"image_order": 1, "full_image_order": 1,
                      "modulus": 12}}, "'generators' must be a JSON array"),
    ({"kind": "gamma7", "N": 6, "character": {"free_signs": None},
      "generators": [], "classification": "noncongruence",
      "certificate": {"image_order": 1, "full_image_order": 1,
                      "modulus": 12}}, "unknown witness kind 'gamma7'"),
    ({"kind": "gamma0", "N": 12, "character": {"free_signs": None, "parent": {
        "kind": "gamma0", "N": 6, "free_signs": [1, 1, -1]}},
      "generators": [[-1, 0, 0, -1]], "classification": "noncongruence",
      "certificate": {"image_order": 384, "full_image_order": 384,
                      "modulus": 24}}, "free_signs are not accepted"),
])
def test_malformed_witness_file_is_usage_error(capsys, tmp_path, payload,
                                               complaint):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify-witness", "--in", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and complaint in err
    assert len(err.splitlines()) == 1


def test_witness_missing_cases(capsys):
    code, _, err = run(capsys, "witness", "--group", "gamma0", "--n", "4")
    assert code == 3
    assert err.startswith("no witness:")
    code, _, err = run(capsys, "witness", "--group", "gamma0", "--n", "7")
    assert code == 3
    assert "every lift of gamma0(7) is a congruence group" in err
    code, _, err = run(capsys, "witness", "--group", "gamma1", "--n", "4..5")
    assert code == 1
    assert "single level" in err
    code, _, err = run(capsys, "witness", "--group", "gamma", "--n", "6")
    assert code == 1


def test_presentation_json_metadata(capsys):
    code, out, _ = run(capsys, "presentation", "--group", "gamma0", "--n", "7",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    record = payload[0]
    assert record["farey"]["seed_fractions"] == [[-1, 0], [0, 1], [1, 0]]
    assert record["farey"]["fractions"][0] == [-1, 0]
    assert (record["index"], record["e2"], record["e3"],
            record["r"]) == (8, 0, 2, 1)


def test_presentation_table(capsys):
    code, out, _ = run(capsys, "presentation", "--group", "gamma0", "--n", "6")
    assert code == 0
    assert out.splitlines()[0] == "gamma0(6): index 12, e2 0, e3 0, r 3"
    assert sum(1 for line in out.splitlines() if line.startswith("  ")) == 3


def test_verify_subset_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4")
    assert code == 0
    assert "8/8 checks passed" in out


@pytest.mark.parametrize("argv", [
    ["verify", "--max-n", "0"],
    ["verify", "--max-n", "-3"],
    ["verify", "--max-modulus", "0"],
    ["count", "--group", "gamma0", "--n", "4", "--max-modulus", "-1"],
    ["verify-witness", "--in", "w.json", "--max-modulus", "0"],
])
def test_bounds_below_one_are_usage_errors(capsys, argv):
    # A bound below 1 would check nothing; it must not pass as a run.
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 1
    _, err = capsys.readouterr()
    assert "must be at least 1" in err


def test_verify_seed_tamper_flags_census(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--seed-tamper")
    assert code == 2
    lines = [line for line in out.splitlines() if "gamma1-census" in line]
    assert lines and "FAIL" in lines[0]
    assert "correctly rejected" in lines[0]
    assert "7/8 checks passed" in out


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 8
    assert all(item["passed"] for item in payload)
    assert {item["name"] for item in payload} == {
        "count-agreement", "quotient-structure", "small-level-table",
        "gamma1-census", "classification-vs-predicates", "hyperplane-lemma",
        "general-level", "property-suite"}


def test_out_file_option(capsys, tmp_path):
    path = tmp_path / "counts.csv"
    code, out, _ = run(capsys, "count", "--group", "gamma0", "--n", "3..4",
                       "--format", "csv", "--out", str(path))
    assert code == 0 and out == ""
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,N,branch,formula,engine,agree"
    assert len(lines) == 3


def test_missing_witness_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify-witness", "--in", "/no/such/file.json")
    assert code == 1
    assert "error:" in err
    # a directory where a file belongs is one error line, not a traceback
    for argv in (["verify-witness", "--in", str(tmp_path)],
                 ["count", "--group", "gamma0", "--n", "3", "--out",
                  str(tmp_path)]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
