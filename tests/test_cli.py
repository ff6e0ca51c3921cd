import json

import pytest

from liftlab import cli, engine, verify
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


def test_classify_past_the_modulus_cap(capsys):
    # The characters label gamma1(49) without H mod 98, so no cap applies,
    # and classify and witness take no cap option.
    code, out, err = run(capsys, "classify", "--group", "gamma1", "--n", "49",
                         "--format", "json")
    assert code == 0 and err == ""
    [record] = json.loads(out)
    assert record["congruence"] == 3
    assert record["witness"]["classification"] == "noncongruence"
    for command in ("classify", "witness"):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--group", "gamma1", "--n", "49",
                      "--max-modulus", "98"])
        assert info.value.code == 1
        _, err = capsys.readouterr()
        assert "unrecognized arguments: --max-modulus 98" in err


def test_audit_guard_message_names_the_scan_bound(capsys, tmp_path):
    # verify-witness audits by a closure in H mod 2N, so the scan bound
    # applies to it; gamma0(49) (a scan of 19208 mod 98) is within it.
    code, _, err = run(capsys, "witness", "--group", "gamma0", "--n", "97")
    assert code == 3 and err.startswith("no witness:")
    path = tmp_path / "w49.json"
    code, _, _ = run(capsys, "witness", "--group", "gamma0", "--n", "49",
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify-witness", "--in", str(path))
    assert code == 0 and "witness re-verified" in out
    # gamma0(196) mod 392 scans 307328 candidates: one error line, with no
    # option to offer and no formula route to suggest.
    code, _, _ = run(capsys, "witness", "--group", "gamma0", "--n", "196",
                     "--out", str(path))
    assert code == 0
    code, out, err = run(capsys, "verify-witness", "--in", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: the image of gamma0(196) mod 392 needs a "
                          "row scan of 307328 candidates, past the engine's "
                          f"scan bound {engine.MAX_SCAN}")
    assert len(err.splitlines()) == 1
    assert "--" not in err and "formula" not in err
    with pytest.raises(SystemExit) as info:
        cli.main(["verify-witness", "--in", str(path),
                  "--max-modulus", "98"])
    assert info.value.code == 1
    _, err = capsys.readouterr()
    assert "unrecognized arguments: --max-modulus 98" in err


def test_count_engine_cap_message_suggests_the_formula_mode(capsys):
    # The component mod 1009 scans 1009^2 candidates, past the scan bound.
    code, out, err = run(capsys, "count", "--mode", "engine", "--group",
                         "gamma0", "--n", "1009")
    assert code == 1 and out == ""
    assert err.startswith("error: the image of gamma0(1009) mod 1009 needs "
                          "a row scan of 1018081 candidates")
    assert f"scan bound {engine.MAX_SCAN}" in err
    assert "--mode formula" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_count_both_modes_notes_a_refused_engine_count(capsys, fmt):
    # Past the scan bound the engine column stays empty, the exit code 0,
    # and one stderr line says why.
    code, out, err = run(capsys, "count", "--group", "gamma0", "--n",
                         "1008..1009", "--format", fmt)
    assert code == 0
    assert err.splitlines() == [
        "note: no engine count at N = 1009: the image of gamma0(1009) mod "
        "1009 needs a row scan of 1018081 candidates, past the engine's "
        f"scan bound {engine.MAX_SCAN}"]
    if fmt == "json":
        rows = json.loads(out)
        assert [r["engine"] for r in rows] == [rows[0]["formula"], None]
        assert [r["agree"] for r in rows] == [True, None]
    else:
        last = out.splitlines()[-1].replace(",", " ").split()
        assert last[1] == "1009" and last[-2:] == ["-", "-"]


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


def test_presentation_takes_no_modulus_cap(capsys):
    # presentation runs no engine, so a cap would be an option it ignores.
    with pytest.raises(SystemExit) as info:
        cli.main(["presentation", "--group", "gamma1", "--n", "49",
                  "--max-modulus", "98"])
    assert info.value.code == 1
    _, err = capsys.readouterr()
    assert "unrecognized arguments: --max-modulus 98" in err


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
    # A bound below 1 would check nothing; it must not pass as a run.  No
    # command takes a modulus bound, so --max-modulus is refused as an
    # unknown option.
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 1
    _, err = capsys.readouterr()
    if "--max-modulus" in argv:
        assert "unrecognized arguments: --max-modulus" in err
    else:
        assert "must be at least 1" in err


def test_verify_past_the_scan_bound_refuses_before_any_check(capsys,
                                                             monkeypatch):
    # H mod 2N at N = 200 needs a scan of 8 * 200^2 = 320000 candidates.
    def no_scan(*args):
        raise AssertionError("a row scan started")

    monkeypatch.setattr(engine, "_solve_row", no_scan)
    code, out, err = run(capsys, "verify", "--max-n", "200")
    assert code == 1 and out == ""
    assert err.startswith("error: the image of gamma0(200) mod 400 needs a "
                          "row scan of 320000 candidates")


def test_verify_seed_tamper_flags_census(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--seed-tamper")
    assert code == 0
    lines = [line for line in out.splitlines() if "gamma1-census" in line]
    assert lines and "pass" in lines[0]
    assert "tampered witness correctly rejected" in lines[0]
    assert "8/8 checks passed" in out


def test_verify_seed_tamper_fails_when_the_audit_accepts(capsys, monkeypatch):
    monkeypatch.setattr(verify, "verify_witness_data",
                        lambda data: (True, "accepted"))
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--seed-tamper")
    assert code == 2
    lines = [line for line in out.splitlines() if "gamma1-census" in line]
    assert lines and "FAIL" in lines[0]
    assert "tampered witness was accepted" in lines[0]


def test_seed_tamper_below_five_is_usage_error(capsys):
    # No gamma1(5) witness is classified below --max-n 5, so nothing would
    # be tampered with; that is a usage error, not a disagreement.
    code, out, err = run(capsys, "verify", "--max-n", "4", "--seed-tamper")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--max-n 5" in err
    assert len(err.splitlines()) == 1


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
