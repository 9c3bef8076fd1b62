import csv
import io
import json

from conftest import run_cli

from nsg import cli


def test_analyze_json_record():
    code, out, _ = run_cli("analyze", "--gens", "12,15,20,23", "--json")
    assert code == 0
    rec = json.loads(out)
    assert list(rec) == [
        "generators",
        "minimal_generators",
        "multiplicity",
        "frobenius",
        "conductor",
        "genus",
        "pf",
        "type",
        "reduced_type",
        "symmetric",
        "extremality",
    ]
    assert rec["pf"] == [28, 31, 33, 41, 49]
    assert rec["type"] == 5
    assert rec["reduced_type"] == 2
    assert rec["extremality"] == "neither"
    assert rec["symmetric"] is False
    # lossless round trip through the schema
    assert json.loads(json.dumps(rec)) == rec


def test_analyze_naturals():
    code, out, _ = run_cli("analyze", "--gens", "1", "--json")
    rec = json.loads(out)
    assert code == 0
    assert rec["frobenius"] == -1
    assert rec["extremality"] == "both"


def test_analyze_gcd_failure():
    code, _, err = run_cli("analyze", "--gens", "4,6")
    assert code == 1
    assert "gcd is not 1" in err


def test_unknown_flag_is_an_error():
    code, _, err = run_cli("analyze", "--gens", "2,3", "--bogus")
    assert code == 1


def test_analyze_text_output():
    code, out, _ = run_cli("analyze", "--gens", "5,6,7")
    assert code == 0
    assert "pf: 8 9" in out
    assert "extremality: maximal" in out


def test_family_bresinsky():
    code, out, _ = run_cli("family", "bresinsky", "--h", "2", "--json")
    rec = json.loads(out)
    assert code == 0
    assert rec["pf_closed_form"] == [28, 31, 33, 41, 49]
    assert rec["pf"] == rec["pf_closed_form"]


def test_family_backelin():
    code, out, _ = run_cli("family", "backelin", "--n", "2", "--r", "8", "--json")
    rec = json.loads(out)
    assert code == 0
    assert rec["type"] == 8
    assert rec["minimal_generators"] == [67, 70, 74, 75]


def test_family_gas_b3_branch():
    code, out, _ = run_cli(
        "family", "gas", "--n0", "7", "--s", "5", "--d", "11", "--p", "4", "--json"
    )
    rec = json.loads(out)
    assert code == 0
    assert rec["b"] == 3
    assert rec["pf_closed_form"] == [118, 129]
    assert rec["pf"] == rec["pf_closed_form"]  # closed form vs full analysis
    assert rec["minimal_closed_form"] == {"AsStated": True, "AsProof": True}
    assert rec["extremality"] == "minimal"


def test_family_invalid_params_exit_1():
    code, _, err = run_cli("family", "backelin", "--n", "2", "--r", "7", "--json")
    assert code == 1
    assert "InvalidParamError" in err


def test_glue_example():
    code, out, _ = run_cli(
        "glue", "--s1", "5,6,7", "--s2", "1", "--lambda", "7", "--mu", "26", "--json"
    )
    rec = json.loads(out)
    assert code == 0
    assert rec["pf"] == [212, 219]
    assert rec["pf_closed_form"] == [212, 219]
    assert rec["generators"] == [35, 42, 49, 26]
    assert rec["maximal_sufficient"] is False  # yet extremality is maximal
    assert rec["extremality"] == "maximal"


def test_glue_validation_error_names_the_error():
    code, _, err = run_cli(
        "glue", "--s1", "5,6,7", "--s2", "1", "--lambda", "7", "--mu", "5"
    )
    assert code == 1
    assert "MuIsMinimalGeneratorError" in err


def test_dup_proper_ideal():
    code, out, _ = run_cli(
        "dup", "--gens", "3,4,5", "--ideal", "5,6,7", "--d", "11", "--json"
    )
    rec = json.loads(out)
    assert code == 0
    assert rec["pf"] == [2, 4, 15, 17, 19]
    assert rec["pf_closed_form"] == [2, 4, 15, 17, 19]
    assert rec["ideal_kind"] == "proper"


def test_dup_full_s():
    code, out, _ = run_cli("dup", "--gens", "5,6,7", "--ideal", "S", "--d", "7", "--json")
    rec = json.loads(out)
    assert code == 0
    assert rec["minimal_generators"] == [7, 10, 12]
    assert rec["pf"] == [23, 25]
    assert rec["ideal_kind"] == "S"
    assert rec["max_self"] is True


def test_dup_star():
    code, out, _ = run_cli("dup", "--gens", "3,4,5", "--ideal", "S*", "--d", "11", "--json")
    rec = json.loads(out)
    assert code == 0
    assert rec["pf"] == [2, 4, 11, 13, 15]
    assert rec["ideal_kind"] == "S*"
    assert rec["max_star"] is False


def test_dup_validation_exit_1():
    code, _, err = run_cli("dup", "--gens", "5,6,7", "--ideal", "S", "--d", "9")
    assert code == 1
    assert "DNotInSError" in err


def test_verify_single_claim():
    code, out, err = run_cli("verify", "thm-3.8", "--h-max", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    for line in lines:
        rec = json.loads(line)
        assert list(rec) == ["claim", "instance", "match", "closed_form", "oracle"]
        assert rec["match"] is True
    assert "thm-3.8: 5/5 matched" in err


def test_verify_unknown_claim():
    code, _, err = run_cli("verify", "thm-9.9")
    assert code == 1
    assert "UnknownClaimError" in err


def test_verify_unknown_claim_leaves_out_file_alone(tmp_path):
    path = tmp_path / "reports.jsonl"
    path.write_text("kept\n")
    code, out, err = run_cli("verify", "thm-9.9", "--out", str(path))
    assert code == 1
    assert out == ""
    assert "UnknownClaimError" in err
    assert path.read_text() == "kept\n"


def test_parser_reuse_matches_a_fresh_parser():
    # one parser serves every call of a process; no call leaves state behind
    calls = [
        ("analyze", "--gens", "3,4,5", "--json"),
        ("glue", "--s1", "2,3", "--s2", "3,4,5", "--lambda", "7", "--mu", "4"),
        ("dup", "--gens", "3,4,5"),
    ]
    reused = [run_cli(*argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(*argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 1]
    assert cli.build_parser() is cli.build_parser()


def test_verify_bad_thread_count_exit_1(monkeypatch):
    monkeypatch.setenv("NSG_THREADS", "abc")
    code, out, err = run_cli("verify", "thm-3.8")
    assert code == 1
    assert out == ""
    assert "InvalidParamError" in err and "NSG_THREADS" in err


def test_verify_modes_differ_in_exit_code():
    code_stated, _, _ = run_cli("verify", "prop-3.3", "--mode", "AsStated", "--grid", "smoke")
    code_proof, _, _ = run_cli("verify", "prop-3.3", "--mode", "AsProof", "--grid", "smoke")
    assert code_stated == 2
    assert code_proof == 0


def test_verify_adjudication_names_the_winner():
    code, out, err = run_cli("verify", "prop-3.3", "--grid", "smoke")
    assert code == 0  # exactly one clean reading: a pass, divergences reported
    assert "-> AsProof" in err
    assert any(not json.loads(line)["match"] for line in out.strip().split("\n"))


def test_verify_all_smoke():
    code, out, err = run_cli("verify", "all", "--grid", "smoke")
    assert code == 0
    assert "-> Corrected" in err
    assert "-> AsProof" in err


def test_verify_out_file(tmp_path):
    path = tmp_path / "reports.jsonl"
    code, out, _ = run_cli("verify", "thm-3.8", "--grid", "smoke", "--out", str(path))
    assert code == 0
    assert out == ""
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    json.loads(lines[0])


def test_verify_determinism():
    _, out1, _ = run_cli("verify", "cor-4.2", "--grid", "smoke")
    _, out2, _ = run_cli("verify", "cor-4.2", "--grid", "smoke")
    assert out1 == out2


def test_sweep_dup_self_type_constant():
    code, out, _ = run_cli("sweep", "dup-self", "--gens", "5,6,7", "--d-range", "7:31:2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["d"] for r in rows] == ["7", "11", "13", "15", "17", "19", "21", "23", "25", "27", "29", "31"]
    assert all(r["type"] == "2" for r in rows)
    assert rows[0]["gens"] == "5;6;7"


def test_sweep_uniform_type():
    code, out, _ = run_cli("sweep", "uniform-type", "--r-range", "1:8")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    assert rows[0]["extremality"] == "both"
    assert all(r["extremality"] == "maximal" for r in rows[1:])
    assert [r["type"] for r in rows] == [str(r) for r in range(1, 9)]


def test_sweep_staircase():
    code, out, _ = run_cli("sweep", "staircase", "--r-range", "2:8")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(r["extremality"] == "minimal" for r in rows)


def test_sweep_header_and_determinism():
    code, out1, _ = run_cli("sweep", "bresinsky", "--h-range", "2:4")
    _, out2, _ = run_cli("sweep", "bresinsky", "--h-range", "2:4")
    assert code == 0
    assert out1 == out2
    assert out1.split("\n")[0] == "h,frobenius,type,reduced_type,extremality"


def test_sweep_gas():
    code, out, _ = run_cli(
        "sweep", "gas",
        "--n0-range", "5:7", "--s-range", "1:2", "--d-range", "2:4", "--p-range", "2:3",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows  # only valid (coprime, minimally generated) tuples appear
    assert all(int(r["reduced_type"]) <= int(r["type"]) for r in rows)


def test_sweep_bad_range_syntax():
    code, _, _ = run_cli("sweep", "uniform-type", "--r-range", "1-8")
    assert code == 1


def test_sweep_missing_flags():
    code, _, err = run_cli("sweep", "dup-self", "--d-range", "7:9")
    assert code == 1
