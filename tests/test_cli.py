import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import run_cli

import nsg.families as fam
from nsg import cli, oracle
from nsg.core import NumericalSemigroup


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


def test_family_gas_with_p_past_n0_exits_at_once():
    # the sequence would have 100,001 terms; p >= n0 is refused before it is built
    t0 = time.perf_counter()
    code, out, err = run_cli("family", "gas", "--n0", "3", "--s", "1", "--d", "1", "--p", "100000")
    assert time.perf_counter() - t0 < 0.5
    assert code == 1
    assert out == ""
    assert err.startswith("error: NotMinimalSequenceError: ")
    assert "n0=3, p=100000" in err
    assert len(err) < 200


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


def test_large_proper_ideal_dup_builds_only_s_and_the_duplication(monkeypatch):
    # stdout sha256 of each record; the proper-ideal closed forms read E~ off
    # the ideal's table mod m(S), so no semigroup of multiplicity min E is built
    pinned = [
        ("dup --gens 2000,2711,3013 --ideal 2711 --d 8435 --json",
         "4452d6468196589fb6042ea7f98214fc878eee0c1f91b8b97445856a780785df"),
        ("dup --gens 1000,1361,1523 --ideal 1361,1523 --d 4245 --json",
         "5e9a6fdd1e4084d81a4fb27fbf00af904861a7d6da1431b509058e32eec4e8a9"),
        ("dup --gens 97,135,159 --ideal 97 --d 135 --json",
         "af4e7b8214bd1ef8c9b9785347c4ae845940ae5ca2a181d41f6a2adf247cc982"),
    ]
    builds = []
    init = NumericalSemigroup.__init__
    monkeypatch.setattr(
        NumericalSemigroup, "__init__", lambda self, gens: builds.append(1) or init(self, gens)
    )
    for line, digest in pinned:
        builds.clear()
        code, out, _ = run_cli(*line.split())
        assert code == 0, line
        assert hashlib.sha256(out.encode()).hexdigest() == digest, line
        assert len(builds) == 2, line


def test_dup_validation_exit_1():
    code, _, err = run_cli("dup", "--gens", "5,6,7", "--ideal", "S", "--d", "9")
    assert code == 1
    assert "DNotInSError" in err


def test_dup_non_integer_ideal_exit_1():
    code, out, err = run_cli("dup", "--gens", "3,5", "--ideal", "foo", "--d", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: InvalidParamError: --ideal:")
    assert "Traceback" not in err


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


def test_verify_refused_run_leaves_out_file_alone(tmp_path, monkeypatch):
    # NSG_THREADS and every requested claim's grid are checked before --out is opened
    path = tmp_path / "reports.jsonl"
    path.write_text("kept\n")
    for threads, argv, error in (
        ("abc", ("thm-3.8",), "InvalidParamError"),
        ("", ("thm-3.8", "--h-max", "100000"), "GridTooLargeError"),
        ("", ("all", "--grid", "smoke", "--h-max", "100000"), "GridTooLargeError"),
    ):
        monkeypatch.setenv("NSG_THREADS", threads)
        code, out, err = run_cli("verify", *argv, "--out", str(path))
        assert code == 1
        assert out == ""
        assert error in err
        assert path.read_text() == "kept\n"


def test_unopenable_out_file_is_an_error_not_a_traceback(tmp_path):
    missing = tmp_path / "missing" / "x"
    for argv in (
        ("verify", "thm-3.8", "--grid", "smoke"),
        ("sweep", "uniform-type", "--r-range", "1:3"),
    ):
        for path, error in ((missing, "FileNotFoundError"), (tmp_path, "IsADirectoryError")):
            code, out, err = run_cli(*argv, "--out", str(path))
            assert code == 1
            assert out == ""
            assert err.startswith(f"error: {error}: ")
    assert not missing.parent.exists()


def test_verify_runs_the_plan_it_validated_and_streams(monkeypatch):
    # each claim is enumerated once, and every line is out before the next check runs
    enumerated, printed_before = [], []
    claim_instances, run_instance = oracle.claim_instances, oracle.run_instance
    out = io.StringIO()

    def counting(claim_id, grid=None):
        enumerated.append(claim_id)
        return claim_instances(claim_id, grid)

    def watching(claim_id, inst):
        printed_before.append(out.getvalue().count("\n"))
        return run_instance(claim_id, inst)

    monkeypatch.setattr(oracle, "claim_instances", counting)
    monkeypatch.setattr(oracle, "run_instance", watching)
    monkeypatch.setattr("sys.stdout", out)
    assert cli.main(["verify", "all", "--grid", "smoke"]) == 0
    assert enumerated == oracle.registered_claims()
    assert printed_before == list(range(len(printed_before)))
    assert out.getvalue().count("\n") == len(printed_before) > 0


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


def test_sweep_gas_stops_at_p_past_n0():
    # every p >= n0 is refused, so a p-range of 10**11 values prints what 2:2 prints
    t0 = time.perf_counter()
    head = ("sweep", "gas", "--n0-range", "3:3", "--s-range", "1:1", "--d-range", "1:1")
    wide = run_cli(*head, "--p-range", "2:100000000000")
    assert time.perf_counter() - t0 < 0.5
    assert wide == run_cli(*head, "--p-range", "2:2")
    assert wide[0] == 0 and wide[1].count("\n") == 2


def test_family_with_oversized_r_exits_1():
    for kind in ("uniform-type", "staircase"):
        code, out, err = run_cli("family", kind, "--r", "5000000")
        assert code == 1
        assert out == ""
        assert err.startswith("error: TableLimitError: r = 5000000")
        assert len(err) < 200


def test_sweep_bad_range_syntax():
    code, _, _ = run_cli("sweep", "uniform-type", "--r-range", "1-8")
    assert code == 1


def test_sweep_missing_flags():
    code, _, err = run_cli("sweep", "dup-self", "--d-range", "7:9")
    assert code == 1
    for target, flags in (
        ("backelin", ("--n-range", "--r-range")),
        ("gas", ("--n0-range", "--s-range", "--d-range", "--p-range")),
    ):
        code, out, err = run_cli("sweep", target, "--r-range", "9:9", "--d-range", "1:1")
        assert (code, out) == (1, "")
        assert err.startswith("error: SemigroupError: ")
        assert all(flag in err for flag in flags)


def test_sweep_gas_refused_build_exits_1():
    # an in-domain tuple whose build is refused is an error, not an empty sweep
    code, out, err = run_cli(
        "sweep", "gas",
        "--n0-range", "4194305:4194305", "--s-range", "1:1", "--d-range", "1:1", "--p-range", "2:3",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: TableLimitError: ")
    code, out, err = run_cli("family", "gas", "--n0", "4194305", "--s", "1", "--d", "1", "--p", "2")
    assert (code, out) == (1, "") and err.startswith("error: TableLimitError: ")


# answering family and sweep calls, each with the sha256 of f"{exit code}\n{stdout}"
PINNED = [
    ("family gas --n0 7 --s 5 --d 11 --p 4",
     "8e52a6f43ef527260af2b325d19cbeb9c1e098caa0c20f971917d1ba18d393cd"),
    ("family gas --n0 7 --s 5 --d 11 --p 4 --json",
     "b78bd74f85d026f0485a0b0057781a350ae969609bcd504725e383c38e31e199"),
    ("family gas --n0 12 --s 2 --d 5 --p 8 --variant AsStated",
     "00eca5b5f71537350c64a8f3473de50f5c5a3a087155b9d687fd383b0d6f344b"),
    ("family gas --n0 10 --s 2 --d 3 --p 5 --variant AsStated --json",
     "b00eb1681da9f72bb342467c2892770edaa937c574ca3c973e5f5f700e256cee"),
    ("family gas --n0 11 --s 1 --d 2 --p 5 --json",
     "7b6b5c4ab9add64012d05f091315456efffe56547fbf64d25bec598c11e2a751"),
    ("family bresinsky --h 3",
     "c2d3a99a257e37010070d520786be7eae7fdcf6aa097d2ce70a08e5fbf92ea62"),
    ("family bresinsky --h 4 --json",
     "b60a378232c533b4d0659b1ad1f05a1b2411ac2ae646e6aaf148e88fffd64bb4"),
    ("family backelin --n 2 --r 8",
     "482f778bf82d96ce15c21a9279e7ef0a170dcad70597ba456b8217881facb626"),
    ("family backelin --n 3 --r 12 --json",
     "608b45f7ff9e5a0fba1fcd6e35ea17564b67e0ee6b26212cd0c4dd8d31e1f1f9"),
    ("family uniform-type --r 5",
     "cdaab1b4d4251acbf20d2bd24fbf36dfa17a8c1783ecb07e3bc9d9bd4502c6e3"),
    ("family uniform-type --r 1 --json",
     "e33fc8552ff663d0f4959dc17ed3a97b7731864e60ce9f8b39f3ec6ecaf8d463"),
    ("family staircase --r 4",
     "3dc36ddab5309eb3783a9664774ffb58c27ceafcb00d19e36e844ce03529082c"),
    ("family staircase --r 3 --json",
     "582a7c19f7f80c75d8a74a073436763052cded7dfcdb27fe21a81f1f79b4dfc8"),
    ("sweep uniform-type --r-range 1:8",
     "0d52b114097c16e9193529bf7f329651e2a55484a6937986d6cea38ee279ad2c"),
    ("sweep staircase --r-range 1:9:2",
     "ea12c51e6be3788e035c3666e4914f672037795a2da3fbfe165f7cbb813eb08d"),
    ("sweep bresinsky --h-range 2:5",
     "ba4a7697bd5cc7d63fa7b4f35804c9bd911168a0fc7813aee6565f91ccf952c0"),
    ("sweep backelin --n-range 2:4 --r-range 7:15",
     "a76b21877d486e75fed89b5eb17037bbbd76e75a983d61a9d711e181d22b11cf"),
    ("sweep gas --n0-range 0:9 --s-range 0:2 --d-range 0:4 --p-range 0:12",
     "da0da064e8324624e7aa5b52345313ec8af6d84909c74609de29b75c68e4336f"),
    ("sweep gas --n0-range 3:3 --s-range 1:1 --d-range 1:1 --p-range 2:100000000000",
     "7b0da0ba463465b39a0dc78fc62ce832caa0ce2f29c14dcfa5f822ca29e0e7dc"),
    ("sweep dup-self --gens 5,6,7 --d-range 7:31:2",
     "1a33cd32eb361049ccdd18d0ede1a103bad2720336cf64ca550bcc178f028f4d"),
    ("sweep dup-self --gens 3,4,5 --d-range 0:15",
     "9be5bf7ddaf43d870761356fc0e8bc148feb888899cd2bef2906d5551f95b42a"),
]


def test_family_and_sweep_output_is_pinned(tmp_path):
    path = tmp_path / "sweep.csv"
    for line, digest in PINNED:
        argv = line.split()
        code, out, _ = run_cli(*argv)
        assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest, line
        if argv[0] == "sweep":
            assert run_cli(*argv, "--out", str(path)) == (code, "", "")
            assert path.read_text() == out


def _subparser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices[name]


# three parameter tuples per family, and its public constructor
SAMPLES = {
    "gas": (
        [(7, 5, 11, 4), (10, 2, 3, 5), (12, 2, 5, 8)],
        lambda *v: fam.gas_semigroup(fam.GasParams(*v)),
    ),
    "bresinsky": ([(2,), (3,), (4,)], fam.bresinsky_semigroup),
    "backelin": ([(2, 8), (2, 10), (3, 11)], fam.backelin_semigroup),
    "uniform-type": ([(1,), (2,), (6,)], fam.uniform_type_family),
    "staircase": ([(1,), (3,), (5,)], fam.staircase_min_type_family),
}


def test_family_table_drives_the_cli():
    assert list(SAMPLES) == list(fam.FAMILIES)
    family_parser = _subparser(cli.build_parser(), "family")
    for name, family in fam.FAMILIES.items():
        actions = _subparser(family_parser, name)._actions
        flags = {flag for a in actions for flag in a.option_strings} - {"-h", "--help", "--json"}
        extra = {"--variant"} if name == "gas" else set()
        assert flags == {f"--{param}" for param in family.params} | extra, name
        values, construct = SAMPLES[name]
        for v in values:
            sg = construct(*v)
            assert NumericalSemigroup(family.generators(*v)) == sg
            assert family.pf_closed(*v) == sg.pf_set()
            pairs = list(zip(family.params, map(str, v)))
            flags = [x for param, value in pairs for x in (f"--{param}", value)]
            code, out, _ = run_cli("family", name, *flags, "--json")
            assert code == 0
            assert json.loads(out)["pf_closed_form"] == sg.pf_set()
            ranges = [x for param, value in pairs for x in (f"--{param}-range", f"{value}:{value}")]
            code, out, _ = run_cli("sweep", name, *ranges)
            header, row = out.splitlines()
            assert code == 0
            tail = ["frobenius", "type", "reduced_type", "extremality"]
            assert header.split(",") == [*family.params, *tail]
            assert row.split(",")[: len(v)] == [value for _, value in pairs]


_STARTUP_PROBE = """
import contextlib, io, json, sys
import nsg, nsg.cli
nsg.cli.build_parser()
unused = ("nsg.oracle", "nsg.naive", "concurrent.futures", "multiprocessing")
at_start = [m for m in unused if m in sys.modules]
pf = nsg.naive_pf([3, 4, 5])
after_engine = [m for m in unused if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = nsg.cli.main(["verify", "thm-3.1", "--grid", "smoke"])
print(json.dumps({"at_start": at_start, "pf": pf, "after_engine": after_engine, "code": code,
                  "after_verify": [m for m in unused if m in sys.modules]}))
"""


def test_startup_loads_only_what_the_command_runs():
    # a fresh interpreter, because this test process has imported everything already
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["at_start"] == []
    # an engine name loads the engine, not the harness
    assert seen["pf"] == [1, 2]
    assert seen["after_engine"] == ["nsg.naive"]
    assert seen["code"] == 0
    assert seen["after_verify"] == ["nsg.oracle", "nsg.naive"]
