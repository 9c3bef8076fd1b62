import argparse
import csv
import gc
import gzip
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
import weakref
from pathlib import Path

from conftest import run_cli

import nsg.families as fam
from nsg import cli, oracle
from nsg.core import NumericalSemigroup
from nsg.naive import naive_duplication_stats


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
    # the refusals' lines, byte for byte: the output pins hash stdout only
    for argv, line in (
        ("family bresinsky --h 1", "InvalidParamError: h must be >= 2, got 1"),
        ("family backelin --n 1 --r 10", "InvalidParamError: n must be >= 2, got 1"),
        ("family backelin --n 2 --r 7", "InvalidParamError: r must be >= 3n+2 = 8, got 7"),
        ("family backelin --n 2 --r 7 --json", "InvalidParamError: r must be >= 3n+2 = 8, got 7"),
        ("sweep backelin --n-range 1:2 --r-range 7:8", "InvalidParamError: n must be >= 2, got 1"),
        (
            "family gas --n0 5 --s 1 --d 3 --p 1",
            "InvalidParamError: p must be >= 2: GasParams(n0=5, s=1, d=3, p=1)",
        ),
        (
            "family gas --n0 5 --s 0 --d 3 --p 2",
            "InvalidParamError: n0, s, d must be >= 1: GasParams(n0=5, s=0, d=3, p=2)",
        ),
        # gcd(n0, d) != 1 and p >= n0 at once: the gcd refusal wins
        ("family gas --n0 4 --s 1 --d 2 --p 5", "GcdNotOneError: gcd(n0, d) must be 1: gcd(4, 2)"),
        (
            "family gas --n0 3 --s 1 --d 1 --p 3",
            "NotMinimalSequenceError: GAS with n0=3, p=3 is not a minimal generating set: "
            "p >= n0 makes s*n0 + n0*d a multiple of n0",
        ),
    ):
        assert run_cli(*argv.split()) == (1, "", f"error: {line}\n")


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
    # <5,6,13> is not of maximal reduced type, so the criterion cannot apply
    code, out, _ = run_cli(
        "glue", "--s1", "5,6,13", "--s2", "2,3", "--lambda", "7", "--mu", "10", "--json"
    )
    assert code == 0
    assert json.loads(out)["maximal_sufficient"] == "not-applicable"


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


def test_dup_proper_ideals_of_n_match_the_oracle():
    # over N = <1> the ideal's table mod m has one class, and the scan for
    # maximal classes has no step to test
    for ideal, d in (([2], 1), ([3, 4], 5)):
        ideal_arg = ",".join(map(str, ideal))
        code, out, _ = run_cli("dup", "--gens", "1", "--ideal", ideal_arg, "--d", str(d), "--json")
        assert code == 0, ideal
        rec = json.loads(out)
        assert rec["ideal_kind"] == "proper"
        naive = naive_duplication_stats([1], ideal, d)
        assert (rec["pf"], rec["type"], rec["frobenius"]) == (
            naive.pf, naive.cm_type, naive.frobenius
        ), ideal
        assert rec["pf_closed_form"] == naive.pf, ideal


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
        # the reduced type of E~ is counted per class mod m, not per integer below min E
        ("dup --gens 2,3 --ideal 1000000000000 --d 3 --json",
         "cc151ee368b8966d4f99ca8cff527e2009f6e2de2f514676f2133e16ae98a1f7"),
    ]
    builds = []
    init = NumericalSemigroup.__init__
    monkeypatch.setattr(
        NumericalSemigroup, "__init__", lambda self, gens: builds.append(1) or init(self, gens)
    )
    for line, digest in pinned:
        builds.clear()
        t0 = time.perf_counter()
        code, out, _ = run_cli(*line.split())
        assert time.perf_counter() - t0 < 1.0, line
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


def test_verify_refused_run_leaves_out_file_alone(tmp_path):
    # every requested claim's grid is checked before --out is opened
    path = tmp_path / "reports.jsonl"
    path.write_text("kept\n")
    for argv in (
        ("thm-3.8", "--h-max", "100000"),
        ("all", "--grid", "smoke", "--h-max", "100000"),
        ("remark-5.3", "--r-max", "246"),
    ):
        code, out, err = run_cli("verify", *argv, "--out", str(path))
        assert code == 1
        assert out == ""
        assert "GridTooLargeError" in err
        assert path.read_text() == "kept\n"


def test_verify_pauses_the_collector_and_restores_its_state(monkeypatch):
    # the CLI's run is one verify run: no instance runs with the collector on,
    # and it is left as it was found, after a refused run too
    seen, run_claim = [], oracle.run_claim

    def drawn(instances):
        for inst in instances:
            seen.append(gc.isenabled())
            yield inst

    monkeypatch.setattr(oracle, "run_claim", lambda claim, insts: run_claim(claim, drawn(insts)))
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            code, out, _ = run_cli("verify", "thm-3.8", "--grid", "smoke")
            assert code == 0 and out
            assert gc.isenabled() is enabled
            code, out, err = run_cli("verify", "all", "--grid", "smoke", "--h-max", "100000")
            assert code == 1 and out == "" and "GridTooLargeError" in err
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)


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
    claim_instances, run_claim = oracle.claim_instances, oracle.run_claim
    out = io.StringIO()

    def counting(claim_id, grid=None):
        enumerated.append(claim_id)
        return claim_instances(claim_id, grid)

    def drawn(instances):
        for inst in instances:
            printed_before.append(out.getvalue().count("\n"))
            yield inst

    monkeypatch.setattr(oracle, "claim_instances", counting)
    monkeypatch.setattr(oracle, "run_claim", lambda claim, insts: run_claim(claim, drawn(insts)))
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


def test_verify_ignores_thread_setting(monkeypatch):
    # verify runs in one process and reads no thread count, valid or not
    monkeypatch.delenv("NSG_THREADS", raising=False)
    unset = run_cli("verify", "thm-3.8")
    assert unset[0] == 0 and unset[1]
    for threads in ("abc", "0", "-3", "2", ""):
        monkeypatch.setenv("NSG_THREADS", threads)
        assert run_cli("verify", "thm-3.8") == unset, threads


def test_verify_modes_differ_in_exit_code():
    # one reading pinned: the summary is the plain count, and any mismatch fails
    for argv, code, err in (
        (("prop-3.3", "--mode", "AsStated"), 2, "prop-3.3: 158/176 matched\n"),
        (("prop-3.3", "--mode", "AsProof"), 0, "prop-3.3: 176/176 matched\n"),
        (("thm-3.1", "--variant", "AsStated"), 2, "thm-3.1: 152/176 matched\n"),
        (("thm-3.1", "--variant", "Corrected"), 0, "thm-3.1: 176/176 matched\n"),
    ):
        got_code, out, got_err = run_cli("verify", *argv, "--grid", "smoke")
        assert (got_code, got_err) == (code, err), argv
        assert out.count("\n") == 176


def test_verify_adjudication_names_the_winner():
    code, out, err = run_cli("verify", "prop-3.3", "--grid", "smoke")
    assert code == 0  # exactly one clean reading: a pass, divergences reported
    assert err == (
        "prop-3.3: 334/352 matched\n"
        "prop-3.3: adjudication over mode: AsProof 176/176, AsStated 158/176 -> AsProof\n"
    )
    assert any(not json.loads(line)["match"] for line in out.strip().split("\n"))


def test_verify_two_clean_readings_are_undecided_and_fail(monkeypatch):
    # a judge that accepts everything leaves both readings clean: nothing is decided
    row = oracle._CLAIMS["prop-3.3"]
    monkeypatch.setitem(oracle._CLAIMS, "prop-3.3", row._replace(judge=lambda c, o: True))
    code, out, err = run_cli("verify", "prop-3.3", "--grid", "smoke")
    assert code == 2
    assert err == (
        "prop-3.3: 352/352 matched\n"
        "prop-3.3: adjudication over mode: AsProof 176/176, AsStated 176/176 -> UNDECIDED\n"
    )
    reports = oracle.verify_claim("prop-3.3", {"preset": "smoke"})
    assert oracle.adjudicate("prop-3.3", reports)["clean"] == ["AsProof", "AsStated"]
    assert not oracle.claim_passes("prop-3.3", reports)


def test_verify_claim_with_no_instances_passes():
    assert run_cli("verify", "remark-5.3", "--r-max", "0") == (0, "", "remark-5.3: 0/0 matched\n")


def test_verify_keeps_no_report(monkeypatch):
    # each report is dropped once its line is out and the tally has counted it
    class Report(oracle.VerificationReport):
        __slots__ = ("__weakref__",)

    refs, most_alive = [], []
    run_claim = oracle.run_claim

    def drawn(instances):
        for inst in instances:
            most_alive.append(sum(ref() is not None for ref in refs))
            yield inst

    def tracked(claim_id, instances):
        for report in run_claim(claim_id, drawn(instances)):
            refs.append(weakref.ref(report))
            yield report

    monkeypatch.setattr(oracle, "VerificationReport", Report)
    monkeypatch.setattr(oracle, "run_claim", tracked)
    code, out, _ = run_cli("verify", "all", "--grid", "smoke")
    assert code == 0
    assert len(most_alive) == out.count("\n") > 0
    assert max(most_alive) <= 1


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


FULL_JSONL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "verify-full.jsonl.gz"

FULL_STDERR = """\
thm-3.1: 3750/4374 matched
thm-3.1: adjudication over variant: AsStated 1563/2187, Corrected 2187/2187 -> Corrected
prop-3.2: 2187/2187 matched
prop-3.3: 4227/4374 matched
prop-3.3: adjudication over mode: AsProof 2187/2187, AsStated 2040/2187 -> AsProof
prop-3.5: 28/28 matched
prop-3.6: 28/28 matched
thm-3.8: 7/7 matched
prop-3.10: 7/7 matched
cor-4.2: 334/334 matched
prop-4.3: 334/334 matched
cor-4.6: 64/64 matched
thm-5.2: 168/168 matched
thm-5.4: 168/168 matched
prop-5.7: 39/39 matched
prop-5.9: 39/39 matched
remark-5.3: 10/10 matched
remark-5.5: 10/10 matched
remark-5.8: 21/21 matched
"""


def test_verify_all_full_matches_golden_stream(tmp_path):
    # the CLI's own stream, not only verify_claim's lines: every byte of --out and of stderr
    path = tmp_path / "reports.jsonl"
    code, out, err = run_cli("verify", "all", "--grid", "full", "--out", str(path))
    assert (code, out, err) == (0, "", FULL_STDERR)
    written = path.read_bytes()
    with gzip.open(FULL_JSONL, "rb") as fh:
        assert written == fh.read()
    assert hashlib.sha256(written).hexdigest().startswith("a062f7285f59")


def test_verify_all_small_matches_its_pinned_stream():
    # the small preset, which no golden file holds: every byte of stdout and of stderr
    code, out, err = run_cli("verify", "all", "--grid", "small")
    assert code == 0 and out.count("\n") == 5711
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c90d8b2902491c236e0e10efde6192103fc88dee58ec092ed95b68bb957960de"
    )
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "2e0e9714b43703a882ba6ef4b653d8bfb61a3c5a478378423222a59c7ffc6dfe"
    )


def test_verify_reading_flag_is_read_by_its_claim_alone(tmp_path):
    # --mode is prop-3.3's reading and --variant thm-3.1's; any other claim refuses them
    path = tmp_path / "reports.jsonl"
    path.write_text("kept\n")
    for claim, flag, value in (
        ("thm-3.8", "--mode", "AsProof"),
        ("prop-3.3", "--variant", "Corrected"),
    ):
        refused = (1, "", f"error: UnknownClaimError: unknown grid key '{flag[2:]}'\n")
        argv = ("verify", claim, flag, value, "--grid", "smoke")
        assert run_cli(*argv) == refused
        assert run_cli(*argv, "--out", str(path)) == refused
        assert path.read_text() == "kept\n"
    # `all` hands --mode to prop-3.3 alone, which runs only that reading
    with gzip.open(FULL_JSONL.with_name("verify-smoke.jsonl.gz"), "rt") as fh:
        smoke = fh.read().splitlines(keepends=True)
    code, _, smoke_err = run_cli("verify", "all", "--grid", "smoke")
    assert code == 0
    both = (
        "prop-3.3: 334/352 matched\n"
        "prop-3.3: adjudication over mode: AsProof 176/176, AsStated 158/176 -> AsProof\n"
    )
    assert both in smoke_err
    one = "prop-3.3: 176/176 matched\n"
    code, out, err = run_cli("verify", "all", "--mode", "AsProof", "--grid", "smoke")
    assert (code, err) == (0, smoke_err.replace(both, one))
    assert out == "".join(line for line in smoke if '"prop-3.3/mode=AsStated"' not in line)
    code, out, err = run_cli("verify", "prop-3.3", "--mode", "AsProof", "--grid", "smoke")
    assert (code, err) == (0, one)
    assert out == "".join(line for line in smoke if '"prop-3.3/mode=AsProof"' in line)


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
    code, _, err = run_cli("sweep", "uniform-type", "--r-range", "1:5:0")
    assert code == 1
    assert "range step must be positive" in err


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


def _readme_cli_lines() -> list[list[str]]:
    """The argv of every ``nsg ...`` line in README's ``sh`` blocks, trailing comments dropped."""
    lines, in_sh = [], False
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("nsg "):
            lines.append(shlex.split(line, comments=True)[1:])
    return lines


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # an example's --out lands here
    examples = _readme_cli_lines()
    assert len(examples) >= 12
    for argv in examples:
        code, out, err = run_cli(*argv)
        assert code == 0, (argv, err)
        if "--out" in argv:
            out = (tmp_path / argv[argv.index("--out") + 1]).read_text()
        assert out, argv


def _subparser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices[name]


# three parameter tuples per family, and its public constructor
SAMPLES = {
    "gas": (
        [(7, 5, 11, 4), (10, 2, 3, 5), (12, 2, 5, 8)],
        fam.gas_semigroup,
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
import sys
import nsg, nsg.cli
nsg.cli.build_parser()
unused = ("nsg.oracle", "nsg.naive", "concurrent.futures", "multiprocessing")
heavy = ("dataclasses", "inspect", "json")
at_start = [m for m in unused if m in sys.modules]
heavy_at_start = [m for m in heavy if m in sys.modules]
import contextlib, io, json
pf = nsg.naive_pf([3, 4, 5])
after_engine = [m for m in unused if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = nsg.cli.main(["verify", "thm-3.1", "--grid", "smoke"])
print(json.dumps({"at_start": at_start, "heavy_at_start": heavy_at_start, "pf": pf,
                  "after_engine": after_engine, "code": code,
                  "after_verify": [m for m in unused if m in sys.modules],
                  "heavy_after_verify": [m for m in heavy[:2] if m in sys.modules]}))
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
    # no record class pulls in dataclasses (and with it inspect), and only --json loads json
    assert seen["heavy_at_start"] == []
    # an engine name loads the engine, not the harness
    assert seen["pf"] == [1, 2]
    assert seen["after_engine"] == ["nsg.naive"]
    assert seen["code"] == 0
    assert seen["after_verify"] == ["nsg.oracle", "nsg.naive"]
    assert seen["heavy_after_verify"] == []
