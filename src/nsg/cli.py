"""Command-line front end: analyze, construct, verify, sweep.

Exit codes: 0 success, 1 usage or validation error, 2 verification mismatch.
JSON output is integers-only; CSV and JSON-lines output are byte-deterministic
for identical invocations.  NSG_THREADS caps verify parallelism.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from typing import Sequence, TextIO

from . import constructions as cons
from . import families as fam
from . import oracle
from .core import NumericalSemigroup, SemigroupError


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1 (argparse defaults to 2, which is reserved
    # for verification mismatches)
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _int_range(text: str) -> range:
    parts = text.split(":")
    if len(parts) not in (2, 3) or not all(p.lstrip("-").isdigit() for p in parts):
        raise argparse.ArgumentTypeError(f"expected start:stop[:step], got {text!r}")
    nums = [int(p) for p in parts]
    step = nums[2] if len(nums) == 3 else 1
    if step <= 0:
        raise argparse.ArgumentTypeError("range step must be positive")
    return range(nums[0], nums[1] + 1, step)


def analysis_record(sg: NumericalSemigroup) -> dict:
    """The fixed JSON schema for one semigroup (field order is part of the contract)."""
    prof = sg.pf_profile()
    return {
        "generators": list(sg.generators),
        "minimal_generators": list(sg.minimal_generators),
        "multiplicity": sg.multiplicity,
        "frobenius": sg.frobenius,
        "conductor": sg.conductor,
        "genus": sg.genus,
        "pf": list(prof.pf),
        "type": prof.cm_type,
        "reduced_type": prof.reduced_type,
        "symmetric": sg.is_symmetric(),
        "extremality": prof.extremality.value,
    }


def _emit(record: dict, as_json: bool, out: TextIO) -> None:
    if as_json:
        print(json.dumps(record), file=out)
        return
    for key, value in record.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                print(f"{key}[{sub}]: {v}", file=out)
        elif isinstance(value, list):
            print(f"{key}: {' '.join(str(v) for v in value)}", file=out)
        else:
            print(f"{key}: {value}", file=out)


def _cmd_analyze(args) -> int:
    record = analysis_record(NumericalSemigroup(args.gens))
    _emit(record, args.json, sys.stdout)
    return 0


def _cmd_family(args) -> int:
    if args.kind == "gas":
        params = fam.GasParams(args.n0, args.s, args.d, args.p)
        sg = fam.gas_semigroup(params)
        record = analysis_record(sg)
        record["b"] = params.b
        record["pf_closed_form"] = fam.gas_pf_closed(params, args.variant)
        record["pf_closed_form_variant"] = args.variant
        record["maximal_closed_form"] = fam.gas_maximal_predicate(params)
        record["minimal_closed_form"] = {
            mode: fam.gas_minimal_predicate(params, mode)
            for mode in fam.GAS_MINIMAL_MODES
        }
    elif args.kind == "bresinsky":
        sg = fam.bresinsky_semigroup(args.h)
        record = analysis_record(sg)
        record["pf_closed_form"] = fam.bresinsky_pf_closed(args.h)
    elif args.kind == "backelin":
        sg = fam.backelin_semigroup(args.n, args.r)
        record = analysis_record(sg)
        record["pf_closed_form"] = fam.backelin_pf_closed(args.n, args.r)
    elif args.kind == "uniform-type":
        sg = fam.uniform_type_family(args.r)
        record = analysis_record(sg)
        record["pf_closed_form"] = fam.uniform_type_pf_closed(args.r)
    else:  # staircase
        sg = fam.staircase_min_type_family(args.r)
        record = analysis_record(sg)
        record["pf_closed_form"] = fam.staircase_pf_closed(args.r)
    _emit(record, args.json, sys.stdout)
    return 0


def _cmd_glue(args) -> int:
    spec = cons.GluingSpec(
        NumericalSemigroup(args.s1), NumericalSemigroup(args.s2), args.lam, args.mu
    )
    record = analysis_record(cons.glue(spec))
    record["lambda"] = args.lam
    record["mu"] = args.mu
    record["pf_closed_form"] = cons.gluing_pf(spec)
    try:
        record["maximal_sufficient"] = cons.gluing_maximal_sufficient(spec)
    except cons.NotApplicableError:
        record["maximal_sufficient"] = "not-applicable"
    _emit(record, args.json, sys.stdout)
    return 0


def _parse_ideal(s: NumericalSemigroup, text: str) -> cons.SemigroupIdeal:
    if text == "S":
        return cons.ideal_full(s)
    if text == "S*":
        return cons.ideal_star(s)
    return cons.SemigroupIdeal(s, _int_list(text))


def _cmd_dup(args) -> int:
    s = NumericalSemigroup(args.gens)
    spec = cons.DuplicationSpec(s, _parse_ideal(s, args.ideal), args.d)
    record = analysis_record(cons.duplicate(spec))
    record["d"] = args.d
    record["ideal_kind"] = spec.e_kind.value
    record["pf_closed_form"] = cons.duplication_pf(spec)
    result = cons.duplication_min_classifier(spec)
    record["min_clause"] = result.clause
    record["min_verdict"] = result.verdict.value
    if spec.e_kind is cons.IdealKind.FULL:
        record["max_self"] = cons.duplication_max_self(s, args.d)
    elif spec.e_kind is cons.IdealKind.STAR:
        record["max_star"] = cons.duplication_max_star(s, args.d)
    _emit(record, args.json, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    grid: dict = {"preset": args.grid}
    if args.h_max is not None:
        grid["h_max"] = args.h_max
    if args.r_max is not None:
        grid["r_max"] = args.r_max
    if args.mode is not None:
        grid["mode"] = args.mode
    if args.variant is not None:
        grid["variant"] = args.variant
    oracle.check_claim(args.claim)  # before --out is opened, which truncates it
    claims = oracle.registered_claims() if args.claim == "all" else [args.claim]

    out = open(args.out, "w") if args.out else sys.stdout
    try:
        all_pass = True
        for claim_id in claims:
            reports = oracle.verify_claim(claim_id, grid)
            for rep in reports:
                print(rep.json_line(), file=out)
            matched = sum(r.match for r in reports)
            print(
                f"{claim_id}: {matched}/{len(reports)} matched", file=sys.stderr
            )
            if claim_id in oracle.ADJUDICATED and len(
                {r.instance[oracle.ADJUDICATED[claim_id]] for r in reports}
            ) > 1:
                verdict = oracle.adjudicate(claim_id, reports)
                rates = ", ".join(f"{k} {v}" for k, v in verdict["rates"].items())
                name = verdict["decided"] or "UNDECIDED"
                print(
                    f"{claim_id}: adjudication over {verdict['key']}: {rates} -> {name}",
                    file=sys.stderr,
                )
            if not oracle.claim_passes(claim_id, reports):
                all_pass = False
    finally:
        if args.out:
            out.close()
    return 0 if all_pass else 2


def _sweep_rows(args) -> tuple[list[str], list[list]]:
    tail = ["frobenius", "type", "reduced_type", "extremality"]

    def stats(sg: NumericalSemigroup) -> list:
        prof = sg.pf_profile()
        return [sg.frobenius, prof.cm_type, prof.reduced_type, prof.extremality.value]

    rows: list[list] = []
    if args.target == "uniform-type":
        if args.r_range is None:
            raise SemigroupError("sweep uniform-type requires --r-range")
        for r in args.r_range:
            rows.append([r] + stats(fam.uniform_type_family(r)))
        return ["r"] + tail, rows
    if args.target == "staircase":
        if args.r_range is None:
            raise SemigroupError("sweep staircase requires --r-range")
        for r in args.r_range:
            rows.append([r] + stats(fam.staircase_min_type_family(r)))
        return ["r"] + tail, rows
    if args.target == "bresinsky":
        if args.h_range is None:
            raise SemigroupError("sweep bresinsky requires --h-range")
        for h in args.h_range:
            rows.append([h] + stats(fam.bresinsky_semigroup(h)))
        return ["h"] + tail, rows
    if args.target == "backelin":
        if args.n_range is None or args.r_range is None:
            raise SemigroupError("sweep backelin requires --n-range and --r-range")
        for n in args.n_range:
            for r in args.r_range:
                if r < 3 * n + 2:
                    continue
                rows.append([n, r] + stats(fam.backelin_semigroup(n, r)))
        return ["n", "r"] + tail, rows
    if args.target == "gas":
        for flag in ("n0_range", "s_range", "d_range", "p_range"):
            if getattr(args, flag) is None:
                raise SemigroupError("sweep gas requires --n0-range --s-range --d-range --p-range")
        for n0 in args.n0_range:
            for s in args.s_range:
                for d in args.d_range:
                    if math.gcd(n0, d) != 1:
                        continue
                    for p in args.p_range:
                        try:
                            sg = fam.gas_semigroup(fam.GasParams(n0, s, d, p))
                        except SemigroupError:
                            continue
                        rows.append([n0, s, d, p] + stats(sg))
        return ["n0", "s", "d", "p"] + tail, rows
    # dup-self
    if args.gens is None or args.d_range is None:
        raise SemigroupError("sweep dup-self requires --gens and --d-range")
    s = NumericalSemigroup(args.gens)
    gens_label = ";".join(str(g) for g in s.minimal_generators)
    for d in args.d_range:
        if d % 2 == 0 or not s.contains(d):
            continue  # outside the construction's domain
        spec = cons.DuplicationSpec(s, cons.ideal_full(s), d)
        rows.append([gens_label, d] + stats(cons.duplicate(spec)))
    return ["gens", "d"] + tail, rows


def _cmd_sweep(args) -> int:
    header, rows = _sweep_rows(args)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use."""
    parser = _Parser(prog="nsg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="invariants of an arbitrary semigroup")
    p.add_argument("--gens", type=_int_list, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("family", help="named families with closed-form PF sets")
    fsub = p.add_subparsers(dest="kind", required=True)
    g = fsub.add_parser("gas")
    g.add_argument("--n0", type=int, required=True)
    g.add_argument("--s", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--variant", choices=fam.GAS_PF_VARIANTS, default=fam.CORRECTED)
    b = fsub.add_parser("bresinsky")
    b.add_argument("--h", type=int, required=True)
    k = fsub.add_parser("backelin")
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--r", type=int, required=True)
    u = fsub.add_parser("uniform-type")
    u.add_argument("--r", type=int, required=True)
    st = fsub.add_parser("staircase")
    st.add_argument("--r", type=int, required=True)
    for q in (g, b, k, u, st):
        q.add_argument("--json", action="store_true")
        q.set_defaults(func=_cmd_family)

    p = sub.add_parser("glue", help="gluing of two semigroups")
    p.add_argument("--s1", type=_int_list, required=True)
    p.add_argument("--s2", type=_int_list, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("dup", help="numerical duplication 2S u (2E+d)")
    p.add_argument("--gens", type=_int_list, required=True)
    p.add_argument("--ideal", required=True, help="S, S*, or ideal generators (comma list)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dup)

    p = sub.add_parser("verify", help="closed forms vs brute-force oracle")
    p.add_argument("claim", help="a registered claim id, or 'all'")
    p.add_argument("--grid", choices=("smoke", "small", "full"), default="small")
    p.add_argument("--h-max", type=int, default=None)
    p.add_argument("--r-max", type=int, default=None)
    p.add_argument("--mode", choices=fam.GAS_MINIMAL_MODES, default=None)
    p.add_argument("--variant", choices=fam.GAS_PF_VARIANTS, default=None)
    p.add_argument("--out", default=None, help="write JSON lines here instead of stdout")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="CSV of invariants over a parameter range")
    p.add_argument(
        "target",
        choices=("uniform-type", "staircase", "bresinsky", "backelin", "gas", "dup-self"),
    )
    p.add_argument("--r-range", type=_int_range, default=None)
    p.add_argument("--h-range", type=_int_range, default=None)
    p.add_argument("--n-range", type=_int_range, default=None)
    p.add_argument("--d-range", type=_int_range, default=None)
    p.add_argument("--n0-range", type=_int_range, default=None)
    p.add_argument("--s-range", type=_int_range, default=None)
    p.add_argument("--p-range", type=_int_range, default=None)
    p.add_argument("--gens", type=_int_list, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SemigroupError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
