"""Command-line front end: analyze, construct, verify, sweep.

Exit codes: 0 success, 1 usage, validation or output-file error, 2 verification
mismatch.  JSON output is integers-only; CSV and JSON-lines output are
byte-deterministic for identical invocations.  verify runs in one process;
NSG_THREADS is validated (an integer >= 1) and otherwise ignored.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Iterator, Sequence, TextIO

from . import constructions as cons
from . import families as fam
from .core import InvalidParamError, NumericalSemigroup, SemigroupError


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
    family = fam.FAMILIES[args.kind]
    values = [getattr(args, param) for param in family.params]
    record = analysis_record(NumericalSemigroup(family.generators(*values)))
    if args.kind == "gas":
        params = fam.GasParams(*values)
        record["b"] = params.b
        record["pf_closed_form"] = fam.gas_pf_closed(params, args.variant)
        record["pf_closed_form_variant"] = args.variant
        record["maximal_closed_form"] = fam.gas_maximal_predicate(params)
        record["minimal_closed_form"] = {
            mode: fam.gas_minimal_predicate(params, mode)
            for mode in fam.GAS_MINIMAL_MODES
        }
    else:
        record["pf_closed_form"] = family.pf_closed(*values)
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
    try:
        gens = _int_list(text)
    except argparse.ArgumentTypeError as exc:  # raised outside argparse, so name it here
        raise InvalidParamError(f"--ideal: {exc}") from None
    return cons.SemigroupIdeal(s, gens)


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
    from . import oracle  # the verify harness loads only for verify

    grid: dict = {"preset": args.grid}
    if args.h_max is not None:
        grid["h_max"] = args.h_max
    if args.r_max is not None:
        grid["r_max"] = args.r_max
    if args.mode is not None:
        grid["mode"] = args.mode
    if args.variant is not None:
        grid["variant"] = args.variant
    # everything that can refuse the run goes before --out is opened, which truncates it
    oracle.check_claim(args.claim)
    oracle.check_threads()
    claims = oracle.registered_claims() if args.claim == "all" else [args.claim]
    with oracle.verify_run():
        plan = [(claim_id, oracle.claim_instances(claim_id, grid)) for claim_id in claims]

        out = open(args.out, "w") if args.out else sys.stdout
        try:
            all_pass = True
            for claim_id, instances in plan:
                reports = []
                for inst in instances:
                    rep = oracle.run_instance(claim_id, inst)
                    print(rep.json_line(), file=out)
                    reports.append(rep)
                matched = sum(r.match for r in reports)
                print(
                    f"{claim_id}: {matched}/{len(reports)} matched", file=sys.stderr
                )
                verdict = oracle.adjudicate(claim_id, reports)
                if verdict is not None:
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


def _walk(
    ranges: list[range], last_stop: Callable[..., int | None], head: tuple[int, ...] = ()
) -> Iterator[tuple[int, ...]]:
    """Every tuple of ``ranges`` that starts with ``head``, in lexicographic order, one at a time.

    ``itertools.product`` would copy each range into memory first.  The last
    range is cut below ``last_stop(*head)`` when that is a bound; ranges
    ascend, since a range step must be positive.
    """
    if len(head) + 1 < len(ranges):
        for value in ranges[len(head)]:
            yield from _walk(ranges, last_stop, head + (value,))
        return
    last, stop = ranges[-1], last_stop(*head)
    if stop is not None:
        last = range(last.start, min(last.stop, stop), last.step)
    for value in last:
        yield head + (value,)


def _sweep_rows(args) -> tuple[list[str], list[list]]:
    tail = ["frobenius", "type", "reduced_type", "extremality"]

    def stats(sg: NumericalSemigroup) -> list:
        prof = sg.pf_profile()
        return [sg.frobenius, prof.cm_type, prof.reduced_type, prof.extremality.value]

    if args.target == "dup-self":
        if args.gens is None or args.d_range is None:
            raise SemigroupError("sweep dup-self requires --gens and --d-range")
        s = NumericalSemigroup(args.gens)
        gens_label = ";".join(str(g) for g in s.minimal_generators)
        rows = []
        for d in args.d_range:
            if d % 2 == 0 or not s.contains(d):
                continue  # outside the construction's domain
            spec = cons.DuplicationSpec(s, cons.ideal_full(s), d)
            rows.append([gens_label, d] + stats(cons.duplicate(spec)))
        return ["gens", "d"] + tail, rows
    family = fam.FAMILIES[args.target]
    ranges = [getattr(args, f"{param}_range") for param in family.params]
    if None in ranges:
        flags = " ".join(f"--{param}-range" for param in family.params)
        raise SemigroupError(f"sweep {args.target} requires {flags}")
    rows = [
        list(values) + stats(NumericalSemigroup(family.generators(*values)))
        for values in _walk(ranges, family.last_stop)
        if family.in_domain(*values)
    ]
    return list(family.params) + tail, rows


def _cmd_sweep(args) -> int:
    import csv

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
    for kind, family in fam.FAMILIES.items():
        q = fsub.add_parser(kind)
        for param in family.params:
            q.add_argument(f"--{param}", type=int, required=True)
        if kind == "gas":
            q.add_argument("--variant", choices=fam.GAS_PF_VARIANTS, default=fam.CORRECTED)
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
    p.add_argument("target", choices=[*fam.FAMILIES, "dup-self"])
    # every family parameter's range, and dup-self's d
    params = [param for family in fam.FAMILIES.values() for param in family.params]
    for param in dict.fromkeys(params + ["d"]):
        p.add_argument(f"--{param}-range", type=_int_range, default=None)
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
    except (SemigroupError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
