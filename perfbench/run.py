#!/usr/bin/env python3
"""Benchmark of the nsg library: end-to-end runs, traced runs, series and comparisons.

One run:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn.  With ``--trace 0`` a run
times whole passes over the workload with no instrumentation and prints the
end-to-end metrics; with ``--trace 1`` it runs one pass plain and one pass
traced on the same inputs and prints the per-layer metrics and the tracing
overhead.  Every pass runs in a fresh interpreter (``run.py pass``), as every
``nsg`` call does, so no cache or pool left by one pass can make the next one
cheaper.  Every output is checked against a reference; the last line of
stdout is the JSON result.  The number of passes follows from ``--seconds``
alone (see ``pass_budget_s`` in workloads.py), so both sides of a comparison
do the same work.  Times are wall times scaled to a reference CPU speed
calibrated while the library is idle (see speed.py); the raw wall times are
in the results file under perfbench/out/.

Comparisons (the pair rule of the choosing-metrics guide):
    python3 perfbench/run.py series --workload NAME... --runs 10 --out FILE [--base DIR]
    python3 perfbench/run.py compare PAIRED.json

``series`` goes round-robin over the named workloads, so a slow spell of a
shared machine spreads over all of them; ``--out`` then names one file per
workload through ``{workload}``.  ``series --base DIR`` alternates, run by
run, which side goes first: this checkout's ``src`` or the ``src`` of the
checkout at DIR, both measured by this benchmark's code.  Only such a paired
file gets verdicts; ``compare`` prints them again from the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
from speed import calibrate
from tracing import PREDICTIONS, Tracer, install
from workloads import WORKLOADS, nproc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
PROBE_RUNS = 11
PROBE_SPELL_S = 0.03


def import_nsg(src: Path) -> None:
    """Import nsg from ``src`` and nowhere else."""
    if not (src / "nsg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nsg sources under {src}")
    sys.path.insert(0, str(src))
    import nsg

    if Path(nsg.__file__).resolve().parent != (src / "nsg").resolve():
        raise SystemExit(f"perfbench: nsg was imported from {nsg.__file__}, not {src}")


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    proc = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, env=env
    )
    return proc.stdout.strip() or "unknown"


def stamp(root: Path, seed: int, runs: int) -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(root),
        "seed": seed,
        "runs": runs,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def setup_seconds(src: Path) -> tuple[float, float]:
    """Set-up cost of a fresh interpreter through `import nsg` and the parser
    build: the median over PROBE_RUNS interpreters of their CPU time (user +
    system) at the reference speed.  CPU time leaves out the waits for a core
    that make the wall time of so short a process scatter on a shared host.
    Also returns the raw median wall time."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import nsg, nsg.cli; nsg.cli.build_parser()"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    walls, scaled = [], []
    for i in range(PROBE_RUNS + 1):  # the first one only warms the bytecode cache
        before = calibrate(PROBE_SPELL_S)
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
        if i:
            walls.append(wall)
            scaled.append(cpu * (before + calibrate(PROBE_SPELL_S)) / 2)
    return statistics.median(scaled), statistics.median(walls)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def cmd_pass(args) -> int:
    """One pass in this fresh interpreter: run, gate, print one JSON line."""
    src = Path(args.nsg_src)
    import_nsg(src)
    w = WORKLOADS[args.workload]
    workers = nproc() if w.parallel else 1
    inputs = w.inputs(args.seed, args.pass_no, args.tiny)
    tracer = Tracer(f"{args.workload}:{args.seed}:{os.getpid()}") if args.trace else None
    uninstall = install(tracer) if tracer else None
    try:
        res = w.run(inputs, workers)
    finally:
        if uninstall:
            uninstall()
    rss = peak_rss_mb()  # before the gate adds its own
    failed = w.gate(inputs, res)
    out = {
        "attempted": len(failed),
        "failed": sum(failed),
        "raised": res.raised,
        "wall_s": res.wall_s,
        "factor": res.factor,
        "items": res.scaled_items(),
        "rss_mb": rss,
        "workers": workers,
        "pid": os.getpid(),
    }
    if tracer:
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans_file)
        units = {k: m["unit"] for k, m in PER_LAYER.items()}
        out["metrics"] = {
            k: v * res.factor if units[k] == "s" else v for k, v in tracer.metrics(units).items()
        }
        out["spans"] = len(tracer.spans)
        out["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(out))
    return 0


def run_pass(src: Path, name: str, seed: int, pass_no: int, tiny: bool, trace: int) -> dict:
    """One pass in a fresh interpreter; returns what ``cmd_pass`` printed."""
    argv = ["pass", "--workload", name, "--seed", str(seed), "--pass-no", str(pass_no),
            "--trace", str(trace), "--nsg-src", str(src)] + (["--tiny"] if tiny else [])
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: pass {pass_no} of {name} failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_plain(name: str, seed: int, seconds: float, tiny: bool, src: Path) -> dict:
    w = WORKLOADS[name]
    passes = 1 if tiny else max(1, int(seconds // w.pass_budget_s))
    runs = [run_pass(src, name, seed, p, tiny, 0) for p in range(passes)]
    walls = [r["wall_s"] * r["factor"] for r in runs]
    if w.fixed_inputs:  # the same items every pass: one sample per item, its best time
        items = [min(ts) for ts in zip(*(r["items"] for r in runs))]
    else:
        items = [t for r in runs for t in r["items"]]
    items = items or walls
    attempted = sum(r["attempted"] for r in runs)
    per_pass = attempted / passes
    tail_s, tail_pct, samples = stats.tail(items)
    setup, setup_raw = setup_seconds(src)
    metrics = {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(per_pass / wall for wall in walls),
        "item_p50_ms": 1000 * statistics.median(items),
        "item_tail_ms": 1000 * tail_s,
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
        "setup_s": setup,
    }
    notes = {
        "wall_s": f"median of {passes} pass(es) of {per_pass:.0f} items; raw wall "
                  + ", ".join(f"{r['wall_s']:.3f}" for r in runs) + " s, speed "
                  + ", ".join(f"{r['factor']:.3f}" for r in runs),
        "item_tail_ms": f"p{tail_pct:.2f} of {samples} items, 10 beyond it" if samples > 10
                        else f"maximum of {samples} items",
        "setup_s": f"median CPU time of {PROBE_RUNS} fresh interpreters; raw wall {setup_raw:.4f} s",
    }
    return {
        "attempted": attempted,
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
        "notes": notes,
        "raised": [r["raised"] for r in runs if r["raised"]],
        "pass_wall_s": [r["wall_s"] for r in runs],
        "speed_factor": [r["factor"] for r in runs],
        "setup_wall_s": setup_raw,
        "workers": runs[0]["workers"],
    }


def run_traced(name: str, seed: int, tiny: bool, src: Path) -> dict:
    """One plain and one traced pass on the same inputs, each in its own interpreter."""
    plain = run_pass(src, name, seed, 0, tiny, 0)
    traced = run_pass(src, name, seed, 0, tiny, 1)
    notes = {n: f"-> {moves}" for n, moves in PREDICTIONS.items()}
    if WORKLOADS[name].parallel:
        notes = {
            n: note if n.startswith(("oracle.pool", "oracle.check", "oracle.harness"))
            else note + " [parent process only]"
            for n, note in notes.items()
        }
    untraced_s, traced_s = (r["wall_s"] * r["factor"] for r in (plain, traced))
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": traced["metrics"],
        "notes": notes,
        "raised": [r["raised"] for r in (plain, traced) if r["raised"]],
        "overhead": {
            "untraced_wall_s": untraced_s,
            "traced_wall_s": traced_s,
            "overhead_s": traced_s - untraced_s,
            "speed_factor": [plain["factor"], traced["factor"]],
            "spans": traced["spans"],
            "spans_file": traced["spans_file"],
        },
        "workers": traced["workers"],
    }


def print_metrics(name: str, run: dict, units: dict) -> None:
    print(f"workload {name}: {run['attempted']} items, {run['failed']} failed")
    print(f"  {'fail_frac':<32} {run['failed'] / run['attempted']:>14.6g} {'1':<6}")
    for key, value in run["metrics"].items():
        print(f"  {key:<32} {value:>14.6g} {units[key]['unit']:<6} {run['notes'].get(key, '')}")
    if "overhead" in run:
        o = run["overhead"]
        print(
            f"  tracing overhead: {o['overhead_s']:.3f} s "
            f"({o['traced_wall_s']:.3f} s traced vs {o['untraced_wall_s']:.3f} s untraced, "
            f"{o['spans']} spans in {o['spans_file']})"
        )
    for msg in run["raised"]:
        print(f"  a pass raised: {msg}")


def cmd_run(args) -> int:
    src = Path(args.nsg_src).resolve() if args.nsg_src else ROOT / "src"
    if not (src / "nsg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nsg sources under {src}")
    if args.workload == "all":
        return run_all(args)
    name = args.workload
    if args.trace:
        run = run_traced(name, args.seed, args.tiny, src)
        units = PER_LAYER
    else:
        run = run_plain(name, args.seed, args.seconds, args.tiny, src)
        units = E2E
    print_metrics(name, run, units)
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]["unit"]} for k, v in run["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"stamp": stamp(src.parent, args.seed, 1), "workload": name, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "run": run, "result": result}
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


def _one(root: Path, argv: list[str]) -> dict:
    """One run in a fresh interpreter; returns its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv, "--nsg-src", str(root / "src")],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        res = _one(ROOT, argv)
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def cmd_series(args) -> int:
    """Runs of each workload, round-robin over the workloads, one results file per workload."""
    if "{workload}" not in args.out and len(args.workload) > 1:
        raise SystemExit("series: with several workloads, --out must contain {workload}")
    base_root = Path(args.base).resolve() if args.base else None
    roots = {"new": ROOT} if base_root is None else {"new": ROOT, "base": base_root}
    sides = {w: {side: [] for side in roots} for w in args.workload}
    for i in range(args.runs):
        seed = args.seed0 + i
        order = list(roots) if i % 2 == 0 else list(reversed(roots))
        for workload in args.workload:
            for side in order:
                argv = ["--workload", workload, "--seed", str(seed), "--seconds",
                        str(args.seconds), "--trace", str(args.trace)]
                res = _one(roots[side], argv)
                sides[workload][side].append({"seed": seed, "first": side == order[0], **res})
    for workload, runs in sides.items():
        record = {
            "stamp": stamp(ROOT, args.seed0, args.runs),
            "base_commit": git_commit(base_root) if base_root else None,
            "workload": workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "sides": runs,
        }
        out = Path(args.out.format(workload=workload))
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1))
        print_spread(workload, runs["new"])
        if base_root is not None:
            print_compare(workload, runs["base"], runs["new"])
    return 0


def _values(runs: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs]


def print_spread(workload: str, runs: list[dict]) -> None:
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"{workload}: {len(runs)} runs, fail_frac {failed / attempted:.6g} ({failed}/{attempted})")
    for metric in runs[0]["metrics"]:
        vals = _values(runs, metric)
        q1, med, q3 = stats.quartiles(vals)
        bound = E2E.get(metric, {}).get("bound")
        line = f"  {metric:<32} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {stats.spread(vals):.4f}"
        if bound is not None:
            line += f" (bound {bound}, a third of it {bound / 3:.4f})"
        print(line)


def print_compare(workload: str, base: list[dict], new: list[dict]) -> None:
    print(f"{workload}: {len(new)} pairs, base vs new")
    for metric in new[0]["metrics"]:
        spec = E2E.get(metric) or PER_LAYER.get(metric)
        res = stats.compare(_values(base, metric), _values(new, metric), spec["better"], spec.get("bound"))
        change = f"{100 * res['change']:+.2f}%" if res["change"] is not None else "n/a"
        print(
            f"  {metric:<32} base {res['base'][1]:<12.6g} new {res['new'][1]:<12.6g} {change:>9} "
            f"wins {res['wins']}/{res['pairs']}  {res['verdict']}"
        )


def cmd_compare(args) -> int:
    record = json.loads(Path(args.file).read_text())
    if "base" not in record["sides"]:
        raise SystemExit("compare: the file must come from `series --base`, whose sides alternate")
    print_compare(record["workload"], record["sides"]["base"], record["sides"]["new"])
    return 0


def main(argv: list[str]) -> int:
    workloads = [*WORKLOADS, "all"]
    if argv[:1] == ["series"]:
        p = argparse.ArgumentParser(prog="run.py series")
        p.add_argument("--workload", choices=list(WORKLOADS), nargs="+", required=True)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seed0", type=int, default=1)
        p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--base", default=None, help="another checkout to pair against")
        p.add_argument("--out", required=True, help="results file; may contain {workload}")
        return cmd_series(p.parse_args(argv[1:]))
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("file", help="a results file of `series --base`")
        return cmd_compare(p.parse_args(argv[1:]))
    if argv[:1] == ["pass"]:
        p = argparse.ArgumentParser(prog="run.py pass")
        p.add_argument("--workload", choices=list(WORKLOADS), required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--pass-no", type=int, required=True)
        p.add_argument("--trace", type=int, choices=(0, 1), required=True)
        p.add_argument("--tiny", action="store_true")
        p.add_argument("--nsg-src", required=True)
        return cmd_pass(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--nsg-src", default=None, help=argparse.SUPPRESS)
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
