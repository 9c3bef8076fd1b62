"""Medians, tails, spreads, and the pair rule for comparing two series of runs."""

from __future__ import annotations

import statistics


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With fewer than eleven samples
    no such percentile exists and the maximum is returned as p100.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def compare(base: list[float], new: list[float], better: str, bound: float | None) -> dict:
    """The pair rule: run i of ``base`` is paired with run i of ``new``.

    A gain needs wins in at least 9/10 of the pairs (ties count for neither)
    and medians further apart than the base runs' quartile distance.  A
    regression is a median worse than the base median by more than ``bound``;
    when the base spread exceeds the bound the result is unresolved unless
    every new run beats every base run.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    gain = sign * (nmed - bmed)
    out = {
        "base": [bq1, bmed, bq3],
        "new": [nq1, nmed, nq3],
        "wins": wins,
        "pairs": len(pairs),
        "change": (nmed - bmed) / bmed if bmed else None,
    }
    if pairs and wins >= 0.9 * len(pairs) and gain > bq3 - bq1:
        out["verdict"] = "gain"
    elif bound is None:
        out["verdict"] = "no gain"
    elif bmed and (bq3 - bq1) / bmed > bound:
        beats_all = all(sign * (n - b) > 0 for n in new for b in base)
        out["verdict"] = "better" if beats_all else "unresolved"
    elif bmed and -gain / bmed > bound:
        out["verdict"] = "REGRESSION"
    else:
        out["verdict"] = "within bound"
    return out
