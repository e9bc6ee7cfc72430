"""Summarise one result set, or compare two, per workload and metric.

    python3 perfbench/compare.py A.jsonl           # spread of one set
    python3 perfbench/compare.py A.jsonl B.jsonl   # B (change) against A

Result sets are the files series.py writes.  For each end-to-end metric
of BENCHMARK.json it prints each side's median and quartiles and the
spread (quartile distance over median).  For two sets it also prints the
share of seed-paired runs B wins, ties counting for neither, and a
verdict against the metric's bound:

  improved    B wins at least 9 of 10 pairs and the medians differ by
              more than A's quartile distance
  no worse    B's median is within the bound of A's, and both spreads
              are within the bound
  unresolved  a spread is wider than the bound, unless every run of B
              beats every run of A
  worse       B's median is worse than A's by more than the bound

One set is steady when every spread is below a third of its bound.  A
run that exited with another code than 0 (a failed item, a watchdog
timeout, a set-up that raised) or printed no result is a failed run.
When B has more failed runs of a workload than A, every verdict of that
workload is "worse (failures)".  The exit code is 1 when a verdict is
worse, when a workload has no successful run, or when a single set has
a failed run; otherwise 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path: str) -> dict:
    """{workload: ({seed: result}, failed runs)}.  A run that exited with
    another code than 0 or printed no result is a failed run; only the
    others give metric values."""
    out: dict = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        runs, failed = out.setdefault(rec["workload"], ({}, []))
        if rec["exit"] == 0 and rec["result"] is not None:
            runs[rec["seed"]] = rec["result"]
        else:
            failed.append(rec["seed"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(runs: dict, metric: str) -> dict:
    return {seed: r["metrics"][metric]["value"] for seed, r in runs.items()
            if metric in r["metrics"]}


def verdict(a: dict, b: dict, bound: float, sign: int) -> tuple[str, float]:
    """sign is +1 when lower is better, -1 when higher is better."""
    pairs = [(a[s], b[s]) for s in a if s in b]
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    share = wins / len(pairs) if pairs else None
    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    spread_a = (qa[2] - qa[0]) / qa[1]
    spread_b = (qb[2] - qb[0]) / qb[1]
    change = sign * (qa[1] - qb[1]) / qa[1]  # > 0 is better
    if share is not None and share >= 0.9 \
            and sign * (qa[1] - qb[1]) > qa[2] - qa[0]:
        return "improved", share
    if max(spread_a, spread_b) > bound:
        every_run_better = (max(sign * y for y in b.values())
                            < min(sign * x for x in a.values()))
        return ("no worse" if every_run_better else "unresolved"), share
    return ("no worse" if change >= -bound else "worse"), share


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sets = [load(p) for p in argv]
    steady, worse = True, False
    for workload in [w["name"] for w in spec["workloads"]]:
        runs, failed = zip(*(s.get(workload, ({}, [])) for s in sets))
        print(f"{workload}: " + "; ".join(
            f"{len(r)} runs, {len(f)} failed" + (f" (seeds {f})" if f else "")
            for r, f in zip(runs, failed)))
        more_failed = len(sets) == 2 and len(failed[1]) > len(failed[0])
        if not all(runs) or more_failed or (len(sets) == 1 and failed[0]):
            worse = True
        if not all(runs):
            print("  no successful runs to compare")
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [values(r, name) for r in runs]
            cells = []
            for v in vals:
                q1, q2, q3 = quartiles(list(v.values()))
                cells.append(f"{q2:10.5g} [{q1:.5g}, {q3:.5g}] "
                             f"spread {(q3 - q1) / q2:6.1%}")
                if (q3 - q1) / q2 >= bound / 3:
                    steady = False
            line = f"  {name:<12} {m['unit']:<4}" + " | ".join(cells)
            if len(sets) == 2:
                sign = 1 if m["better"] == "lower" else -1
                word, share = verdict(vals[0], vals[1], bound, sign)
                if more_failed:
                    word = "worse (failures)"
                worse |= word.startswith("worse")
                wins = "no seed pairs" if share is None else f"B wins {share:.0%}"
                line += f" | {wins}, bound {bound:.0%}: {word}"
            else:
                line += f" | bound {bound:.0%}"
            print(line)
    if len(sets) == 1:
        print("steady" if steady else
              "not steady: a spread reaches a third of its bound")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
