"""Benchmark of fermatarr's exact pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

fermatarr is imported from ./src; nothing is installed.  Every pass of the
workload runs in a fresh single-threaded child process (worker.py),
because a command-line user pays the cold caches and the catalogue
construction on every command.  The load is a closed loop with one
caller: items run back to back in the order the seed fixes.  Passes
repeat, one at a time, while the next one still fits in --seconds.
Each pass is followed by children that only set up and exit; setup_s is
the median over them and the untraced passes.

Times are reported at a fixed machine speed.  The machine this runs on
is a share of a host whose speed drifts by up to 1.5x within seconds, in
CPU time as in wall time.  So an untraced pass times a fixed calibration
kernel every 50 ms of CPU time, in the middle of its items (worker.py),
and each item's CPU time is scaled by CAL_NOMINAL_S over the median of
the samples taken while it ran, or of the WINDOW samples nearest to it
when it ran for fewer.  Each set-up is scaled by the median of its
child's samples; a set-up-only child takes a few right after it.  A
change to fermatarr moves the items' times and not the kernel's.

With --trace 0 the last line reports the end-to-end metrics of
BENCHMARK.json: solve_s, item_p50_s and item_tail_s come from each
item's median over the untraced passes.  With --trace 1 untraced and
traced passes alternate; the last line reports the per-layer metrics of
the traced passes and the tracing overhead against the untraced ones.
Human-readable lines come before it.

Every item is checked against its exact expected value.  An item that
raises, returns a wrong value or is cut off by the watchdog counts as
failed, and the run then exits with code 1 after printing its result.
A checkout without the program makes it exit with code 2 and print no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the watchdog kills any child still running this long after the start,
# which keeps a hung or regressed item from holding the run past 180 s
HARD_LIMIT_S = 150.0
SETUP_PROBES_PER_PASS = 3
# seconds of one calibration sample at the nominal speed, about the
# median on the 2-vCPU virtual machine the README's figures come from
CAL_NOMINAL_S = 0.0008
WINDOW = 16


@dataclass
class Pass:
    traced: bool
    setup_s: float | None = None
    duration_s: float = 0.0
    items: list = field(default_factory=list)   # names, in run order
    done: list = field(default_factory=list)    # worker item records
    cal: list = field(default_factory=list)     # calibration samples, s
    rss_kb: int | None = None
    trace: dict | None = None
    setup_trace: dict | None = None
    problem: str | None = None

    @property
    def failed(self) -> int:
        return len(self.items) - sum(1 for rec in self.done if rec["ok"])

    @property
    def times(self) -> list[float]:
        """Wall times of the correct items, as measured."""
        return [rec["s"] for rec in self.done if rec["ok"]]

    def scaled_setup(self) -> float:
        """Set-up time at the nominal speed of this child's samples."""
        return self.setup_s * CAL_NOMINAL_S / statistics.median(self.cal)

    def scaled_times(self) -> dict[int, float]:
        """CPU time of each correct item, by item index, at the nominal
        machine speed: scaled by the samples taken while it ran, or by
        the WINDOW samples nearest to it."""
        out = {}
        for rec in self.done:
            if not rec["ok"]:
                continue
            a, b = rec["cal"]
            if b - a < WINDOW:
                a = max(0, min((a + b - WINDOW) // 2, len(self.cal) - WINDOW))
                b = a + WINDOW
            speed = statistics.median(self.cal[a:b])
            out[rec["i"]] = rec["cpu"] * CAL_NOMINAL_S / speed
        return out


def run_worker(workload: str, seed: int, deadline: float, *flags) -> Pass:
    """One child process, killed at the deadline; returns what it said."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), *flags]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(deadline - t_spawn, 1.0))
        problem = None if proc.returncode == 0 else f"exit {proc.returncode}"
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        problem = "watchdog timeout"
    p = Pass(traced="--trace" in flags, duration_s=time.monotonic() - t_spawn,
             problem=problem)
    for line in out.splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:  # a line cut short by the kill
            continue
        if "ready" in rec:
            p.setup_s = rec["ready"] - t_spawn
            p.items = rec["items"]
        elif "done" in rec:
            p.rss_kb = rec.get("rss_kb")
            p.cal = rec.get("cal", [])
            p.trace = rec.get("trace")
            p.setup_trace = rec.get("setup_trace")
        else:
            p.done.append(rec)
    if problem and err.strip():
        sys.stderr.write(err[-2000:])
    return p


def tail(values: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile with at least ten values
    above it, and that percentile; the maximum for ten values or fewer."""
    vals = sorted(values)
    n = len(vals)
    if n <= 10:
        return vals[-1], 100
    pct = 100 * (n - 10) // n
    return vals[-(-pct * n // 100) - 1], pct


def walls(passes: list[Pass]) -> list[float]:
    """Wall time of each pass's correct items, as measured."""
    return [sum(p.times) for p in passes]


def item_medians(untraced: list[Pass]) -> list[float]:
    """Each item's median scaled time over the passes that got it right."""
    per_pass = [p.scaled_times() for p in untraced]
    items = sorted({i for times in per_pass for i in times})
    return [statistics.median(t[i] for t in per_pass if i in t)
            for i in items]


def end_to_end(untraced: list[Pass], setups: list[float]) -> dict:
    items = item_medians(untraced)
    return {
        "setup_s": statistics.median(setups),
        "solve_s": sum(items),
        "item_p50_s": statistics.median(items),
        "item_tail_s": tail(items)[0],
        "peak_rss_mb": statistics.median(p.rss_kb / 1024 for p in untraced),
    }


def flatten(tr: dict, prefix: str = "") -> dict:
    out = {}
    for name, (calls, busy, own) in tr["spans"].items():
        out[f"{prefix}{name}.calls"] = calls
        out[f"{prefix}{name}.busy_s"] = busy
        out[f"{prefix}{name}.self_s"] = own
    for layer, (busy, own) in tr["layers"].items():
        out[f"{prefix}{layer}.busy_s"] = busy
        out[f"{prefix}{layer}.self_s"] = own
    out.update((prefix + k, v) for k, v in tr["counts"].items())
    return out


def layer_metrics(p: Pass) -> dict:
    """Flat per-layer metrics of one traced pass: those of its items, and
    those of its set-up (input generation) under the prefix setup."""
    out = flatten(p.trace)
    out.update(flatten(p.setup_trace, "setup."))
    rows_in = out.get("linalg.rows_in", 0)
    out["linalg.accept_ratio"] = (out.get("linalg.rows_accepted", 0) / rows_in
                                  if rows_in else 0.0)
    wall = sum(rec["s"] for rec in p.done)
    covered = sum(rec["covered_s"] for rec in p.done)
    out["trace.wall_s"] = wall
    out["trace.uncovered_share"] = (wall - covered) / wall
    return out


def traced_metrics(untraced: list[Pass], traced: list[Pass]) -> dict:
    per_pass = [layer_metrics(p) for p in traced]
    keys = sorted({k for m in per_pass for k in m})
    out = {k: statistics.median_low(m.get(k, 0) for m in per_pass)
           for k in keys}
    untraced_wall = statistics.median(walls(untraced))
    out["trace.overhead_ratio"] = out["trace.wall_s"] / untraced_wall - 1
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "fermatarr" / "__init__.py").is_file():
        print(f"no fermatarr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    passes: list[Pass] = []
    probes: list[Pass] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = run_worker(args.workload, args.seed, deadline,
                       *(["--trace"] if traced else []))
        if not passes and p.setup_s is None:
            print(f"workload set-up failed ({p.problem})", file=sys.stderr)
            return 2
        passes.append(p)
        if p.problem or p.failed:
            break
        # set-up probes follow every pass, so that setup_s samples the
        # machine's speed over the whole run rather than at its start
        for _ in range(SETUP_PROBES_PER_PASS):
            probes.append(run_worker(args.workload, args.seed, deadline,
                                     "--setup-only"))
        if any(q.problem for q in probes):
            break
        if args.trace and len(passes) < 2:
            continue
        next_s = p.duration_s + sum(
            q.duration_s for q in probes[-SETUP_PROBES_PER_PASS:])
        if (time.monotonic() - start + next_s
                > min(args.seconds, HARD_LIMIT_S - 10)):
            break

    untraced = [p for p in passes if not p.traced and not p.problem and p.times]
    traced = [p for p in passes if p.traced and not p.problem]
    setups = [q.scaled_setup() for q in probes + untraced
              if not q.problem and q.cal]
    attempted = sum(len(p.items) for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and not any(p.problem for p in passes + probes)

    first = passes[0]
    for p in passes:
        names = p.items
        for rec in p.done:
            if not rec["ok"]:
                print(f"FAILED {names[rec['i']]}: {rec['detail']}",
                      file=sys.stderr)
        for name in names[len(p.done):]:
            print(f"FAILED {name}: {p.problem or 'not run'}", file=sys.stderr)
    for q in probes:
        if q.problem:
            print(f"FAILED set-up probe: {q.problem}", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes "
          f"({len(traced)} traced) of {len(first.items)} items, "
          f"{len(setups)} set-ups, {time.monotonic() - start:.1f} s")
    metrics = {}
    if untraced:
        metrics = end_to_end(untraced, setups)
        _, pct = tail(item_medians(untraced))
        metrics["fail_ratio"] = failed / attempted
        cal = [c for p in untraced for c in p.cal]
        print(f"  calibration median {statistics.median(cal) * 1e3:.2f} ms"
              f" of {len(cal)} samples (nominal {CAL_NOMINAL_S * 1e3:.1f} ms);"
              f" unscaled wall time of a pass"
              f" {statistics.median(walls(untraced)):.3f} s")
        for key, unit, note in (
                ("setup_s", "s", f"median of {len(setups)}"),
                ("solve_s", "s",
                 f"items' medians over {len(untraced)} untraced passes"),
                ("item_p50_s", "s", ""),
                ("item_tail_s", "s", f"p{pct} of {len(first.items)} items"),
                ("peak_rss_mb", "MiB", ""),
                ("fail_ratio", "1", f"{failed} of {attempted} items")):
            print(f"  {key:<13} {metrics[key]:12.6g} {unit:<4} {note}")
    if args.trace and untraced and traced:
        metrics = traced_metrics(untraced, traced)
        print("  per-layer metrics of the traced passes:")
        for key, value in metrics.items():
            print(f"    {key:<42} {value:14.6g}")
        # the phi split of linalg.reduce stands in for the whole
        spans = sorted((k for k in metrics if k.count(".") >= 2
                        and k.endswith(".self_s")
                        and not k.startswith("setup.")
                        and k != "linalg.reduce.self_s"),
                       key=metrics.get, reverse=True)
        print("  largest self times: " + ", ".join(
            f"{k[:-len('.self_s')]} {metrics[k]:.3g} s" for k in spans[:4]))

    section = "per_layer" if args.trace else "end_to_end"
    result = {}
    for m in spec[section]:
        # a layer a workload never enters reads 0; a failed run may lack some
        value = metrics.get(m["name"], 0 if args.trace else None)
        if value is not None:
            result[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
