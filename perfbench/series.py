"""Run the benchmark on every workload over several seeds and collect each
run's result line.

    python3 perfbench/series.py --seeds 1-10 --out A.jsonl
    python3 perfbench/series.py --seeds 1-10 --root PARENT --root CHANGE \\
        --out parent.jsonl --out change.jsonl

Each output line is one run: workload, seed, exit code and the JSON the
run printed last.  With two roots (two checkouts of the repository) every
seed runs once in each, alternating which goes first.  Runs never
overlap.  Summarise or compare the files with compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    ap.add_argument("--root", action="append", type=Path)
    ap.add_argument("--out", action="append", type=Path, required=True)
    args = ap.parse_args()
    roots = args.root or [HERE.parent]
    if len(roots) != len(args.out) or len(roots) > 2:
        ap.error("give one --out per --root, at most two of each")

    for k, seed in enumerate(args.seeds):
        for workload in (w["name"] for w in spec["workloads"]):
            order = list(zip(roots, args.out))
            if k % 2:
                order.reverse()
            for root, out in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(spec["run_seconds"]), "--trace", "0"]
                t0 = time.monotonic()
                proc = subprocess.run(cmd, cwd=root, text=True,
                                      stdout=subprocess.PIPE)
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, json.JSONDecodeError):
                    result = None
                rec = {"workload": workload, "seed": seed,
                       "exit": proc.returncode,
                       "elapsed_s": time.monotonic() - t0, "result": result}
                with out.open("a") as fh:
                    fh.write(json.dumps(rec) + "\n")
                print(f"{root.name or root} {workload} seed {seed}: exit "
                      f"{proc.returncode}, {rec['elapsed_s']:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
