"""One pass of one workload in a fresh, single-threaded process.

    python3 perfbench/worker.py WORKLOAD SEED [--setup-only] [--trace]

Prints one JSON object per line and flushes each, so that a parent that
kills this process on a deadline still holds every finished item:

  {"ready": t, "items": [...]}      setup done; t is time.monotonic()
  {"i": k, "s": secs, "cpu": cpu, "cal": [a, b], "ok": bool}
                                    one per item, in run order
  {"done": true, "rss_kb": n, "cal": [...]}   after the last item

"s" is the item's wall time and "cpu" its CPU time, less the time of the
calibration samples taken while it ran.  CPU time is that of the one
thread: while a process-wide CPU timer is armed, Linux advances the
process CPU clock only at scheduler ticks.  In an untraced pass a CPU-time
timer interrupts the items every SAMPLE_EVERY_S and times a fixed
calibration kernel that uses no fermatarr code; the done line lists the
samples in order, and an item's "cal" is the index range of the samples
taken while it ran.  They tell the parent how fast the machine was
while each item ran.  With --setup-only the done line holds
SETUP_SAMPLES samples taken right after the set-up.

With --trace the done line also holds the trace of the items and, apart,
that of the set-up.

With --setup-only it exits after those samples.  With --trace it first
installs the span wrappers of tracing.py; without it that module is never
imported.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time

SAMPLE_EVERY_S = 0.05  # of the process's CPU time
SETUP_SAMPLES = 8


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def calibration_kernel() -> int:
    """Fraction-free (Bareiss) elimination of a fixed diagonally dominant
    18 x 18 integer matrix, whose pivots are never 0: about a millisecond
    of big-integer arithmetic, the kind of work fermatarr does."""
    n = 18
    a = [[(i * 31 + j * 17) % 19 - 9 + (100 if i == j else 0)
          for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[n - 1][n - 1]


def timed_kernel() -> float:
    """Thread CPU seconds of one calibration_kernel call."""
    t0 = time.thread_time()
    calibration_kernel()
    return time.thread_time() - t0


class Sampler:
    """Times calibration_kernel on every SIGPROF of a CPU-time interval
    timer.  The handler runs in the main thread between two bytecodes of
    the item it interrupts, so the samples share the item's processor and
    moment."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _sample(self, signum, frame) -> None:
        dt = timed_kernel()
        self.samples.append(dt)
        self.spent_s += dt

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    tracer = None
    if "--trace" in argv:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    items = workloads.build(workload, seed)
    setup_trace = tracer.take() if tracer else None
    _emit({"ready": time.monotonic(), "items": [it.name for it in items]})
    if "--setup-only" in argv:
        _emit({"done": True, "cal": [timed_kernel()
                                     for _ in range(SETUP_SAMPLES)]})
        return 0
    # a traced pass is not sampled: its per-layer times stay as measured
    sampler = None if tracer else Sampler()
    if sampler:
        sampler.start()
    for i, item in enumerate(items):
        if tracer:
            tracer.begin_item()
        k0 = len(sampler.samples) if sampler else 0
        spent0 = sampler.spent_s if sampler else 0.0
        t0 = time.perf_counter()
        c0 = time.thread_time()
        try:
            got = item.run()
            err = None
        except Exception as exc:  # an item that raises is a failed item
            got, err = None, f"{type(exc).__name__}: {exc}"
        cpu = time.thread_time() - c0
        secs = time.perf_counter() - t0
        rec = {"i": i, "s": secs, "cpu": cpu,
               "ok": err is None and got == item.expected}
        if sampler:
            rec["cpu"] -= sampler.spent_s - spent0
            rec["s"] -= sampler.spent_s - spent0
            rec["cal"] = [k0, len(sampler.samples)]
        if not rec["ok"]:
            rec["detail"] = err or f"got {got!r}, expected {item.expected!r}"
        if tracer:
            rec["covered_s"] = tracer.covered_s
        _emit(rec)
    end = {"done": True,
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if sampler:
        sampler.stop()
        end["cal"] = sampler.samples
    if tracer:
        end["trace"] = tracer.take()
        end["setup_trace"] = setup_trace
    _emit(end)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
