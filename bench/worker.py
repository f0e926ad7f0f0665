"""One benchmark worker: a fresh process that replays one workload's ops.

    python3 bench/worker.py WORKLOAD SEED SIZE MODE SECONDS

MODE is ``setup``, ``plain`` (tracing off) or ``traced``.  The worker prints
``ready`` once tubelat is imported and the op list is built; ``run.py`` times
set-up up to that line.  A ``setup`` worker exits there.  Otherwise the
worker replays the op list in passes, one op at a time, until SECONDS have
gone by (at least one pass), and prints one JSON line:

- ``ops``: per op, its key, its latency in each pass (``ms`` corrected for
  machine speed, ``raw_ms`` as read off the clock), and in each pass its
  fingerprint or ``error: ...``;
- ``passes``: per pass, ``wall_s`` (the sum of corrected op latencies, which
  leaves out the benchmark's own fingerprinting and calibration),
  ``raw_wall_s``, the median calibration time and, when traced, the span
  times, counters and cache sizes;
- ``peak_rss_mb`` and the numpy version.

Every pass starts from empty tubelat caches and a collected heap.  The
automatic cyclic garbage collector is off during a pass; the worker instead
collects the young generations after each op, and the whole heap before each
op that starts from empty caches, outside the timed region.  Where an
automatic collection lands depends on the allocation history of the whole
pass, and its pause, up to 100 ms, swamped the latency tail of whichever op
triggered it.  Collecting after each op still frees the reference cycles an
op drops, so they do not pile up over a pass.

Machine-speed correction: ``speed.SpeedMeter`` samples a calibration loop
on a timer during each pass, and every time is corrected by it (see
``speed.py``).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from speed import SpeedMeter  # noqa: E402


def _snapshot(W, stats: dict) -> None:
    """Fold the caches' sizes and enumerate's hit counts into ``stats``;
    taken before every cache clear and at the end of a pass."""
    for name, fn in W.CACHES.items():
        stats["caches"][name] = max(stats["caches"].get(name, 0), fn.cache_info().currsize)
    info = W.CACHES["tubings.enumerate_maximal_tubings"].cache_info()
    stats["enum_hits"] += info.hits
    stats["enum_misses"] += info.misses


def run_pass(W, ops, traced: bool, record: list) -> dict:
    stats = {"caches": {}, "enum_hits": 0, "enum_misses": 0}
    intervals = []  # (start, end) of each op on the meter's clock
    W.clear_caches()
    gc.collect()
    gc.disable()
    try:
        with SpeedMeter() as meter:
            tracer = W.Tracer(traced, meter.now)
            for i, op in enumerate(ops):
                if op.cold and i:
                    if traced:
                        _snapshot(W, stats)
                    W.clear_caches()
                    gc.collect()
                start = meter.now()
                try:
                    raw = op.run(tracer)
                except Exception as exc:  # an op that raises is a failed op, not a crash
                    intervals.append((start, meter.now()))
                    outcome = f"error: {type(exc).__name__}: {exc}"
                else:
                    intervals.append((start, meter.now()))
                    outcome = W.fingerprint(op.canon(raw))
                record[i]["outcomes"].append(outcome)
                gc.collect(1)
    finally:
        gc.enable()
    wall = raw_wall = 0.0
    for rec, (a, b) in zip(record, intervals):
        seconds = meter.corrected(a, b)
        rec["ms"].append(seconds * 1e3)
        rec["raw_ms"].append((b - a) * 1e3)
        wall += seconds
        raw_wall += b - a
    result = {
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "cal_ms": statistics.median(meter.loops) * 1e3,
    }
    if traced:
        _snapshot(W, stats)
        busy: dict = {}
        for name, a, b in tracer.spans:
            busy[name] = busy.get(name, 0.0) + meter.corrected(a, b)
        result.update(
            attributed_s=sum(b - a for _, a, b in tracer.spans),
            busy=busy,
            calls=dict(tracer.calls),
            counts=dict(tracer.counts),
            **stats,
        )
    return result


def main(argv: list) -> int:
    workload, seed, size, mode, seconds = argv[1], int(argv[2]), argv[3], argv[4], float(argv[5])
    import numpy
    import workloads as W

    costs = {}
    if workload == "sweep":
        with open(os.path.join(HERE, "sweep_costs.json")) as fh:
            costs = json.load(fh)
    ops = W.build_ops(workload, seed, size, costs)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    record = [{"key": op.key, "ms": [], "raw_ms": [], "outcomes": []} for op in ops]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(W, ops, mode == "traced", record))
    result = {
        "ops": record,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
