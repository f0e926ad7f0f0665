"""Record the benchmark's reference data from the current tubelat.

    python3 bench/record.py [--costs]

Writes ``reference.json`` next to this script: the fingerprint of every op
any seed can draw, for both sizes.  ``run.py`` counts an op whose
fingerprint differs as failed.  Re-record only when an answer is meant to
change, or when an op is added.

With ``--costs`` it also rewrites ``sweep_costs.json``: the seconds each
sweep graph's op takes, with the n-level caches warm and the garbage
collector off.  ``sweep_sample`` balances its draws by these, so new costs
change which graphs a seed draws, and with it the baseline.

Takes about two minutes on one core.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tubelat.graphs  # noqa: E402
import tubelat.tubings  # noqa: E402
import tubelat.weakorder as wo  # noqa: E402
import workloads as W  # noqa: E402

GRAPH_CACHES = (
    tubelat.graphs.adjacency,
    tubelat.graphs.tubes,
    tubelat.tubings.enumerate_maximal_tubings,
    wo.psi_map,
    wo.psi_fibers,
    wo.contracted_arcs_of_graph,
)


def record_sweep(fps: dict, costs: dict) -> None:
    """Fingerprint every sweep graph and time its op from warm n-level caches."""
    for n in (5, 6):
        sn = wo.weak_order_poset(n)
        sn.meet_table(), sn.join_table(), wo.weak_cover_pairs(n), wo.all_arcs(n)
    for n, b in W.sweep_pool():
        for cache in GRAPH_CACHES:
            cache.cache_clear()
        run = W._sweep_run(W.graph_from_bits(n, b).to_text())
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        raw = run(W.Tracer(False))
        costs[f"sweep:{n}:{b}"] = round(time.perf_counter() - start, 6)
        gc.enable()
        fps[f"sweep:{n}:{b}"] = W.fingerprint(W._sweep_canon(raw))


def record_ops(fps: dict, ops) -> None:
    W.clear_caches()
    for op in ops:
        if op.cold:
            W.clear_caches()
        fps[op.key] = W.fingerprint(op.canon(op.run(W.Tracer(False))))


def main(argv: list) -> None:
    fps: dict = {}
    costs: dict = {}
    record_sweep(fps, costs)
    for size in W.SIZES:
        record_ops(fps, W.ladder_ops(0, size))
        hopf = W.hopf_pool(size)
        record_ops(fps, (W.Op(f"{group}:{item}", run, W._formal_sum) for group, item, run in hopf))
        verify = W.verify_ops(0, size)
        W.clear_caches()
        for op in verify:
            result = op.run(W.Tracer(False))
            if not result.ok:
                raise SystemExit(f"refusing to record a failing check: {result.line()}")
            fps[op.key] = W.fingerprint(op.canon(result))
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"fingerprints": fps}, fh, sort_keys=True, indent=0)
        fh.write("\n")
    if "--costs" in argv:
        with open(os.path.join(HERE, "sweep_costs.json"), "w") as fh:
            json.dump(costs, fh, sort_keys=True, indent=0)
            fh.write("\n")
    extra = " and the sweep costs" if "--costs" in argv else ""
    print(f"recorded {len(fps)} fingerprints{extra}")


if __name__ == "__main__":
    main(sys.argv)
