"""The benchmark's workloads: their op lists, op bodies and result fingerprints.

An op is one closed-loop request: ``run(tracer)`` calls into tubelat and
returns the raw result, and ``canon(raw)`` turns it into plain JSON data made
only of canonical labels (``Tubing.label()``, sorted label pairs, booleans,
permutation tuples), never of ``repr`` or set order.  ``fingerprint`` hashes
that data; the reference fingerprints in ``reference.json`` were recorded from
these same functions by ``record.py``.

Every call an op makes into a tubelat module goes through ``Tracer.call`` under
a ``<module>.<function>`` span name.  With tracing off the tracer only forwards
the call.

This module imports tubelat, so ``src`` must be on ``sys.path`` first.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import tubelat.graphs
import tubelat.hopf
import tubelat.tubings
import tubelat.weakorder
from tubelat.graphs import Graph, filled_status, parse_family, parse_graph, tubes
from tubelat.hopf import tubing_coproduct, tubing_product
from tubelat.posets import build_lg
from tubelat.tubings import enumerate_maximal_tubings
from tubelat.verify import ACCEPTANCE_CHECKS, _run_one
from tubelat.weakorder import (
    congruence_classes,
    contracted_arcs_of_graph,
    lattice_map_report,
    psi_fibers,
    theta_g,
)

SIZES = ("full", "smoke")

# The public lru_caches an optimisation is most likely to move (ROADMAP
# item 5 lists them); a traced pass reports the largest size each reached.
CACHES = {
    "graphs.adjacency": tubelat.graphs.adjacency,
    "graphs.tubes": tubelat.graphs.tubes,
    "tubings.enumerate_maximal_tubings": tubelat.tubings.enumerate_maximal_tubings,
    "weakorder.psi_map": tubelat.weakorder.psi_map,
    "weakorder.psi_fibers": tubelat.weakorder.psi_fibers,
    "weakorder.weak_order_poset": tubelat.weakorder.weak_order_poset,
    "weakorder.contracted_arcs_of_graph": tubelat.weakorder.contracted_arcs_of_graph,
    "hopf._split_index": tubelat.hopf._split_index,
    "hopf._coarsen_fibers": tubelat.hopf._coarsen_fibers,
}


def clear_caches() -> None:
    """Empty every lru_cache in tubelat, as a fresh CLI process starts."""
    for mod in (tubelat.graphs, tubelat.tubings, tubelat.weakorder, tubelat.hopf):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


class Tracer:
    """Records the calls an op makes into tubelat as spans.

    With tracing on, ``call`` appends ``(name, start, end)``, read off
    ``clock``, to ``spans`` and counts the span in ``calls``, and ``count``
    adds to the work counters in ``counts``.  With tracing off both only
    forward.
    """

    def __init__(self, on: bool, clock: Callable[[], float] = time.perf_counter):
        self.on = on
        self.clock = clock
        self.spans: list = []
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)

    def call(self, name: str, fn: Callable, *args):
        if not self.on:
            return fn(*args)
        start = self.clock()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, self.clock()))
            self.calls[name] += 1

    def count(self, name: str, k: int) -> None:
        if self.on:
            self.counts[name] += k


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[Tracer], Any]
    canon: Callable[[Any], Any]
    cold: bool = False  # the caches are emptied before this op


def fingerprint(data) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _labels(tubings) -> list:
    return sorted(t.label() for t in tubings)


def _cover_pairs(lg) -> list:
    """Cover relations as index pairs into the label-sorted element list."""
    labels = [x.label() for x in lg.elements]
    rank = {lab: i for i, lab in enumerate(sorted(labels))}
    return sorted((rank[labels[a]], rank[labels[b]]) for a, b in lg.covers)


def _report(r) -> list:
    witness = r.witness and [r.witness[0], list(r.witness[1]), list(r.witness[2])]
    return [r.meet_ok, r.join_ok, witness]


def _perm_pairs(n: int) -> int:
    """Pairs of S_n that ``lattice_map_report`` scans when no early exit."""
    k = math.factorial(n)
    return k * (k - 1) // 2


def _formal_sum(s) -> list:
    out = []
    for key, c in s.terms.items():
        label = "|".join(x.label() for x in key) if isinstance(key, tuple) else key.label()
        out.append([label, c])
    return sorted(out)


# ---------------------------------------------------------------------------
# sweep: the whole per-graph pipeline over many small labeled graphs
# ---------------------------------------------------------------------------


def graph_from_bits(n: int, bits: int) -> Graph:
    """Graph number ``bits`` of ``all_graphs(n)``: bit i selects the i-th pair."""
    pairs = itertools.combinations(range(1, n + 1), 2)
    return Graph(n, tuple(p for i, p in enumerate(pairs) if bits >> i & 1))


def sweep_pool() -> list:
    """(n, bits) of every graph the sweep may draw: all 1,024 graphs on [5]
    and a fixed sample of 256 of the 32,768 graphs on [6]."""
    six = sorted(random.Random(6).sample(range(1 << 15), 256))
    return [(5, b) for b in range(1 << 10)] + [(6, b) for b in six]


def _sweep_run(text: str):
    def run(t: Tracer):
        g = t.call("graphs.parse", Graph.from_text, text)
        status = t.call("graphs.filled_status", filled_status, g)
        ts = t.call("graphs.tubes", tubes, g)
        t.count("graphs.tubes.count", len(ts))
        mtub = t.call("tubings.enumerate_maximal_tubings", enumerate_maximal_tubings, g)
        t.count("tubings.enumerate_maximal_tubings.mtub", len(mtub))
        lg = t.call("posets.build_lg", build_lg, g)
        t.count("posets.build_lg.covers", len(lg.covers))
        lattice = t.call("posets.is_lattice", lg.is_lattice)
        sd = t.call("posets.is_semidistributive", lg.is_semidistributive) if lattice else None
        fibers = t.call("weakorder.psi_fibers", psi_fibers, g)
        arcs = t.call("weakorder.contracted_arcs_of_graph", contracted_arcs_of_graph, g)
        classes = None
        if status.filled:
            theta = t.call("weakorder.theta_g", theta_g, g)
            classes = t.call("weakorder.congruence_classes", congruence_classes, theta)
        report = None
        if lattice:
            report = t.call("weakorder.lattice_map_report", lattice_map_report, g, lg)
            t.count("weakorder.lattice_map_report.pairs", _perm_pairs(g.n))
        return status, ts, mtub, lg, lattice, sd, fibers, arcs, classes, report

    return run


def _sweep_canon(raw) -> dict:
    status, ts, mtub, lg, lattice, sd, fibers, arcs, classes, report = raw
    return {
        "filled": [status.filled, status.right_filled, status.left_filled],
        "tubes": sorted(sorted(t) for t in ts),
        "mtub": _labels(mtub),
        "covers": _cover_pairs(lg),
        "lattice": lattice,
        "sd": sd,
        "fibers": sorted([x.label(), [list(w) for w in ws]] for x, ws in fibers.items()),
        "arcs": sorted(a.format() for a in arcs),
        "classes": None if classes is None else [[list(w) for w in c] for c in classes],
        "report": None if report is None else _report(report),
    }


# graphs drawn per n, and how far a draw's recorded cost may stray from the
# pool average before it is redrawn (None: never redrawn)
SWEEP_SAMPLE = {"full": ({5: 120, 6: 6}, 0.02), "smoke": ({5: 6, 6: 1}, None)}


def sweep_sample(seed: int, size: str, costs: dict) -> list:
    """(n, bits) of the graphs one seed draws.

    Per n, the pool is sorted by the op cost recorded in ``costs`` and cut
    into equal strata, and one graph is drawn from each.  A draw whose
    recorded total cost strays from the pool average by more than the
    tolerance is redrawn.  Seeds thus change the graphs but hardly the work,
    which keeps the run-to-run spread of the timings small.
    """
    rng = random.Random(seed)
    per_n, tolerance = SWEEP_SAMPLE[size]
    pools = {
        n: sorted((costs[f"sweep:{n}:{b}"], b) for m, b in sweep_pool() if m == n)
        for n in per_n
    }
    expected = sum(k * sum(c for c, _ in pools[n]) / len(pools[n]) for n, k in per_n.items())
    while True:
        picks = []
        for n, k in per_n.items():
            pool = pools[n]
            for i in range(k):
                stratum = pool[i * len(pool) // k:(i + 1) * len(pool) // k]
                picks.append((n, *rng.choice(stratum)))
        total = sum(c for _, c, _ in picks)
        if tolerance is None or abs(total / expected - 1) <= tolerance:
            break
    rng.shuffle(picks)
    return [(n, b) for n, _, b in picks]


def sweep_ops(seed: int, size: str, costs: dict) -> list:
    picks = sweep_sample(seed, size, costs)
    return [
        Op(f"sweep:{n}:{b}", _sweep_run(graph_from_bits(n, b).to_text()), _sweep_canon)
        for n, b in picks
    ]


# ---------------------------------------------------------------------------
# ladder: heavy single-graph queries, each from cold caches like a CLI call
# ---------------------------------------------------------------------------

LADDER = {
    "full": [
        ("enumerate", "complete:7"),  # n <= 8: the n!-sweep through psi
        ("enumerate", "path:9"),  # n > 8: component decomposition
        ("build_lg", "cycle:7"),
        ("is_lattice", "complete:6"),
        ("is_semidistributive", "h:2:6"),
        ("mobius", "cycle:7"),
        ("lattice_map_report", "path:6"),
        ("lattice_map_report", "cycle:6"),
    ],
    "smoke": [
        ("enumerate", "complete:4"),
        ("enumerate", "path:9"),
        ("is_semidistributive", "cycle:4"),
        ("mobius", "cycle:4"),
        ("lattice_map_report", "path:4"),
    ],
}


def _ladder_run(query: str, descriptor: str):
    def run(t: Tracer):
        g = t.call("graphs.parse", parse_graph, descriptor)
        mtub = t.call("tubings.enumerate_maximal_tubings", enumerate_maximal_tubings, g)
        t.count("tubings.enumerate_maximal_tubings.mtub", len(mtub))
        if query == "enumerate":
            return mtub
        lg = t.call("posets.build_lg", build_lg, g)
        t.count("posets.build_lg.covers", len(lg.covers))
        if query == "build_lg":
            return lg
        if query == "is_lattice":
            return t.call("posets.is_lattice", lg.is_lattice)
        if query == "is_semidistributive":
            return t.call("posets.is_semidistributive", lg.is_semidistributive)
        if query == "mobius":
            return t.call("posets.mobius", lambda: lg.mobius(lg.minimum(), lg.maximum()))
        report = t.call("weakorder.lattice_map_report", lattice_map_report, g, lg)
        t.count("weakorder.lattice_map_report.pairs", _perm_pairs(g.n))
        return report

    return run


LADDER_CANON = {
    "enumerate": _labels,
    "build_lg": _cover_pairs,
    "lattice_map_report": _report,
}


def ladder_ops(seed: int, size: str) -> list:
    """The fixed ladder; the seed changes nothing.  A shuffled order moved
    peak RSS by 10%, through what each op leaves in the allocator."""
    return [
        Op(f"ladder:{q}:{d}", _ladder_run(q, d), LADDER_CANON.get(q, lambda raw: raw), cold=True)
        for q, d in LADDER[size]
    ]


# ---------------------------------------------------------------------------
# hopf: a stream of products and coproducts over a few cached split indexes
# ---------------------------------------------------------------------------

HOPF = {
    # (family, degree of x, degree of y), degree n + m = 6 or 7
    "products": {
        "full": [
            ("path", 3, 4),
            ("complete", 3, 3),
            ("h:2", 3, 4),
            ("A:{1,3}", 3, 3),
            ("oddbip", 3, 4),
        ],
        "smoke": [("path", 2, 3), ("complete", 2, 2)],
    },
    # (family, degree of x); the coproduct needs restriction-compatible ones
    "coproducts": {
        "full": [("path", 6), ("path", 7), ("complete", 6), ("cycle", 6), ("cycle", 7)],
        "smoke": [("path", 4), ("cycle", 4)],
    },
    "per_product_split": {"full": 80, "smoke": 5},
    "per_coproduct_degree": {"full": 12, "smoke": 2},
}


def _product_run(family, x, y):
    def run(t: Tracer):
        s = t.call("hopf.tubing_product", tubing_product, family, x, y)
        t.count("hopf.tubing_product.terms", len(s))
        return s

    return run


def _coproduct_run(family, x):
    def run(t: Tracer):
        s = t.call("hopf.tubing_coproduct", tubing_coproduct, family, x)
        t.count("hopf.tubing_coproduct.terms", len(s))
        return s

    return run


def hopf_pool(size: str):
    """Every op the hopf stream may draw: all (x, y) pairs of each product
    split and every x of each coproduct degree."""
    for fam, n, m in HOPF["products"][size]:
        f = parse_family(fam)
        xs, ys = enumerate_maximal_tubings(f(n)), enumerate_maximal_tubings(f(m))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                yield f"hopf:product:{fam}:{n}.{m}", f"{i}.{j}", _product_run(f, x, y)
    for fam, n in HOPF["coproducts"][size]:
        f = parse_family(fam)
        for i, x in enumerate(enumerate_maximal_tubings(f(n))):
            yield f"hopf:coproduct:{fam}:{n}", str(i), _coproduct_run(f, x)


def hopf_ops(seed: int, size: str) -> list:
    """Draws, with replacement, a fixed number of ops from each product split
    and coproduct degree, and shuffles them."""
    rng = random.Random(seed)
    groups: dict = defaultdict(list)
    for group, item, run in hopf_pool(size):
        groups[group].append(Op(f"{group}:{item}", run, _formal_sum))
    ops = []
    for group, members in groups.items():
        k = HOPF["per_product_split" if ":product:" in group else "per_coproduct_degree"][size]
        ops.extend(rng.choice(members) for _ in range(k))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# verify: the acceptance battery, serial, one op per check
# ---------------------------------------------------------------------------


def _verify_run(item, max_n):
    def run(t: Tracer):
        return t.call("verify." + item[0][:3], _run_one, item, max_n)

    return run


def _check_result(r) -> list:
    return [r.ok, r.name, r.detail]


def verify_ops(seed: int, size: str) -> list:
    """The battery has no inputs to draw, so the seed changes nothing."""
    max_n = None if size == "full" else 3
    return [
        Op(f"verify:{item[0][:3]}:{size}", _verify_run(item, max_n), _check_result)
        for item in ACCEPTANCE_CHECKS
    ]


def build_ops(workload: str, seed: int, size: str, costs: dict) -> list:
    if workload == "sweep":
        return sweep_ops(seed, size, costs)
    builders = {"ladder": ladder_ops, "hopf": hopf_ops, "verify": verify_ops}
    return builders[workload](seed, size)
