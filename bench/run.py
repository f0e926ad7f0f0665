"""tubelat benchmark driver.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; it imports tubelat from ``src``.
Each workload runs in fresh worker processes (``worker.py``) as a closed loop
with one client.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it runs the ops once untraced and once traced, for half the
seconds each, and prints the per-layer metrics.  Every op's result is checked
against ``reference.json``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it holds the run's metadata.  ``README.md`` describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from speed import CAL_REF_S, loop_now

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "tubelat")

WORKLOADS = ("sweep", "ladder", "hopf", "verify")
SETUP_PROBES = 3  # set-up-only workers per run
CLI_PROBES = 3
CLI_ARGV = ["--json", "tubings", "--graph", "path:3", "--count"]
RUN_TIMEOUT_S = 170  # a run must end within 180 s, so workers are killed by then
MIN_ATTRIBUTED = 0.95  # share of a traced op's time its layer spans must cover

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

SPANS = [
    "graphs.parse",
    "graphs.filled_status",
    "graphs.tubes",
    "tubings.enumerate_maximal_tubings",
    "posets.build_lg",
    "posets.is_lattice",
    "posets.is_semidistributive",
    "posets.mobius",
    "weakorder.psi_fibers",
    "weakorder.contracted_arcs_of_graph",
    "weakorder.theta_g",
    "weakorder.congruence_classes",
    "weakorder.lattice_map_report",
    "hopf.tubing_product",
    "hopf.tubing_coproduct",
] + [f"verify.A{i:02d}" for i in range(1, 12)]
COUNTERS = [
    "graphs.tubes.count",
    "tubings.enumerate_maximal_tubings.mtub",
    "posets.build_lg.covers",
    "weakorder.lattice_map_report.pairs",
    "hopf.tubing_product.terms",
    "hopf.tubing_coproduct.terms",
]
SPAN_CALLS = ["hopf.tubing_product", "hopf.tubing_coproduct"]
CACHES = [
    "graphs.adjacency",
    "graphs.tubes",
    "tubings.enumerate_maximal_tubings",
    "weakorder.psi_map",
    "weakorder.psi_fibers",
    "weakorder.weak_order_poset",
    "weakorder.contracted_arcs_of_graph",
    "hopf._split_index",
    "hopf._coarsen_fibers",
]
PER_LAYER = (
    [(f"{s}.busy_s", "s") for s in SPANS]
    + [(c, "count") for c in COUNTERS]
    + [(f"{s}.calls", "count") for s in SPAN_CALLS]
    + [
        ("tubings.enumerate_maximal_tubings.calls", "count"),
        ("tubings.enumerate_maximal_tubings.cache_hit_ratio", "ratio"),
    ]
    + [(f"cache.{c}.currsize", "count") for c in CACHES]
    + [
        ("cli.cold_start_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.attributed_frac", "ratio"),
        ("trace.busy_vs_untraced", "ratio"),
    ]
)


class BenchError(Exception):
    pass


DEADLINE = time.monotonic() + RUN_TIMEOUT_S


def time_left() -> float:
    return max(1.0, DEADLINE - time.monotonic())


def spawn_worker(workload: str, seed: int, size: str, mode: str, seconds: float):
    """Start a fresh worker; return its set-up seconds and its result."""
    worker = os.path.join(HERE, "worker.py")
    cmd = [sys.executable, worker, workload, str(seed), size, mode, str(seconds)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=time_left())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} worker for {workload} timed out")
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"{mode} worker for {workload} exited with code {proc.returncode}")
    return setup_s, json.loads(rest.splitlines()[-1]) if mode != "setup" else None


def setup_seconds(workload: str, seed: int, size: str) -> tuple[float, float]:
    """A set-up-only worker's time to ready, raw and corrected for machine
    speed by the calibration loop run just before and just after it."""
    before = loop_now()
    raw = spawn_worker(workload, seed, size, "setup", 0)[0]
    after = loop_now()
    return raw, raw * 2 * CAL_REF_S / (before + after)


def cli_cold_start() -> float:
    code = (
        "import sys; sys.path.insert(0, 'src'); from tubelat.cli import run; "
        f"sys.exit(run({CLI_ARGV!r}))"
    )
    start = time.perf_counter()
    try:
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=time_left(),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("tubelat cold start timed out")
    elapsed = time.perf_counter() - start
    if out.returncode != 0 or out.stdout.strip() != "5":
        raise BenchError(f"tubelat {' '.join(CLI_ARGV)} gave {out.stdout!r}, code {out.returncode}")
    return elapsed


def check_outcomes(result: dict, reference: dict) -> tuple[int, int, list]:
    """(attempted, failed, the first few failures) against the reference."""
    attempted, bad = 0, []
    for op in result["ops"]:
        want = reference.get(op["key"])
        for outcome in op["outcomes"]:
            attempted += 1
            if outcome != want:
                bad.append(f"{op['key']}: got {outcome}, reference {want}")
    return attempted, len(bad), bad[:5]


def pass_median(result: dict, field: str = "wall_s") -> float:
    return statistics.median(p[field] for p in result["passes"])


def latency_stats(result: dict, corrected: bool = True) -> dict:
    """Median pass time, and the median and 90th percentile over ops of each
    op's median latency across the passes.  The percentile interpolates
    between ops ('inclusive'), so on a short op list it stays within them."""
    ms = [statistics.median(op["ms" if corrected else "raw_ms"]) for op in result["ops"]]
    return {
        "wall_s": pass_median(result, "wall_s" if corrected else "raw_wall_s"),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[-1],
    }


def end_to_end(setups: list, result: dict) -> dict:
    return {
        "setup_s": statistics.median(corrected for _, corrected in setups),
        **latency_stats(result),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(plain: dict, traced: dict, cli_s: float) -> dict:
    passes = traced["passes"]
    unknown = {s for p in passes for s in p["busy"]} - set(SPANS)
    if unknown:
        raise BenchError(f"spans missing from the per-layer metrics: {sorted(unknown)}")

    def med(get) -> float:
        return statistics.median(get(p) for p in passes)

    m = {}
    for s in SPANS:
        m[f"{s}.busy_s"] = med(lambda p: p["busy"].get(s, 0.0))
    for c in COUNTERS:
        m[c] = med(lambda p: p["counts"].get(c, 0))
    for s in SPAN_CALLS:
        m[f"{s}.calls"] = med(lambda p: p["calls"].get(s, 0))
    m["tubings.enumerate_maximal_tubings.calls"] = med(lambda p: p["enum_hits"] + p["enum_misses"])
    m["tubings.enumerate_maximal_tubings.cache_hit_ratio"] = med(
        lambda p: p["enum_hits"] / max(1, p["enum_hits"] + p["enum_misses"])
    )
    for c in CACHES:
        m[f"cache.{c}.currsize"] = med(lambda p: p["caches"][c])
    m["cli.cold_start_s"] = cli_s
    m["trace.wall_s"] = pass_median(traced)
    m["trace.overhead_s"] = pass_median(traced) - pass_median(plain)
    m["trace.attributed_frac"] = med(lambda p: p["attributed_s"] / p["raw_wall_s"])
    m["trace.busy_vs_untraced"] = med(lambda p: sum(p["busy"].values())) / pass_median(plain)
    return m


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(seed: int, numpy_version: str) -> dict:
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.basename(path).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: a few ops per workload, for the benchmark's own tests")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: no tubelat sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["fingerprints"]
    w, seed, size = args.workload, args.seed, args.size
    try:
        if args.trace == 0:
            setups = [setup_seconds(w, seed, size) for _ in range(SETUP_PROBES)]
            plain = spawn_worker(w, seed, size, "plain", args.seconds)[1]
            results = [plain]
            metrics = end_to_end(setups, plain)
            units = dict(END_TO_END)
        else:
            cli_s = statistics.median(cli_cold_start() for _ in range(CLI_PROBES))
            plain = spawn_worker(w, seed, size, "plain", args.seconds / 2)[1]
            traced = spawn_worker(w, seed, size, "traced", args.seconds / 2)[1]
            results = [plain, traced]
            metrics = per_layer(plain, traced, cli_s)
            units = dict(PER_LAYER)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = failed = 0
    for result in results:
        a, f, examples = check_outcomes(result, reference)
        attempted, failed = attempted + a, failed + f
        for line in examples:
            print(f"mismatch: {line}", file=sys.stderr)
    correct = failed == 0
    if args.trace == 1 and metrics["trace.attributed_frac"] < MIN_ATTRIBUTED:
        print(f"error: layer spans cover only {metrics['trace.attributed_frac']:.3f} of op time",
              file=sys.stderr)
        correct = False
    meta = metadata(seed, results[0]["numpy"])
    meta.update(
        workload=w,
        size=size,
        trace=args.trace,
        failed_frac=failed / attempted,
        op_samples=len(results[0]["ops"]),
        passes=[len(r["passes"]) for r in results],
        cal_ms=[pass_median(r, "cal_ms") for r in results],
        uncorrected=latency_stats(results[0], corrected=False),
    )
    if args.trace == 0:
        meta["uncorrected"]["setup_s"] = statistics.median(raw for raw, _ in setups)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
