"""The benchmark's own tests, at smoke size.

    python3 -m pytest -q bench/selftest.py

They run each workload through ``run.py`` both untraced and traced, check
the printed metrics against ``BENCHMARK.json`` and that no op fails, show
that the fingerprints do not depend on ``PYTHONHASHSEED``, check the
machine-speed correction on made-up samples, and check that the driver
refuses to run without the tubelat sources.  The file name keeps these
tests out of the repository's default pytest collection; together they take
about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import speed  # noqa: E402


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["fingerprints"]


def test_benchmark_json_lists_the_driver_metrics():
    spec = _bench_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload, trace):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert meta["failed_frac"] == 0 and meta["src_lines"] > 0 and meta["seed"] == 3
    spec = _bench_json()["end_to_end" if trace == 0 else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["sweep", "ladder", "hopf"])
def test_fingerprints_ignore_hash_seed(workload):
    outcomes = []
    for hash_seed in ("0", "4242"):
        out = subprocess.run(
            [sys.executable, "bench/worker.py", workload, "5", "smoke", "plain", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert out.returncode == 0, out.stderr
        ops = json.loads(out.stdout.strip().splitlines()[-1])["ops"]
        outcomes.append([(op["key"], op["outcomes"]) for op in ops])
    assert outcomes[0] == outcomes[1]
    reference = _reference()
    assert all(outs == [reference[key]] for key, outs in outcomes[0])


def test_speed_correction_scales_each_stretch_by_its_samples():
    meter = speed.SpeedMeter()
    ref = speed.CAL_REF_S
    meter.times, meter.loops = [0.0, 1.0, 2.0, 3.0], [ref, ref, 3 * ref, 3 * ref]
    assert meter.corrected(0.25, 0.75) == pytest.approx(0.5)
    assert meter.corrected(1.0, 2.0) == pytest.approx(0.5)
    assert meter.corrected(2.0, 3.0) == pytest.approx(1 / 3)
    assert meter.corrected(0.5, 2.5) == pytest.approx(0.5 + 0.5 + 0.5 / 3)


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
