"""Checks of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_reports_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.rstrip().endswith("smoke ok")


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_histogram_quantiles_track_exact_ones(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from tracing import Histogram

    hist = Histogram()
    samples = [1000 + 37 * i for i in range(5000)]
    for ns in samples:
        hist.add(ns)
    assert hist.count == len(samples) and hist.total_ns == sum(samples)
    for q in (0.5, 0.99):
        exact = samples[round(q * (len(samples) - 1))] / 1e3
        assert abs(hist.quantile_us(q) / exact - 1) < 0.025


def test_blas_threads_take_the_lowest_setting_capped_at_the_cores(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import run

    nproc = len(run.os.sched_getaffinity(0))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(nproc + 8))
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    env, _ = run.child_env()
    assert {env[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")} == {"1"}
    monkeypatch.delenv("OMP_NUM_THREADS")
    env, _ = run.child_env()
    assert env["MKL_NUM_THREADS"] == str(nproc)
