"""Benchmark of the blockgibbs package: exact and simulate paths, end to end
and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; ``src/`` is imported directly, so
there is nothing to build. Each run starts the workload in a worker process
of its own (``worker.py``). With ``--trace 0`` it first starts set-up-only
workers to time set-up several times, and reports the end-to-end metrics
in reference-speed seconds: each time is divided by the machine's speed
factor measured beside it (``calibrate.py``), because this host's speed
drifts by up to 1.7x over an hour. With ``--trace 1`` it reports the
per-layer metrics, in plain wall time. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Everything else a run leaves is under ``.perfbench-out/``. ``--smoke`` runs
every workload at tiny sizes in both modes and checks that every metric
named in BENCHMARK.json is reported with its unit. See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "blockgibbs"
OUT = ROOT / ".perfbench-out"

#: Set-up-only workers per untraced run; with the main worker's own set-up
#: they give the samples whose median is setup_s.
SETUP_PROBES = 6
#: Operations an untraced run makes even past --seconds, so op_s is
#: never a median of few samples.
MIN_OPS = 5
#: A run must end within 180 s; no operation starts after this many.
TIME_LIMIT_S = 165.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env() -> tuple[dict, int]:
    """Environment for workers: the checkout's sources on the path, a fixed
    hash seed, and one BLAS thread count for all three variables: the lowest
    the caller set, and never above the usable cores."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    threads = nproc
    for var in blas_vars:
        try:
            threads = min(threads, int(env[var]))
        except (KeyError, ValueError):
            pass
    threads = max(threads, 1)
    for var in blas_vars:
        env[var] = str(threads)
    env["PYTHONPATH"] = str(PACKAGE.parent)
    env["PYTHONHASHSEED"] = "0"
    return env, nproc


def start_worker(args: argparse.Namespace, work_dir: Path, tag: str, extra: list[str]) -> tuple[dict, float]:
    """Run one worker to completion; its result and its set-up wall seconds."""
    remaining = TIME_LIMIT_S - (time.monotonic() - START)
    if remaining < 5:
        raise BenchError("no time left to start a worker")
    result_path = work_dir / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    log_path = work_dir / f"{tag}.log"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--hard-stop", str(max(remaining - 20, 0)),
        "--work-dir", str(work_dir), "--result", str(result_path),
    ] + (["--smoke"] if args.smoke else []) + extra
    env, _ = child_env()
    t0 = time.monotonic()
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                  cwd=ROOT, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {tag} timed out; see {log_path}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited with {proc.returncode}; see {log_path}")
    with open(result_path) as fh:
        result = json.load(fh)
    return result, result["ready_monotonic"] - t0


def tail(values: list[float]) -> dict | None:
    """The highest whole percentile with at least 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    value = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return {"percentile": p, "value": value, "samples": n}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_workload(args: argparse.Namespace, spec: dict) -> tuple[dict, list[str]]:
    """The final JSON object and the summary lines; the full record goes to
    ``.perfbench-out/results/``."""
    work_dir = OUT / ("smoke" if args.smoke else "runs") / args.workload
    shutil.rmtree(work_dir / "outputs", ignore_errors=True)
    work_dir.mkdir(parents=True, exist_ok=True)

    setups = []  # (wall seconds, speed factor) per worker
    if not args.trace:
        for i in range(1 if args.smoke else SETUP_PROBES):
            probe, seconds = start_worker(args, work_dir, f"setup{i}", ["--setup-only"])
            setups.append((seconds, probe["setup_speed"]))
    min_ops = ["--min-ops", "1" if args.smoke else str(MIN_OPS)]
    result, setup_s = start_worker(args, work_dir, "worker", min_ops)
    if not args.trace:
        setups.append((setup_s, result["setup_speed"]))

    ops = result["ops"]
    failures = [p for op in ops for p in op["problems"]]
    failed = sum(1 for op in ops if op["problems"])
    plain = [op["seconds"] for op in ops if not op["traced"]]
    # Reference-speed seconds: wall seconds over the speed factor measured
    # beside them (calibrate.py).
    plain_ref = [op["seconds"] / op["speed"] for op in ops if "speed" in op]
    setups_ref = [seconds / speed for seconds, speed in setups]
    kind = "exact" if args.workload.startswith("exact") else "simulate"
    verdicts = result["verdicts"]
    verdict_digest = hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()
    _, nproc = child_env()
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "provenance": {
            **result["provenance"],
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "nproc": nproc,
            "cpu": cpu_model(),
            "argv": sys.argv,
            "seed": args.seed,
        },
        "op_seconds": [op["seconds"] for op in ops],
        "op_speed_factors": [op.get("speed") for op in ops],
        "op_load_factors": [op.get("factors") for op in ops],
        "op_traced": [op["traced"] for op in ops],
        "failures": failures,
        "setup_seconds": [seconds for seconds, _ in setups],
        "setup_speed_factors": [speed for _, speed in setups],
        "peak_rss_mb": result["peak_rss_mb"],
        "verdicts": verdicts,
        "verdict_sha256": verdict_digest,
        "fingerprints": result["fingerprints"],
    }

    if args.trace:
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layer = result["layer"]
        missing = sorted(set(names) - set(layer))
        if missing:
            raise BenchError(f"per-layer metrics not measured: {missing}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in names.items()}
        record["layer"] = layer
        record["spans"] = result["spans"]
    else:
        values = {
            "op_s": statistics.median(plain_ref),
            "setup_s": statistics.median(setups_ref),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        record["tail"] = tail(plain_ref)
        record["wall"] = {"op_s": statistics.median(plain),
                          "setup_s": statistics.median(s for s, _ in setups)}
    record["metrics"] = metrics

    final = {"correct": not failures, "attempted": len(ops), "failed": failed,
             "metrics": metrics}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    suffix = "_smoke" if args.smoke else ""
    record_path = results_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}{suffix}.json"
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"]
    for name, m in metrics.items():
        alias = f" ({kind}_s)" if name == "op_s" else ""
        lines.append(f"  {name + alias:<40} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        t = record["tail"]
        lines.append(f"  {kind + '_s_tail':<40} " + (
            f"p{t['percentile']} {t['value']:.6g} s of {t['samples']} operations" if t
            else f"absent: {len(plain)} operations, 11 needed"))
        wall = record["wall"]
        lines.append(f"  {'wall (not speed-normalised)':<40} op_s {wall['op_s']:.6g} s,"
                     f" setup_s {wall['setup_s']:.6g} s")
        lines.append(f"  {'speed factors (ops)':<40} median {statistics.median(o['speed'] for o in ops):.4g},"
                     f" {min(o['speed'] for o in ops):.4g} to {max(o['speed'] for o in ops):.4g}")
    lines.append(f"  {'fail_ratio':<40} {failed}/{len(ops)} operations")
    if kind == "exact":
        true = sum(all(v.values()) for v in verdicts.values())
        lines.append(f"  {'verdicts':<40} all four true on {true}/{len(verdicts)} inputs,"
                     f" sha256 {verdict_digest[:16]}")
    for problem in failures[:10]:
        lines.append(f"  FAILED {problem}")
    lines.append(f"  provenance {json.dumps(record['provenance'])}")
    lines.append(f"  record {record_path.relative_to(ROOT)}")
    return final, lines


def smoke(spec: dict) -> int:
    """Every workload at tiny sizes, both modes; every metric with its unit."""
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=0.3,
                                      trace=trace, smoke=True)
            final, lines = run_workload(args, spec)
            print("\n".join(lines))
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            for m in expected:
                got = final["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    print(f"SMOKE FAILED {workload} trace {trace}: {m['name']} reported as {got}")
                    ok = False
            if not final["correct"] or final["failed"]:
                print(f"SMOKE FAILED {workload} trace {trace}: outputs failed their checks")
                ok = False
    print("smoke ok" if ok else "smoke failed")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package sources at {PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    try:
        if args.smoke:
            return smoke(spec)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        final, lines = run_workload(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
