"""One workload in one process: set up, then a closed loop of operations.

Started by ``run.py``; not meant to be run by hand. The closed loop has one
client: each operation starts when the previous one has finished and its
outputs are checked. The next operation starts only while it is predicted
(from the median so far) to end by the deadline, once ``--min-ops`` have
run. An untraced run times reference loads (``calibrate.py``) before the
first operation and after each one, so every operation has the machine's
speed factor on both sides of it; after set-up it times the import load.
With ``--trace 1`` the first half of the time runs traced operations and
the second half plain ones, whose ratio is the tracing overhead.

The result, as JSON, goes to ``--result``; ``blockgibbs``'s own console
output goes to this process's stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

START = time.monotonic()
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blockgibbs"
sys.path.insert(0, str(PACKAGE.parent))

import blockgibbs  # noqa: E402

if Path(blockgibbs.__file__).resolve().parent != PACKAGE.resolve():
    sys.exit(f"blockgibbs imported from {blockgibbs.__file__}, not from {PACKAGE}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from blockgibbs import cli  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_ops(workload, main, deadline, min_ops, hard_stop, tracer=None,
            calibrated=False) -> list[dict]:
    """Operations until the deadline. With ``calibrated``, the python and
    lapack loads are timed before the first operation and after each one;
    an op's ``factors`` are the means of those on its two sides, and its
    ``speed`` the mean of the factors its workload is normalised by, raised
    to the workload's power."""
    ops: list[dict] = []

    def factors():
        return {load: calibrate.factor(load) for load in ("python", "lapack")}

    after = factors() if calibrated else None
    while True:
        if ops:
            predicted_end = time.monotonic() + statistics.median(o["cycle"] for o in ops)
            if time.monotonic() > hard_stop or (len(ops) >= min_ops and predicted_end > deadline):
                return ops
        cycle = time.monotonic()
        if tracer is not None:
            tracer.begin_op(len(ops))
        t = time.perf_counter()
        codes = workload.run_op(main)
        seconds = time.perf_counter() - t
        if tracer is not None:
            tracer.end_op()
        problems, sizes = workload.check_op(codes)
        op = {"seconds": seconds, "traced": tracer is not None,
              "problems": problems, "sizes": sizes}
        if calibrated:
            before, after = after, factors()
            op["factors"] = {k: (before[k] + after[k]) / 2 for k in before}
            loads, power = workload.speed
            op["speed"] = statistics.fmean(op["factors"][k] for k in loads) ** power
        op["cycle"] = time.monotonic() - cycle
        ops.append(op)


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blockgibbs": blockgibbs.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--hard-stop", type=float, required=True,
                        help="seconds after process start past which no operation starts")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.prepare(args.workload, args.seed, args.work_dir, args.smoke,
                                 bool(args.trace))
    ready = time.monotonic()
    result = {"ready_monotonic": ready}
    if args.setup_only:
        result["setup_speed"] = calibrate.factor("import")
    else:
        hard_stop = START + args.hard_stop
        if args.trace:
            tracer = tracing.Tracer()
            saved = tracing.install(tracer)
            tracer.rss_mark = tracing.peak_rss_mb()
            traced_ops = run_ops(workload, tracer.wrap("cli.main", cli.main),
                                 ready + args.seconds / 2, 1, hard_stop, tracer)
            tracing.uninstall(saved)
            plain_ops = run_ops(workload, cli.main, ready + args.seconds, 1, hard_stop)
            per_op = [
                {**tracing.op_values(tracer, i), **op["sizes"]}
                for i, op in enumerate(traced_ops)
            ]
            layer = tracing.layer_metrics(tracer, per_op)
            layer["corpus.build_s"] = workload.setup_timings.get("corpus.build_s", 0.0)
            layer["trace.overhead_ratio"] = (
                statistics.median(o["seconds"] for o in traced_ops)
                / statistics.median(o["seconds"] for o in plain_ops)
            )
            result["layer"] = layer
            spans_path = os.path.join(args.work_dir, "spans.json")
            with open(spans_path, "w") as fh:
                json.dump(tracer.to_json(), fh)
            result["spans"] = spans_path
            result["ops"] = traced_ops + plain_ops
        else:
            result["setup_speed"] = calibrate.factor("import")
            calibrate.warm_up()
            result["ops"] = run_ops(workload, cli.main, ready + args.seconds,
                                    args.min_ops, hard_stop, calibrated=True)
        result["peak_rss_mb"] = tracing.peak_rss_mb()
        result["verdicts"] = workload.verdicts
        result["fingerprints"] = workload.reference
        result["provenance"] = provenance()
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
