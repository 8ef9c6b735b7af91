"""The four workloads: inputs made from the workload seed, one closed-loop
operation through ``blockgibbs.cli.main``, and the checks on its outputs.

Every operation of a run repeats the same inputs, so the first operation's
output bytes are the reference the later ones must match.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from blockgibbs.cli import CHECK_NAMES
from blockgibbs.corpus import CORPUS_DIMS, CORPUS_FLOOR, CORPUS_SIZE, seeded_corpus
from blockgibbs.finite_model import Dims, random_pmf

#: Full-size parameters, and the tiny ones the smoke mode runs. Full size
#: is about 1-2 s per operation, so a 20 s run makes seven or more of them.
SPECS = {
    "exact-dense": {"dims": (8, 8, 8), "floor": 5e-4, "nmax": 50},
    "exact-corpus": {"count": CORPUS_SIZE},
    "sim-wide": {"m": 64, "n": 2_000, "burn_in": 200, "shifted": False},
    "sim-narrow-shifted": {"m": 8, "n": 4_000, "burn_in": 400, "shifted": True},
}
SMOKE_SPECS = {
    "exact-dense": {"dims": (3, 3, 2), "floor": 5e-3, "nmax": 8},
    "exact-corpus": {"count": 4},
    "sim-wide": {"m": 6, "n": 300, "burn_in": 100, "shifted": False},
    "sim-narrow-shifted": {"m": 3, "n": 300, "burn_in": 100, "shifted": True},
}

#: How each workload's operations are normalised: the reference loads
#: (calibrate.py) whose mean factor is used, and the power it is raised to.
#: The dense operation is nearly all LAPACK, but slows about half as much
#: as the LAPACK load does, in log terms (NOTES.md, Speed normalisation).
SPEED = {"exact-dense": (("lapack",), 0.5)}
DEFAULT_SPEED = (("python", "lapack"), 1.0)

#: Random effects hyperparameters and known error variance for every
#: generated model; y = theta + e with theta ~ N(0, 1) and e ~ N(0, V).
MODEL_V, MODEL_A, MODEL_B = 1.0, 2.0, 2.0


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Case:
    """One ``blockgibbs`` invocation inside an operation."""

    label: str
    argv: list[str]
    out_dir: str


@dataclass
class Workload:
    kind: str  # "exact" or "simulate"
    spec: dict
    cases: list[Case]
    setup_timings: dict = field(default_factory=dict)
    speed: tuple[tuple[str, ...], float] = DEFAULT_SPEED
    reference: dict | None = None  # first operation's fingerprints
    verdicts: dict = field(default_factory=dict)

    def run_op(self, main) -> list[int]:
        """The timed part: every case through ``main``; the exit codes."""
        return [main(case.argv) for case in self.cases]

    def check_op(self, codes: list[int]) -> tuple[list[str], dict]:
        """Problems with the outputs just written, and their sizes."""
        problems: list[str] = []
        fingerprints = {}
        sizes = {"cli.bytes_written": 0, "random_effects.csv_bytes": 0}
        for case, code in zip(self.cases, codes):
            if code != 0:
                problems.append(f"{case.label}: exit code {code}")
                continue
            check = check_exact if self.kind == "exact" else check_simulate
            fingerprint, case_problems = check(case, self.spec)
            problems.extend(f"{case.label}: {p}" for p in case_problems)
            fingerprints[case.label] = fingerprint
            for name in os.listdir(case.out_dir):
                size = os.path.getsize(os.path.join(case.out_dir, name))
                sizes["cli.bytes_written"] += size
                if name == "trajectory.csv":
                    sizes["random_effects.csv_bytes"] += size
            if self.kind == "exact":
                self.verdicts[case.label] = fingerprint["verdicts"]
        if self.reference is None:
            self.reference = fingerprints
        else:
            for label, fp in fingerprints.items():
                if fp != self.reference.get(label):
                    problems.append(f"{label}: outputs differ from the first operation")
        return problems, sizes


def check_exact(case: Case, spec: dict) -> tuple[dict, list[str]]:
    report_path = os.path.join(case.out_dir, "report.json")
    curves_path = os.path.join(case.out_dir, "tv_curves.csv")
    with open(report_path) as fh:
        verdicts = json.load(fh)["verdicts"]
    problems = []
    if sorted(verdicts) != sorted(CHECK_NAMES):
        problems.append(f"verdicts cover {sorted(verdicts)}, expected {sorted(CHECK_NAMES)}")
    failed = sorted(k for k, v in verdicts.items() if v is not True)
    if failed:
        problems.append(f"verdicts not true: {failed}")
    fingerprint = {
        "verdicts": verdicts,
        "report_sha256": sha256_file(report_path),
        "tv_curves_sha256": sha256_file(curves_path),
    }
    return fingerprint, problems


def check_simulate(case: Case, spec: dict) -> tuple[dict, list[str]]:
    traj_path = os.path.join(case.out_dir, "trajectory.csv")
    est_path = os.path.join(case.out_dir, "estimates.json")
    problems = []
    rows = 0
    columns = spec["m"] + 3
    with open(traj_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            rows += 1
            if len(row) != columns:
                problems.append(f"trajectory row {rows} has {len(row)} columns, expected {columns}")
                break
    if rows != spec["n"] + 1:
        problems.append(f"trajectory has {rows} rows, expected {spec['n'] + 1}")
    with open(est_path) as fh:
        doc = json.load(fh)
    sections = [doc["estimates"], doc.get("shifted_view_estimates", {})]
    bad = [
        f"{name}.{k}" for section in sections for name, e in section.items()
        for k, v in e.items() if not math.isfinite(v)
    ]
    if bad:
        problems.append(f"non-finite estimates: {bad}")
    if spec["shifted"] and doc.get("shifted_check", {}).get("identical") is not True:
        problems.append("shifted-chain identity does not hold")
    fingerprint = {
        "trajectory_sha256": sha256_file(traj_path),
        "estimates_sha256": sha256_file(est_path),
    }
    return fingerprint, problems


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def prepare(name: str, seed: int, work_dir: str, smoke: bool, traced: bool = False) -> Workload:
    """Generate the workload's inputs from ``seed`` under ``work_dir``. A
    traced exact-corpus set-up also times the corpus layer's own builder."""
    spec = (SMOKE_SPECS if smoke else SPECS)[name]
    inputs = os.path.join(work_dir, "inputs")
    outputs = os.path.join(work_dir, "outputs")
    os.makedirs(inputs, exist_ok=True)
    timings = {}

    if name == "exact-dense":
        # An explicit floor: the CLI's default (0.005) is only valid below
        # 200 states, see NOTES.md.
        argv = ["exact", "--dims", ",".join(map(str, spec["dims"])), "--seed", str(seed),
                "--floor", repr(spec["floor"]), "--nmax", str(spec["nmax"]),
                "--out", outputs]
        return Workload("exact", spec, [Case(f"pmf-seed{seed}", argv, outputs)],
                        speed=SPEED[name])

    if name == "exact-corpus":
        # The acceptance corpus's shape mix and floor, seeds offset by the
        # workload seed; seeded_corpus has no seed offset, so it is only timed.
        corpus = [
            random_pmf(Dims(*CORPUS_DIMS[i % len(CORPUS_DIMS)]), seed + i, CORPUS_FLOOR)
            for i in range(spec["count"])
        ]
        if traced:
            t = time.perf_counter()
            seeded_corpus(spec["count"])
            timings["corpus.build_s"] = time.perf_counter() - t
        cases = []
        for i, pmf in enumerate(corpus):
            path = os.path.join(inputs, f"pmf_{i:02d}.json")
            _write_json(path, pmf.to_json_dict())
            label = f"pmf{i:02d}-{'x'.join(map(str, pmf.dims.shape))}-seed{seed + i}"
            out = os.path.join(outputs, f"{i:02d}")
            cases.append(Case(label, ["exact", "--pmf", path, "--out", out], out))
        return Workload("exact", spec, cases, timings)

    rng = np.random.default_rng(seed)
    theta = rng.normal(0.0, 1.0, spec["m"])
    y = theta + rng.normal(0.0, math.sqrt(MODEL_V), spec["m"])
    model_path = os.path.join(inputs, "model.json")
    _write_json(model_path, {"y": y.tolist(), "V": MODEL_V, "a": MODEL_A, "b": MODEL_B})
    argv = ["simulate", "--config", model_path, "--n", str(spec["n"]),
            "--burn-in", str(spec["burn_in"]), "--seed", str(seed), "--out", outputs]
    if spec["shifted"]:
        argv.append("--shifted-check")
    return Workload("simulate", spec, [Case(f"chain-seed{seed}", argv, outputs)])
