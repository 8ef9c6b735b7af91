"""The names the benchmark's tracer rebinds (perfbench/tracing.py) must
exist, be looked up at call time, and come back after ``uninstall``; a
renamed or inlined hook would otherwise go unnoticed until a benchmark run.
"""

import json
from pathlib import Path

import pytest

from blockgibbs import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def traced_run(tracing, argv):
    """Run ``cli.main(argv)`` as one traced operation; check that every
    rebound name and the step table come back, and return the tracer."""
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)  # an AttributeError here names a lost hook
    originals = [(target, name, original) for target, name, original in saved if name]
    try:
        tracer.begin_op(0)
        assert cli.main(argv) == 0
        tracer.end_op()
    finally:
        tracing.uninstall(saved)
    for target, name, original in originals:
        assert getattr(target, name) is original, f"{name} not restored"
    step_table = next(original for _, name, original in saved if name is None)
    assert tracing.random_effects._STEPS == step_table
    return tracer


def test_tracer_hooks_time_an_exact_run_and_are_restored(tmp_path, tracing):
    tracer = traced_run(tracing, ["exact", "--dims", "2,2,2", "--out", str(tmp_path / "out")])
    values = tracing.op_values(tracer, 0)
    assert values["kernels.nu_s"] > 0  # check_prop1 builds the start banks through analysis
    assert values["analysis.check_prop1_s"] > values["kernels.nu_s"]


def test_tracer_hooks_count_a_simulate_run_and_are_restored(tmp_path, tracing):
    n = 150
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"y": [1.2, -0.3, 0.7, 2.1], "V": 1.0, "a": 2.0, "b": 2.0}))
    tracer = traced_run(tracing, ["simulate", "--config", str(model), "--n", str(n),
                                  "--out", str(tmp_path / "out")])
    values = tracing.op_values(tracer, 0)
    # one chain: one keyed draw per label (A, mu, theta), which binds once
    # per block of sweeps it covers (here one), and one step per sweep
    assert values["streams.draws"] == 3
    assert values["streams.audit_keys"] == 3
    assert tracer.steps.count == n
