"""The names the benchmark's tracer rebinds (perfbench/tracing.py) must
exist, be looked up at call time, and come back after ``uninstall``; a
renamed or inlined hook would otherwise go unnoticed until a benchmark run.
"""

from pathlib import Path

from blockgibbs import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_hooks_time_an_exact_run_and_are_restored(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    saved = tracing.install(tracer)  # an AttributeError here names a lost hook
    originals = [(target, name, original) for target, name, original in saved if name]
    try:
        tracer.begin_op(0)
        assert cli.main(["exact", "--dims", "2,2,2", "--out", str(tmp_path / "out")]) == 0
        tracer.end_op()
    finally:
        tracing.uninstall(saved)
    values = tracing.op_values(tracer, 0)
    assert values["kernels.nu_s"] > 0  # check_prop1 builds the start banks through analysis
    assert values["analysis.check_prop1_s"] > values["kernels.nu_s"]
    for target, name, original in originals:
        assert getattr(target, name) is original, f"{name} not restored"
    step_table = next(original for _, name, original in saved if name is None)
    assert tracing.random_effects._STEPS == step_table
