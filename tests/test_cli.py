"""Tests for the command-line front end: config merging, artifacts, exit
codes, and report determinism."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockgibbs
from blockgibbs import anti_example_pmf, cli, product_pmf, run_chain
from blockgibbs.cli import ConfigError, main, parse_config

MODEL = {"y": [1.2, -0.3, 0.7, 2.1, -1.0, 0.4], "V": 1.0, "a": 2.0, "b": 2.0}

#: A 2x1x1 product pmf, as an inline pmf or a pmf file.
SMALL_PMF = product_pmf([0.5, 0.5], [1.0], [1.0]).to_json_dict()

#: sha256 of (report.json, tv_curves.csv) for three exact runs; see
#: test_exact_outputs_golden_digest.
GOLDEN_EXACT_SHA256 = {
    "dims-3,3,2-seed-7": (
        "2031c1f149c62183aa3c496d8332fbdee0359a37b387042255c23f1fa482dcb6",
        "c9b1933fd56f741226fd23bdfab407b0496743c4c170dc18c6ab01cfcb69dba8",
    ),
    "dims-4,4,4-seed-11": (
        "f5af4ad2fb049740cd82766bb0ebee21825281313a3074e11de0aef0cda76d9e",
        "4d8d081dc18241ba2a0f48cc6c0fda18619d6874c602910ec5bdb1296f05648c",
    ),
    "anti-example": (
        "37cb0101e9c2b64fc7235ced7ade955c806d4dc1387d29e09f626327fc07cb41",
        "06c1d792bfe243d0563291aba6bbceacab309044118c11d423b13a3ee9e9c24c",
    ),
}

#: sha256 of (estimates.json, trajectory.csv) for two simulate runs; see
#: test_simulate_outputs_golden_digest.
GOLDEN_SIMULATE_SHA256 = {
    "block-shifted": (
        "85fbda9639c14216ebb60f23895d3e81664443e1bc7755a6fc00b46cfcf2017b",
        "01a358863c7bf5e70bd06cb6861f046c1c3bf26e0787bae49993c88d13def2ae",
    ),
    "ooo-from-config": (
        "b8885b9d8e93cbe4277377f9dac6061bdc8afb9a7087975e7f1f1471a13a4c46",
        "5de7eafc006167d66239790434524afd2a7bcdbd42bea856b5eb49bab60e1b98",
    ),
}


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL))
    return str(path)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
def test_parse_exact_random_source():
    cfg = parse_config(["exact", "--dims", "2,2,2", "--seed", "7"])
    assert cfg.mode == "exact"
    assert cfg.pmf_source == {"kind": "random", "dims": (2, 2, 2), "seed": 7, "floor": 0.005}
    assert cfg.checks == ("prop1", "rates", "invariance", "marginals")
    assert cfg.nmax == 50


def test_parse_exact_check_subset():
    cfg = parse_config(["exact", "--dims", "2,2,2", "--check", "rates", "--check", "marginals"])
    assert cfg.checks == ("rates", "marginals")


def test_parse_conflicting_pmf_sources():
    with pytest.raises(ConfigError, match="conflicting pmf sources"):
        parse_config(["exact", "--pmf", "a.json", "--dims", "2,2,2"])


def test_parse_exact_requires_a_source():
    with pytest.raises(ConfigError, match="no pmf source"):
        parse_config(["exact"])


def test_parse_collects_all_errors():
    with pytest.raises(ConfigError) as info:
        parse_config(["exact", "--dims", "2,2", "--nmax", "1"])
    assert len(info.value.messages) == 2


def test_parse_simulate_merges_config_and_flags(model_file):
    cfg = parse_config(
        ["simulate", "--config", model_file, "--variant", "ooo", "--n", "10000"]
    )
    assert cfg.mode == "simulate"
    assert cfg.model.variant == "ooo"
    assert cfg.model.n == 10000
    assert cfg.model.burn_in == 0 and cfg.model.seed == 0
    assert cfg.model.data.m == 6


def test_parse_simulate_flag_overrides_file(tmp_path):
    doc = dict(MODEL, n=500, variant="block", seed=3)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    cfg = parse_config(["simulate", "--config", str(path), "--n", "900"])
    assert cfg.model.n == 900
    assert cfg.model.seed == 3


def test_parse_simulate_requires_n(model_file):
    with pytest.raises(ConfigError, match="--n"):
        parse_config(["simulate", "--config", model_file])


def test_parse_checks_random_floor_against_state_count(capsys):
    # the default floor 0.005 is too large for 216 states: 1/216 < 0.005
    with pytest.raises(ConfigError, match=r"--floor must lie in \(0, 0.00462963\)"):
        parse_config(["exact", "--dims", "6,6,6"])
    with pytest.raises(ConfigError, match="--dims 0,6,6"):
        parse_config(["exact", "--dims", "0,6,6"])
    assert main(["exact", "--dims", "6,6,6", "--out", "unused"]) == 2
    assert "--floor" in capsys.readouterr().err
    cfg = parse_config(["exact", "--dims", "6,6,6", "--floor", "0.004"])
    assert cfg.pmf_source["floor"] == 0.004


@pytest.mark.parametrize(
    "override, field",
    [({"y": [1.2, float("nan"), 0.7, 2.1]}, "y"), ({"b": float("inf")}, "b")],
)
def test_simulate_non_finite_model_exits_2(tmp_path, capsys, override, field):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(MODEL, **override)))  # writes NaN / Infinity
    code = main(["simulate", "--config", str(path), "--n", "200", "--out", str(tmp_path)])
    assert code == 2
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "mode, override, key",
    [
        ("exact", {"nmax": "abc"}, "nmax"),
        ("exact", {"nmax": 7.9}, "nmax"),
        ("exact", {"nmax": True}, "nmax"),
        ("exact", {"seed": "x"}, "seed"),
        ("exact", {"floor": "abc"}, "floor"),
        ("exact", {"check": 5}, "check"),
        ("exact", {"check": ["rates", ["prop1"]]}, "check"),
        ("exact", {"dims": [2.5, 2, 2]}, "--dims"),
        ("exact", {"dims": 5}, "--dims"),
        ("exact", {"dims": None, "pmf_file": 5}, "pmf_file"),
        ("exact", {"out": 5}, "out"),
        ("simulate", {"shifted_check": "no"}, "shifted_check"),
        ("simulate", {"n": 300.5}, "n"),
        ("simulate", {"seed": "x"}, "seed"),
        ("simulate", {"V": "x"}, "V"),
        ("simulate", {"a": None}, "a"),
        ("simulate", {"b": True}, "b"),
        ("simulate", {"y": [1.2, -0.3, True]}, "y[2]"),
        ("simulate", {"y": [1.2, "x", 0.7]}, "y[1]"),
        ("simulate", {"y": "abc"}, "y"),
        ("exact", {"seed": -1}, "seed"),
        ("simulate", {"seed": -1}, "seed"),
        ("simulate", {"seed": 2**64}, "seed"),
        ("simulate", {"burn_in": -1}, "burn_in"),
        ("simulate", {"n": 0}, "n"),
        ("simulate", {"burn_in": True}, "burn_in"),
        ("simulate", {"variant": "zigzag"}, "variant"),
        ("exact", {"nmx": 80}, "nmx"),
        ("simulate", {"burnin": 150}, "burnin"),
        ("exact", {"dims": None, "pmf": SMALL_PMF, "seed": "x", "floor": "abc"}, "seed"),
    ],
)
def test_invalid_config_values_exit_2_naming_the_key(
    tmp_path, capsys, monkeypatch, mode, override, key
):
    base = {"dims": [2, 2, 2]} if mode == "exact" else dict(MODEL, n=300)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(base, **override)))
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be"):
        parse_config([mode, "--config", str(path)])
    monkeypatch.chdir(tmp_path)  # the default output directory
    assert main([mode, "--config", str(path)]) == 2
    assert f"error: {key} must be" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("form", ["file", "inline"])
def test_exact_reads_seed_and_floor_beside_any_pmf_source(tmp_path, capsys, form):
    # seed and floor only shape a random pmf, but a bad value is refused
    # whatever the source, and a good one is accepted
    pmf_path = tmp_path / "pmf.json"
    pmf_path.write_text(json.dumps(SMALL_PMF))
    source = {"pmf_file": str(pmf_path)} if form == "file" else {"pmf": SMALL_PMF}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(source, seed="x", floor="abc")))
    assert main(["exact", "--config", str(path), "--out", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert "error: seed must be an integer, got 'x'" in err
    assert "error: floor must be a number, got 'abc'" in err
    assert not (tmp_path / "bad").exists()
    path.write_text(json.dumps(dict(source, seed=3, floor=0.01)))
    assert main(["exact", "--config", str(path), "--out", str(tmp_path / "good")]) == 0


def test_config_integers_may_be_integral_floats_or_numeric_strings(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "nmax": 7.0, "seed": "3", "floor": "0.01"}))
    cfg = parse_config(["exact", "--config", str(path)])
    assert (cfg.nmax, cfg.pmf_source["seed"], cfg.pmf_source["floor"]) == (7, 3, 0.01)


@pytest.mark.parametrize(
    "doc, messages",
    [
        (
            dict(MODEL, n=7.9, burn_in=True, seed=-3),
            ["n must be an integer, got 7.9", "burn_in must be an integer, got True",
             "seed must be in [0, 2**64), got -3"],
        ),
        (
            dict(MODEL, n=0, seed=-3),
            ["n must be >= 1, got 0", "seed must be in [0, 2**64), got -3"],
        ),
        (
            {"y": MODEL["y"], "V": 1.0, "a": 2.0, "n": 300},
            ["model config missing required keys: ['b']"],
        ),
    ],
)
def test_simulate_settings_list_every_error(tmp_path, capsys, doc, messages):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as info:
        parse_config(["simulate", "--config", str(path)])
    assert info.value.messages == messages
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {m}" for m in messages]
    assert not (tmp_path / "out").exists()


def test_simulate_run_settings_may_be_integral_floats_or_numeric_strings(tmp_path):
    # 110 sweeps after a burn-in of 10 leave exactly the 100 states a block
    # run's shifted view needs
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(MODEL, n=110.0, burn_in="10", seed="3")))
    model = parse_config(["simulate", "--config", str(path)]).model
    assert (model.n, model.burn_in, model.seed, model.variant) == (110, 10, 3, "block")
    assert all(type(v) is int for v in (model.n, model.burn_in, model.seed))


@pytest.mark.parametrize("mode", ["exact", "simulate"])
def test_every_flag_is_a_setting_of_its_subcommand(mode):
    # flags are merged over the config file by dest, and a key that the
    # subcommand does not read is refused, so each dest must be one it reads
    dests = set(vars(cli._parser().parse_args([mode]))) - {"mode", "config"}
    assert dests and dests <= set(cli._SETTINGS[mode])


def test_parser_reuse_leaves_no_state_behind(tmp_path):
    # one parser serves every call in a process: a repeatable flag or an
    # output directory from one call must not leak into the next
    assert parse_config(["exact", "--dims", "2,2,2", "--check", "prop1"]).checks == ("prop1",)
    assert parse_config(["exact", "--dims", "2,2,2"]).checks == cli.CHECK_NAMES
    a = parse_config(["exact", "--dims", "2,2,2", "--out", str(tmp_path / "a")])
    b = parse_config(["exact", "--dims", "2,2,2", "--out", str(tmp_path / "b")])
    assert (a.out_dir, b.out_dir) == (str(tmp_path / "a"), str(tmp_path / "b"))
    assert parse_config(["exact", "--dims", "2,2,2"]).out_dir == "."


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["exact", "--bogus"])
    assert info.value.code == 2


def test_main_reports_config_errors(capsys):
    code = main(["exact", "--pmf", "a.json", "--dims", "2,2,2"])
    assert code == 2
    assert "conflicting" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exact mode
# ---------------------------------------------------------------------------
def test_exact_mode_product_pmf(tmp_path, capsys):
    pmf_path = tmp_path / "pmf.json"
    pmf_path.write_text(json.dumps(product_pmf([0.3, 0.7], [0.5, 0.5], [0.4, 0.6]).to_json_dict()))
    out = tmp_path / "out"
    code = main(["exact", "--pmf", str(pmf_path), "--nmax", "6", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert all(report["verdicts"].values())
    assert max(report["report"]["rates"]["slems"].values()) < 1e-12

    with open(out / "tv_curves.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "n"
    assert len(rows) == 7  # header + n = 1..6
    assert rows[1][4] == ""  # no chain-1 verdict before n = 3
    assert rows[3][4] == "true"


def test_exact_mode_seeded_corpus_member(tmp_path):
    out = tmp_path / "out"
    code = main(["exact", "--dims", "3,2,2", "--seed", "1", "--floor", "0.005",
                 "--nmax", "20", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"]["prop1"] is True
    rows = report["report"]["prop1"]["rows"]
    assert rows[0]["n"] == 1
    assert rows[0]["chain1"][2] is None  # undefined term serialized as null


def test_exact_mode_inline_pmf(tmp_path):
    doc = {
        "pmf": product_pmf([0.5, 0.5], [1.0], [1.0]).to_json_dict(),
        "nmax": 5,
        "out": str(tmp_path / "inline_out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["exact", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "inline_out" / "report.json").exists()


def test_exact_report_is_byte_identical(tmp_path):
    args = ["exact", "--dims", "2,2,2", "--seed", "5", "--nmax", "10"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "tv_curves.csv").read_bytes() == (out2 / "tv_curves.csv").read_bytes()


def _reference_json(obj) -> str:
    # the report renderer as first written: json.dumps for keys, strings and
    # literals, recursion with a two-space indent, .17g floats
    def render(node, indent: str) -> str:
        pad = indent + "  "
        if isinstance(node, dict):
            if not node:
                return "{}"
            items = ",\n".join(
                f'{pad}{json.dumps(str(k))}: {render(v, pad)}' for k, v in node.items()
            )
            return "{\n" + items + "\n" + indent + "}"
        if isinstance(node, (list, tuple)):
            if not node:
                return "[]"
            items = ",\n".join(f"{pad}{render(v, pad)}" for v in node)
            return "[\n" + items + "\n" + indent + "]"
        if isinstance(node, bool) or node is None:
            return json.dumps(node)
        if isinstance(node, (int, np.integer)):
            return str(int(node))
        if isinstance(node, (float, np.floating)):
            x = float(node)
            if not math.isfinite(x):
                raise ValueError(f"non-finite value {x!r} in report")
            return format(x, ".17g")
        if isinstance(node, str):
            return json.dumps(node)
        raise TypeError(f"cannot serialize {type(node)!r}")

    return render(obj, "") + "\n"


def test_write_json_matches_the_reference_renderer(tmp_path):
    doc = {
        "empty_dict": {},
        "empty_list": [],
        'key with "quotes" and \\ backslash': 'value "quoted"\n\ttabbed',
        "non-ascii ü → ∞": "μ ≠ 😀",
        "nested": {"a": [1, [2, [], {}], {"b": {"c": [None, True, False]}}], "t": (3, 4)},
        "numpy": [np.int64(-7), np.float64(0.1), np.float32(0.5), np.bool_(True).item()],
        "ints": [0, -1, 2**63, True, False],
        "floats": [0.0, -0.0, 1.0, 0.1, 1 / 3, 5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, 1e-17, 1e22, -123456.789e-300],
        7: "non-string key",
    }
    path = tmp_path / "doc.json"
    cli._write_json(doc, path)
    assert path.read_text() == _reference_json(doc)
    assert json.loads(path.read_text())["floats"] == doc["floats"]
    for bad in (float("nan"), float("inf"), -np.inf, np.float64("nan")):
        with pytest.raises(ValueError, match="non-finite"):
            cli._write_json({"rows": [1.0, bad]}, tmp_path / "bad.json")
    with pytest.raises(TypeError):
        cli._write_json({"x": object()}, tmp_path / "bad.json")


@pytest.mark.parametrize("case", sorted(GOLDEN_EXACT_SHA256))
def test_exact_outputs_golden_digest(tmp_path, case):
    # pins every number and verdict of the exact path's two artifacts for
    # seeded random pmfs (4x4x4 is the largest corpus shape) and for the
    # counterexample (given inline, so that no file path enters report.json)
    out = tmp_path / "out"
    if case == "anti-example":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"pmf": anti_example_pmf().to_json_dict()}))
        argv = ["exact", "--config", str(cfg_path)]
    else:
        _, dims, _, seed = case.split("-")
        argv = ["exact", "--dims", dims, "--seed", seed]
    assert main(argv + ["--out", str(out)]) == 0
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("report.json", "tv_curves.csv")
    )
    assert digests == GOLDEN_EXACT_SHA256[case]


def test_exact_non_finite_pmf_exits_2_at_parse_time(tmp_path, capsys):
    pmf_path = tmp_path / "nan.json"
    pmf_path.write_text('{"dims": [2, 1, 1], "p": [NaN, 0.5]}')
    with pytest.raises(ConfigError, match="flat index 0 is nan"):
        parse_config(["exact", "--pmf", str(pmf_path)])
    out = tmp_path / "out"
    assert main(["exact", "--pmf", str(pmf_path), "--out", str(out)]) == 2
    assert f"invalid pmf in --pmf {pmf_path}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dims", [[2.5, 1, 1], [True, 2, 1], [2, 1, 1.0000001]])
@pytest.mark.parametrize("form", ["--pmf", "inline"])
def test_exact_pmf_dims_must_be_whole_numbers(tmp_path, capsys, dims, form):
    doc = {"dims": dims, "p": [0.5, 0.5]}
    if form == "--pmf":
        path = tmp_path / "pmf.json"
        path.write_text(json.dumps(doc))
        argv, where = ["exact", "--pmf", str(path)], f"--pmf {path}"
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pmf": doc}))
        argv, where = ["exact", "--config", str(path)], "inline pmf"
    with pytest.raises(ConfigError, match="dims must be whole numbers"):
        parse_config(argv)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"invalid pmf in {where}: dims must be whole numbers" in capsys.readouterr().err
    assert not out.exists()
    # an integral float still gives its whole number, as before
    doc["dims"] = [2.0, 1, 1]
    path.write_text(json.dumps(doc if form == "--pmf" else {"pmf": doc}))
    assert parse_config(argv).pmf.dims.shape == (2, 1, 1)


def test_exact_missing_pmf_file_is_io_error(tmp_path, capsys):
    code = main(["exact", "--pmf", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate mode
# ---------------------------------------------------------------------------
def test_simulate_mode_artifacts(tmp_path, model_file):
    out = tmp_path / "sim"
    code = main(["simulate", "--config", model_file, "--n", "300", "--burn-in", "50",
                 "--seed", "42", "--out", str(out)])
    assert code == 0

    with open(out / "trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "A", "mu"] + [f"theta_{i}" for i in range(1, 7)]
    assert len(rows) == 302  # header + init + 300 sweeps

    doc = json.loads((out / "estimates.json").read_text())
    assert set(doc["estimates"]) == {"A", "mu", "A_times_mu"}
    assert doc["estimates"]["A"]["se"] > 0
    # block runs also report the shifted view estimates side by side
    assert "A_times_mu" in doc["shifted_view_estimates"]


def test_simulate_shifted_check_passes(tmp_path, model_file):
    out = tmp_path / "sim"
    code = main(["simulate", "--config", model_file, "--n", "400", "--seed", "7",
                 "--shifted-check", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "estimates.json").read_text())
    assert doc["shifted_check"] == {"n": 400, "identical": True}


def test_simulate_shifted_check_leaves_the_trajectory_unchanged(
    tmp_path, model_file, monkeypatch
):
    # the check's longer block run supplies the trajectory's n + 1 states
    calls = []

    def counted(variant, init, data, hyper, n, seed, **kwargs):
        calls.append((variant, n))
        return run_chain(variant, init, data, hyper, n, seed, **kwargs)

    monkeypatch.setattr(cli, "run_chain", counted)
    args = ["simulate", "--config", model_file, "--n", "300", "--seed", "11"]
    out1, out2 = tmp_path / "plain", tmp_path / "checked"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--shifted-check", "--out", str(out2)]) == 0
    assert calls == [("block", 300), ("block", 301), ("ooo", 300)]
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    plain = json.loads((out1 / "estimates.json").read_text())
    checked = json.loads((out2 / "estimates.json").read_text())
    assert checked.pop("shifted_check") == {"n": 300, "identical": True}
    assert checked == plain


def test_block_run_needs_100_sweeps_for_its_shifted_view(tmp_path, model_file, capsys):
    # a block run also estimates on its shifted view, which has n states
    out = tmp_path / "block"
    assert main(["simulate", "--config", model_file, "--n", "99", "--out", str(out)]) == 2
    assert "error: n must be >= 100 for a block run" in capsys.readouterr().err
    assert not out.exists()
    assert main(["simulate", "--config", model_file, "--n", "100", "--out", str(out)]) == 0
    # an ooo run has no shifted view: 99 sweeps give the 100 states it needs
    out = tmp_path / "ooo"
    assert main(["simulate", "--config", model_file, "--variant", "ooo", "--n", "99",
                 "--out", str(out)]) == 0
    assert json.loads((out / "estimates.json").read_text())["config"]["n"] == 99


def test_block_run_needs_100_sweeps_past_its_burn_in(tmp_path, model_file, capsys):
    # the shifted view's estimates drop the same burn-in as the trajectory's
    argv = ["simulate", "--config", model_file, "--n", "150"]
    out = tmp_path / "block"
    assert main(argv + ["--burn-in", "51", "--out", str(out)]) == 2
    assert ("error: n must be >= 100 for a block run, plus its burn-in, since its "
            "shifted view has n states: n=150 with burn_in=51 leaves 99") in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--burn-in", "50", "--out", str(out)]) == 0
    doc = json.loads((out / "estimates.json").read_text())
    assert doc["config"]["burn_in"] == 50 and "shifted_view_estimates" in doc
    # an ooo run has no shifted view: 151 states leave 100 past a burn-in of 51
    out = tmp_path / "ooo"
    assert main(argv + ["--burn-in", "51", "--variant", "ooo", "--out", str(out)]) == 0


@pytest.mark.parametrize("case", sorted(GOLDEN_SIMULATE_SHA256))
def test_simulate_outputs_golden_digest(tmp_path, case):
    # pins both artifacts of a block run with the shifted check and of an ooo
    # run whose settings all come from its config file, including the
    # settings block of estimates.json; 1,100 sweeps cross a noise block
    if case == "block-shifted":
        doc = MODEL
        flags = ["--n", "1100", "--burn-in", "100", "--seed", "42", "--shifted-check"]
    else:
        doc, flags = dict(MODEL, n=1100.0, burn_in="100", seed=42, variant="ooo"), []
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)] + flags) == 0
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("estimates.json", "trajectory.csv")
    )
    assert digests == GOLDEN_SIMULATE_SHA256[case]


def test_simulate_deterministic(tmp_path, model_file):
    args = ["simulate", "--config", model_file, "--n", "200", "--seed", "9"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "estimates.json").read_bytes() == (out2 / "estimates.json").read_bytes()
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_a_run_never_imports_scipy(tmp_path, model_file):
    # importing scipy.special adds about 24 MB of resident memory and 0.3 s
    # to a process; the package itself needs only numpy (the tests use scipy)
    src = Path(blockgibbs.__file__).resolve().parent.parent
    script = (
        "import sys\n"
        "import blockgibbs\n"
        "from blockgibbs import cli\n"
        f"assert cli.main(['simulate', '--config', {model_file!r}, '--n', '200', "
        f"'--shifted-check', '--out', {str(tmp_path / 'sim')!r}]) == 0\n"
        f"assert cli.main(['exact', '--dims', '2,2,2', '--out', {str(tmp_path / 'exact')!r}]) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.splitlines()[-1] == "[]"
