"""Tests for the command-line front end: config merging, artifacts, exit
codes, and report determinism."""

import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import blockgibbs
from blockgibbs import Dims, analysis, analyze, anti_example_pmf, cli, product_pmf, random_pmf, run_chain
from blockgibbs.analysis import Prop1Report
from blockgibbs.cli import ConfigError, main, parse_config
from blockgibbs.streams import _MAX_ITERATION

MODEL = {"y": [1.2, -0.3, 0.7, 2.1, -1.0, 0.4], "V": 1.0, "a": 2.0, "b": 2.0}

#: A 2x1x1 product pmf, as an inline pmf or a pmf file.
SMALL_PMF = product_pmf([0.5, 0.5], [1.0], [1.0]).to_json_dict()

#: sha256 of (report.json, tv_curves.csv) for three exact runs; see
#: test_exact_outputs_golden_digest.
GOLDEN_EXACT_SHA256 = {
    "dims-3,3,2-seed-7": (
        "dbf3117c790e105b471a83b99f8ca921b1a50f2229bf7c26623a353eb75bccc1",
        "6d3a76b541db1392637895089c4768f72e1a479db1176b7720b35b80b6782edc",
    ),
    "dims-4,4,4-seed-11": (
        "9fd261f3fd35f1b7e09fe326d59740f3c59949d29318c978fefa875edca1dfa2",
        "b7632504eb6f240542b0eef487b94dc0a9693b0c10251cbd1f6e52c1fd8187b3",
    ),
    "anti-example": (
        "c4362f7d3711aa3a90e1298a6bc5c70080289f3293f7ffa3e0283ffc8baec43c",
        "6278ed004e3e10a9c7f58034e6d347cfd26d26febd3843b7776c6e1d86bea480",
    ),
}

#: sha256 of (estimates.json, trajectory.csv) for two simulate runs; see
#: test_simulate_outputs_golden_digest.
GOLDEN_SIMULATE_SHA256 = {
    "block-shifted": (
        "7495f1c84dc6c4a2f1fa86494ca1664c1c2745269799dc75c93af888ff9b0327",
        "b656d93866f9d00ea81fec41af2e72091192fa499abd609e4b29f4c4a8535e95",
    ),
    "ooo-from-config": (
        "2b75f799dc0c5b32edf54347c91ae9d2c7d9efb05bcdd30a7c4d93db579ea7cc",
        "f9f7664cc3df391e9c04cce40ea7907b494c21bd7a8d1d4538867f5101800aaa",
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
    assert cfg.variant == "ooo"
    assert cfg.n == 10000
    assert cfg.burn_in == 0 and cfg.seed == 0
    assert cfg.data.m == 6


def test_parse_simulate_flag_overrides_file(tmp_path):
    doc = dict(MODEL, n=500, variant="block", seed=3)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    cfg = parse_config(["simulate", "--config", str(path), "--n", "900"])
    assert cfg.n == 900
    assert cfg.seed == 3


def test_parse_simulate_requires_n(model_file):
    with pytest.raises(ConfigError, match="--n"):
        parse_config(["simulate", "--config", model_file])


def test_parse_checks_random_floor_against_state_count(capsys):
    # a given floor must lie below 1/states: 0.01 is too large for 512
    with pytest.raises(ConfigError, match=r"^floor must lie in \(0, 0.00195312\)"):
        parse_config(["exact", "--dims", "8,8,8", "--floor", "0.01"])
    with pytest.raises(ConfigError, match="^dims 0,6,6"):
        parse_config(["exact", "--dims", "0,6,6"])
    assert main(["exact", "--dims", "8,8,8", "--floor", "0.01", "--out", "unused"]) == 2
    assert "error: floor must lie in" in capsys.readouterr().err
    cfg = parse_config(["exact", "--dims", "6,6,6", "--floor", "0.004"])
    assert cfg.pmf_source["floor"] == 0.004


def test_default_floor_is_valid_at_every_size(tmp_path):
    # the default is min(CORPUS_FLOOR, 0.5 / states): CORPUS_FLOOR up to 100
    # states, half of 1/states above, where CORPUS_FLOOR would be refused
    for dims, floor in (("2,2,2", 0.005), ("4,5,5", 0.005), ("5,5,5", 0.004),
                        ("6,6,6", 0.5 / 216), ("8,8,8", 0.5 / 512)):
        assert parse_config(["exact", "--dims", dims]).pmf_source["floor"] == floor
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dims": [6, 6, 6], "floor": None}))  # null: the default
    assert parse_config(["exact", "--config", str(cfg_path)]).pmf_source["floor"] == 0.5 / 216
    assert main(["exact", "--dims", "6,6,6", "--out", str(tmp_path / "out")]) == 0


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
        ("exact", {"dims": [2.5, 2, 2]}, "dims"),
        ("exact", {"dims": 5}, "dims"),
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
        ("exact", {"check": ["bogus"]}, "check"),
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


def test_simulate_n_beyond_the_stream_bound_exits_2(tmp_path, capsys, model_file):
    # the keyed noise addresses iterations below _MAX_ITERATION, and a run
    # reads up to iteration n + 1
    out = tmp_path / "out"
    bound = _MAX_ITERATION - 2
    argv = ["simulate", "--config", model_file, "--out", str(out), "--n"]
    assert main(argv + [str(bound + 1)]) == 2
    assert capsys.readouterr().err == f"error: n must be <= {bound}, got {bound + 1}\n"
    assert not out.exists()
    assert parse_config(argv + [str(bound)]).n == bound


def test_simulate_n_too_large_to_allocate_exits_1(tmp_path, capsys, model_file):
    # 10^15 sweeps is within the stream bound; its trajectory (8 PB per
    # column) fails to allocate at once, so no memory is touched
    assert main(["simulate", "--config", model_file, "--n", str(10**15),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err


def test_simulate_run_settings_may_be_integral_floats_or_numeric_strings(tmp_path):
    # 110 sweeps after a burn-in of 10 leave exactly the 100 states a block
    # run's shifted view needs
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(MODEL, n=110.0, burn_in="10", seed="3")))
    cfg = parse_config(["simulate", "--config", str(path)])
    assert (cfg.n, cfg.burn_in, cfg.seed, cfg.variant) == (110, 10, 3, "block")
    assert all(type(v) is int for v in (cfg.n, cfg.burn_in, cfg.seed))


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


#: Each flag that takes a value, the subcommand it belongs to, and the key
#: its errors name.
VALUE_FLAGS = {
    "--seed": ("exact", "seed"), "--floor": ("exact", "floor"), "--nmax": ("exact", "nmax"),
    "--dims": ("exact", "dims"), "--check": ("exact", "check"), "--variant": ("simulate", "variant"),
    "--n": ("simulate", "n"), "--burn-in": ("simulate", "burn_in"),
}


def _valid_argv(mode, model_file, out):
    """A run of ``mode`` whose every setting is good, writing to ``out``."""
    base = ["exact", "--dims", "2,2,2"] if mode == "exact" else ["simulate", "--config", model_file, "--n", "300"]
    return base + ["--out", str(out)]


@pytest.mark.parametrize("flag", VALUE_FLAGS)
def test_a_bad_flag_value_meets_its_settings_rule(tmp_path, capsys, model_file, flag):
    # flags reach the same rules as config values: no argparse conversion
    # stops the parse or words the message
    mode, key = VALUE_FLAGS[flag]
    out = tmp_path / "out"
    assert main(_valid_argv(mode, model_file, out) + [flag, "x"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} must be "), err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["exact", "simulate"])
def test_every_bad_flag_value_is_listed(tmp_path, capsys, model_file, mode):
    flags = [flag for flag, (flag_mode, _) in VALUE_FLAGS.items() if flag_mode == mode]
    out = tmp_path / "out"
    argv = _valid_argv(mode, model_file, out) + [arg for flag in flags for arg in (flag, "x")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(flags), err
    for flag in flags:
        assert sum(line.startswith(f"error: {VALUE_FLAGS[flag][1]} must be ") for line in err) == 1, err
    assert not out.exists()


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
    assert max(spec["slem"] for spec in report["report"]["rates"]["spectra"].values()) < 1e-12

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
    with open(out / "tv_curves.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["n"] == "1"
    assert rows[0]["tv_ooo_from_nu_z"] == ""  # undefined term written as an empty cell


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


def test_exact_bounds_pair_cells_not_states(tmp_path, capsys):
    # 4,352 states with pairs of at most 272 cells: over the old state cap,
    # well inside the pair cap
    out = tmp_path / "out"
    argv = ["exact", "--dims", "17,16,16", "--floor", "1e-5", "--nmax", "5", "--out", str(out)]
    assert main(argv) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True and all(report["verdicts"].values())
    capsys.readouterr()
    assert main(["exact", "--dims", "65,64,1", "--out", str(tmp_path / "refused")]) == 2
    assert "nx * ny = 4160 pair cells exceed the cap of 4096" in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()


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


def _reference_tv_curves(report) -> bytes:
    """tv_curves.csv as the csv module writes it: one row per n, NaN terms
    and undefined ok flags empty, every term as format(x, ".17g")."""
    p = report.prop1
    flag = {None: "", True: "true", False: "false"}
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["n", "tv_block_from_worst_state", "tv_Kz", "tv_ooo_from_nu_z", "chain1_ok",
                     "tv_ooo_from_state", "tv_Kxy_from_nu", "tv_Kdagger_from_nu", "chain2_ok"])
    rows = zip(p.n_values.tolist(), p.chain1.tolist(), p.chain1_ok, p.chain2.tolist(), p.chain2_ok)
    for n, chain1, ok1, chain2, ok2 in rows:
        cells = ["" if math.isnan(x) else format(x, ".17g") for x in chain1 + chain2]
        writer.writerow([n, *cells[:3], flag[ok1], *cells[3:], flag[ok2]])
    return fh.getvalue().encode()


def test_write_tv_curves_matches_the_reference_renderer(tmp_path, corpus):
    nan = float("nan")
    chain1 = np.array([[0.0, nan, nan], [5e-324, 1e-300, nan], [0.1, 1.2345678901234568e17, -0.0],
                       [1 / 3, 2.2250738585072014e-308, 1e22]])
    chain2 = np.array([[0.1, 0.0, 5e-324], [nan, 1e-300, 0.1], [1.2345678901234568e17, 1e-17, 1.0],
                       [0.5, nan, 7e-5]])
    synthetic = Prop1Report(
        nmax=4, tol=1e-12, n_values=np.arange(1, 5), chain1=chain1, chain2=chain2,
        chain1_ok=[None, None, True, False], chain2_ok=[True, False, None, True],
        chain1_verdict=False, chain2_verdict=False, max_violation=0.0, violations=[],
    )
    reports = [SimpleNamespace(prop1=synthetic)] + [analyze(pmf, nmax=50) for pmf in corpus]
    for i, report in enumerate(reports):
        path = tmp_path / f"tv_curves{i}.csv"
        cli._write_tv_curves(report, path)
        assert path.read_bytes() == _reference_tv_curves(report), i
    text = (tmp_path / "tv_curves0.csv").read_bytes().decode()
    assert text.splitlines()[1:3] == ["1,0,,,,0.10000000000000001,0,4.9406564584124654e-324,true",
                                      "2,4.9406564584124654e-324,1e-300,,,,1e-300,0.10000000000000001,false"]


def _exact_case_argv(tmp_path, case) -> list:
    """The exact command line of a golden case, or of an inline product pmf
    (``"product"``), writing to tmp_path / "out"."""
    inline = {"anti-example": anti_example_pmf(), "product": product_pmf([0.3, 0.7], [0.5, 0.5], [0.4, 0.6])}
    if case in inline:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"pmf": inline[case].to_json_dict()}))
        argv = ["exact", "--config", str(cfg_path)]
    else:
        _, dims, _, seed = case.split("-")
        argv = ["exact", "--dims", dims, "--seed", seed]
    return argv + ["--out", str(tmp_path / "out")]


@pytest.mark.parametrize("case", sorted(GOLDEN_EXACT_SHA256))
def test_exact_outputs_golden_digest(tmp_path, case):
    # pins every number and verdict of the exact path's two artifacts for
    # seeded random pmfs (4x4x4 is the largest corpus shape) and for the
    # counterexample (given inline, so that no file path enters report.json)
    out = tmp_path / "out"
    assert main(_exact_case_argv(tmp_path, case)) == 0
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("report.json", "tv_curves.csv")
    )
    assert digests == GOLDEN_EXACT_SHA256[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_EXACT_SHA256) + ["product"])
def test_report_spectra_are_core_moduli_and_a_structural_zero_count(tmp_path, case):
    # each kernel's spectrum is written as its k core moduli, descending, and
    # the count of its s - k structural zeros, not of the moduli that are 0.0
    cfg = parse_config(_exact_case_argv(tmp_path, case))
    assert cli.run(cfg) == 0
    written = json.loads((tmp_path / "out" / "report.json").read_text())["report"]["rates"]["spectra"]
    summaries = analysis.check_rate_equality(cfg.pmf).spectra
    kernels = {name: kernel for name, (kernel, _) in analysis._sweeps(cfg.pmf).items()}
    assert list(written) == list(summaries) == list(kernels)
    for name, kernel in kernels.items():
        moduli, zeros = written[name]["moduli"], written[name]["structural_zeros"]
        assert len(moduli) == kernel.core_eigenvalues.size, name
        assert zeros == kernel.codec.size - len(moduli), name
        assert moduli == sorted(moduli, reverse=True), name
        assert moduli + [0.0] * zeros == summaries[name].moduli.tolist(), name


@pytest.mark.parametrize("case", sorted(GOLDEN_EXACT_SHA256) + ["product"])
def test_prop1_rows_are_written_once_to_tv_curves(tmp_path, case):
    # report.json carries neither the per-n prop1 rows nor a second copy of
    # the slems; tv_curves.csv holds every row, bit for bit
    cfg = parse_config(_exact_case_argv(tmp_path, case))
    assert cli.run(cfg) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
    assert "rows" not in report["prop1"]
    assert "slems" not in report["rates"]
    with open(tmp_path / "out" / "tv_curves.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    p = analysis.check_prop1(cfg.pmf, cfg.nmax)
    assert [int(row[0]) for row in rows] == p.n_values.tolist()
    cells = np.array([[float(cell) if cell else np.nan for cell in row[1:4] + row[5:8]] for row in rows])
    assert cells.tobytes() == np.hstack([p.chain1, p.chain2]).tobytes()
    flag = {"": None, "true": True, "false": False}
    assert [flag[row[4]] for row in rows] == p.chain1_ok
    assert [flag[row[8]] for row in rows] == p.chain2_ok


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


@pytest.mark.parametrize("form", ["--pmf", "inline"])
def test_exact_zero_conditioning_cell_exits_2_naming_the_source(tmp_path, capsys, form):
    # the z = 1 slice is empty, so P(X,Y | Z=1) does not exist: the sweeps'
    # conditional tables are built while the pmf is loaded, and the run
    # stops with a config error before any analysis
    doc = {"dims": [2, 2, 2], "p": [0.25, 0, 0.25, 0, 0.25, 0, 0.25, 0]}
    if form == "--pmf":
        path = tmp_path / "pmf.json"
        path.write_text(json.dumps(doc))
        argv, where = ["exact", "--pmf", str(path)], f"--pmf {path}"
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pmf": doc}))
        argv, where = ["exact", "--config", str(path)], "inline pmf"
    with pytest.raises(ConfigError, match=r"conditioning cell \(Z=1\) has zero probability"):
        parse_config(argv)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"invalid pmf in {where}: conditioning cell (Z=1) has zero probability" in err
    assert not out.exists()


def test_exact_missing_pmf_file_is_io_error(tmp_path, capsys):
    code = main(["exact", "--pmf", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2
    assert f"error: cannot read {tmp_path / 'nope.json'}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [(None, "cannot read {path}: "), ('{"dims": [2,', "malformed JSON in {path}: "),
     ("[1, 2]", "{path} must contain a JSON object")],
)
@pytest.mark.parametrize("flag", ["--config", "--pmf"])
def test_a_bad_input_file_exits_2_beside_every_other_error(tmp_path, capsys, flag, content, message):
    # --config and --pmf share one reader, so each fault reads the same and
    # is listed with the other settings' errors
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "out"
    assert main(["exact", flag, str(path), "--nmax", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: " + message.format(path=path)), err
    assert "error: nmax must be >= 3, got 1" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [(["--dims", "8,8,8", "--floor", "0.01"], "floor must lie in (0, 0.00195312) for 512 states, got 0.01"),
     (["--dims", "0,6,6"], "dims 0,6,6: nx must be a positive integer, got 0")],
)
def test_a_bad_random_source_is_one_error(tmp_path, capsys, argv, message):
    # a random pmf is built only from dims and a floor that passed their checks
    out = tmp_path / "out"
    assert main(["exact", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_a_random_pmf_is_built_while_parsing():
    pmf = parse_config(["exact", "--dims", "2,2,2", "--seed", "7"]).pmf
    assert pmf.p.tobytes() == random_pmf(Dims(2, 2, 2), 7, 0.005).p.tobytes()


def test_a_pmf_document_error_names_its_field(tmp_path, capsys):
    path = tmp_path / "pmf.json"
    path.write_text(json.dumps({"p": [0.5, 0.5]}))
    assert main(["exact", "--pmf", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: invalid pmf in --pmf {path}: missing field 'dims'\n"


@pytest.mark.parametrize("mode", ["exact", "simulate"])
def test_an_unwritable_out_exits_1(tmp_path, capsys, model_file, mode):
    out = tmp_path / "out"
    out.write_text("")  # a file where the output directory should be
    assert main(_valid_argv(mode, model_file, out)) == 1
    assert capsys.readouterr().err.startswith(f"error: i/o failure on {out}: ")


def test_exact_stationary_residual_failure_exits_1(tmp_path, capsys, monkeypatch):
    # a residual over the tolerance is reported like any other bad pmf, not
    # as a traceback, and no report is written
    monkeypatch.setattr(blockgibbs.analysis, "STATIONARY_RESIDUAL_TOL", 0.0)
    out = tmp_path / "out"
    assert main(["exact", "--dims", "3,2,2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"error: stationary solve residual \S+ exceeds tolerance 0\b", err), err
    assert not (out / "report.json").exists()


def test_verdicts_are_values_against_the_analysis_tolerances(tmp_path, monkeypatch):
    # analysis decides every verdict, in CHECK_NAMES order, and the command
    # line takes them as they are: a tolerance tightened there fails the run
    argv = ["exact", "--dims", "3,2,2", "--seed", "1", "--floor", "0.005", "--nmax", "5"]
    report = analyze(random_pmf(Dims(3, 2, 2), seed=1, floor=0.005), nmax=5)
    preserved = max(report.marginal_tv[name] for name in ("X", "Y", "Z", "XZ", "YZ"))
    rate = report.rate
    assert list(report.verdicts) == list(cli.CHECK_NAMES) == ["prop1", "rates", "invariance", "marginals"]
    assert report.verdicts == {
        "prop1": report.prop1.max_violation <= report.prop1.tol,
        "rates": max(rate.multiset_gap, rate.slem_gap) <= rate.tol,
        "invariance": report.invariance[0] <= analysis.INVARIANCE_TOL,
        "marginals": preserved <= analysis.PRESERVED_MARGINAL_TOL,
    }
    assert all(report.verdicts.values())
    assert main(argv + ["--out", str(tmp_path / "pass")]) == 0

    monkeypatch.setattr(analysis, "PRESERVED_MARGINAL_TOL", -1.0)
    out = tmp_path / "fail"
    assert main(argv + ["--out", str(out)]) == 1
    doc = json.loads((out / "report.json").read_text())
    assert doc["passed"] is False
    assert doc["verdicts"] == {"prop1": True, "rates": True, "invariance": True, "marginals": False}


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


@pytest.mark.parametrize("variant, message", [
    ("block", "error: n must be >= 100 for a block run, plus its burn-in, since its shifted "
              "view has n states: n=50 with burn_in=0 leaves 50"),
    ("ooo", "error: need at least 100 post-burn-in states for estimates; "
            "n=50 with burn_in=0 leaves 51"),
])
def test_a_short_run_reports_its_one_bound(tmp_path, model_file, capsys, variant, message):
    # the block bound implies the general one, so a short block run names only its own
    argv = ["simulate", "--config", model_file, "--n", "50", "--variant", variant]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [message]


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


def test_a_rerun_into_the_same_out_leaves_only_its_own_bytes(tmp_path, model_file):
    # each artifact is written to a newly created file: a shorter second run
    # leaves no tail of the first, and a symlink at an output path is
    # replaced, not written through
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    runs = (
        (["simulate", "--config", model_file, "--seed", "9", "--n"], "400", "150",
         ("estimates.json", "trajectory.csv")),
        (["exact", "--seed", "3", "--dims"], "4,4,4", "2,2,2", ("report.json", "tv_curves.csv")),
    )
    for argv, longer, shorter, names in runs:
        assert main(argv + [longer, "--out", str(out)]) == 0
        victim = tmp_path / f"victim-{names[0]}"
        victim.write_text("kept")
        (out / names[0]).unlink()
        (out / names[0]).symlink_to(victim)
        assert main(argv + [shorter, "--out", str(out)]) == 0
        assert main(argv + [shorter, "--out", str(fresh)]) == 0
        for name in names:
            assert not (out / name).is_symlink()
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
        assert victim.read_text() == "kept"


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


def test_python_dash_m_runs_main_and_passes_its_exit_code(tmp_path):
    src = Path(blockgibbs.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "blockgibbs", *argv], env=env,
                              capture_output=True, text=True)

    ok = run("exact", "--dims", "2,2,2", "--out", str(tmp_path / "out"))
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "out" / "report.json").exists()
    no_source = run("exact", "--out", str(tmp_path / "none"))
    assert no_source.returncode == 2
    assert "no pmf source" in no_source.stderr
