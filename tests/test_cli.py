"""Tests for the command-line front end: config merging, artifacts, exit
codes, and report determinism."""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

from blockgibbs import anti_example_pmf, cli, product_pmf, run_chain
from blockgibbs.cli import ConfigError, main, parse_config

MODEL = {"y": [1.2, -0.3, 0.7, 2.1, -1.0, 0.4], "V": 1.0, "a": 2.0, "b": 2.0}

#: sha256 of (report.json, tv_curves.csv) for three exact runs; see
#: test_exact_outputs_golden_digest.
GOLDEN_EXACT_SHA256 = {
    "dims-3,3,2-seed-7": (
        "bd3c2b17a2700d58753b654b032ae4da632cd67adb453c63845d7841c8cda096",
        "8dbf1ad96e2314a53e12545fbf29ae9e37ed634bbed0aafc1f1471cdb0be1ddf",
    ),
    "dims-4,4,4-seed-11": (
        "0839f34d7078a92c30940d799b6435f4b45a87f95f64693a3af2fef8710428a0",
        "93b3b1f35592588131ec1645a4f10e301fe1e895526b1312ab31cbaab021d16a",
    ),
    "anti-example": (
        "37cb0101e9c2b64fc7235ced7ade955c806d4dc1387d29e09f626327fc07cb41",
        "06c1d792bfe243d0563291aba6bbceacab309044118c11d423b13a3ee9e9c24c",
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
    ],
)
def test_invalid_config_values_exit_2_naming_the_key(
    tmp_path, capsys, monkeypatch, mode, override, key
):
    base = {"dims": [2, 2, 2]} if mode == "exact" else dict(MODEL, n=300)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(base, **override)))
    with pytest.raises(ConfigError, match=rf"^{key} must be"):
        parse_config([mode, "--config", str(path)])
    monkeypatch.chdir(tmp_path)  # the default output directory
    assert main([mode, "--config", str(path)]) == 2
    assert f"error: {key} must be" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_config_integers_may_be_integral_floats_or_numeric_strings(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "nmax": 7.0, "seed": "3", "floor": "0.01"}))
    cfg = parse_config(["exact", "--config", str(path)])
    assert (cfg.nmax, cfg.pmf_source["seed"], cfg.pmf_source["floor"]) == (7, 3, 0.01)


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


def test_simulate_deterministic(tmp_path, model_file):
    args = ["simulate", "--config", model_file, "--n", "200", "--seed", "9"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "estimates.json").read_bytes() == (out2 / "estimates.json").read_bytes()
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
