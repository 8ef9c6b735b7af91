"""Command-line front end.

Two subcommands:

  exact     build the kernels for one pmf (from a file, inline config JSON,
            or a seeded random draw) and run the selected checks; writes
            report.json and tv_curves.csv.
  simulate  run one random effects chain; writes trajectory.csv and
            estimates.json, optionally verifying the bitwise shifted-chain
            identity.

Exit code 0 means every selected verdict was true; 1 means a check failed
or an artifact could not be written; 2 means the invocation itself was
invalid. Reports are byte-identical for identical configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .analysis import STATIONARY_RESIDUAL_TOL, ChainReport, analyze
from .corpus import CORPUS_FLOOR
from .finite_model import Dims, JointPmf3, random_pmf
from .random_effects import (
    ModelConfig,
    RemState,
    Trajectory,
    default_init,
    estimate,
    run_chain,
    shifted_view,
    trajectory_to_csv,
)

CHECK_NAMES = ("prop1", "rates", "invariance", "marginals")

#: Pass thresholds for the exact-mode checks that are not carried inside
#: their own report objects.
INVARIANCE_TOL = 1e-12
PRESERVED_MARGINAL_TOL = 1e-14


class ConfigError(Exception):
    """Invalid invocation; carries every validation message at once."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


@dataclass
class RunConfig:
    mode: str
    out_dir: str = "."
    # exact mode
    pmf_source: dict = field(default_factory=dict)
    checks: tuple[str, ...] = CHECK_NAMES
    nmax: int = 50
    pmf: JointPmf3 | None = None  # a file or inline pmf, loaded while parsing
    # simulate mode
    model: ModelConfig | None = None
    shifted_check: bool = False


#: JSON spellings of the literals, looked up only for bools and None
_LITERALS = {True: "true", False: "false", None: "null"}


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} in report")
    return format(x, ".17g")


def _write_json(obj, path) -> None:
    """JSON writer with floats fixed at 17 significant digits so identical
    runs produce byte-identical files. Items go one per line under a
    two-space indent; keys and strings are escaped to ASCII exactly as
    ``json.dumps`` escapes them."""

    def render(node, indent: str) -> str:
        if isinstance(node, (float, np.floating)):
            return _format_float(float(node))
        if isinstance(node, dict):
            if not node:
                return "{}"
            pad = indent + "  "
            items = f",\n{pad}".join(
                [f"{_quote(str(k))}: {render(v, pad)}" for k, v in node.items()]
            )
            return f"{{\n{pad}{items}\n{indent}}}"
        if isinstance(node, (list, tuple)):
            if not node:
                return "[]"
            pad = indent + "  "
            # Python floats, most list items, skip the type dispatch
            items = f",\n{pad}".join(
                [_format_float(v) if type(v) is float else render(v, pad) for v in node]
            )
            return f"[\n{pad}{items}\n{indent}]"
        if isinstance(node, bool) or node is None:
            return _LITERALS[node]
        if isinstance(node, (int, np.integer)):
            return str(int(node))
        if isinstance(node, str):
            return _quote(node)
        raise TypeError(f"cannot serialize {type(node)!r}")

    with open(path, "w") as fh:
        fh.write(render(obj, "") + "\n")


def _color(text: str, ok: bool) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[32m{text}\x1b[0m" if ok else f"\x1b[31m{text}\x1b[0m"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first parse and shared by every
    later one in the process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="blockgibbs",
        description="Exact kernel checks and random effects simulations for "
        "two-block Gibbs sweeps and their out-of-order reordering.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    exact = sub.add_parser("exact", help="exact kernel construction and checks")
    exact.add_argument("--config", help="JSON config file; flags override it")
    exact.add_argument("--seed", type=int, help="seed for a random pmf (default 0)")
    exact.add_argument("--out", help="output directory (default .)")
    exact.add_argument("--dims", help="random pmf dims as NX,NY,NZ")
    exact.add_argument("--pmf", help="pmf JSON file")
    exact.add_argument("--floor", type=float, help=f"random pmf floor (default {CORPUS_FLOOR})")
    exact.add_argument("--nmax", type=int, help="max step count for the inequality chains (default 50)")
    exact.add_argument(
        "--check",
        action="append",
        choices=CHECK_NAMES + ("all",),
        help="check to gate the exit code on; repeatable (default all)",
    )

    sim = sub.add_parser("simulate", help="random effects chain simulation")
    sim.add_argument("--config", help="model JSON config file; flags override it")
    sim.add_argument("--seed", type=int, help="chain seed (default 0)")
    sim.add_argument("--out", help="output directory (default .)")
    sim.add_argument("--variant", choices=("block", "ooo"), help="sweep order (default block)")
    sim.add_argument("--n", type=int, help="number of sweeps")
    sim.add_argument("--burn-in", dest="burn_in", type=int, help="states dropped before estimating (default 0)")
    sim.add_argument(
        "--shifted-check",
        action="store_true",
        default=None,
        help="also verify the bitwise shifted-chain identity",
    )
    return parser


def _load_json_file(path: str, errors: list) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        errors.append(f"cannot read {path}: {exc}")
        return {}
    except json.JSONDecodeError as exc:
        errors.append(f"malformed JSON in {path}: {exc}")
        return {}
    if not isinstance(doc, dict):
        errors.append(f"{path} must contain a JSON object")
        return {}
    return doc


def _pick(flag_value, file_doc: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in file_doc and file_doc[key] is not None:
        return file_doc[key]
    return default


def _config_int(value, key: str, errors: list):
    """An integer setting; a config file may also give it as an integral
    float or a numeric string. Anything else (a fraction, a bool, text) is
    an error naming the key, and the result is None."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    errors.append(f"{key} must be an integer, got {value!r}")
    return None


def _config_float(value, key: str, errors: list):
    """A real-valued setting, given as a number or a numeric string; None
    after an error naming the key."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    errors.append(f"{key} must be a number, got {value!r}")
    return None


def parse_config(argv) -> RunConfig:
    args = _parser().parse_args(argv)
    errors: list[str] = []
    file_doc = _load_json_file(args.config, errors) if args.config else {}
    out_dir = _pick(args.out, file_doc, "out", ".")
    if not isinstance(out_dir, str):
        errors.append(f"out must be a directory path, got {out_dir!r}")

    if args.mode == "exact":
        checks = _pick(args.check, file_doc, "check", [])
        if isinstance(checks, str):
            checks = [checks]
        if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
            errors.append(f"check must be a check name or a list of them, got {checks!r}")
            checks = []
        checks = checks or ["all"]
        unknown = [c for c in checks if c not in CHECK_NAMES + ("all",)]
        if unknown:
            errors.append(f"unknown checks: {unknown}")
        selected = CHECK_NAMES if "all" in checks else tuple(dict.fromkeys(checks))

        dims = _pick(args.dims, file_doc, "dims", None)
        pmf_file = _pick(args.pmf, file_doc, "pmf_file", None)
        inline = file_doc.get("pmf")
        sources = [s for s, present in
                   (("--dims", dims is not None),
                    ("--pmf", pmf_file is not None),
                    ("inline pmf", inline is not None)) if present]
        if len(sources) > 1:
            errors.append(f"conflicting pmf sources: {' and '.join(sources)}; give exactly one")
        if not sources:
            errors.append("no pmf source: give --dims NX,NY,NZ, --pmf FILE, or an inline pmf in --config")

        source: dict = {}
        if dims is not None and len(sources) == 1:
            parts = dims.split(",") if isinstance(dims, str) else dims
            parsed = []
            if isinstance(parts, list) and len(parts) == 3:
                parsed = [_config_int(t, "dims", []) for t in parts]  # one message below
            if len(parsed) != 3 or None in parsed:
                errors.append(f"--dims must be three comma-separated integers, got {dims!r}")
            else:
                dims = tuple(parsed)
                source = {
                    "kind": "random",
                    "dims": dims,
                    "seed": _config_int(_pick(args.seed, file_doc, "seed", 0), "seed", errors),
                    "floor": _config_float(
                        _pick(args.floor, file_doc, "floor", CORPUS_FLOOR), "floor", errors
                    ),
                }
                try:
                    size = Dims(*dims).size
                except ValueError as exc:
                    errors.append(f"--dims {','.join(map(str, dims))}: {exc}")
                else:
                    # random_pmf needs every entry >= floor, so floor * size < 1
                    if source["floor"] is not None and not 0.0 < source["floor"] < 1.0 / size:
                        errors.append(
                            f"--floor must lie in (0, {1.0 / size:.6g}) for {size} "
                            f"states, got {source['floor']}"
                        )
        elif pmf_file is not None and not isinstance(pmf_file, str):
            errors.append(f"pmf_file must be a file path, got {pmf_file!r}")
        elif pmf_file is not None:
            source = {"kind": "file", "path": pmf_file}
        elif inline is not None:
            source = {"kind": "inline", "doc": inline}
        pmf = None
        if len(sources) == 1 and source.get("kind") in ("file", "inline"):
            where = f"--pmf {pmf_file}" if pmf_file is not None else "inline pmf"
            try:
                pmf = _load_pmf(source)
            except OSError:
                pass  # the run reports an unreadable file as an i/o failure
            except (ValueError, TypeError, KeyError) as exc:
                errors.append(f"invalid pmf in {where}: {exc}")

        nmax = _config_int(_pick(args.nmax, file_doc, "nmax", 50), "nmax", errors)
        if nmax is not None and nmax < 3:
            errors.append(f"--nmax must be >= 3, got {nmax}")
        if errors:
            raise ConfigError(errors)
        return RunConfig(
            mode="exact", out_dir=out_dir, pmf_source=source, checks=selected, nmax=nmax,
            pmf=pmf,
        )

    # simulate
    model = None
    try:
        merged = dict(file_doc)
        for key, value in (
            ("n", args.n),
            ("burn_in", args.burn_in),
            ("seed", args.seed),
            ("variant", args.variant),
        ):
            if value is not None:
                merged[key] = value
        seen = len(errors)
        for key in ("n", "burn_in", "seed"):
            if merged.get(key) is not None:
                merged[key] = _config_int(merged[key], key, errors)
        if len(errors) == seen:
            model = ModelConfig.from_json_dict(merged)
    except (ValueError, TypeError) as exc:
        errors.append(str(exc))
    shifted_check = _pick(args.shifted_check, file_doc, "shifted_check", False)
    if not isinstance(shifted_check, bool):
        errors.append(f"shifted_check must be true or false, got {shifted_check!r}")
    if model is not None:
        if model.n is None:
            errors.append("number of sweeps required: give --n or put \"n\" in the config")
        elif model.n < 1:
            errors.append(f"n must be >= 1, got {model.n}")
        model = replace(
            model,
            burn_in=model.burn_in if model.burn_in is not None else 0,
            seed=model.seed if model.seed is not None else 0,
            variant=model.variant if model.variant is not None else "block",
        )
        if model.burn_in < 0:
            errors.append(f"burn-in must be >= 0, got {model.burn_in}")
        elif model.n is not None and model.n + 1 - model.burn_in < 100:
            errors.append(
                f"need at least 100 post-burn-in states for estimates; "
                f"n={model.n} with burn_in={model.burn_in} leaves {model.n + 1 - model.burn_in}"
            )
    if errors:
        raise ConfigError(errors)
    return RunConfig(
        mode="simulate",
        out_dir=out_dir,
        model=model,
        shifted_check=shifted_check,
    )


def _load_pmf(source: dict) -> JointPmf3:
    if source["kind"] == "random":
        return random_pmf(Dims(*source["dims"]), source["seed"], source["floor"])
    if source["kind"] == "file":
        with open(source["path"]) as fh:
            return JointPmf3.from_json_dict(json.load(fh))
    return JointPmf3.from_json_dict(source["doc"])


def _check_verdicts(report: ChainReport) -> dict[str, bool]:
    preserved = [report.marginal_tv[k] for k in ("X", "Y", "Z", "XZ", "YZ")]
    return {
        "prop1": report.prop1.verdict,
        "rates": report.rate.verdict,
        "invariance": report.invariance[0] <= INVARIANCE_TOL
        and max(report.stationary_residuals.values()) <= STATIONARY_RESIDUAL_TOL,
        "marginals": max(preserved) <= PRESERVED_MARGINAL_TOL,
    }


def _write_tv_curves(report: ChainReport, path) -> None:
    def cell(x: float) -> str:
        return "" if math.isnan(x) else format(x, ".17g")

    p = report.prop1
    chain1, chain2 = p.chain1.tolist(), p.chain2.tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "n",
                "tv_block_from_worst_state",
                "tv_Kz",
                "tv_ooo_from_nu_z",
                "chain1_ok",
                "tv_ooo_from_state",
                "tv_Kxy_from_nu",
                "tv_Kdagger_from_nu",
                "chain2_ok",
            ]
        )
        for i, n in enumerate(p.n_values.tolist()):
            writer.writerow(
                [
                    n,
                    cell(chain1[i][0]),
                    cell(chain1[i][1]),
                    cell(chain1[i][2]),
                    "" if p.chain1_ok[i] is None else str(bool(p.chain1_ok[i])).lower(),
                    cell(chain2[i][0]),
                    cell(chain2[i][1]),
                    cell(chain2[i][2]),
                    str(bool(p.chain2_ok[i])).lower(),
                ]
            )


def _run_exact(cfg: RunConfig) -> int:
    pmf = cfg.pmf if cfg.pmf is not None else _load_pmf(cfg.pmf_source)
    report = analyze(pmf, nmax=cfg.nmax)
    verdicts = _check_verdicts(report)
    selected = {name: verdicts[name] for name in cfg.checks}
    passed = all(selected.values())

    doc = {
        "config": {
            "mode": "exact",
            "pmf_source": cfg.pmf_source,
            "checks": list(cfg.checks),
            "nmax": cfg.nmax,
        },
        "passed": passed,
        "verdicts": selected,
        "report": report.to_json_dict(),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    report_path = os.path.join(cfg.out_dir, "report.json")
    curves_path = os.path.join(cfg.out_dir, "tv_curves.csv")
    _write_json(doc, report_path)
    _write_tv_curves(report, curves_path)

    nx, ny, nz = report.dims
    print(f"exact analysis of a {nx}x{ny}x{nz} pmf ({nx * ny * nz} states), nmax={cfg.nmax}")
    slems = ", ".join(f"{k}={v.slem:.6g}" for k, v in report.rate.spectra.items())
    print(f"  slem: {slems}")
    print(f"  pistar residual under ooo kernel: {report.invariance[0]:.3g}"
          f"   pi residual: {report.invariance[1]:.3g}")
    print(f"  marginal tv (XY): {report.marginal_tv['XY']:.6g}")
    for name in cfg.checks:
        print(f"  {name:<11} {_color('PASS' if selected[name] else 'FAIL', selected[name])}")
    print(f"wrote {report_path} and {curves_path}")
    return 0 if passed else 1


def _run_simulate(cfg: RunConfig) -> int:
    model = cfg.model
    data, hyper = model.data, model.hyper
    init = default_init(data)
    # The shifted check needs a block run one sweep longer than n; a block
    # model's trajectory is its first n + 1 states, so it runs only once.
    extra = 1 if cfg.shifted_check and model.variant == "block" else 0
    chain = run_chain(model.variant, init, data, hyper, model.n + extra, model.seed)
    trajectory = Trajectory(*(column[: model.n + 1] for column in chain))

    estimates = {}
    for name, values in (
        ("A", trajectory.A),
        ("mu", trajectory.mu),
        ("A_times_mu", trajectory.A * trajectory.mu),
    ):
        mean, se = estimate(values, model.burn_in)
        estimates[name] = {"mean": mean, "se": se}
    doc = {
        "config": model.to_json_dict(),
        "estimates": estimates,
    }
    if model.variant == "block":
        shifted = shifted_view(trajectory)
        shifted_estimates = {}
        for name, values in (("A", shifted.A), ("A_times_mu", shifted.A * shifted.mu)):
            mean, se = estimate(values, min(model.burn_in, shifted.A.size - 100))
            shifted_estimates[name] = {"mean": mean, "se": se}
        doc["shifted_view_estimates"] = shifted_estimates

    ok = True
    if cfg.shifted_check:
        base = chain if extra else run_chain("block", init, data, hyper, model.n + 1, model.seed)
        shifted = shifted_view(base)
        start = RemState(shifted.A[0], shifted.mu[0], shifted.theta[0])
        ooo = run_chain("ooo", start, data, hyper, model.n, model.seed)
        identical = all(np.array_equal(s, t) for s, t in zip(shifted, ooo))
        doc["shifted_check"] = {"n": model.n, "identical": identical}
        ok = identical

    os.makedirs(cfg.out_dir, exist_ok=True)
    traj_path = os.path.join(cfg.out_dir, "trajectory.csv")
    est_path = os.path.join(cfg.out_dir, "estimates.json")
    trajectory_to_csv(trajectory, traj_path)
    _write_json(doc, est_path)

    print(f"simulated {model.n} {model.variant} sweeps (m={model.data.m}, seed={model.seed})")
    for name, e in estimates.items():
        print(f"  {name:<11} {e['mean']:.6g} +- {e['se']:.3g}")
    if cfg.shifted_check:
        print(f"  shifted-chain identity "
              f"{_color('PASS' if ok else 'FAIL', ok)} (bitwise, n={model.n})")
    print(f"wrote {traj_path} and {est_path}")
    return 0 if ok else 1


def run(cfg: RunConfig) -> int:
    try:
        if cfg.mode == "exact":
            return _run_exact(cfg)
        return _run_simulate(cfg)
    except OSError as exc:
        print(f"error: i/o failure on {getattr(exc, 'filename', '?')}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
    except ConfigError as exc:
        for message in exc.messages:
            print(f"error: {message}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
