"""Command-line front end.

Two subcommands:

  exact     build the kernels for one pmf (from a file, inline config JSON,
            or a seeded random draw) and run the selected checks; writes
            report.json and tv_curves.csv.
  simulate  run one random effects chain; writes trajectory.csv and
            estimates.json, optionally verifying the bitwise shifted-chain
            identity.

Settings are the ``--config`` file with every flag given written over it,
keyed by config name; each key is read once, by its rule in ``_SETTINGS``.

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
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .analysis import STATIONARY_RESIDUAL_TOL, ChainReport, analyze
from .corpus import CORPUS_FLOOR
from .finite_model import Dims, JointPmf3, random_pmf
from .random_effects import (
    VARIANTS,
    ModelConfig,
    RemData,
    RemHyper,
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


class ConfigError(ValueError):
    """Invalid invocation; carries every validation message at once."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


@dataclass
class RunConfig:
    mode: str
    out_dir: str
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
    exact.add_argument("--pmf", dest="pmf_file", help="pmf JSON file")
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
    sim.add_argument("--variant", choices=VARIANTS, help="sweep order (default block)")
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
    except json.JSONDecodeError as exc:
        errors.append(f"malformed JSON in {path}: {exc}")
    else:
        if isinstance(doc, dict):
            return doc
        errors.append(f"{path} must contain a JSON object")
    return {}


def config_int(value, key: str) -> int:
    """An integer setting, from a flag or a config document: an int, an
    integral float or a numeric string. Anything else (a fraction, a bool,
    text) raises a ValueError naming the key."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _number(value, key: str) -> float:
    """A real-valued setting, given as a number or a numeric string."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{key} must be a number, got {value!r}")


def _apply(rule, value, key: str, errors: list):
    """``rule(value, key)``, or None after adding its errors to ``errors``."""
    try:
        return rule(value, key)
    except ValueError as exc:
        errors.extend(exc.messages if isinstance(exc, ConfigError) else [str(exc)])


def _numbers(value, key: str) -> list[float]:
    """A list of numbers; every bad entry is named by its index."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    errors: list[str] = []
    numbers = [_apply(_number, entry, f"{key}[{i}]", errors) for i, entry in enumerate(value)]
    if errors:
        raise ConfigError(errors)
    return numbers


def _rule(ok, must: str, convert=lambda value, key: value):
    """A rule that converts a value, then keeps it if ``ok`` holds and
    otherwise raises ``must`` (formatted with the key) and the value."""

    def rule(value, key: str):
        value = convert(value, key)
        if not ok(value):
            raise ValueError(f"{must.format(key=key)}, got {value!r}")
        return value

    return rule


def _checks(value, key: str) -> tuple[str, ...]:
    """The selected checks, from a check name or a list of them."""
    checks = [value] if isinstance(value, str) else value
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ValueError(f"{key} must be a check name or a list of them, got {checks!r}")
    unknown = [c for c in checks if c not in CHECK_NAMES + ("all",)]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    return CHECK_NAMES if not checks or "all" in checks else tuple(dict.fromkeys(checks))


def _dims(value, key: str) -> tuple[int, int, int]:
    """Three whole numbers, as a list or as the text "NX,NY,NZ"."""
    parts = value.split(",") if isinstance(value, str) else value
    if isinstance(parts, list) and len(parts) == 3:
        try:
            return tuple(config_int(part, key) for part in parts)
        except ValueError:
            pass
    raise ValueError(f"--dims must be three comma-separated integers, got {value!r}")


_OUT = (_rule(lambda v: isinstance(v, str), "{key} must be a directory path"), ".")

#: The settings each subcommand reads, as key: (rule, default); a rule takes
#: the value and the key and raises ValueError naming the key. A null value
#: means the default, or, for a key without one, is checked like any other.
_SETTINGS = {
    "exact": {
        "out": _OUT,
        "check": (_checks, CHECK_NAMES),
        "dims": (_dims, None),
        "seed": (_rule(lambda n: n >= 0, "{key} must be >= 0", config_int), 0),
        "floor": (_number, CORPUS_FLOOR),
        "pmf_file": (_rule(lambda v: isinstance(v, str), "{key} must be a file path"), None),
        "pmf": (None, None),  # an inline pmf, checked when it is loaded
        "nmax": (_rule(lambda n: n >= 3, "--{key} must be >= 3", config_int), 50),
    },
    "simulate": {
        "out": _OUT,
        "n": (_rule(lambda n: n >= 1, "{key} must be >= 1", config_int), None),
        "burn_in": (_rule(lambda n: n >= 0, "{key} must be >= 0", config_int), 0),
        "seed": (_rule(lambda n: 0 <= n < 1 << 64, "{key} must be in [0, 2**64)", config_int), 0),
        "V": (_number, None),
        "a": (_number, None),
        "b": (_number, None),
        "y": (_numbers, None),
        "variant": (_rule(VARIANTS.__contains__, f"{{key}} must be one of {VARIANTS}"), "block"),
        "shifted_check": (_rule(lambda v: isinstance(v, bool), "{key} must be true or false"), False),
    },
}


def parse_config(argv) -> RunConfig:
    args = _parser().parse_args(argv)
    errors: list[str] = []
    # the config file, then every flag given over it, keyed by config name
    settings = _load_json_file(args.config, errors) if args.config else {}
    settings.update(
        (key, value) for key, value in vars(args).items()
        if value is not None and key not in ("mode", "config")
    )
    rules = _SETTINGS[args.mode]
    unknown = [key for key in settings if key not in rules]
    if unknown:
        errors.append(
            f"{', '.join(unknown)} must be among the {args.mode} config keys ({', '.join(rules)})"
        )

    def read(key: str):
        """Setting ``key`` by its rule; its default when absent or null."""
        rule, default = rules[key]
        if key not in settings or settings[key] is None and default is not None:
            return default
        return _apply(rule, settings[key], key, errors)

    out_dir = read("out")

    if args.mode == "exact":
        checks = read("check")
        dims, pmf_file, inline = (settings.get(key) for key in ("dims", "pmf_file", "pmf"))
        sources = [name for name, value in
                   (("--dims", dims), ("--pmf", pmf_file), ("inline pmf", inline)) if value is not None]
        if len(sources) > 1:
            errors.append(f"conflicting pmf sources: {' and '.join(sources)}; give exactly one")
        if not sources:
            errors.append("no pmf source: give --dims NX,NY,NZ, --pmf FILE, or an inline pmf in --config")

        seed, floor = read("seed"), read("floor")
        source: dict = {}
        if dims is not None and len(sources) == 1:
            dims = read("dims")
            if dims is not None:
                source = {"kind": "random", "dims": dims, "seed": seed, "floor": floor}
                try:
                    size = Dims(*dims).size
                except ValueError as exc:
                    errors.append(f"--dims {','.join(map(str, dims))}: {exc}")
                else:
                    # random_pmf needs every entry >= floor, so floor * size < 1
                    if floor is not None and not 0.0 < floor < 1.0 / size:
                        errors.append(
                            f"--floor must lie in (0, {1.0 / size:.6g}) for {size} "
                            f"states, got {floor}"
                        )
        elif pmf_file is not None:
            pmf_file = read("pmf_file")
            if pmf_file is not None:
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

        nmax = read("nmax")
        if errors:
            raise ConfigError(errors)
        return RunConfig(
            mode="exact", out_dir=out_dir, pmf_source=source, checks=checks, nmax=nmax,
            pmf=pmf,
        )

    # simulate
    n, burn_in, seed, V, a, b, y, variant = map(
        read, ("n", "burn_in", "seed", "V", "a", "b", "y", "variant")
    )
    missing = [key for key in ("y", "V", "a", "b") if key not in settings]
    if missing:
        errors.append(f"model config missing required keys: {missing}")
    if None not in (y, V, a, b):
        try:
            data, hyper = RemData(np.asarray(y), V), RemHyper(a, b)
        except ValueError as exc:
            errors.append(str(exc))
    shifted_check = read("shifted_check")
    if "n" not in settings:
        errors.append("number of sweeps required: give --n or put \"n\" in the config")
    if n is not None and burn_in is not None and n + 1 - burn_in < 100:
        errors.append(
            f"need at least 100 post-burn-in states for estimates; "
            f"n={n} with burn_in={burn_in} leaves {n + 1 - burn_in}"
        )
    if n is not None and burn_in is not None and variant == "block" and n - burn_in < 100:
        errors.append(
            f"n must be >= 100 for a block run, plus its burn-in, since its shifted view "
            f"has n states: n={n} with burn_in={burn_in} leaves {n - burn_in}"
        )
    if errors:
        raise ConfigError(errors)
    return RunConfig(
        mode="simulate",
        out_dir=out_dir,
        model=ModelConfig(data, hyper, n, burn_in, seed, variant),
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
            mean, se = estimate(values, model.burn_in)
            shifted_estimates[name] = {"mean": mean, "se": se}
        doc["shifted_view_estimates"] = shifted_estimates

    ok = True
    if cfg.shifted_check:
        base = chain if extra else run_chain("block", init, data, hyper, model.n + 1, model.seed)
        shifted = shifted_view(base)
        start = shifted.A[0], shifted.mu[0], shifted.theta[0]
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
