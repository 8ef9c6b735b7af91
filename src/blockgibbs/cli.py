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
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .analysis import CHECK_NAMES, ChainReport, analyze
from .corpus import CORPUS_FLOOR
from .finite_model import Dims, JointPmf3, conditional, random_pmf
from .kernels import STEPS
from .random_effects import (
    VARIANTS,
    RemData,
    RemHyper,
    Trajectory,
    _new_file,
    default_init,
    estimate,
    run_chain,
    shifted_view,
    trajectory_to_csv,
)
from .streams import _MAX_ITERATION


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
    pmf_source: dict | None = None
    checks: tuple[str, ...] | None = None
    nmax: int | None = None
    pmf: JointPmf3 | None = None  # built from pmf_source while parsing
    # simulate mode
    data: RemData | None = None
    hyper: RemHyper | None = None
    n: int | None = None
    burn_in: int | None = None
    seed: int | None = None
    variant: str | None = None
    shifted_check: bool | None = None


#: JSON spellings of the literals, looked up only for bools and None
_LITERALS = {True: "true", False: "false", None: "null"}


def _write_json(obj, path) -> None:
    """JSON writer with floats fixed at 17 significant digits so identical
    runs produce byte-identical files. Items go one per line under a
    two-space indent; keys and strings are escaped to ASCII exactly as
    ``json.dumps`` escapes them."""

    def render(node, indent: str) -> str:
        if isinstance(node, (float, np.floating)):
            if not math.isfinite(node):
                raise ValueError(f"non-finite value {float(node)!r} in report")
            return format(float(node), ".17g")
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
            items = f",\n{pad}".join([render(v, pad) for v in node])
            return f"[\n{pad}{items}\n{indent}]"
        if isinstance(node, bool) or node is None:
            return _LITERALS[node]
        if isinstance(node, (int, np.integer)):
            return str(int(node))
        if isinstance(node, str):
            return _quote(node)
        raise TypeError(f"cannot serialize {type(node)!r}")

    with _new_file(path, "w") as fh:
        fh.write(render(obj, "") + "\n")


def _color(text: str, ok: bool) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[32m{text}\x1b[0m" if ok else f"\x1b[31m{text}\x1b[0m"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first parse and shared by every
    later one in the process: parsing leaves it unchanged. It only splits
    argv; each value stays text for its rule in ``_SETTINGS``."""
    parser = argparse.ArgumentParser(
        prog="blockgibbs",
        description="Exact kernel checks and random effects simulations for "
        "two-block Gibbs sweeps and their out-of-order reordering.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    exact = sub.add_parser("exact", help="exact kernel construction and checks")
    exact.add_argument("--config", help="JSON config file; flags override it")
    exact.add_argument("--seed", help="seed for a random pmf (default 0)")
    exact.add_argument("--out", help="output directory (default .)")
    exact.add_argument("--dims", help="random pmf dims as NX,NY,NZ")
    exact.add_argument("--pmf", dest="pmf_file", help="pmf JSON file")
    exact.add_argument("--floor", help=f"random pmf floor (default min({CORPUS_FLOOR}, 0.5/states))")
    exact.add_argument("--nmax", help="max step count for the inequality chains (default 50)")
    exact.add_argument("--check", action="append", metavar="{%s}" % ",".join(CHECK_NAMES + ("all",)),
                       help="check to gate the exit code on; repeatable (default all)")

    sim = sub.add_parser("simulate", help="random effects chain simulation")
    sim.add_argument("--config", help="model JSON config file; flags override it")
    sim.add_argument("--seed", help="chain seed (default 0)")
    sim.add_argument("--out", help="output directory (default .)")
    sim.add_argument("--variant", metavar="{%s}" % ",".join(VARIANTS), help="sweep order (default block)")
    sim.add_argument("--n", help="number of sweeps")
    sim.add_argument("--burn-in", dest="burn_in", help="states dropped before estimating (default 0)")
    sim.add_argument("--shifted-check", action="store_true", default=None,
                     help="also verify the bitwise shifted-chain identity")
    return parser


def _load_json_file(path: str) -> dict:
    """The JSON object in a ``--config`` or ``--pmf`` file, or a ConfigError naming it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from None
    except ValueError as exc:  # not JSON, or not text
        raise ConfigError([f"malformed JSON in {path}: {exc}"]) from None
    if not isinstance(doc, dict):
        raise ConfigError([f"{path} must contain a JSON object"])
    return doc


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


def _apply(errors: list, function, *args):
    """``function(*args)``, or None after adding its errors to ``errors``."""
    try:
        return function(*args)
    except ValueError as exc:
        errors.extend(exc.messages if isinstance(exc, ConfigError) else [str(exc)])


def _numbers(value, key: str) -> list[float]:
    """A list of numbers; every bad entry is named by its index."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    errors: list[str] = []
    numbers = [_apply(errors, _number, entry, f"{key}[{i}]") for i, entry in enumerate(value)]
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
    names = CHECK_NAMES + ("all",)
    if not isinstance(checks, list) or not all(c in names for c in checks):
        raise ValueError(f"{key} must be one of {', '.join(names)} or a list of them, got {value!r}")
    return CHECK_NAMES if not checks or "all" in checks else tuple(dict.fromkeys(checks))


def _dims(value, key: str) -> tuple[int, int, int]:
    """Three whole numbers, as a list or as the text "NX,NY,NZ"."""
    parts = value.split(",") if isinstance(value, str) else value
    if isinstance(parts, list) and len(parts) == 3:
        try:
            return tuple(config_int(part, key) for part in parts)
        except ValueError:
            pass
    raise ValueError(f"{key} must be three comma-separated integers, got {value!r}")


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
        "nmax": (_rule(lambda n: n >= 3, "{key} must be >= 3", config_int), 50),
    },
    "simulate": {
        "out": _OUT,
        # a run reads noise up to iteration n + 1 (ooo A, or a shifted check's extra sweep)
        "n": (_rule(lambda n: n <= _MAX_ITERATION - 2, f"{{key}} must be <= {_MAX_ITERATION - 2}",
                    _rule(lambda n: n >= 1, "{key} must be >= 1", config_int)), None),
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
    settings = {}
    if args.config:
        settings = _apply(errors, _load_json_file, args.config) or {}
    flags = vars(args).items()
    settings.update((key, value) for key, value in flags if value is not None and key not in ("mode", "config"))
    rules = _SETTINGS[args.mode]
    unknown = [key for key in settings if key not in rules]
    if unknown:
        errors.append(f"{', '.join(unknown)} must be among the {args.mode} config keys ({', '.join(rules)})")

    def read(key: str):
        """Setting ``key`` by its rule; its default when absent or null."""
        rule, default = rules[key]
        if key not in settings or settings[key] is None and default is not None:
            return default
        return _apply(errors, rule, settings[key], key)

    out_dir = read("out")

    if args.mode == "exact":
        checks = read("check")
        dims, pmf_file, inline = (settings.get(key) for key in ("dims", "pmf_file", "pmf"))
        sources = [name for name, value in
                   (("--dims", dims), ("--pmf", pmf_file), ("inline pmf", inline)) if value is not None]
        if len(sources) != 1:
            errors.append(f"conflicting pmf sources: {' and '.join(sources)}; give exactly one" if sources
                          else "no pmf source: give --dims NX,NY,NZ, --pmf FILE, or an inline pmf in --config")

        seed, floor = read("seed"), read("floor")
        source: dict = {}  # set only once the source's own settings pass their rules
        if sources == ["--dims"]:
            dims = read("dims")
            if dims is not None:
                try:
                    size = Dims(*dims).size
                except ValueError as exc:
                    errors.append(f"dims {','.join(map(str, dims))}: {exc}")
                else:
                    if settings.get("floor") is None:  # a default valid at every size
                        floor = min(floor, 0.5 / size)
                    # random_pmf needs every entry >= floor, so floor * size < 1
                    if floor is not None and not 0.0 < floor < 1.0 / size:
                        errors.append(
                            f"floor must lie in (0, {1.0 / size:.6g}) for {size} "
                            f"states, got {floor}"
                        )
                    elif seed is not None and floor is not None:
                        source = {"kind": "random", "dims": dims, "seed": seed, "floor": floor}
        elif sources == ["--pmf"]:
            pmf_file = read("pmf_file")
            if pmf_file is not None:
                source = {"kind": "file", "path": pmf_file}
        elif sources == ["inline pmf"]:
            source = {"kind": "inline", "doc": inline}
        pmf = None
        if source:
            try:
                pmf = _load_pmf(source)
                if source["kind"] != "random":  # a random pmf is strictly positive
                    for target, given in STEPS:  # the sweeps' tables, so a zero cell fails here
                        conditional(pmf, target, given)
            except ConfigError as exc:  # an unreadable --pmf file
                errors.extend(exc.messages)
            except ValueError as exc:
                where = "inline pmf" if pmf_file is None else f"--pmf {pmf_file}"
                errors.append(f"invalid pmf in {where}: {exc}")

        nmax = read("nmax")
        if errors:
            raise ConfigError(errors)
        return RunConfig(mode="exact", out_dir=out_dir, pmf_source=source, checks=checks, nmax=nmax, pmf=pmf)

    # simulate
    n, burn_in, seed, V, a, b, y, variant = map(read, ("n", "burn_in", "seed", "V", "a", "b", "y", "variant"))
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
    # a block run's shifted view has n states, so its bound implies the general one
    if n is not None and burn_in is not None and variant == "block" and n - burn_in < 100:
        errors.append(
            f"n must be >= 100 for a block run, plus its burn-in, since its shifted view "
            f"has n states: n={n} with burn_in={burn_in} leaves {n - burn_in}"
        )
    elif n is not None and burn_in is not None and n + 1 - burn_in < 100:
        errors.append(
            f"need at least 100 post-burn-in states for estimates; "
            f"n={n} with burn_in={burn_in} leaves {n + 1 - burn_in}"
        )
    if errors:
        raise ConfigError(errors)
    return RunConfig(mode="simulate", out_dir=out_dir, data=data, hyper=hyper, n=n, burn_in=burn_in, seed=seed,
                     variant=variant, shifted_check=shifted_check)


def _load_pmf(source: dict) -> JointPmf3:
    """The pmf of a source: a seeded random draw, or a file or inline pmf document."""
    if source["kind"] == "random":
        return random_pmf(Dims(*source["dims"]), source["seed"], source["floor"])
    doc = _load_json_file(source["path"]) if source["kind"] == "file" else source["doc"]
    return JointPmf3.from_json_dict(doc)


def _write_tv_curves(report: ChainReport, path) -> None:
    """One CSV row per step n, CRLF line ends: each term as ``%.17g``, empty
    where it is undefined (NaN), and each ok flag as true, false or empty.
    One template for the whole file is filled by one format over the rows'
    values; ``%.17g`` prints NaN as ``nan``, which no other text contains."""
    p = report.prop1
    flag = {None: "", True: "true", False: "false"}.get
    columns = [p.n_values.tolist(), *p.chain1.T.tolist(), map(flag, p.chain1_ok),
               *p.chain2.T.tolist(), map(flag, p.chain2_ok)]
    template = ("n,tv_block_from_worst_state,tv_Kz,tv_ooo_from_nu_z,chain1_ok,tv_ooo_from_state,"
                "tv_Kxy_from_nu,tv_Kdagger_from_nu,chain2_ok\r\n"
                + "%d,%.17g,%.17g,%.17g,%s,%.17g,%.17g,%.17g,%s\r\n" * len(p.n_values))
    with _new_file(path, "w", newline="") as fh:
        fh.write((template % tuple(itertools.chain.from_iterable(zip(*columns)))).replace("nan", ""))


def _run_exact(cfg: RunConfig) -> int:
    report = analyze(cfg.pmf, nmax=cfg.nmax)
    verdicts = report.verdicts
    selected = {name: verdicts[name] for name in cfg.checks}
    passed = all(selected.values())

    config = {"mode": "exact", "pmf_source": cfg.pmf_source, "checks": list(cfg.checks), "nmax": cfg.nmax}
    doc = {"config": config, "passed": passed, "verdicts": selected, "report": report.to_json_dict()}
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
    data, hyper, n, seed = cfg.data, cfg.hyper, cfg.n, cfg.seed
    init = default_init(data)
    # The shifted check needs a block run one sweep longer than n; a block
    # run's trajectory is its first n + 1 states, so it runs only once.
    extra = 1 if cfg.shifted_check and cfg.variant == "block" else 0
    chain = run_chain(cfg.variant, init, data, hyper, n + extra, seed)
    trajectory = Trajectory(*(column[: n + 1] for column in chain))

    def estimates(states: Trajectory, names) -> dict:
        columns = {"A": states.A, "mu": states.mu, "A_times_mu": states.A * states.mu}
        return {name: dict(zip(("mean", "se"), estimate(columns[name], cfg.burn_in)))
                for name in names}

    config = {"y": data.y.tolist(), "V": data.V, "a": hyper.a, "b": hyper.b, "n": n,
              "burn_in": cfg.burn_in, "seed": seed, "variant": cfg.variant}
    doc = {"config": config, "estimates": estimates(trajectory, ("A", "mu", "A_times_mu"))}
    if cfg.variant == "block":
        doc["shifted_view_estimates"] = estimates(shifted_view(trajectory), ("A", "A_times_mu"))

    ok = True
    if cfg.shifted_check:
        base = chain if extra else run_chain("block", init, data, hyper, n + 1, seed)
        shifted = shifted_view(base)
        start = shifted.A[0], shifted.mu[0], shifted.theta[0]
        ooo = run_chain("ooo", start, data, hyper, n, seed)
        identical = all(np.array_equal(s, t) for s, t in zip(shifted, ooo))
        doc["shifted_check"] = {"n": n, "identical": identical}
        ok = identical

    os.makedirs(cfg.out_dir, exist_ok=True)
    traj_path = os.path.join(cfg.out_dir, "trajectory.csv")
    est_path = os.path.join(cfg.out_dir, "estimates.json")
    trajectory_to_csv(trajectory, traj_path)
    _write_json(doc, est_path)

    print(f"simulated {n} {cfg.variant} sweeps (m={data.m}, seed={seed})")
    for name, e in doc["estimates"].items():
        print(f"  {name:<11} {e['mean']:.6g} +- {e['se']:.3g}")
    if cfg.shifted_check:
        print(f"  shifted-chain identity "
              f"{_color('PASS' if ok else 'FAIL', ok)} (bitwise, n={n})")
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
    except (MemoryError, ValueError) as exc:
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
