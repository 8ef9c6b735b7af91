"""Layer spans and aggregates, recorded from outside the package.

``install`` rebinds the public names that blockgibbs modules look up at call
time (``cli.analyze``, ``analysis.block_kernel``, ``kernels.conditional``,
...) to timing wrappers, so a call from one layer into another shows as a
parent span and a child span. Keyed draws, key construction and sweeps are
too many for one span each (about 660k draws per sim-wide operation); they
feed fixed-bucket histograms instead, so tracing memory stays bounded.
Nothing under ``src/`` is edited: ``uninstall`` puts every name back.
"""

from __future__ import annotations

import functools
import inspect
import math
import resource
import statistics
import time
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

from blockgibbs import analysis, cli, finite_model, kernels, random_effects

now_ns = time.perf_counter_ns


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Histogram:
    """Durations in ns in fixed buckets: exact below 64 ns, then 32 equal
    parts of each power-of-two octave, so a bucket is at most 3.2% wide.
    Quantiles interpolate by rank inside their bucket."""

    def __init__(self) -> None:
        self.buckets = [0] * 2048  # enough for any 64-bit duration
        self.total_ns = 0

    def add(self, ns: int) -> None:
        self.total_ns += ns
        shift = ns.bit_length() - 6
        self.buckets[(shift << 5) + (ns >> shift) if shift > 0 else ns] += 1

    @property
    def count(self) -> int:
        return sum(self.buckets)

    def quantile_us(self, q: float) -> float:
        count = self.count
        if not count:
            return 0.0
        rank = q * (count - 1)
        seen = 0
        for b, c in enumerate(self.buckets):
            if c and seen + c > rank:
                shift = max(b // 32 - 1, 0)
                low = (b - 32 * shift) << shift
                return (low + (rank - seen + 0.5) / c * (1 << shift)) / 1e3
            seen += c
        raise AssertionError("rank beyond histogram count")


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int | None
    op: int


class Tracer:
    """In-memory spans plus per-operation counters, written at run end."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.op = -1
        self.draws = Histogram()
        self.keys = Histogram()
        self.steps = Histogram()
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.stream = None
        self.rss_mark: float | None = None
        self.chain_peak_mb = 0.0
        self._hist_mark = (0, 0, 0, 0, 0)
        self.wrapper_outer_ns, self.wrapper_inner_ns = wrapper_cost_ns()

    def wrap(self, name, fn, after=None):
        """``fn`` recording a ``name`` span per call; ``after(args, kwargs,
        result)`` runs once the span is closed."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = now_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now_ns()
                tracer._stack.pop()
                tracer.spans[span_id] = Span(name, start, end, parent, tracer.op)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _marks(self) -> tuple[int, ...]:
        return (self.draws.count, self.draws.total_ns, self.steps.count,
                self.steps.total_ns, self.keys.count)

    def begin_op(self, op: int) -> None:
        self.op = op
        self._hist_mark = self._marks()

    def end_op(self) -> None:
        draws, draw_ns, steps, step_ns, keys = (
            now - then for now, then in zip(self._marks(), self._hist_mark))
        c = self.counters[self.op]
        c["streams.draws"] += draws
        c["draw_ns"] += draw_ns
        # The wrappers' own cost inside the sweeps: what a draw wrapper adds
        # beyond the time it records, all of a key wrapper (key time stays
        # in the step's self time), and the part of the step wrapper's cost
        # its own histogram records.
        outer, inner = self.wrapper_outer_ns, self.wrapper_inner_ns
        overhead = draws * (outer - inner) + keys * outer + steps * inner
        c["step_self_ns"] += step_ns - draw_ns - overhead

    def to_json(self) -> list:
        return [s._asdict() for s in self.spans if s is not None]


def _kernel_built(tracer: Tracer):
    def after(args, kwargs, kernel):
        c = tracer.counters[tracer.op]
        c["kernels.builds"] += 1
        c["dense_bytes"] += 8 * kernel.codec.size ** 2

    return after


def prop1_flops(dims, nmax: int) -> int:
    """Multiply-adds x 2 of ``check_prop1``'s six power-curve banks: start
    rows x state count^2 per step, summed over the steps each bank takes."""
    s = dims.nx * dims.ny * dims.nz
    nxz, nxy = dims.nx * dims.nz, dims.nx * dims.ny
    banks = (
        (s, s, nmax),  # block from every state
        (dims.nz, dims.nz, nmax - 1),  # z-marginal from every z
        (dims.nz, s, nmax - 2),  # ooo from nu_z
        (s, s, nmax),  # ooo from every state
        (nxz, nxy, nmax - 1),  # xy-marginal from nu_xz
        (nxz, s, nmax - 1),  # rotated from lifted nu_xz
    )
    return sum(2 * rows * n * n * steps for rows, n, steps in banks)


def _prop1_checked(tracer: Tracer, signature):
    def after(args, kwargs, report):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        pmf, nmax = bound.arguments["pmf"], bound.arguments["nmax"]
        tracer.counters[tracer.op]["prop1_flops"] += prop1_flops(pmf.dims, nmax)

    return after


def _chain_done(tracer: Tracer):
    def after(args, kwargs, trajectory):
        c = tracer.counters[tracer.op]
        stream, tracer.stream = tracer.stream, None
        audit = getattr(stream, "consumed", None)
        if audit is not None:
            c["streams.audit_keys"] = max(c["streams.audit_keys"], len(audit))
        if tracer.rss_mark is not None:
            # first chain of the process: how far it raised the peak RSS
            tracer.chain_peak_mb = peak_rss_mb() - tracer.rss_mark
            tracer.rss_mark = None

    return after


def _timed(hist: Histogram, fn):
    """``fn`` adding each call's duration to ``hist``; no span."""
    add, now = hist.add, now_ns

    def timed(*args, **kwargs):
        t = now()
        result = fn(*args, **kwargs)
        add(now() - t)
        return result

    return timed


def wrapper_cost_ns(calls: int = 10_000, repeats: int = 30) -> tuple[float, float]:
    """What one ``_timed`` wrapper costs per call: the time it adds to its
    caller (``outer``) and the part of that its histogram records as the
    wrapped call's own (``inner``). Best of ``repeats`` loops over a no-op."""

    def noop():
        return None

    def loop_ns(fn) -> int:
        t = now_ns()
        for _ in range(calls):
            fn()
        return now_ns() - t

    def empty_loop_ns() -> int:
        t = now_ns()
        for _ in range(calls):
            pass
        return now_ns() - t

    outer = inner = math.inf
    for _ in range(repeats):
        hist = Histogram()
        wrapped = loop_ns(_timed(hist, noop))
        bare = loop_ns(noop)
        noop_call = bare - empty_loop_ns()
        outer = min(outer, (wrapped - bare) / calls)
        inner = min(inner, (hist.total_ns - noop_call) / calls)
    return max(outer, 0.0), min(max(inner, 0.0), outer)


def install(tracer: Tracer) -> list:
    """Rebind the traced names; returns what ``uninstall`` needs."""
    saved: list = []

    def rebind(module, name, span, after=None):
        original = getattr(module, name)
        saved.append((module, name, original))
        setattr(module, name, tracer.wrap(span, original, after))

    rebind(cli, "parse_config", "cli.parse")
    rebind(cli, "run", "cli.run")
    rebind(cli, "_load_pmf", "cli.load")
    rebind(cli, "analyze", "analysis.analyze")
    rebind(cli, "run_chain", "random_effects.run_chain", _chain_done(tracer))
    rebind(cli, "estimate", "random_effects.estimate")
    rebind(cli, "shifted_view", "random_effects.shifted_view")
    rebind(cli, "trajectory_to_csv", "random_effects.csv")

    for name in ("stationary", "spectrum", "nonzero_eigs", "check_rate_equality",
                 "check_pistar_invariance", "check_marginal_agreement"):
        rebind(analysis, name, f"analysis.{name}")
    rebind(analysis, "check_prop1", "analysis.check_prop1",
           _prop1_checked(tracer, inspect.signature(analysis.check_prop1)))
    for name in ("block_kernel", "rotated_block_kernel", "marginal_xy_kernel",
                 "marginal_z_kernel", "ooo_kernel"):
        rebind(analysis, name, "kernels.build", _kernel_built(tracer))
    rebind(analysis, "nu_z", "kernels.nu")
    rebind(analysis, "nu_xz", "kernels.nu")
    rebind(analysis, "pi_star", "finite_model.pi_star")
    rebind(kernels, "conditional", "finite_model.conditional")
    rebind(finite_model, "conditional", "finite_model.conditional")
    rebind(np.linalg, "eigvals", "numpy.linalg.eigvals")

    base_stream = random_effects.KeyedStream

    class TracedStream(base_stream):
        normal = _timed(tracer.draws, base_stream.normal)
        gamma = _timed(tracer.draws, base_stream.gamma)

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.stream = self

    traced_key = _timed(tracer.keys, random_effects.StreamKey)
    for name, value in (("KeyedStream", TracedStream), ("StreamKey", traced_key)):
        saved.append((random_effects, name, getattr(random_effects, name)))
        setattr(random_effects, name, value)
    step_table = random_effects._STEPS
    saved.append((step_table, None, dict(step_table)))
    for variant, step in list(step_table.items()):
        step_table[variant] = _timed(tracer.steps, step)
    return saved


def uninstall(saved: list) -> None:
    for target, name, original in reversed(saved):
        if name is None:
            target.clear()
            target.update(original)
        else:
            setattr(target, name, original)


def _shifted_compare_ns(spans: dict[int, Span], children: dict[int, list[int]], run_id: int) -> int:
    """Gap in ``cli.run`` between the last chain ending and the trajectory
    CSV starting, when the run made the shifted check's extra chains: the
    bitwise comparison loop is all that runs there."""
    kids = [spans[i] for i in children[run_id]]
    chains = [s for s in kids if s.name == "random_effects.run_chain"]
    csvs = [s for s in kids if s.name == "random_effects.csv"]
    if len(chains) < 2 or not csvs:
        return 0
    return csvs[0].start - chains[-1].end


def op_values(tracer: Tracer, op: int) -> dict[str, float]:
    """Additive per-layer values of one traced operation."""
    spans = {i: s for i, s in enumerate(tracer.spans) if s is not None and s.op == op}
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in spans.items():
        if s.parent is not None:
            children[s.parent].append(i)
    total = Counter()
    self_ns = Counter()
    calls = Counter()
    for i, s in spans.items():
        d = s.end - s.start
        total[s.name] += d
        self_ns[s.name] += d - sum(spans[k].end - spans[k].start for k in children[i])
        calls[s.name] += 1
    compare = sum(
        _shifted_compare_ns(spans, children, i) for i, s in spans.items() if s.name == "cli.run"
    )
    c = tracer.counters[op]
    sec = 1e-9
    return {
        "analysis.eig_calls": calls["numpy.linalg.eigvals"],
        "analysis.stationary_s": total["analysis.stationary"] * sec,
        "analysis.spectrum_s": total["analysis.spectrum"] * sec,
        "analysis.nonzero_eigs_s": total["analysis.nonzero_eigs"] * sec,
        "analysis.check_rate_equality_s": total["analysis.check_rate_equality"] * sec,
        "analysis.check_prop1_s": total["analysis.check_prop1"] * sec,
        "analysis.prop1_gflop": c["prop1_flops"] / 1e9,
        "analysis.check_pistar_invariance_s": total["analysis.check_pistar_invariance"] * sec,
        "analysis.check_marginal_agreement_s": total["analysis.check_marginal_agreement"] * sec,
        "analysis.analyze_s": self_ns["analysis.analyze"] * sec,
        "kernels.builds": c["kernels.builds"],
        "kernels.build_s": total["kernels.build"] * sec,
        "kernels.nu_s": total["kernels.nu"] * sec,
        "kernels.dense_mb": c["dense_bytes"] / 1e6,
        "finite_model.conditional_calls": calls["finite_model.conditional"],
        "finite_model.conditional_s": total["finite_model.conditional"] * sec,
        "finite_model.pi_star_s": total["finite_model.pi_star"] * sec,
        "cli.parse_s": total["cli.parse"] * sec,
        "cli.load_s": total["cli.load"] * sec,
        "cli.write_s": (self_ns["cli.run"] - compare) * sec,
        "cli.shifted_compare_s": compare * sec,
        "streams.draws": c["streams.draws"],
        "streams.draw_s": c["draw_ns"] * sec,
        "streams.audit_keys": c["streams.audit_keys"],
        "random_effects.step_self_s": c["step_self_ns"] * sec,
        "random_effects.run_chain_s": total["random_effects.run_chain"] * sec,
        "random_effects.estimate_s": total["random_effects.estimate"] * sec,
        "random_effects.shifted_view_s": total["random_effects.shifted_view"] * sec,
        "random_effects.csv_s": total["random_effects.csv"] * sec,
    }


def layer_metrics(tracer: Tracer, per_op: list[dict]) -> dict[str, float]:
    """Median over traced operations of each additive value, plus the
    histogram quantiles over every sample of the traced operations."""
    out = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    out["streams.draw_us"] = tracer.draws.quantile_us(0.5)
    out["streams.key_us"] = tracer.keys.quantile_us(0.5)
    out["random_effects.step_us_p50"] = tracer.steps.quantile_us(0.5)
    out["random_effects.step_us_p99"] = tracer.steps.quantile_us(0.99)
    out["random_effects.run_chain_peak_mb"] = tracer.chain_peak_mb
    return out
