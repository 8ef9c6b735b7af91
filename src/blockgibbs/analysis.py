"""Stationary distributions, exact TV convergence curves, spectra, and the
automated inequality/rate checkers for the sweep family.

All checks run on factored kernels K = R C (see ``kernels``): spectra,
stationary solves and distance curves on the r x r core C R, each distance
on the coordinates the sweep's last update reads. State i reads row i mod r,
so the curve from row j is the curve from every state that reads it.
"Verified" still means verified to the stated floating-point slack, state by
state and step by step:

  * the two total-variation inequality chains linking the block sweep, its
    z-marginal, the out-of-order sweep, the xy-marginal, and the rotated
    sweep (``check_prop1``);
  * equality of the nonzero spectra of K_z = AB and K_xy = BA, with
    A = P(X,Y | Z) and B = P(Z | X,Y) (the block and rotated cores, by
    construction), and of the out-of-order rate (``check_rate_equality``);
  * which distribution the out-of-order sweep actually preserves
    (``check_pistar_invariance``), and on which marginals that distribution
    still agrees with the target (``check_marginal_agreement``).

On finite irreducible aperiodic chains the geometric convergence rate is the
second largest eigenvalue modulus (slem), which is how rates are certified
here; no explicit multiplicative bound function is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finite_model import JointPmf3, conditional, marginal, pi_star, tv
from .kernels import (
    Kernel,
    block_kernel,
    flatten_to_codec,
    marginal_xy_kernel,
    marginal_z_kernel,
    nu_xz,
    nu_z,
    ooo_kernel,
    rotated_block_kernel,
)

#: |eigenvalue - 1| below this counts as the unit eigenvalue.
UNIT_EIG_TOL = 1e-9

#: Absolute slack for the inequality chains (accumulated float error in
#: repeated matrix-vector products).
INEQ_SLACK = 1e-12

#: Tolerance for spectral agreement across kernels.
RATE_TOL = 1e-8

STATIONARY_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class SpectrumSummary:
    """Eigenvalue moduli (descending), the second largest eigenvalue modulus,
    and the multiplicity of the unit eigenvalue."""

    moduli: np.ndarray
    slem: float
    unit_multiplicity: int

    def to_json_dict(self) -> dict:
        return {
            "moduli": self.moduli.tolist(),
            "slem": float(self.slem),
            "unit_multiplicity": int(self.unit_multiplicity),
        }


def spectrum(kernel: Kernel, tol: float = UNIT_EIG_TOL) -> SpectrumSummary:
    """Eigenvalue summary of all s eigenvalues: the core's r plus s - r
    structural zeros. The slem is the largest modulus among eigenvalues with
    |lambda - 1| > tol."""
    core_eigs = kernel.core_eigenvalues
    eigs = np.concatenate([core_eigs, np.zeros(kernel.codec.size - core_eigs.size)])
    moduli = np.sort(np.abs(eigs))[::-1]
    non_unit = eigs[np.abs(eigs - 1.0) > tol]
    slem = float(np.abs(non_unit).max()) if non_unit.size else 0.0
    unit_multiplicity = int(np.count_nonzero(np.abs(eigs - 1.0) <= tol))
    return SpectrumSummary(moduli, slem, unit_multiplicity)


def stationary(kernel: Kernel) -> tuple[np.ndarray, float]:
    """Unique probability vector v with v K = v, and its residual |v K - v|_1.

    With K = R C, mu = v R is stationary for the core C R and v = mu C. So
    this solves (core^T - I) mu = 0 with a normalization row appended, after
    checking that the unit eigenvalue is simple (it always is for kernels
    built from strictly positive pmfs), and lifts mu to v = mu C. The
    residual is checked against the full kernel.
    """
    core = kernel.core
    r = core.shape[0]
    unit_mult = int(np.count_nonzero(np.abs(kernel.core_eigenvalues - 1.0) <= UNIT_EIG_TOL))
    if unit_mult != 1:
        raise ValueError(
            f"unit eigenvalue has multiplicity {unit_mult}; kernel is not ergodic"
        )
    a = np.vstack([core.T - np.eye(r), np.ones((1, r))])
    b = np.zeros(r + 1)
    b[-1] = 1.0
    mu, *_ = np.linalg.lstsq(a, b, rcond=None)
    v = np.maximum(mu @ kernel.rows, 0.0)
    v /= v.sum()
    residual = float(np.abs(kernel.step(v) - v).sum())
    if residual > STATIONARY_RESIDUAL_TOL:
        raise ValueError(f"stationary solve residual {residual:.3g} exceeds tolerance {STATIONARY_RESIDUAL_TOL:g}")
    return v, residual


def tv_curve(kernel: Kernel, start: np.ndarray, target: np.ndarray, nmax: int, reads=None):
    """Exact distance-to-target curves: entry [n] is tv(start K^n, target)
    for a probability vector ``start``, and entry [n, i] is tv(start[i] K^n,
    target) for a bank of them, one per row, for n = 0..nmax. Past step 0
    the steps run on the r x r core: start K^n = w_n C, with weights
    w_n = (start R) core^(n-1). ``reads`` returns one curve per (P, t)
    instead, whose entries past [0] are tv(w_n P, t), P None reading w_n.

    The weights are stepped a chunk of steps at a time, and each law's
    distances for the chunk are one product, subtract, abs and reduce. A
    chunk is the most steps whose (steps x start rows x widest read)
    temporaries fit in 4,096 float64s (32 KB), at least one, so memory
    past the output does not grow with nmax. Every product and reduce is
    the one a step at a time would make, so the curves are bit-identical
    to stepping one at a time."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    cur = np.asarray(start, dtype=float)
    r, s = kernel.rows.shape
    if cur.shape[-1:] != (s,):
        raise ValueError(f"start shape {cur.shape} does not end in the kernel's {s} states")
    if np.shape(target) != (s,):
        raise ValueError(f"target shape {np.shape(target)} is not the kernel's ({s},) states")
    laws = ((kernel.rows, target),) if reads is None else reads
    widths = [r if law is None else np.shape(law)[-1] for law, _ in laws]
    for (law, t), width in zip(laws, widths):
        if np.shape(t) != (width,):
            raise ValueError(
                f"read law of shape {np.shape(law) if law is not None else (r, r)} "
                f"does not match its target shape {np.shape(t)}"
            )
    bank = cur.reshape(-1, s)  # a single vector steps as a one-row bank
    out = np.empty((len(laws), nmax + 1, len(bank)))
    d = bank - target
    out[:, 0] = np.add.reduce(np.abs(d, out=d), axis=-1)
    chunk = min(nmax, max(1, 4096 // max(1, len(bank) * max(widths))))
    # two buffers in turn, so no step's product writes over its own input
    bufs = np.empty((2, chunk, len(bank), r))
    w = bufs[0, 0]
    w[...] = kernel.select(bank)
    for i, first in enumerate(range(1, nmax + 1, chunk)):
        stop = min(first + chunk, nmax + 1)
        ws = bufs[i % 2, : stop - first]
        for wn in ws[1 if first == 1 else 0 :]:
            w = np.matmul(w, kernel.core, out=wn)
        for curve, (law, t) in zip(out, laws):
            d = (ws if law is None else ws @ law) - t
            np.abs(d, out=d)
            np.add.reduce(d, axis=-1, out=curve[first:stop])
    out *= 0.5
    out = out.reshape(out.shape[:2] + cur.shape[:-1])
    return out[0] if reads is None else out


def _sweeps(pmf: JointPmf3) -> dict:
    """The five kernels by report name, each with its target pmf."""
    return {
        "block": (block_kernel(pmf), pmf),
        "rotated": (rotated_block_kernel(pmf), pmf),
        "marginal_xy": (marginal_xy_kernel(pmf), pmf),
        "marginal_z": (marginal_z_kernel(pmf), pmf),
        "ooo": (ooo_kernel(pmf), pi_star(pmf)),
    }


@dataclass
class Prop1Report:
    """Per-step record of the two total-variation inequality chains.

    ``chain1`` rows are worst-case (over start states) triples
    (block sweep at n, z-marginal at n-1, out-of-order from nu_z at n-2),
    verified for n >= 3; the n = 2 triple is reported without a verdict
    because its rightmost term depends on the dummy Y slot of nu_z.
    ``chain2`` rows are (out-of-order at n, xy-marginal from nu_xz at n-1,
    rotated from lifted nu_xz at n-1), verified for n >= 1. Verification is
    per start state, not on the worst-case aggregates.
    """

    nmax: int
    tol: float
    n_values: np.ndarray
    chain1: np.ndarray  # (nmax, 3), NaN where a term is undefined
    chain2: np.ndarray  # (nmax, 3)
    chain1_ok: list  # per n: True/False for n >= 3, None below
    chain2_ok: list  # per n: True/False
    chain1_verdict: bool
    chain2_verdict: bool
    max_violation: float  # most positive (lhs - rhs) over all checked pairs
    violations: list  # dicts: chain, n, state, lhs, rhs

    @property
    def verdict(self) -> bool:
        return self.chain1_verdict and self.chain2_verdict

    def to_json_dict(self) -> dict:
        # undefined terms (NaN) become null
        chain1, chain2 = (
            np.where(np.isnan(a), None, a).tolist() for a in (self.chain1, self.chain2)
        )
        return {
            "nmax": self.nmax,
            "tol": self.tol,
            "verdict": self.verdict,
            "chain1_verdict": self.chain1_verdict,
            "chain2_verdict": self.chain2_verdict,
            "max_violation": float(self.max_violation),
            "violations": self.violations,
            "rows": [
                {
                    "n": n,
                    "chain1": chain1[i],
                    "chain1_ok": self.chain1_ok[i],
                    "chain2": chain2[i],
                    "chain2_ok": self.chain2_ok[i],
                }
                for i, n in enumerate(self.n_values.tolist())
            ],
        }


def check_prop1(pmf: JointPmf3, nmax: int, tol: float = INEQ_SLACK) -> Prop1Report:
    """Verify both inequality chains from every start state for n up to nmax.

    Chain 1, for every start (x, y, z) and n >= 3:
        tv(block^n from state, target)
          <= tv(z-marginal^(n-1) from z, z-target)
          <= tv(nu_z * ooo^(n-2), ooo-target)
    Chain 2, for every start (y, z, x) and n >= 1:
        tv(ooo^n from state, ooo-target)
          <= tv(nu_xz * xy-marginal^(n-1), xy-target)
          <= tv(lifted nu_xz * rotated^(n-1), target)

    Past step 0 each distance is taken on the coordinates the last update
    reads, exactly, since the target shares it (Roberts & Rosenthal 2001).
    Block and z-marginal share an iteration (the block core is K_z), as do
    xy-marginal and rotated (the rotated core is K_xy), so chain 1's first
    pair and chain 2's second pair hold by construction, up to rounding.

    A state's curve is its row's, so each pair is compared over the distinct
    rows of the left-hand kernel. A violation names the first reader of the
    lowest row within INEQ_SLACK of the worst gap, so rounding breaks no tie.
    """
    if nmax < 3:
        raise ValueError("nmax must be >= 3")
    nx, ny, nz = pmf.dims.shape
    k_block, k_rot, k_xy, k_z, k_ooo = (kernel for kernel, _ in _sweeps(pmf).values())

    star = pi_star(pmf)
    pi_z, pi_xy = flatten_to_codec(pmf, k_z.codec), flatten_to_codec(pmf, k_xy.codec)
    pi_zxy, pi_yzx = flatten_to_codec(pmf, k_rot.codec), flatten_to_codec(star, k_ooo.codec)
    # the laws of what the last update reads, one step from each row:
    # (x', y') | z for block, z' | (x, y) for rotated, (y', z') | (z, x) for ooo
    p_block = conditional(pmf, ("X", "Y"), ("Z",)).reshape(nz, nx * ny)
    p_rot = conditional(pmf, ("Z",), ("X", "Y")).reshape(nx * ny, nz)
    c_y, c_z = conditional(pmf, ("Y",), ("X", "Z")), conditional(pmf, ("Z",), ("X", "Y"))
    p_ooo = np.einsum("xzb,xbc->zxbc", c_y, c_z).reshape(nz * nx, ny * nz)

    # tv arrays indexed [n, start]: entry [n - 1, j] is the distance after n
    # steps; a kernel's starts are its distinct rows.
    tv_z, tv_block = tv_curve(k_z, np.eye(nz), pi_z, nmax, ((None, pi_z), (p_block, pi_xy)))[:, 1:]
    bank_xz = nu_xz(pmf)  # row x * nz + z; lifted, it sits on the rotated z = 0 slice
    tv_nu_xy, tv_nu_rot = tv_curve(k_xy, bank_xz, pi_xy, nmax, ((None, pi_xy), (p_rot, pi_z)))[:, 1:]
    lifted = np.abs(bank_xz - pi_zxy[: nx * ny]).sum(axis=1) + pi_zxy[nx * ny :].sum()
    tv_nu_rot = np.vstack([0.5 * lifted, tv_nu_rot[:-1]])
    r = nz * nx  # the ooo rows (row z * nx + x), then nu_z
    reads = ((p_ooo, marginal(star, ("Y", "Z")).ravel()),)
    (tv_ooo,) = tv_curve(k_ooo, np.vstack([k_ooo.rows, nu_z(pmf)]), pi_yzx, nmax - 1, reads)
    tv_ooo, tv_nu_z = tv_ooo[:, :r], tv_ooo[: nmax - 1, r:]
    xz_of_ooo_row = np.arange(r).reshape(nx, nz).T.ravel()  # the nu_xz row of each ooo row

    chain1 = np.full((nmax, 3), np.nan)
    chain1[:, 0] = tv_block.max(axis=1)
    chain1[:, 1] = tv_z.max(axis=1)
    chain1[1:, 2] = tv_nu_z.max(axis=1)
    chain2 = np.column_stack([a.max(axis=1) for a in (tv_ooo, tv_nu_xy, tv_nu_rot)])

    # The four checked (chain, codec of the starts, lhs, rhs) pairs in the
    # order each n records them; lhs and rhs are [n, start] arrays from the
    # pair's first checked n (3 for chain 1, 1 for chain 2) to nmax. A start
    # with a codec is a row, named by its first reader; one without is a
    # nu_xz index.
    pairs = (
        (1, k_block.codec, tv_block[2:], tv_z[2:]),
        (1, k_z.codec, tv_z[2:], tv_nu_z[1:]),
        (2, k_ooo.codec, tv_ooo, tv_nu_xy[:, xz_of_ooo_row]),
        (2, None, tv_nu_xy, tv_nu_rot),
    )
    # largest gap lhs - rhs per (n, pair), -inf where a pair is not checked
    worst = np.full((nmax, len(pairs)), -np.inf)
    for p, (_, _, lhs, rhs) in enumerate(pairs):
        worst[nmax - len(lhs):, p] = (lhs - rhs).max(axis=1)
    ok = worst <= tol

    violations = []
    for i, p in np.argwhere(worst > tol)[:20]:
        chain, codec, lhs, rhs = pairs[p]
        row = i - (nmax - len(lhs))
        start = int(np.argmax(lhs[row] - rhs[row] >= worst[i, p] - INEQ_SLACK))
        violations.append(
            {
                "chain": chain,
                "n": int(i) + 1,
                "state": codec.state_label(start) if codec is not None else start,
                "lhs": float(lhs[row, start]),
                "rhs": float(rhs[row, start]),
            }
        )
    chain1_ok = [None, None] + ok[2:, :2].all(axis=1).tolist()
    chain2_ok = ok[:, 2:].all(axis=1).tolist()

    return Prop1Report(
        nmax=nmax,
        tol=tol,
        n_values=np.arange(1, nmax + 1),
        chain1=chain1,
        chain2=chain2,
        chain1_ok=chain1_ok,
        chain2_ok=chain2_ok,
        chain1_verdict=all(ok for ok in chain1_ok if ok is not None),
        chain2_verdict=all(chain2_ok),
        max_violation=float(worst.max()),
        violations=violations,
    )


@dataclass
class RateEqualityReport:
    """Spectral comparison across the five kernels.

    The verdict asserts (a) the nonzero eigenvalue multisets of K_z (AB) and
    K_xy (BA) agree, and (b) the out-of-order kernel's slem equals the block
    kernel's. Block and rotated are K_z and K_xy by construction.
    """

    verdict: bool
    tol: float
    spectra: dict  # name -> SpectrumSummary
    multiset_gap: float
    slem_gap: float

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "tol": self.tol,
            "multiset_gap": float(self.multiset_gap),
            "slem_gap": float(self.slem_gap),
            "slems": {k: float(v.slem) for k, v in self.spectra.items()},
            "spectra": {k: v.to_json_dict() for k, v in self.spectra.items()},
        }


def nonzero_eigs(kernel: Kernel, zero_tol: float = RATE_TOL) -> np.ndarray:
    """Core eigenvalues with modulus above zero_tol, sorted by (real, imag);
    the structural zeros of K never pass."""
    eigs = kernel.core_eigenvalues
    return np.sort_complex(eigs[np.abs(eigs) > zero_tol])


def _multiset_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest matched-pair distance between two eigenvalue multisets, after
    padding the shorter one with zeros (borderline-tiny eigenvalues then
    still pair up within tolerance)."""
    n = max(a.size, b.size)
    if n == 0:
        return 0.0
    a = np.sort_complex(np.concatenate([a, np.zeros(n - a.size)]))
    b = np.sort_complex(np.concatenate([b, np.zeros(n - b.size)]))
    return float(np.abs(a - b).max())


def check_rate_equality(pmf: JointPmf3, tol: float = RATE_TOL) -> RateEqualityReport:
    """Rate check: K_z (AB) against K_xy (BA), the ooo slem against the block's."""
    kernels = {name: kernel for name, (kernel, _) in _sweeps(pmf).items()}
    spectra = {name: spectrum(k) for name, k in kernels.items()}
    multiset_gap = _multiset_gap(
        nonzero_eigs(kernels["marginal_z"], tol), nonzero_eigs(kernels["marginal_xy"], tol)
    )
    slem_gap = abs(spectra["ooo"].slem - spectra["block"].slem)
    return RateEqualityReport(
        verdict=bool(multiset_gap <= tol and slem_gap <= tol),
        tol=tol,
        spectra=spectra,
        multiset_gap=multiset_gap,
        slem_gap=float(slem_gap),
    )


def check_pistar_invariance(pmf: JointPmf3) -> tuple[float, float]:
    """L1 residuals (pi_star under the out-of-order kernel, pmf under the
    out-of-order kernel). The first is ~0 always; the second is the
    wrongness demonstration and is strictly positive for generic pmfs."""
    k_ooo = ooo_kernel(pmf)
    star_vec = flatten_to_codec(pi_star(pmf), k_ooo.codec)
    pi_vec = flatten_to_codec(pmf, k_ooo.codec)
    r_star = float(np.abs(k_ooo.step(star_vec) - star_vec).sum())
    r_pi = float(np.abs(k_ooo.step(pi_vec) - pi_vec).sum())
    return r_star, r_pi


#: Marginal subsets compared by check_marginal_agreement; all but the last
#: are preserved exactly by pi_star.
MARGINAL_SUBSETS = (("X",), ("Y",), ("Z",), ("X", "Z"), ("Y", "Z"), ("X", "Y"))


def check_marginal_agreement(pmf: JointPmf3) -> dict[str, float]:
    """TV between the pmf and pi_star on each marginal subset."""
    star = pi_star(pmf)
    out: dict[str, float] = {}
    for subset in MARGINAL_SUBSETS:
        key = "".join(subset)
        out[key] = tv(marginal(pmf, subset), marginal(star, subset))
    return out


@dataclass
class ChainReport:
    """Everything the exact-analysis path computes for one pmf."""

    dims: tuple[int, int, int]
    stationary_residuals: dict  # kernel name -> ||v M - v||_1
    stationary_target_gap: dict  # kernel name -> ||v - expected target||_1
    rate: RateEqualityReport
    invariance: tuple[float, float]
    marginal_tv: dict
    prop1: Prop1Report

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "stationary_residuals": {k: float(v) for k, v in self.stationary_residuals.items()},
            "stationary_target_gap": {k: float(v) for k, v in self.stationary_target_gap.items()},
            "rates": self.rate.to_json_dict(),
            "invariance": {
                "pistar_residual": float(self.invariance[0]),
                "pi_residual": float(self.invariance[1]),
            },
            "marginal_tv": {k: float(v) for k, v in self.marginal_tv.items()},
            "prop1": self.prop1.to_json_dict(),
        }


def analyze(pmf: JointPmf3, nmax: int = 50) -> ChainReport:
    """Run every check against one pmf and bundle the results."""
    residuals, target_gap = {}, {}
    for name, (kernel, target_pmf) in _sweeps(pmf).items():
        v, residuals[name] = stationary(kernel)
        target_gap[name] = float(
            np.abs(v - flatten_to_codec(target_pmf, kernel.codec)).sum()
        )
    return ChainReport(
        dims=pmf.dims.shape,
        stationary_residuals=residuals,
        stationary_target_gap=target_gap,
        rate=check_rate_equality(pmf),
        invariance=check_pistar_invariance(pmf),
        marginal_tv=check_marginal_agreement(pmf),
        prop1=check_prop1(pmf, nmax),
    )
