"""Stationary distributions, exact TV convergence curves, spectra, and the
automated inequality/rate checkers for the sweep family.

All checks run on factored kernels K = R C, core C R = L U (``kernels``):
spectra, stationary solves and distance curves on the k x k U L, each
distance on the coordinates the sweep's last update reads. State i reads row
i mod r, so the curve from row j is the curve from every state that reads it.
"Verified" still means verified to the stated floating-point slack, state by
state and step by step:

  * the two total-variation inequality chains linking the block sweep, its
    z-marginal, the out-of-order sweep, the xy-marginal, and the rotated
    sweep (``check_prop1``);
  * equality of the nonzero spectra of K_z = AB and K_xy = BA, with
    A = P(X,Y | Z) and B = P(Z | X,Y) (the block and rotated cores; both
    spectra come from products A B, so this is structural), and of the
    out-of-order rate (``check_rate_equality``);
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
    StateCodec,
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

#: The exact verdicts, in report order (``ChainReport.verdicts``).
CHECK_NAMES = ("prop1", "rates", "invariance", "marginals")

#: Largest L1 residual of pi_star under the out-of-order kernel that counts
#: as invariance.
INVARIANCE_TOL = 1e-12

#: Largest TV between the pmf and pi_star on a marginal pi_star preserves.
PRESERVED_MARGINAL_TOL = 1e-14

#: Float64s that one chunk of ``tv_curve``'s steps may hold in its scratch
#: buffer (512 KB): steps x start rows x the widest read.
TV_CHUNK_FLOATS = 65536

#: Largest |mass - 1| of a ``tv_curve`` start row. Past step 1 each read's
#: target is folded into its law on the assumption that the weights have
#: mass 1, which moves a distance by at most the row's mass gap: at this
#: tolerance, 5e-14 in TV, a twentieth of INEQ_SLACK.
START_MASS_TOL = 1e-13


@dataclass(frozen=True)
class SpectrumSummary:
    """A kernel's eigenvalue moduli as its k x k core's k moduli (descending)
    and the count of its s - k structural zeros, the eigenvalues K = R C has
    beyond the core (Liu, Wong & Kong 1994), with the second largest
    eigenvalue modulus and the multiplicity of the unit eigenvalue."""

    core_moduli: np.ndarray
    structural_zeros: int
    slem: float
    unit_multiplicity: int

    @property
    def moduli(self) -> np.ndarray:
        """All s moduli, descending, built read-only on each access."""
        moduli = np.pad(self.core_moduli, (0, self.structural_zeros))
        moduli.flags.writeable = False
        return moduli

    def to_json_dict(self) -> dict:
        return {"moduli": self.core_moduli.tolist(), "structural_zeros": int(self.structural_zeros),
                "slem": float(self.slem), "unit_multiplicity": int(self.unit_multiplicity)}


def spectrum(kernel: Kernel) -> SpectrumSummary:
    """Eigenvalue summary read off U L's k eigenvalues. The slem is the
    largest modulus among eigenvalues with |lambda - 1| > UNIT_EIG_TOL; the
    s - k structural zeros, never within it of 1, move neither it nor the
    unit multiplicity."""
    eigs = kernel.core_eigenvalues
    moduli = np.abs(eigs)
    non_unit = moduli[np.abs(eigs - 1.0) > UNIT_EIG_TOL]
    slem = float(non_unit.max()) if non_unit.size else 0.0
    unit_multiplicity = int(np.count_nonzero(np.abs(eigs - 1.0) <= UNIT_EIG_TOL))
    return SpectrumSummary(np.sort(moduli)[::-1], kernel.codec.size - eigs.size, slem, unit_multiplicity)


def stationary(kernel: Kernel) -> tuple[np.ndarray, float]:
    """Unique probability vector v with v K = v, and its residual |v K - v|_1.

    With K = R C, mu = v R is stationary for the core C R and v = mu C. So
    this checks that the unit eigenvalue is simple (it always is for kernels
    built from strictly positive pmfs), which makes the k x k square solve
    nonsingular, then takes mu from it (``Kernel.core_stationary``, shared by
    a marginal chain and its sweep) and lifts mu to v = mu C, a step from mu
    on states 0..r-1. The residual is checked against the full kernel.
    """
    unit_mult = int(np.count_nonzero(np.abs(kernel.core_eigenvalues - 1.0) <= UNIT_EIG_TOL))
    if unit_mult != 1:
        raise ValueError(f"unit eigenvalue has multiplicity {unit_mult}; kernel is not ergodic")
    mu = kernel.core_stationary
    v = np.maximum(kernel.step(np.concatenate([mu, np.zeros(kernel.codec.size - mu.size)])), 0.0)
    v /= v.sum()
    residual = float(np.abs(kernel.step(v) - v).sum())
    if residual > STATIONARY_RESIDUAL_TOL:
        raise ValueError(f"stationary solve residual {residual:.3g} exceeds tolerance {STATIONARY_RESIDUAL_TOL:g}")
    return v, residual


def tv_curve(kernel: Kernel, start: np.ndarray, target: np.ndarray, nmax: int, reads):
    """Exact distance-to-target curves, one per (P, t) in ``reads``, for
    n = 0..nmax: entry [0] is tv(start, target), and past step 0 the chain
    is followed on the rows, start K^n = w_n C with weights w_n = (start R)
    core^(n-1), and entry [n] is tv(w_n P, t), P None reading w_n itself.
    ``start`` is a probability vector, or a bank of them with one per row,
    which gives each curve entry one value per row; a row whose mass is not
    1 within START_MASS_TOL is refused.

    With core = L U, w_1 = start R is read as it is, and w_n = y_n U past
    it, with y_n = w_1 L (U L)^(n-2) stepped on U L. y_n has mass 1, so
    w_n P - t = y_n (U P - 1 t^T), and each read past step 1 is one product
    with U P - 1 t^T, formed once, a chunk of steps at a time, into one
    scratch buffer, then an abs and a row sum in place. A chunk is the most
    steps whose (steps x start rows x widest read) block fits in
    TV_CHUNK_FLOATS, 65,536 float64s (512 KB), at least one, so memory past
    the output does not grow with nmax. Every product and row sum is the one
    a step at a time would make (``einsum`` adds each row in a fixed order,
    whatever else the chunk holds), so the curves are bit-identical to
    stepping one at a time.

    A row sum of m terms in any fixed order is within (m - 1) u of the sum
    of their magnitudes (Higham 2002, ch. 4), u = 2^-53. The terms are the
    |entries| of a difference of two probability vectors, which sum to at
    most 2, so at the widest read of ``check_prop1`` under the pair-cell cap,
    m = 4,096 cells, a distance moves by at most 4,095 u, 4.5e-13 in TV,
    under INEQ_SLACK."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    cur = np.asarray(start, dtype=float)
    l, u = kernel.factors
    r, s = len(l), kernel.codec.size
    if cur.shape[-1:] != (s,):
        raise ValueError(f"start shape {cur.shape} does not end in the kernel's {s} states")
    if np.shape(target) != (s,):
        raise ValueError(f"target shape {np.shape(target)} is not the kernel's ({s},) states")
    widths = [r if law is None else np.shape(law)[-1] for law, _ in reads]
    for (law, t), width in zip(reads, widths):
        if np.shape(t) != (width,):
            raise ValueError(
                f"read law of shape {np.shape(law) if law is not None else (r, r)} "
                f"does not match its target shape {np.shape(t)}"
            )
    bank = cur.reshape(-1, s)  # a single vector steps as a one-row bank
    w = bank if r == s else bank.reshape(len(bank), -1, r).sum(axis=1)  # start R, never written
    mass = w.sum(axis=1)
    off = np.abs(mass - 1.0) > START_MASS_TOL
    if off.any():
        row = int(np.argmax(off))
        raise ValueError(f"start row {row} has mass {float(mass[row])!r}, not 1 within {START_MASS_TOL:g}")
    out = np.empty((len(reads), nmax + 1, len(bank)))
    out[:, 0] = np.add.reduce(np.abs(bank - target), axis=-1)  # its temporaries go at once
    chunk = max(1, min(nmax - 1, TV_CHUNK_FLOATS // max(1, len(bank) * max(widths))))
    scratch = np.empty(chunk * len(bank) * max(widths))
    _distances(out[:, 1:2], w[None], reads, scratch)
    # the reads past step 1, each target folded into its law
    folded = [((u if law is None else u @ law) - t, None) for law, t in reads]
    # two buffers in turn, so no step's product writes over its own input
    bufs = np.empty((2, chunk, len(bank), len(u)))
    y = np.matmul(w, l, out=bufs[0, 0])
    for i, first in enumerate(range(2, nmax + 1, chunk)):
        stop = min(first + chunk, nmax + 1)
        ys = bufs[i % 2, : stop - first]
        for yn in ys[1 if first == 2 else 0 :]:
            y = np.matmul(y, kernel.reduced, out=yn)
        _distances(out[:, first:stop], ys, folded, scratch)
    out *= 0.5
    return out.reshape(out.shape[:2] + cur.shape[:-1])


def _distances(out: np.ndarray, ws: np.ndarray, reads: list, scratch: np.ndarray) -> None:
    """Twice each read's distance, off the weights ``ws`` [step, row], into
    ``out`` [read, step, row], each formed in ``scratch``: (P, t) takes
    ws P - t (ws - t for P None), and (P, None) takes ws P, its target
    already folded into P."""
    for curve, (law, t) in zip(out, reads):
        width = len(t) if law is None else law.shape[-1]
        d = scratch[: curve.size * width].reshape(curve.shape + (width,))
        if law is None:
            np.subtract(ws, t, out=d)
        else:
            np.matmul(ws, law, out=d)
            if t is not None:
                d -= t
        np.abs(d, out=d)
        np.einsum("...j->...", d, out=curve)


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

    ``chain1`` rows are worst-case (over start states) triples (block sweep
    at n, z-marginal at n-1, out-of-order from nu_z at n-2), verified for
    n >= 3; the n = 2 triple is reported without a verdict because its
    rightmost term, nu_z's step-0 distance, depends on nu_z's dummy Y slot.
    ``chain2`` rows are (out-of-order at n, xy-marginal from nu_xz at n-1,
    rotated from lifted nu_xz at n-1), verified for n >= 1, per start state.
    Past step 0 every term is read off K_z or K_xy (see ``check_prop1``).
    The per-n rows and ok flags are written once, to tv_curves.csv; the
    report's JSON holds the verdicts, ``max_violation`` and ``violations``.
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
        return {
            "nmax": self.nmax,
            "tol": self.tol,
            "verdict": self.verdict,
            "chain1_verdict": self.chain1_verdict,
            "chain2_verdict": self.chain2_verdict,
            "max_violation": float(self.max_violation),
            "violations": self.violations,
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
    With A = P(X,Y | Z), B = P(Z | X,Y) and Q[(x, y), (y', z')] = 1{y' = y}
    P(z' | x, y), e_z K_z^n read through 1, A and A Q gives the z-marginal,
    block and nu_z curves, and nu_xz K_xy^n through 1, B and Q the
    xy-marginal, rotated and ooo ones: the ooo sweep is the block chain half
    a sweep late. So every pair compares a law with its image under a Markov
    kernel and holds by construction, up to rounding; ``ooo_kernel`` is not
    stepped, and the tests' dense and exact witnesses check the ooo curves.

    A state's curve is its row's, so each pair is compared over the distinct
    rows of the left-hand kernel. A violation names the first reader of the
    lowest row within INEQ_SLACK of the worst gap, so rounding breaks no tie.
    """
    if nmax < 3:
        raise ValueError("nmax must be >= 3")
    nx, ny, nz = pmf.dims.shape
    k_z, k_xy = marginal_z_kernel(pmf), marginal_xy_kernel(pmf)
    block, rot, ooo = (StateCodec.for_labels(pmf, labels) for labels in ("XYZ", "ZXY", "YZX"))
    star = pi_star(pmf)
    pi_z, pi_xy, pi_zxy = (flatten_to_codec(pmf, c) for c in (k_z.codec, k_xy.codec, rot))
    star_yz = marginal(star, ("Y", "Z")).ravel()
    a = conditional(pmf, ("X", "Y"), ("Z",)).reshape(nz, nx * ny)
    b = conditional(pmf, ("Z",), ("X", "Y"))
    q = np.einsum("xyc,yb->xybc", b, np.eye(ny)).reshape(nx * ny, ny * nz)
    # tv arrays indexed [n, start]: entry [n - 1, j] is read after n steps;
    # the starts are K_z's rows and nu_xz's, row x * nz + z
    reads = ((None, pi_z), (a, pi_xy), (a @ q, star_yz))
    tv_z, tv_block, tv_nu_z = tv_curve(k_z, np.eye(nz), pi_z, nmax, reads)[:, 1:]
    bank_xz = nu_xz(pmf)
    reads = ((None, pi_xy), (b.reshape(nx * ny, nz), pi_z), (q, star_yz))
    tv_nu_xy, tv_nu_rot, tv_ooo = tv_curve(k_xy, bank_xz, pi_xy, nmax, reads)[:, 1:]
    # Step 0 heads each curve. A bank sits on the first w states of its sweep's codec, with a
    # dummy first coordinate at 0 (Z of rotated, Y of ooo) that the sweep never reads, so any
    # choice gives the same law after one step. nu_z's term at n is n - 2 steps in, none at 1.
    at_0 = []
    for bank, t in ((bank_xz, pi_zxy), (nu_z(pmf), flatten_to_codec(star, ooo))):
        w = bank.shape[1]
        at_0.append(0.5 * (np.abs(bank - t[:w]).sum(axis=1) + t[w:].sum()))
    tv_nu_rot = np.vstack([at_0[0], tv_nu_rot[:-1]])
    tv_nu_z = np.vstack([np.full(nz, np.nan), at_0[1], tv_nu_z[:-2]])
    xz_of_ooo_row = np.arange(nz * nx).reshape(nx, nz).T.ravel()  # ooo row z * nx + x
    tv_ooo, tv_nu_xz = tv_ooo[:, xz_of_ooo_row], tv_nu_xy[:, xz_of_ooo_row]
    chain1 = np.column_stack([t.max(axis=1) for t in (tv_block, tv_z, tv_nu_z)])
    chain2 = np.column_stack([t.max(axis=1) for t in (tv_ooo, tv_nu_xy, tv_nu_rot)])

    # The four checked (chain, codec of the starts, lhs, rhs) pairs in the
    # order each n records them, as [n, start] arrays from the pair's first
    # checked n (3 for chain 1, 1 for chain 2) to nmax. A start with a codec
    # is a row, named by its first reader; one without is a nu_xz index.
    pairs = (
        (1, block, tv_block[2:], tv_z[2:]),
        (1, k_z.codec, tv_z[2:], tv_nu_z[2:]),
        (2, ooo, tv_ooo, tv_nu_xz),
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
        violations.append({"chain": chain, "n": int(i) + 1,
                           "state": codec.state_label(start) if codec is not None else start,
                           "lhs": float(lhs[row, start]), "rhs": float(rhs[row, start])})
    chain1_ok = [None, None] + ok[2:, :2].all(axis=1).tolist()
    chain2_ok = ok[:, 2:].all(axis=1).tolist()

    return Prop1Report(
        nmax=nmax, tol=tol, n_values=np.arange(1, nmax + 1), chain1=chain1, chain2=chain2,
        chain1_ok=chain1_ok, chain2_ok=chain2_ok,
        chain1_verdict=all(ok for ok in chain1_ok if ok is not None), chain2_verdict=all(chain2_ok),
        max_violation=float(worst.max()), violations=violations,
    )


@dataclass
class RateEqualityReport:
    """Spectral comparison across the five kernels.

    The verdict asserts (a) the nonzero eigenvalue multisets of K_z (AB) and
    K_xy (BA) agree, and (b) the out-of-order kernel's slem equals the block
    kernel's. Each spectrum is its factor pair's U L: A B on both sides of
    (a), so ``multiset_gap`` is structural, and N M against A B in (b).
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
    k_z, k_xy = (nonzero_eigs(kernels[name], tol) for name in ("marginal_z", "marginal_xy"))
    multiset_gap = _multiset_gap(k_z, k_xy)
    slem_gap = float(abs(spectra["ooo"].slem - spectra["block"].slem))
    return RateEqualityReport(bool(multiset_gap <= tol and slem_gap <= tol), tol, spectra, multiset_gap, slem_gap)


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
    return {"".join(subset): tv(marginal(pmf, subset), marginal(star, subset)) for subset in MARGINAL_SUBSETS}


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
            "invariance": {"pistar_residual": float(self.invariance[0]), "pi_residual": float(self.invariance[1])},
            "marginal_tv": {k: float(v) for k, v in self.marginal_tv.items()},
            "prop1": self.prop1.to_json_dict(),
        }

    @property
    def verdicts(self) -> dict[str, bool]:
        """Each check in ``CHECK_NAMES`` order, true when its value is within
        its tolerance: prop1 and rates as their reports decide, the pi_star
        residual against INVARIANCE_TOL, and the largest TV on the marginals
        pi_star preserves (all of MARGINAL_SUBSETS but XY) against
        PRESERVED_MARGINAL_TOL."""
        preserved = max(self.marginal_tv["".join(subset)] for subset in MARGINAL_SUBSETS[:-1])
        return dict(zip(CHECK_NAMES, (self.prop1.verdict, self.rate.verdict,
                                      self.invariance[0] <= INVARIANCE_TOL,
                                      preserved <= PRESERVED_MARGINAL_TOL)))


def analyze(pmf: JointPmf3, nmax: int = 50) -> ChainReport:
    """Run every check against one pmf and bundle the results."""
    residuals, target_gap = {}, {}
    for name, (kernel, target_pmf) in _sweeps(pmf).items():
        v, residuals[name] = stationary(kernel)
        target_gap[name] = float(np.abs(v - flatten_to_codec(target_pmf, kernel.codec)).sum())
    return ChainReport(
        dims=pmf.dims.shape, stationary_residuals=residuals, stationary_target_gap=target_gap,
        rate=check_rate_equality(pmf), invariance=check_pistar_invariance(pmf),
        marginal_tv=check_marginal_agreement(pmf), prop1=check_prop1(pmf, nmax),
    )
