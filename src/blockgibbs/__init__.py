"""Exact finite-state analysis of two-block Gibbs sweeps and their
out-of-order reordering, plus keyed-stream samplers for the hierarchical
normal random effects model."""

from .analysis import (
    analyze,
    check_marginal_agreement,
    check_pistar_invariance,
    check_prop1,
    check_rate_equality,
    spectrum,
    stationary,
    tv_curve,
)
from .corpus import anti_example_pmf, seeded_corpus
from .finite_model import (
    AXES,
    Dims,
    JointPmf3,
    conditional,
    marginal,
    pi_star,
    product_pmf,
    random_pmf,
    tv,
)
from .kernels import (
    Kernel,
    StateCodec,
    block_kernel,
    flatten_to_codec,
    gibbs_kernel,
    marginal_xy_kernel,
    marginal_z_kernel,
    nu_xz,
    nu_z,
    ooo_kernel,
    rotated_block_kernel,
)
from .random_effects import (
    RemData,
    RemHyper,
    Trajectory,
    default_init,
    estimate,
    ig_params,
    mu_params,
    run_chain,
    shifted_view,
    theta_params,
)
from .streams import KeyedStream, StreamKey

__version__ = "0.1.0"
