"""The package's exported names, pinned: adding or removing one is a
deliberate edit here."""

import types

import blockgibbs

EXPORTED = {
    # finite_model
    "AXES", "Dims", "JointPmf3", "conditional", "marginal", "pi_star",
    "product_pmf", "random_pmf", "tv",
    # kernels
    "Kernel", "StateCodec", "block_kernel", "flatten_to_codec", "gibbs_kernel",
    "marginal_xy_kernel", "marginal_z_kernel", "nu_xz", "nu_z", "ooo_kernel",
    "rotated_block_kernel",
    # analysis
    "analyze", "check_marginal_agreement", "check_pistar_invariance",
    "check_prop1", "check_rate_equality", "spectrum", "stationary", "tv_curve",
    # corpus
    "anti_example_pmf", "seeded_corpus",
    # random_effects
    "RemData", "RemHyper", "Trajectory", "default_init", "estimate",
    "ig_params", "mu_params", "run_chain", "shifted_view", "theta_params",
    # streams
    "KeyedStream", "StreamKey",
}


def test_exported_names_are_pinned():
    # the public attributes of the package that are not modules
    names = {
        name
        for name, value in vars(blockgibbs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == EXPORTED
