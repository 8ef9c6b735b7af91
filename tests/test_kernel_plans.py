"""The per-sweep construction plans, ``kernels._plan`` and ``kernels._subscripts``.

A kernel's plan (what it builds from its codec labels and update subscripts
alone), and a sweep's update subscripts, are built once per process and
shared by every kernel of that sweep, whatever the pmf's dims. These tests
pin that the caches grow with the sweeps and not with the dims, that a
refused table is refused the same way on every call, that a warm cache
changes no bit of a kernel, and that it masks none of the mutation gate's
faults.
"""

import itertools

import numpy as np
import pytest

import test_mutation_gate
from blockgibbs import (
    AXES,
    Dims,
    Kernel,
    StateCodec,
    analyze,
    block_kernel,
    gibbs_kernel,
    kernels,
    marginal_xy_kernel,
    marginal_z_kernel,
    ooo_kernel,
    random_pmf,
    rotated_block_kernel,
)

SWEEPS = (block_kernel, rotated_block_kernel, ooo_kernel, marginal_xy_kernel, marginal_z_kernel)
ORDERS = list(itertools.permutations(AXES))


def every_kernel(pmf) -> list[Kernel]:
    """The five sweeps and the six single-site orders on one pmf."""
    return [sweep(pmf) for sweep in SWEEPS] + [gibbs_kernel(pmf, order) for order in ORDERS]


def test_the_plan_cache_grows_with_the_sweeps_not_the_dims():
    # one plan per kernel's (codec labels, subscripts), and one set of update
    # subscripts per sweep built from conditional tables: not the two
    # marginal chains, which are their sweeps on fewer coordinates
    caches = (kernels._plan, kernels._subscripts)
    for cache in caches:
        cache.cache_clear()
    sizes = []
    for i, dims in enumerate([(2, 2, 2), (3, 2, 2), (4, 4, 4), (5, 3, 2)]):
        every_kernel(random_pmf(Dims(*dims), seed=i, floor=0.005))
        sizes.append(tuple(cache.cache_info().currsize for cache in caches))
    assert sizes == [sizes[0]] * 4
    assert sizes[0] == (len(SWEEPS) + len(ORDERS), len(SWEEPS) - 2 + len(ORDERS))
    drawn, subs = kernels._subscripts(kernels.STEPS)  # strings only, no table
    assert (drawn, subs) == ("XYZ", ("za", "azb", "abc"))


def test_a_refused_table_is_refused_alike_on_every_call(pmf_322):
    # a shape error is raised before the plan is read, a read-suffix error by
    # building it; neither is cached, so a repeated call raises again
    yzx = StateCodec.for_labels(pmf_322, ("Y", "Z", "X"))
    uniform = np.full((3, 2, 2, 3), 1.0 / yzx.size)
    bad = [
        ((("xbca", uniform[:2]),), "does not match"),
        ((("ybca", np.full((2, 2, 2, 3), 1.0 / yzx.size)),), "suffix"),
    ]
    for updates, match in bad:
        kernels._plan.cache_clear()
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError, match=match) as excinfo:
                Kernel(yzx, updates)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert kernels._plan.cache_info().currsize == 0


def bits(kernel: Kernel) -> tuple:
    """Every array a kernel builds, as bytes, and its steps' einsums."""
    arrays = [*kernel.factors, kernel.reduced, *(table for _, table in kernel._steps)]
    return tuple((a.shape, a.tobytes()) for a in arrays) + tuple(sub for sub, _ in kernel._steps)


DIMS = [(2, 2, 2), (3, 2, 2), (4, 4, 4), (2, 2, 5)]  # in the last, nx * ny < nz: the cores split elsewhere


@pytest.mark.parametrize("dims", DIMS)
def test_a_warm_plan_builds_the_same_bits(dims):
    kernels._plan.cache_clear()
    cold = [bits(k) for k in every_kernel(random_pmf(Dims(*dims), seed=31, floor=0.005))]
    kernels._plan.cache_clear()
    for other in DIMS:  # plans warmed on every dims, so also where the cuts fall elsewhere
        every_kernel(random_pmf(Dims(*other), seed=32, floor=0.005))
    hits = kernels._plan.cache_info().hits
    warm = [bits(k) for k in every_kernel(random_pmf(Dims(*dims), seed=31, floor=0.005))]
    assert kernels._plan.cache_info().hits - hits == len(cold)  # every warm build read its plan
    assert warm == cold


@pytest.mark.parametrize("fault", list(test_mutation_gate.FAULTS))
def test_a_warm_plan_masks_no_fault(monkeypatch, fault):
    # plans built by clean analyses on the dims the gate's own pmfs have
    for dims, seed in (((3, 2, 3), 1601), ((3, 2, 2), 7)):
        analyze(random_pmf(Dims(*dims), seed=seed, floor=0.005), nmax=20)
    hits = kernels._plan.cache_info().hits
    test_mutation_gate.FAULTS[fault](monkeypatch)
    caught = [name for name, failed in test_mutation_gate.CHECKS.items() if failed()]
    assert caught, f"{fault} survives every check on a warm plan cache"
    assert kernels._plan.cache_info().hits > hits
