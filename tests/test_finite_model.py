"""Tests for the pmf type, marginals/conditionals, pi_star, and tv.

Derived expectations are computed by independent oracles (nested-loop
summation, exhaustive indicator enumeration) rather than by the code paths
under test.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgibbs import (
    AXES,
    Dims,
    JointPmf3,
    conditional,
    finite_model,
    marginal,
    pi_star,
    product_pmf,
    random_pmf,
    tv,
)


def tv_by_indicator_enumeration(p: np.ndarray, q: np.ndarray) -> float:
    """Sup over all 2^cells indicator functions of |E_p f - E_q f|."""
    diff = (p - q).ravel()
    n = diff.size
    masks = np.arange(1 << n)
    bits = (masks[:, None] >> np.arange(n)) & 1
    return float(np.abs(bits @ diff).max())


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------
def test_dims_validation():
    with pytest.raises(ValueError):
        Dims(0, 2, 2)
    # a bool is an int to isinstance, but not a size
    for bad in ((True, 2, 2), (2, False, 2), (2, 2, np.True_), (2.0, 2, 2)):
        with pytest.raises(ValueError, match="must be a positive integer"):
            Dims(*bad)
    assert Dims(np.int64(2), 2, 2).shape == (2, 2, 2)
    # the cap is on each pair's cells, not on the states
    Dims(20, 20, 20)  # 8,000 states, pairs of 400 cells
    Dims(64, 64, 64)  # 262,144 states, pairs of 4,096 cells
    with pytest.raises(ValueError, match=r"^nx \* ny = 4160 pair cells exceed the cap of 4096$"):
        Dims(65, 64, 1)  # 4,160 states


def test_pmf_rejects_negative_and_bad_mass():
    with pytest.raises(ValueError):
        JointPmf3(Dims(2, 1, 1), np.array([[[1.2]], [[-0.2]]]))
    with pytest.raises(ValueError):
        JointPmf3(Dims(2, 1, 1), np.array([[[0.6]], [[0.6]]]))  # mass 1.2
    with pytest.raises(ValueError, match=r"^tensor shape \(2, 2, 1\) does not match dims \(2, 1, 1\)$"):
        JointPmf3(Dims(2, 1, 1), np.full((2, 2, 1), 0.25))
    # a NaN mass sum passes both drift checks, so finiteness is checked first
    for bad, index in ((np.nan, 0), (np.inf, 2), (-np.inf, 3)):
        p = np.full((2, 2, 1), 0.25)
        p.flat[index] = bad
        with pytest.raises(ValueError, match=f"must be finite; flat index {index} is"):
            JointPmf3(Dims(2, 2, 1), p)


def test_pmf_renormalizes_small_drift_with_warning():
    p = np.full((2, 2, 1), 0.25)
    p[0, 0, 0] += 1e-9
    with pytest.warns(UserWarning, match="renormalizing"):
        pmf = JointPmf3(Dims(2, 2, 1), p)
    assert abs(pmf.p.sum() - 1.0) < 1e-15


def test_pmf_is_read_only(pmf_322):
    with pytest.raises(ValueError):
        pmf_322.p[0, 0, 0] = 0.5


def test_json_round_trip_uses_x_major_flattening(pmf_322):
    doc = pmf_322.to_json_dict()
    nx, ny, nz = pmf_322.dims.shape
    for x, y, z in itertools.product(range(nx), range(ny), range(nz)):
        assert doc["p"][(x * ny + y) * nz + z] == pmf_322.p[x, y, z]
    back = JointPmf3.from_json_dict(json.loads(json.dumps(doc)))
    np.testing.assert_array_equal(back.p, pmf_322.p)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"p": [1.0]}, "missing field 'dims'"),
        ({"dims": [1, 1, 1]}, "missing field 'p'"),
        ({"dims": 3, "p": [1.0]}, "dims must be a list of three sizes, got 3"),
        ({"dims": [2, 1], "p": [0.5, 0.5]}, r"dims must be a list of three sizes, got \[2, 1\]"),
        ({"dims": [2.5, 1, 1], "p": [0.5, 0.5]}, r"dims must be whole numbers, got \[2.5, 1, 1\]"),
        ({"dims": [2, 1, 1], "p": [0.5, 0.25, 0.25]}, "p must be a list of 2 numbers: cannot reshape"),
        ({"dims": [2, 1, 1], "p": {"x": 1.0}}, "p must be a list of 2 numbers: "),
        ([2, 1, 1], "a pmf must be an object with fields dims and p, got list"),
    ],
)
def test_json_document_errors_name_the_field(doc, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        JointPmf3.from_json_dict(doc)


# ---------------------------------------------------------------------------
# marginal
# ---------------------------------------------------------------------------
def test_marginal_uniform():
    pmf = JointPmf3(Dims(2, 2, 2), np.full((2, 2, 2), 0.125))
    np.testing.assert_allclose(marginal(pmf, ("X",)), [0.5, 0.5])
    assert not marginal(pmf, ("X",)).flags.writeable


def test_marginal_of_product_factorizes():
    px, py, pz = [0.3, 0.7], [0.6, 0.4], [0.25, 0.75]
    pmf = product_pmf(px, py, pz)
    np.testing.assert_allclose(
        marginal(pmf, ("X", "Y")), np.outer(px, py), atol=1e-15
    )


def test_marginal_matches_nested_loop_oracle(pmf_322):
    nx, ny, nz = pmf_322.dims.shape
    want = np.zeros(nz)
    for z in range(nz):
        acc = 0.0
        for x in range(nx):
            for y in range(ny):
                acc += pmf_322.p[x, y, z]
        want[z] = acc
    np.testing.assert_allclose(marginal(pmf_322, ("Z",)), want, atol=1e-15)


def test_marginal_empty_subset_rejected(pmf_322):
    with pytest.raises(ValueError):
        marginal(pmf_322, ())


# ---------------------------------------------------------------------------
# conditional
# ---------------------------------------------------------------------------
def test_conditional_of_product_is_factor(product_222):
    table = conditional(product_222, ("X",), ("Y", "Z"))  # (y, z, x)
    for y, z in itertools.product(range(2), range(2)):
        np.testing.assert_allclose(table[y, z], [0.3, 0.7], atol=1e-15)


def test_conditional_built_once_per_pmf(pmf_322, anti_pmf):
    first = conditional(pmf_322, ("Y", "X"), ("Z",))
    assert conditional(pmf_322, ("X", "Y"), ("Z",)) is first  # label order is canonical
    assert not first.flags.writeable
    assert conditional(pmf_322, ("Z",), ("X", "Y")) is not first
    other = conditional(anti_pmf, ("X", "Y"), ("Z",))
    assert other is not first and other.shape == (1, 2, 2)


def test_a_conditional_hit_is_one_table_for_every_spelling(monkeypatch, pmf_322):
    # strings, tuples, lists and permuted labels all name one read-only
    # table, cold or warm; a repeated hashable spelling reads no label
    first = conditional(pmf_322, ("X", "Z"), ("Y",))
    spellings = [("XZ", "Y"), (("Z", "X"), ("Y",)), (["X", "Z"], ["Y"]), ("ZX", ["Y"]), ({"X", "Z"}, "Y")]
    for _ in range(2):
        for target, given in spellings:
            assert conditional(pmf_322, target, given) is first
    assert not first.flags.writeable
    canonicalised = []
    monkeypatch.setattr(finite_model, "_axis_indices", lambda labels: canonicalised.append(labels))
    for target, given in [("XZ", "Y"), (("Z", "X"), ("Y",))]:
        assert conditional(pmf_322, target, given) is first
    assert canonicalised == []


def zero_cell_pmf() -> JointPmf3:
    p = np.zeros((2, 2, 1))
    p[:, 0, 0] = 0.5  # Y = 1 has zero probability
    return JointPmf3(Dims(2, 2, 1), p)


@pytest.mark.parametrize("target,given", [
    (("W",), ("Z",)),  # an unknown label
    ((), ("Z",)),  # an empty set
    ("X", ""),
    (("X",), ("X", "Z")),  # target and given overlap
    ("Y", "YZ"),
    (["X"], ["Y"]),  # on zero_cell_pmf: the cell Y=1 has no mass
    ("X", "Y"),
])
def test_a_bad_conditional_request_raises_alike_cold_and_warm(target, given):
    errors = []
    for warm in (False, True, True):
        pmf = zero_cell_pmf()
        if warm:  # tables built, and this request refused once
            for t, g in [("X", "Z"), ("Y", "XZ"), ("YZ", "X")]:
                conditional(pmf, t, g)
            with pytest.raises(ValueError):
                conditional(pmf, target, given)
        with pytest.raises(ValueError) as excinfo:
            conditional(pmf, target, given)
        errors.append(str(excinfo.value))
    assert errors == [errors[0]] * 3


def test_conditional_row_normalization(anti_pmf):
    # P(Y | X=0, Z=0) = (0.4, 0.1) / 0.5 = (0.8, 0.2)
    table = conditional(anti_pmf, ("Y",), ("X", "Z"))  # (x, z, y)
    np.testing.assert_allclose(table[0, 0], [0.8, 0.2], atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "target,given",
    [(("X",), ("Y", "Z")), (("X", "Y"), ("Z",)), (("Z",), ("X",)), (("Y",), ("X",))],
)
def test_chain_rule_reconstruction(seed, target, given):
    pmf = random_pmf(Dims(3, 3, 2), seed=seed, floor=0.001)
    cond = conditional(pmf, target, given)
    m_given = marginal(pmf, given)
    joint = cond * m_given.reshape(m_given.shape + (1,) * len(target))
    # reorder (given..., target...) back to canonical order of the union
    union = sorted(target + given, key=AXES.index)
    perm = [(given + target).index(lab) for lab in union]
    np.testing.assert_allclose(
        np.transpose(joint, perm), marginal(pmf, union), atol=1e-14
    )


def test_conditional_zero_cell_named():
    with pytest.raises(ValueError, match=r"Y=1"):
        conditional(zero_cell_pmf(), ("X",), ("Y",))


def test_conditional_overlap_rejected(pmf_322):
    with pytest.raises(ValueError):
        conditional(pmf_322, ("X",), ("X", "Z"))


# ---------------------------------------------------------------------------
# pi_star
# ---------------------------------------------------------------------------
def test_pi_star_fixes_product(product_222):
    np.testing.assert_allclose(pi_star(product_222).p, product_222.p, atol=1e-15)


def test_pi_star_anti_example_is_uniform(anti_pmf):
    # P(X|Z) = P(X) = (.5, .5) and P(Y,Z) = P(Y) = (.5, .5), so every cell
    # carries 0.25
    np.testing.assert_allclose(pi_star(anti_pmf).p, 0.25, atol=1e-15)
    assert abs(tv(pi_star(anti_pmf).p, anti_pmf.p) - 0.3) < 1e-15


def test_pi_star_preserves_all_but_xy_marginal():
    pmf = random_pmf(Dims(3, 3, 3), seed=5, floor=0.003)
    star = pi_star(pmf)
    for subset in [("X",), ("Y",), ("Z",), ("X", "Z"), ("Y", "Z")]:
        np.testing.assert_allclose(
            marginal(star, subset), marginal(pmf, subset), atol=1e-14
        )
    assert tv(marginal(star, ("X", "Y")), marginal(pmf, ("X", "Y"))) > 1e-6


# ---------------------------------------------------------------------------
# random_pmf / product_pmf
# ---------------------------------------------------------------------------
def test_random_pmf_deterministic_and_floored():
    a = random_pmf(Dims(2, 2, 2), seed=3, floor=0.01)
    b = random_pmf(Dims(2, 2, 2), seed=3, floor=0.01)
    np.testing.assert_array_equal(a.p, b.p)
    assert a.p.min() >= 0.01


def test_random_pmf_seeds_differ():
    a = random_pmf(Dims(2, 2, 2), seed=0, floor=0.01)
    b = random_pmf(Dims(2, 2, 2), seed=1, floor=0.01)
    assert np.abs(a.p - b.p).max() > 1e-6


@pytest.mark.parametrize("floor", [0.0, -0.1, 0.125, 0.2])
def test_random_pmf_floor_range(floor):
    with pytest.raises(ValueError):
        random_pmf(Dims(2, 2, 2), seed=0, floor=floor)


def test_product_pmf_basics():
    pmf = product_pmf([0.5, 0.5], [1.0], [1.0])
    np.testing.assert_allclose(pmf.p.ravel(), [0.5, 0.5])
    with pytest.raises(ValueError):
        product_pmf([0.5, 0.6], [1.0], [1.0])
    with pytest.raises(ValueError, match="^py must be a 1-D probability vector$"):
        product_pmf([0.5, 0.5], [[1.0]], [1.0])  # normalized, but 2-D


def test_product_pmf_marginals_recover_factors(product_222):
    np.testing.assert_allclose(marginal(product_222, ("Y",)), [0.6, 0.4], atol=1e-15)
    np.testing.assert_allclose(marginal(product_222, ("Z",)), [0.25, 0.75], atol=1e-15)


# ---------------------------------------------------------------------------
# tv
# ---------------------------------------------------------------------------
def test_tv_basic_values():
    p = np.array([0.5, 0.5])
    assert tv(p, p) == 0.0
    assert tv(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert tv(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == 0.5
    with pytest.raises(ValueError):
        tv(np.zeros(2), np.zeros(3))


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 2)])
def test_tv_equals_indicator_supremum(shape):
    rng = np.random.default_rng(11)
    p = rng.random(shape)
    p /= p.sum()
    q = rng.random(shape)
    q /= q.sum()
    assert abs(tv(p, q) - tv_by_indicator_enumeration(p, q)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
def test_tv_is_a_metric(seed_p, seed_q, seed_r):
    vecs = []
    for seed in (seed_p, seed_q, seed_r):
        v = np.random.default_rng(seed).random(6)
        vecs.append(v / v.sum())
    p, q, r = vecs
    assert tv(p, q) == pytest.approx(tv(q, p))
    assert 0.0 <= tv(p, q) <= 1.0
    assert tv(p, r) <= tv(p, q) + tv(q, r) + 1e-15
