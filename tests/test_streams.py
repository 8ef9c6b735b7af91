"""Tests for keyed random substreams."""

import numpy as np
import pytest

from blockgibbs import KeyedStream, StreamKey
from blockgibbs.streams import BLOCK


def fresh_block(seed, block, code):
    """A block's generator built from scratch, as the key layout defines it."""
    return np.random.Generator(np.random.Philox(key=[seed, block << 16 | code]))


def test_stream_key_labels():
    # three labels per sweep: A, mu, and one vector draw for all of theta
    assert StreamKey(3, "A").code() == 0
    assert StreamKey(3, "mu").code() == 1
    assert StreamKey(3, "theta").code() == 2
    with pytest.raises(ValueError):
        StreamKey(3, "theta_1")
    with pytest.raises(ValueError):
        StreamKey(3, "sigma")
    with pytest.raises(ValueError):
        StreamKey(-1, "A")


def test_same_key_same_value_across_stream_objects():
    a = KeyedStream(99).normal(StreamKey(5, "mu"), np.empty(3))
    b = KeyedStream(99).normal(StreamKey(5, "mu"), np.empty(3))
    np.testing.assert_array_equal(a, b)
    # a variate depends on its iteration, not on where a draw starts
    c = KeyedStream(99).normal(StreamKey(6, "mu"), np.empty(2))
    np.testing.assert_array_equal(a[1:], c)


def test_different_keys_and_seeds_differ():
    s = KeyedStream(0, audit=False)
    base = s.normal(StreamKey(1, "A"), np.empty(1))[0]
    assert s.normal(StreamKey(2, "A"), np.empty(1))[0] != base
    assert s.normal(StreamKey(1, "mu"), np.empty(1))[0] != base
    assert s.normal(StreamKey(1 + BLOCK, "A"), np.empty(1))[0] != base  # the next block
    assert KeyedStream(1).normal(StreamKey(1, "A"), np.empty(1))[0] != base


def test_state_reset_equals_fresh_generator():
    # the reused-generator fast path must reproduce a generator per block:
    # iteration i reads row i % BLOCK of block i // BLOCK's bulk draw
    gamma = KeyedStream(42).gamma(StreamKey(7, "theta"), 2.5, np.empty(2 * BLOCK))
    reference = np.concatenate(
        [fresh_block(42, b, 2).standard_gamma(2.5, BLOCK) for b in range(3)]
    )
    np.testing.assert_array_equal(gamma, reference[7 : 7 + 2 * BLOCK])
    # a vector draw per iteration is a row of the block's (BLOCK, m) draw,
    # and a draw that ends inside a block reads a prefix of it
    vec = KeyedStream(42).normal(StreamKey(BLOCK - 2, "theta"), np.empty((5, 3)))
    np.testing.assert_array_equal(vec[:2], fresh_block(42, 0, 2).standard_normal((BLOCK, 3))[-2:])
    np.testing.assert_array_equal(vec[2:], fresh_block(42, 1, 2).standard_normal((BLOCK, 3))[:3])


def test_audit_rejects_key_reuse():
    s = KeyedStream(0)
    s.normal(StreamKey(1, "mu"), np.empty(4))
    with pytest.raises(ValueError, match="already consumed"):
        s.normal(StreamKey(1, "mu"), np.empty(1))
    with pytest.raises(ValueError, match="already consumed"):
        s.normal(StreamKey(4, "mu"), np.empty(1))  # the last iteration drawn
    # the next iteration is fine, though its block has been bound before
    s.normal(StreamKey(5, "mu"), np.empty(1))
    assert s.consumed == {"mu": 5}


def test_audit_rejects_a_lower_iteration():
    s = KeyedStream(0)
    s.normal(StreamKey(5, "mu"), np.empty(1))
    with pytest.raises(ValueError, match="out of order"):
        s.normal(StreamKey(3, "mu"), np.empty(1))
    # each label keeps its own mark, over iterations
    s.gamma(StreamKey(1, "A"), 2.0, np.empty(BLOCK + 10))
    s.normal(StreamKey(1, "theta"), np.empty((2, 3)))
    assert s.consumed == {"mu": 5, "A": BLOCK + 10, "theta": 2}
    with pytest.raises(ValueError, match="out of order"):
        s.gamma(StreamKey(BLOCK, "A"), 2.0, np.empty(1))


def test_audit_can_be_disabled():
    s = KeyedStream(0, audit=False)
    a = s.normal(StreamKey(1, "mu"), np.empty(2))
    np.testing.assert_array_equal(s.normal(StreamKey(1, "mu"), np.empty(2)), a)
    assert s.consumed is None


def test_seed_must_fit_the_philox_key_word():
    # a seed outside [0, 2**64) is refused, not wrapped onto another seed
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            KeyedStream(seed)
    KeyedStream((1 << 64) - 1)  # the largest seed is accepted


def test_gamma_validates_shape():
    with pytest.raises(ValueError):
        KeyedStream(0).gamma(StreamKey(1, "A"), 0.0, np.empty(1))
    with pytest.raises(ValueError, match="cannot draw 0 rows"):
        KeyedStream(0).gamma(StreamKey(1, "A"), 1.0, np.empty(0))
