"""Tests for keyed random substreams."""

import numpy as np
import pytest

from blockgibbs import KeyedStream, StreamKey


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
    a = KeyedStream(99).normal(StreamKey(5, "mu"))
    b = KeyedStream(99).normal(StreamKey(5, "mu"))
    assert a == b


def test_different_keys_and_seeds_differ():
    s = KeyedStream(0, audit=False)
    base = s.normal(StreamKey(1, "A"))
    assert s.normal(StreamKey(2, "A")) != base
    assert s.normal(StreamKey(1, "mu")) != base
    assert KeyedStream(1).normal(StreamKey(1, "A")) != base


def test_state_reset_equals_fresh_generator():
    # the reused-generator fast path must reproduce a per-key generator
    key = StreamKey(7, "theta")
    fast = KeyedStream(42).gamma(key, 2.5)
    philox_key = np.array([42, (7 << 16) | key.code()], dtype=np.uint64)
    fresh = np.random.Generator(np.random.Philox(key=philox_key)).standard_gamma(2.5)
    assert fast == fresh
    # a vector normal draw is the key's first size standard normals
    vec = KeyedStream(42).normal(key, size=5)
    z = np.random.Generator(np.random.Philox(key=philox_key)).standard_normal(5)
    np.testing.assert_array_equal(vec, z)


def test_audit_rejects_key_reuse():
    s = KeyedStream(0)
    s.normal(StreamKey(1, "mu"))
    with pytest.raises(ValueError, match="already consumed"):
        s.normal(StreamKey(1, "mu"))
    # a separate draw is still fine
    s.normal(StreamKey(2, "mu"))


def test_audit_rejects_a_lower_iteration():
    s = KeyedStream(0)
    s.normal(StreamKey(5, "mu"))
    with pytest.raises(ValueError, match="out of order"):
        s.normal(StreamKey(3, "mu"))
    # each label keeps its own mark
    s.gamma(StreamKey(1, "A"), 2.0)
    s.normal(StreamKey(1, "theta"), size=3)
    assert s.consumed == {"mu": 5, "A": 1, "theta": 1}


def test_audit_can_be_disabled():
    s = KeyedStream(0, audit=False)
    a = s.normal(StreamKey(1, "mu"))
    assert s.normal(StreamKey(1, "mu")) == a
    assert s.consumed is None


def test_seed_must_fit_the_philox_key_word():
    # a seed outside [0, 2**64) is refused, not wrapped onto another seed
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            KeyedStream(seed)
    KeyedStream((1 << 64) - 1)  # the largest seed is accepted


def test_gamma_validates_shape():
    with pytest.raises(ValueError):
        KeyedStream(0).gamma(StreamKey(1, "A"), 0.0)
