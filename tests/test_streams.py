"""Tests for keyed random substreams."""

import re

import numpy as np
import pytest

from blockgibbs import KeyedStream, StreamKey
from blockgibbs.streams import BLOCK


def fresh_block(seed, block, code):
    """A block's generator built from scratch, as the key layout defines it."""
    key = np.array([seed, block << 16 | code], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    # an iteration that is not an integer is refused, naming it, not
    # truncated or left to fail inside a draw
    for iteration in (1.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match=rf"iteration must be an integer, got {re.escape(repr(iteration))}"):
            StreamKey(iteration, "mu")
    assert StreamKey(np.int64(3), "mu") == StreamKey(3, "mu")


def test_same_key_same_value_across_stream_objects():
    a = KeyedStream(99).normal(StreamKey(5, "mu"), np.empty(3))
    b = KeyedStream(99).normal(StreamKey(5, "mu"), np.empty(3))
    np.testing.assert_array_equal(a, b)
    # a variate depends on its iteration, not on where a draw starts
    c = KeyedStream(99).normal(StreamKey(6, "mu"), np.empty(2))
    np.testing.assert_array_equal(a[1:], c)


def test_different_keys_and_seeds_differ():
    s = KeyedStream(0)
    base = s.normal(StreamKey(1, "A"), np.empty(1))[0]
    assert s.normal(StreamKey(2, "A"), np.empty(1))[0] != base
    assert s.normal(StreamKey(1, "mu"), np.empty(1))[0] != base
    assert s.normal(StreamKey(1 + BLOCK, "A"), np.empty(1))[0] != base  # the next block
    assert KeyedStream(1).normal(StreamKey(1, "A"), np.empty(1))[0] != base


def test_draws_follow_the_key_layout():
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
    # the next iteration is fine, though an earlier draw read its block
    s.normal(StreamKey(5, "mu"), np.empty(1))
    assert s.consumed == {"mu": 5}


def test_a_failed_draw_consumes_no_keys():
    # numpy refuses a float32 or a non-contiguous ``out``; the keys stay
    # unused, so the corrected retry reads them
    s = KeyedStream(0)
    with pytest.raises(TypeError):
        s.normal(StreamKey(1, "mu"), np.empty(3, np.float32))
    with pytest.raises(ValueError, match="contiguous"):
        s.normal(StreamKey(1, "mu"), np.empty((3, 4))[:, ::2])
    assert s.consumed == {}
    np.testing.assert_array_equal(
        s.normal(StreamKey(1, "mu"), np.empty(3)),
        KeyedStream(0).normal(StreamKey(1, "mu"), np.empty(3)),
    )
    assert s.consumed == {"mu": 3}


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


def test_seed_must_fit_the_philox_key_word():
    # a seed outside [0, 2**64) is refused, not wrapped onto another seed
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            KeyedStream(seed)
    KeyedStream((1 << 64) - 1)  # the largest seed is accepted
    # nor is a seed that is not an integer rounded onto another seed
    for seed in (2.7, 7.0, True, "7", None):
        with pytest.raises(ValueError, match=rf"seed must be an integer, got {re.escape(repr(seed))}"):
            KeyedStream(seed)
    assert KeyedStream(np.uint64(7)).seed == 7


def test_key_words_keep_all_64_bits():
    # seeds at or above 2**63 and blocks whose word reaches bit 63 keep
    # every bit of the key, so no two keys share a stream
    draws = {}
    for seed in (5, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, (1 << 64) - 1):
        for step, code in (("A", 0), ("mu", 1), ("theta", 2)):
            for iteration in (1, 1 << 57):
                got = KeyedStream(seed).normal(StreamKey(iteration, step), np.empty(2))
                block, row = divmod(iteration, BLOCK)
                want = fresh_block(seed, block, code).standard_normal(BLOCK)[row : row + 2]
                np.testing.assert_array_equal(got, want)
                draws[seed, step, iteration] = got.tobytes()
    assert len(set(draws.values())) == len(draws)


def test_gamma_validates_shape():
    with pytest.raises(ValueError):
        KeyedStream(0).gamma(StreamKey(1, "A"), 0.0, np.empty(1))
    with pytest.raises(ValueError, match="cannot draw 0 rows"):
        KeyedStream(0).gamma(StreamKey(1, "A"), 1.0, np.empty(0))
