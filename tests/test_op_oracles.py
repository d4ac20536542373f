"""``attention`` and ``layer_norm_rows`` against reference implementations, byte for byte.

The references below are the plain expressions these ops were first written
with: every step allocates a fresh array. The ops finish their own buffers
in place instead, in the same order, so their values and every input
gradient must equal the references' bytes, on ragged packed segments and at
both the desk width (32) and the paper width (256). Neither op may write its
inputs or the upstream gradient.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engpred import autodiff as ad
from engpred.autodiff import Tape, Tensor
from engpred.model import _bounds


def reference_attention(q, k, v, q_bounds, k_bounds, g):
    """Value and (gq, gk, gv) for upstream gradient g, as first written."""
    c = 1.0 / math.sqrt(q.shape[1])
    value = np.empty((q.shape[0], v.shape[1]))
    probs = []
    for (a, b), (lo, hi) in zip(q_bounds, k_bounds):
        scores = (q[a:b] @ k[lo:hi].T) * c
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        probs.append(p)
        value[a:b] = p @ v[lo:hi]
    gq, gk, gv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for (a, b), (lo, hi), p in zip(q_bounds, k_bounds, probs):
        gv[lo:hi] += p.T @ g[a:b]
        dp = g[a:b] @ v[lo:hi].T
        ds = (dp - (dp * p).sum(axis=1, keepdims=True)) * p * c
        gq[a:b] += ds @ k[lo:hi]
        gk[lo:hi] += ds.T @ q[a:b]
    return value, (gq, gk, gv)


def reference_layer_norm(x, gain, bias, g, eps=1e-12):
    """Value and (gx, ggain, gbias) for upstream gradient g, as first written (no affine: gx only)."""
    mu = x.mean(axis=1, keepdims=True)
    centered = x - mu
    var = (centered**2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    value = centered * inv
    out = value
    grads = []
    if gain is not None:
        out = value * gain[np.newaxis, :]
        out += bias
        grads = [(g * value).sum(axis=0), g.sum(axis=0)]
        g = g * gain[np.newaxis, :]
    g_mean = g.mean(axis=1, keepdims=True)
    gy_mean = (g * value).mean(axis=1, keepdims=True)
    return out, tuple([inv * (g - g_mean - value * gy_mean)] + grads)


def _op_and_grads(build, leaves, g):
    """The op's value and its leaves' gradients for upstream gradient g, checking nothing is written."""
    before = [t.data.tobytes() for t in leaves] + [g.tobytes()]
    with Tape() as tape:
        out = build()
    ((recorded, backward),) = tape._ops
    assert recorded is out
    backward(g)
    assert [t.data.tobytes() for t in leaves] + [g.tobytes()] == before
    return out.data, tuple(t.grad for t in leaves)


def _same_bytes(got, want):
    value, grads = got
    ref_value, ref_grads = want
    assert value.tobytes() == ref_value.tobytes()
    assert len(grads) == len(ref_grads)
    for i, (a, b) in enumerate(zip(grads, ref_grads)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f"gradient {i}"


# (query segment lengths, key bounds, key rows): self-attention tiles; the
# others overlap, skip rows or reuse one key row.
ATTENTION_CASES = {
    "self_ragged": ([1, 4, 2, 7, 1], None, None),
    "single_rows": ([1, 1, 1], None, None),
    "keys_overlap": ([3, 1, 5], [(0, 4), (2, 6), (1, 2)], 6),
    "keys_skip_rows": ([2, 6, 1, 3], [(1, 3), (5, 9), (9, 10), (3, 4)], 12),
    "one_segment": ([9], [(0, 9)], 9),
}


class TestAttentionOracle:
    @pytest.mark.parametrize("d", [32, 256])
    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_value_and_gradients_match_reference_bytes(self, case, d):
        lengths, k_bounds, n_keys = ATTENTION_CASES[case]
        q_bounds = _bounds(lengths)
        if k_bounds is None:
            k_bounds, n_keys = q_bounds, sum(lengths)
        rng = np.random.default_rng([d, len(case)])
        q = rng.normal(size=(sum(lengths), d))
        k, v = rng.normal(size=(n_keys, d)), rng.normal(size=(n_keys, d))
        g = rng.normal(size=(sum(lengths), d))
        leaves = [Tensor(q), Tensor(k), Tensor(v)]
        got = _op_and_grads(lambda: ad.attention(*leaves, q_bounds, k_bounds), leaves, g)
        _same_bytes(got, reference_attention(q, k, v, q_bounds, k_bounds, g))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(1, 6), min_size=1, max_size=5),
        key_spans=st.lists(st.tuples(st.integers(0, 7), st.integers(1, 4)), min_size=5, max_size=5),
        d=st.sampled_from([1, 3, 32]),
    )
    def test_arbitrary_segments_match_reference_bytes(self, seed, lengths, key_spans, d):
        q_bounds = _bounds(lengths)
        k_bounds = [(lo, lo + n) for lo, n in key_spans[: len(lengths)]]
        n_keys = max(hi for _, hi in k_bounds)
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(sum(lengths), d))
        k, v = rng.normal(size=(n_keys, d)), rng.normal(size=(n_keys, d))
        g = rng.normal(size=(sum(lengths), d))
        leaves = [Tensor(q), Tensor(k), Tensor(v)]
        got = _op_and_grads(lambda: ad.attention(*leaves, q_bounds, k_bounds), leaves, g)
        _same_bytes(got, reference_attention(q, k, v, q_bounds, k_bounds, g))


class TestLayerNormOracle:
    @pytest.mark.parametrize("d", [32, 256])
    @pytest.mark.parametrize("rows", [1, 7, 270])
    @pytest.mark.parametrize("affine", [False, True], ids=["plain", "affine"])
    def test_value_and_gradients_match_reference_bytes(self, affine, rows, d):
        rng = np.random.default_rng([rows, d, affine])
        x = rng.normal(size=(rows, d)) * rng.uniform(0.1, 10.0, size=(rows, 1))
        x[0] = 2.5  # a constant row normalizes to exact zeros
        gain = rng.normal(size=d) if affine else None
        bias = rng.normal(size=d) if affine else None
        g = rng.normal(size=(rows, d))
        leaves = [Tensor(x)] + ([Tensor(gain), Tensor(bias)] if affine else [])
        got = _op_and_grads(lambda: ad.layer_norm_rows(*leaves), leaves, g)
        _same_bytes(got, reference_layer_norm(x, gain, bias, g))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 9), st.integers(1, 40)),
        affine=st.booleans(),
        scale=st.sampled_from([1e-150, 1e-6, 1.0, 1e6, 1e150]),
    )
    def test_arbitrary_rows_match_reference_bytes(self, seed, shape, affine, scale):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape) * scale
        gain = rng.normal(size=shape[1]) if affine else None
        bias = rng.normal(size=shape[1]) if affine else None
        g = rng.normal(size=shape)
        leaves = [Tensor(x)] + ([Tensor(gain), Tensor(bias)] if affine else [])
        got = _op_and_grads(lambda: ad.layer_norm_rows(*leaves), leaves, g)
        _same_bytes(got, reference_layer_norm(x, gain, bias, g))
