"""The blocked in-place Adam update against the whole-buffer expressions it replaced."""

import numpy as np
import pytest

from engpred.autodiff import Tensor
from engpred.errors import NumericError
from engpred.optim import ADAM_BLOCK, AdamState, FlatParams, adam_step


def _whole_buffer_adam_step(params, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The flat update before it was blocked: one temporary per operation, kept as an oracle."""
    g = params.grad
    state.t += 1
    bias1 = 1.0 - beta1**state.t
    bias2 = 1.0 - beta2**state.t
    m, v = state.m_flat, state.v_flat
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    update = lr * (m / bias1) / (np.sqrt(v / bias2) + eps)
    np.subtract(params.data, update, out=params.data)


def _pair(size, seed):
    data = np.random.default_rng(seed).normal(size=size)
    blocked, whole = FlatParams({"w": Tensor(data.copy())}), FlatParams({"w": Tensor(data.copy())})
    return (blocked, AdamState(blocked)), (whole, AdamState(whole))


@pytest.mark.parametrize("size", [1, ADAM_BLOCK - 1, ADAM_BLOCK, ADAM_BLOCK + 1, 91_522])
def test_twenty_steps_bit_equal(size):
    (params, state), (ref_params, ref_state) = _pair(size, seed=size)
    rng = np.random.default_rng(size + 1)
    for step in range(20):
        # Gradients over eight decades, with signed zeros and a varying rate.
        g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=size)
        g[rng.random(size) < 0.05] = -0.0
        params.grad[:] = ref_params.grad[:] = g
        lr = 1e-3 * (1.0 + np.cos(np.pi * step / 20))
        adam_step(params, state, lr=lr)
        _whole_buffer_adam_step(ref_params, ref_state, lr=lr)
        assert state.t == ref_state.t == step + 1
        assert params.data.tobytes() == ref_params.data.tobytes(), step
        assert state.m_flat.tobytes() == ref_state.m_flat.tobytes(), step
        assert state.v_flat.tobytes() == ref_state.v_flat.tobytes(), step


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bad_gradient_in_the_last_block_changes_nothing(bad):
    (params, state), _ = _pair(ADAM_BLOCK + 1, seed=3)
    params.grad[:] = 0.5
    adam_step(params, state, lr=1e-3)
    before = params.data.tobytes(), state.m_flat.tobytes(), state.v_flat.tobytes()
    params.grad[-1] = bad
    with pytest.raises(NumericError, match="non-finite gradient for 'w'"):
        adam_step(params, state, lr=1e-3)
    assert (params.data.tobytes(), state.m_flat.tobytes(), state.v_flat.tobytes()) == before
    assert state.t == 1
