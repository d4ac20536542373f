"""Adam update arithmetic, the flat update against a per-tensor reference, and the cosine schedule."""

import numpy as np
import pytest

from engpred.autodiff import Tensor
from engpred.errors import NumericError
from engpred.model import ALL_KINDS, ModelConfig, init_params
from engpred.optim import AdamState, FlatParams, adam_step, cosine_lr


def _setup(values):
    params = FlatParams({"w": Tensor(np.asarray(values, dtype=np.float64))})
    return params, AdamState(params)


def _step(params, grad, state, **kwargs):
    """Accumulate ``grad`` into the zeroed gradient views, as backward does, then step."""
    params.grad.fill(0.0)
    for name, g in grad.items():
        params[name].grad += g
    adam_step(params, state, **kwargs)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params, state = _setup([1.0, -2.0, 3.0])
        before = params["w"].data.copy()
        # Second-moment history decays; with no first-moment signal the
        # update is exactly zero.
        state.v["w"][:] = 0.25
        _step(params, {"w": np.zeros(3)}, state, lr=1e-2)
        np.testing.assert_array_equal(params["w"].data, before)
        np.testing.assert_allclose(state.m["w"], 0.0)
        np.testing.assert_allclose(state.v["w"], 0.25 * 0.999)

    def test_first_step_from_zero_state(self):
        g = np.array([0.3, -2.0, 0.0001])
        lr, eps = 1e-3, 1e-8
        params, state = _setup([0.0, 0.0, 0.0])
        _step(params, {"w": g}, state, lr=lr, eps=eps)
        # After bias correction, m_hat = g and v_hat = g^2, so the update is
        # -lr * g / (|g| + eps) elementwise.
        expected = -lr * g / (np.abs(g) + eps)
        np.testing.assert_allclose(params["w"].data, expected, rtol=1e-12)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        g = np.array([0.7, -0.01])
        lr = 1e-3
        params, state = _setup([0.0, 0.0])
        prev = params["w"].data.copy()
        for _ in range(400):
            prev = params["w"].data.copy()
            _step(params, {"w": g}, state, lr=lr)
        step = params["w"].data - prev
        np.testing.assert_allclose(np.abs(step), lr, rtol=1e-3)
        assert np.all(np.sign(step) == -np.sign(g))

    def test_missing_grad_treated_as_zero(self):
        params, state = _setup([4.0])
        _step(params, {}, state, lr=1e-2)
        np.testing.assert_array_equal(params["w"].data, [4.0])

    def test_non_finite_gradient_rejected(self):
        params, state = _setup([1.0])
        with pytest.raises(NumericError):
            _step(params, {"w": np.array([np.inf])}, state, lr=1e-3)

    def test_lr_zero_is_identity(self):
        params, state = _setup([1.0, 2.0])
        before = params["w"].data.copy()
        _step(params, {"w": np.array([0.5, -0.5])}, state, lr=0.0)
        np.testing.assert_array_equal(params["w"].data, before)

    def test_state_counter_increments(self):
        params, state = _setup([1.0])
        for expected in (1, 2, 3):
            _step(params, {"w": np.array([0.1])}, state, lr=1e-3)
            assert state.t == expected


def _reference_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-tensor Adam loop that the flat update replaced, kept as an oracle."""
    state.t += 1
    bias1 = 1.0 - beta1**state.t
    bias2 = 1.0 - beta2**state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise NumericError(f"gradient shape mismatch for {name!r}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = lr * (m / bias1) / (np.sqrt(v / bias2) + eps)
        params[name] = Tensor(p.data - update)


class _ReferenceState:
    def __init__(self, params):
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.t = 0


class TestFlatAgainstPerTensor:
    CFG = ModelConfig(d_model=8, feature_dims={k: 4 for k in ALL_KINDS}, max_clips=6)
    NO_GRAD = "head_nawp.1.w"

    def _grads(self, rng, params):
        # Signed zeros too: added to the zeroed buffer they arrive as +0.0,
        # which must leave m and v as the reference's -0.0 does.
        grads = {}
        for name, p in params.items():
            if name != self.NO_GRAD:
                g = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=p.data.shape)
                g[rng.random(g.shape) < 0.05] = -0.0
                grads[name] = g
        return grads

    def test_thirty_steps_bit_equal(self):
        ref_params = init_params(self.CFG, seed=4)
        ref_state = _ReferenceState(ref_params)
        params = FlatParams(init_params(self.CFG, seed=4))
        state = AdamState(params)
        rng = np.random.default_rng(11)
        for step in range(30):
            grads = self._grads(rng, params)
            lr = 1e-3 * (1.0 + np.cos(np.pi * step / 30))
            _reference_adam_step(ref_params, grads, ref_state, lr)
            _step(params, grads, state, lr=lr)
        assert state.t == ref_state.t == 30
        assert list(params) == list(ref_params)
        for name in ref_params:
            assert params[name].data.tobytes() == ref_params[name].data.tobytes(), name
            assert state.m[name].tobytes() == ref_state.m[name].tobytes(), name
            assert state.v[name].tobytes() == ref_state.v[name].tobytes(), name
        assert np.any(params[self.NO_GRAD].data != 0.0)
        assert not np.any(state.m[self.NO_GRAD]) and not np.any(state.v[self.NO_GRAD])

    def test_views_share_the_buffers(self):
        params = FlatParams(init_params(self.CFG, seed=4))
        state = AdamState(params)
        assert params.data.size == sum(p.data.size for p in params.values())
        for name, p in params.items():
            assert np.shares_memory(p.data, params.data) and np.shares_memory(p.grad, params.grad)
            assert np.shares_memory(state.m[name], state.m_flat)
            assert np.shares_memory(state.v[name], state.v_flat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_names_the_parameter(self, bad):
        params = FlatParams(init_params(self.CFG, seed=4))
        state = AdamState(params)
        before = params.data.copy()
        params["temporal.1.attn.k.w"].grad[2, 3] = bad
        with pytest.raises(NumericError, match=r"non-finite gradient for 'temporal\.1\.attn\.k\.w'"):
            adam_step(params, state, lr=1e-3)
        assert params.data.tobytes() == before.tobytes()
        assert state.t == 0 and not np.any(state.m_flat)

    def test_non_finite_update_names_the_parameter(self):
        params, state = _setup([1.0, 2.0])
        with pytest.raises(NumericError, match="non-finite update for 'w'"):
            _step(params, {"w": np.array([0.5, -0.5])}, state, lr=np.inf)


class TestCosineLr:
    def test_endpoints(self):
        assert cosine_lr(0, 1000) == pytest.approx(1e-4)
        assert cosine_lr(1000, 1000) == pytest.approx(1e-7)

    def test_midpoint(self):
        assert cosine_lr(500, 1000) == pytest.approx((1e-4 + 1e-7) / 2)

    def test_custom_bounds(self):
        assert cosine_lr(0, 10, lr_max=0.5, lr_min=0.1) == pytest.approx(0.5)
        assert cosine_lr(10, 10, lr_max=0.5, lr_min=0.1) == pytest.approx(0.1)

    def test_monotone_decreasing(self):
        values = [cosine_lr(s, 100) for s in range(101)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cosine_lr(-1, 10)
        with pytest.raises(ValueError):
            cosine_lr(11, 10)
        with pytest.raises(ValueError):
            cosine_lr(0, 0)
