"""Gradient correctness of every primitive against kink-aware central differences.

The reference derivative of a scalar ``build()`` with respect to one
coordinate is the central difference ``(f(x + h) - f(x - h)) / 2h``,
starting at ``h = 1e-5``. ``relu`` is the only non-smooth op, and a step
that carries a relu input across 0 gives a difference that is not the
derivative the tape computes. Every evaluation therefore records the input
mask (``x > 0``) of each ``autodiff.relu`` call, and the pre-activation mask
of each ``autodiff.linear(..., relu=True)`` call. When the masks at ``+h`` or
``-h`` differ from those of the unperturbed evaluation, ``h`` is divided by
10 for that coordinate and the pair is evaluated again. If the masks still
flip at the floor ``h = 1e-9``, the check fails and names the coordinate;
an invalid difference is never returned.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engpred import autodiff as ad
from engpred.autodiff import Tape, Tensor
from engpred.errors import NonFiniteError

FD_STEP = 1e-5
FD_FLOOR = 1e-9


def _relu_masks(build):
    """Evaluate the scalar build(), recording the input mask of every relu.

    That is every ``relu`` call and every ``linear`` call with ``relu=True``;
    the latter's pre-activation is computed as the op computes it.
    """
    relu, linear = ad.relu, ad.linear
    masks = []

    def recording_relu(x):
        masks.append(x.data > 0)
        return relu(x)

    def recording_linear(x, w, b, relu=False, residual=None, rows=None):
        if relu:
            pre = np.concatenate([x.data[start:stop] @ w.data for start, stop in rows or [(0, x.shape[0])]])
            pre += b.data
            masks.append(pre > 0)
        return linear(x, w, b, relu=relu, residual=residual, rows=rows)

    with mock.patch.object(ad, "relu", recording_relu), mock.patch.object(ad, "linear", recording_linear):
        value = float(build().data)
    return value, masks


def _same_masks(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class KinkAwareDifference:
    """Central differences of the scalar build() that never step across a relu kink.

    The relu masks of the unperturbed build() are recorded once, on
    construction: they hold for every coordinate, because each perturbation
    is undone before the next.
    """

    def __init__(self, build, h=FD_STEP):
        self.build = build
        self.steps = [h / 10**k for k in range(round(math.log10(h / FD_FLOOR)) + 1)]
        _, self.base_masks = _relu_masks(build)

    def derivative(self, flat, i, label):
        """d build() / d flat[i], where flat is a flat view of a tensor's data.

        Tries h, h/10, ... down to the floor and returns the first difference
        whose +h and -h relu masks both equal the base masks. Raises
        AssertionError naming `label` if every step crosses a kink.
        """
        orig = flat[i]
        try:
            for h in self.steps:
                flat[i] = orig + h
                f_plus, plus_masks = _relu_masks(self.build)
                flat[i] = orig - h
                f_minus, minus_masks = _relu_masks(self.build)
                if _same_masks(plus_masks, self.base_masks) and _same_masks(
                    minus_masks, self.base_masks
                ):
                    return (f_plus - f_minus) / (2 * h)
        finally:
            flat[i] = orig
        raise AssertionError(
            f"{label}: relu masks flip for every h down to {self.steps[-1]:g}"
        )


def numeric_gradient(build, tensor, h=FD_STEP, name="tensor"):
    """Kink-aware central differences of the scalar build() wrt one tensor.

    Each coordinate starts at step h and shrinks it tenfold while a relu
    mask flips, down to FD_FLOOR; exhausting the floor raises AssertionError
    naming ``name`` and the flat index (see the module docstring).
    """
    reference = KinkAwareDifference(build, h)
    flat = tensor.data.reshape(-1)
    grad = np.array([reference.derivative(flat, i, f"{name}[{i}]") for i in range(flat.size)])
    return grad.reshape(tensor.data.shape)


def check_gradients(build, tensors, rel_tol=1e-6):
    """Backprop build() once, compare each tensor's grad to the kink-aware FD oracle.

    The oracle is numeric_gradient: central differences from h = 1e-5, with h
    shrunk per coordinate while a relu mask flips and a failure if none
    holds down to 1e-9.
    """
    with Tape() as tape:
        loss = build()
    for t in tensors:
        t.grad = None  # discard residue from any earlier backward
    tape.backward(loss)
    for k, t in enumerate(tensors):
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        numeric = numeric_gradient(build, t, name=f"tensors[{k}]")
        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        rel = np.abs(analytic - numeric) / denom
        assert rel.max() < rel_tol, f"max rel err {rel.max():.3e}"


def _rand(rng, *shape, margin=0.0):
    x = rng.normal(size=shape)
    if margin:
        x = np.where(np.abs(x) < margin, x + np.sign(x + 1e-12) * margin, x)
    return x


SEEDS = range(20)


class TestPrimitiveGradients:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matmul(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(_rand(rng, 3, 4))
        b = Tensor(_rand(rng, 4, 2))
        target = _rand(rng, 3, 2)
        check_gradients(lambda: ad.squared_error(ad.matmul(a, b), target), [a, b])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_linear(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(_rand(rng, 5, 3))
        w = Tensor(_rand(rng, 3, 4))
        b = Tensor(_rand(rng, 4))
        target = _rand(rng, 5, 4)
        check_gradients(lambda: ad.squared_error(ad.linear(x, w, b), target), [x, w, b])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_self_attention_segments(self, seed):
        # Three unequal segments, one of a single row, keys = queries' rows.
        rng = np.random.default_rng(seed)
        bounds = [(0, 3), (3, 4), (4, 9)]
        q, k, v = (Tensor(_rand(rng, 9, 4)) for _ in range(3))
        target = _rand(rng, 9, 4)
        check_gradients(lambda: ad.squared_error(ad.attention(q, k, v, bounds, bounds), target), [q, k, v])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cross_attention_segments(self, seed):
        # Query and key rows split differently, as clips over text tokens.
        rng = np.random.default_rng(seed)
        q_bounds = [(0, 1), (1, 5), (5, 7)]
        k_bounds = [(0, 3), (3, 4), (4, 6)]
        q = Tensor(_rand(rng, 7, 3))
        k = Tensor(_rand(rng, 6, 3))
        v = Tensor(_rand(rng, 6, 2))
        target = _rand(rng, 7, 2)
        check_gradients(lambda: ad.squared_error(ad.attention(q, k, v, q_bounds, k_bounds), target), [q, k, v])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gather_rows(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(_rand(rng, 5, 3))
        index = [4, 0, 1, 0, 2, 1, 0]
        target = _rand(rng, 7, 3)
        check_gradients(lambda: ad.squared_error(ad.gather_rows(x, index), target), [x])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_segment_mean(self, seed):
        # Segments of unequal length, one of a single row, one overlapping.
        rng = np.random.default_rng(seed)
        x = Tensor(_rand(rng, 8, 2))
        bounds = [(0, 3), (3, 4), (4, 8), (4, 6)]
        target = _rand(rng, 4, 2)
        check_gradients(lambda: ad.squared_error(ad.segment_mean(x, bounds), target), [x])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_add_sub_mul(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(_rand(rng, 2, 5))
        b = Tensor(_rand(rng, 2, 5))
        c = Tensor(_rand(rng, 2, 5))
        target = _rand(rng, 2, 5)

        def build():
            return ad.squared_error(ad.mul(ad.sub(ad.add(a, b), c), b), target)

        check_gradients(build, [a, b, c])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scale(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(_rand(rng, 4, 3))
        target = _rand(rng, 4, 3)
        check_gradients(lambda: ad.squared_error(ad.scale(x, -1.7), target), [x])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rowvec_ops(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(_rand(rng, 4, 3))
        v = Tensor(_rand(rng, 3))
        w = Tensor(_rand(rng, 3))
        target = _rand(rng, 4, 3)

        def build():
            return ad.squared_error(ad.add_rowvec(ad.mul_rowvec(x, v), w), target)

        check_gradients(build, [x, v, w])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_transpose(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(_rand(rng, 3, 5))
        target = _rand(rng, 5, 3)
        check_gradients(lambda: ad.squared_error(ad.transpose(x), target), [x])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_concat(self, seed):
        rng = np.random.default_rng(seed)
        parts = [Tensor(_rand(rng, 3, k)) for k in (2, 1, 4)]
        target = _rand(rng, 3, 7)
        check_gradients(lambda: ad.squared_error(ad.concat(parts, axis=1), target), parts)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_concat_axis0(self, seed):
        rng = np.random.default_rng(seed)
        parts = [Tensor(_rand(rng, k, 3)) for k in (1, 2)]
        target = _rand(rng, 3, 3)
        check_gradients(lambda: ad.squared_error(ad.concat(parts, axis=0), target), parts)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_slice_rows(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(_rand(rng, 6, 3))
        target = _rand(rng, 3, 3)
        check_gradients(lambda: ad.squared_error(ad.slice_rows(x, 1, 4), target), [x])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_relu(self, seed):
        rng = np.random.default_rng(seed)
        # Keep inputs away from the kink so FD is well defined.
        x = Tensor(_rand(rng, 4, 4, margin=0.05))
        target = _rand(rng, 4, 4)
        check_gradients(lambda: ad.squared_error(ad.relu(x), target), [x])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sigmoid(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(_rand(rng, 3, 4))
        target = _rand(rng, 3, 4)
        check_gradients(lambda: ad.squared_error(ad.sigmoid(x), target), [x])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_softmax_rows(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(_rand(rng, 3, 5))
        target = _rand(rng, 3, 5)
        check_gradients(lambda: ad.squared_error(ad.softmax_rows(x), target), [x])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_layer_norm_rows(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(_rand(rng, 3, 6))
        target = _rand(rng, 3, 6)
        check_gradients(lambda: ad.squared_error(ad.layer_norm_rows(x), target), [x])

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("axis", [0, 1])
    def test_mean_axis(self, seed, axis):
        rng = np.random.default_rng(seed)
        x = Tensor(_rand(rng, 3, 4))
        target = _rand(rng, 4 if axis == 0 else 3)
        check_gradients(lambda: ad.squared_error(ad.mean_axis(x, axis), target), [x])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_squared_error(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(_rand(rng, 4, 2))
        target = _rand(rng, 4, 2)
        check_gradients(lambda: ad.squared_error(x, target), [x])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_composed_random_graph(self, seed):
        rng = np.random.default_rng(seed + 1000)
        a = Tensor(_rand(rng, 3, 4))
        b = Tensor(_rand(rng, 4, 4))
        v = Tensor(_rand(rng, 4))
        target = _rand(rng, 3)

        def build():
            h = ad.softmax_rows(ad.matmul(a, b))
            h = ad.layer_norm_rows(ad.add_rowvec(h, v))
            h = ad.sigmoid(ad.matmul(h, ad.relu(b)))
            return ad.squared_error(ad.mean_axis(h, 1), target)

        check_gradients(build, [a, b, v])

    def test_reused_tensor_accumulates(self):
        rng = np.random.default_rng(7)
        x = Tensor(_rand(rng, 3, 3))
        target = _rand(rng, 3, 3)
        check_gradients(lambda: ad.squared_error(ad.add(x, x), target), [x])


class TestKinkAwareDifference:
    @staticmethod
    def _relu_loss(x):
        return lambda: ad.squared_error(ad.relu(x), np.array([-1.0]))

    def test_shrinks_step_off_a_kink(self):
        x = Tensor(np.array([1e-7]))
        build = self._relu_loss(x)
        # Plain central differences at h = 1e-5 step across the kink at 0.
        x.data[0] = 1e-7 + FD_STEP
        f_plus = float(build().data)
        x.data[0] = 1e-7 - FD_STEP
        f_minus = float(build().data)
        x.data[0] = 1e-7
        assert (f_plus - f_minus) / (2 * FD_STEP) == pytest.approx(1.0, abs=0.02)

        grad = numeric_gradient(build, x, name="x")
        assert grad[0] == pytest.approx(2 * (1 + 1e-7), abs=1e-6)
        assert x.data[0] == 1e-7

    def test_kink_at_zero_raises(self):
        x = Tensor(np.array([0.0]))
        with pytest.raises(AssertionError, match=r"x\[0\]: relu masks flip"):
            numeric_gradient(self._relu_loss(x), x, name="x")
        assert x.data[0] == 0.0


class TestForwardIdentities:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.data, np.eye(3) @ a)

    def test_matmul_identity_gradient_is_ones(self):
        a = Tensor(np.random.default_rng(1).normal(size=(3, 3)))
        eye = Tensor(np.eye(3))
        with Tape() as tape:
            y = ad.matmul(eye, a)
            # sum(y) = 9 * mean over both axes
            loss = ad.scale(ad.mean_axis(ad.mean_axis(y, 0), 0), 9.0)
        tape.backward(loss)
        np.testing.assert_allclose(a.grad, np.ones((3, 3)), atol=1e-12)

    def test_softmax_constant_row_uniform(self):
        out = ad.softmax_rows(Tensor(np.full((2, 5), 3.7)))
        np.testing.assert_allclose(out.data, np.full((2, 5), 0.2), atol=1e-15)

    def test_softmax_constant_row_gradient_zero(self):
        x = Tensor(np.full((1, 4), 1.3))
        const = np.full((1, 4), 2.0)
        with Tape() as tape:
            s = ad.softmax_rows(x)
            loss = ad.squared_error(ad.mul(s, Tensor(const)), np.zeros((1, 4)))
        tape.backward(loss)
        # Jacobian-vector product of softmax at a constant row with a
        # constant vector vanishes by symmetry.
        np.testing.assert_allclose(x.grad, np.zeros((1, 4)), atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = ad.softmax_rows(Tensor(rng.normal(scale=10, size=(50, 7))))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(50), atol=1e-12)

    def test_layer_norm_moments(self):
        rng = np.random.default_rng(4)
        out = ad.layer_norm_rows(Tensor(rng.normal(size=(40, 16))))
        assert np.abs(out.data.mean(axis=1)).max() < 1e-10
        assert np.abs(out.data.var(axis=1) - 1.0).max() < 1e-8

    def test_sigmoid_extremes_stay_finite(self):
        out = ad.sigmoid(Tensor(np.array([[-1000.0, 0.0, 1000.0]])))
        np.testing.assert_allclose(out.data, [[0.0, 0.5, 1.0]], atol=1e-12)


class TestSegmentOps:
    def test_linear_equals_matmul_plus_bias(self):
        rng = np.random.default_rng(5)
        x, w, b = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(3, 2))), Tensor(rng.normal(size=2))
        out = ad.linear(x, w, b)
        assert out.data.tobytes() == ad.add_rowvec(ad.matmul(x, w), b).data.tobytes()

    def test_attention_single_segment_is_dense_attention(self):
        rng = np.random.default_rng(6)
        q, k, v = Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 2)))
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), 0.5)
        dense = ad.matmul(ad.softmax_rows(scores), v)
        out = ad.attention(q, k, v, [(0, 5)], [(0, 3)])
        np.testing.assert_allclose(out.data, dense.data, rtol=1e-14, atol=1e-15)

    def test_attention_has_no_cross_segment_terms(self):
        rng = np.random.default_rng(7)
        q, k, v = (rng.normal(size=(6, 3)) for _ in range(3))
        bounds = [(0, 2), (2, 6)]
        base = ad.attention(Tensor(q), Tensor(k), Tensor(v), bounds, bounds).data
        k2, v2 = k.copy(), v.copy()
        k2[2:] += 5.0
        v2[2:] -= 3.0
        moved = ad.attention(Tensor(q), Tensor(k2), Tensor(v2), bounds, bounds).data
        assert moved[:2].tobytes() == base[:2].tobytes()
        assert not np.allclose(moved[2:], base[2:])

    def test_segment_mean_values(self):
        x = Tensor(np.arange(12.0).reshape(6, 2))
        out = ad.segment_mean(x, [(0, 1), (1, 6), (2, 4)])
        np.testing.assert_array_equal(out.data, [[0.0, 1.0], [6.0, 7.0], [5.0, 6.0]])

    @pytest.mark.parametrize(
        "q_bounds, k_bounds",
        [
            ([(0, 2)], [(0, 2)]),  # query rows 2.. belong to no segment
            ([(0, 2), (3, 4)], [(0, 2), (2, 4)]),  # gap in the query rows
            ([(0, 4)], [(0, 2), (2, 4)]),  # one key segment too many
            ([(0, 4)], [(0, 5)]),  # keys out of range
            ([(0, 2), (2, 4)], [(0, 2), (2, 2)]),  # empty key segment
        ],
    )
    def test_attention_rejects_bad_segments(self, q_bounds, k_bounds):
        t = Tensor(np.ones((4, 3)))
        with pytest.raises(ValueError):
            ad.attention(t, t, t, q_bounds, k_bounds)

    def test_bad_index_and_bounds_rejected(self):
        x = Tensor(np.ones((3, 2)))
        for index in ([3], [-1], []):
            with pytest.raises(ValueError):
                ad.gather_rows(x, index)
        for bounds in ([(0, 4)], [(1, 1)], []):
            with pytest.raises(ValueError):
                ad.segment_mean(x, bounds)
        with pytest.raises(ValueError):
            ad.linear(x, Tensor(np.ones((3, 2))), Tensor(np.ones(2)))


class TestTapeMechanics:
    def test_backward_keeps_only_leaf_gradients(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(3, 3)))
        b = Tensor(rng.normal(size=3))
        with Tape() as tape:
            h = ad.linear(x, w, b)
            r = ad.relu(h)
            m = ad.segment_mean(r, [(0, 1), (1, 4)])
            loss = ad.squared_error(m, np.zeros((2, 3)))
        tape.backward(loss)
        assert all(t.grad is None for t in (h, r, m, loss))
        assert all(t.grad is not None for t in (x, w, b))
        assert len(tape) == 0


    def test_no_tape_means_no_gradients(self):
        x = Tensor(np.ones((2, 2)))
        y = ad.relu(x)
        assert x.grad is None and y.grad is None

    def test_ops_recorded_in_order(self):
        x = Tensor(np.ones((2, 2)))
        with Tape() as tape:
            y = ad.relu(x)
            ad.squared_error(y, np.zeros((2, 2)))
        assert len(tape) == 2

    def test_nested_tape_rejected(self):
        with Tape():
            with pytest.raises(RuntimeError):
                with Tape():
                    pass

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)))
        with Tape() as tape:
            y = ad.relu(x)
        with pytest.raises(ValueError):
            tape.backward(y)

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(11)
            a = Tensor(rng.normal(size=(6, 6)))
            b = Tensor(rng.normal(size=(6, 6)))
            with Tape() as tape:
                h = ad.layer_norm_rows(ad.matmul(a, ad.softmax_rows(b)))
                loss = ad.squared_error(h, np.zeros((6, 6)))
            tape.backward(loss)
            return loss.data.copy(), a.grad.copy(), b.grad.copy()

        first = run()
        second = run()
        for x, y in zip(first, second):
            assert x.tobytes() == y.tobytes()


class TestErrors:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.add(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2))))
        with pytest.raises(ValueError):
            ad.add_rowvec(Tensor(np.ones((2, 2))), Tensor(np.ones(3)))
        with pytest.raises(ValueError):
            ad.slice_rows(Tensor(np.ones((2, 2))), 0, 3)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_result_trips(self):
        big = Tensor(np.full((2, 2), 1e308))
        with pytest.raises(NonFiniteError):
            ad.add(big, big)

    def test_non_finite_construction_trips(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([np.nan]))


def _value_and_grads(build, leaves, target):
    """Bytes of build()'s value and of every leaf's gradient of its squared error against target."""
    for t in leaves:
        t.grad = None
    with Tape() as tape:
        out = build()
        loss = ad.squared_error(out, target)
    tape.backward(loss)
    return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]


def _raises_non_finite(build):
    try:
        with np.errstate(all="ignore"):
            build()
    except NonFiniteError:
        return True
    return False


def _linear_chain(x, w, b, relu, residual):
    """The unfused reference of ``linear(x, w, b, relu, residual)``."""
    out = ad.linear(x, w, b)
    if relu:
        out = ad.relu(out)
    return out if residual is None else ad.add(residual, out)


def _layer_norm_chain(x, gain, bias):
    """The unfused reference of ``layer_norm_rows(x, gain, bias)``."""
    return ad.add_rowvec(ad.mul_rowvec(ad.layer_norm_rows(x), gain), bias)


LINEAR_FORMS = [(True, False), (False, True), (True, True)]


class TestFusedForms:
    """``linear(relu=..., residual=...)`` and ``layer_norm_rows(x, gain, bias)`` against their op chains."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_linear_relu_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x, w, b = Tensor(_rand(rng, 5, 3)), Tensor(_rand(rng, 3, 4)), Tensor(_rand(rng, 4))
        target = _rand(rng, 5, 4)
        check_gradients(lambda: ad.squared_error(ad.linear(x, w, b, relu=True), target), [x, w, b])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_linear_residual_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x, w, b = Tensor(_rand(rng, 5, 3)), Tensor(_rand(rng, 3, 4)), Tensor(_rand(rng, 4))
        r = Tensor(_rand(rng, 5, 4))
        target = _rand(rng, 5, 4)
        check_gradients(lambda: ad.squared_error(ad.linear(x, w, b, residual=r), target), [x, w, b, r])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_layer_norm_affine_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x, gain, bias = Tensor(_rand(rng, 3, 6)), Tensor(_rand(rng, 6)), Tensor(_rand(rng, 6))
        target = _rand(rng, 3, 6)
        check_gradients(lambda: ad.squared_error(ad.layer_norm_rows(x, gain, bias), target), [x, gain, bias])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(1, 5)),
        zeros=st.booleans(),
    )
    def test_linear_forms_equal_their_chains_bit_for_bit(self, seed, shape, zeros):
        rng = np.random.default_rng(seed)
        m, k, n = shape
        x, w, b = rng.normal(size=(m, k)), rng.normal(size=(k, n)), rng.normal(size=n)
        if zeros:
            # Exact-zero pre-activations: a zero row of x meets zero biases,
            # and a zero column of w meets a -0.0 bias.
            x[0] = 0.0
            b[rng.random(n) < 0.5] = 0.0
            w[:, 0] = 0.0
            b[0] = -0.0
            pre = x @ w
            pre += b
            assert (pre == 0.0).any()
        x, w, b = Tensor(x), Tensor(w), Tensor(b)
        r = Tensor(rng.normal(size=(m, n)))
        target = rng.normal(size=(m, n))
        for relu, with_residual in LINEAR_FORMS:
            residual = r if with_residual else None
            leaves = [x, w, b] + ([r] if with_residual else [])
            fused = _value_and_grads(lambda: ad.linear(x, w, b, relu=relu, residual=residual), leaves, target)
            chain = _value_and_grads(lambda: _linear_chain(x, w, b, relu, residual), leaves, target)
            assert fused == chain, (relu, with_residual)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(st.integers(1, 6), st.integers(1, 6)), flat=st.booleans())
    def test_layer_norm_affine_equals_its_chain_bit_for_bit(self, seed, shape, flat):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)
        if flat:
            x[0] = 1.5  # a constant row normalizes to exact zeros
        x, gain, bias = Tensor(x), Tensor(rng.normal(size=shape[1])), Tensor(rng.normal(size=shape[1]))
        target = rng.normal(size=shape)
        leaves = [x, gain, bias]
        fused = _value_and_grads(lambda: ad.layer_norm_rows(x, gain, bias), leaves, target)
        chain = _value_and_grads(lambda: _layer_norm_chain(x, gain, bias), leaves, target)
        assert fused == chain

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_in_place_relu_equals_where(self, values):
        v = np.array(values + [0.0, -0.0, 5e-324, -5e-324])
        assert ad._relu_in_place(v.copy()).tobytes() == np.where(v > 0, v, 0.0).tobytes()

    @pytest.mark.parametrize(
        "x, w, b, r",
        [
            ([[1.0, -2.0]], [[0.5], [0.25]], [0.1], [[0.3]]),
            ([[-1e200, 0.0]], [[1e200], [0.0]], [0.0], [[1.0]]),  # -inf pre-activation
            ([[1e200, 1e200]], [[1e200], [-1e200]], [0.0], [[1.0]]),  # inf - inf: NaN pre-activation
            ([[1e200]], [[1e200]], [0.0], [[1.0]]),  # +inf pre-activation
            ([[1e308]], [[1.0]], [0.0], [[1e308]]),  # overflowing residual add
            ([[-1e308]], [[1.0]], [0.0], [[1e308]]),  # relu zeroes what the residual would cancel
        ],
        ids=["finite", "neg_inf_pre", "nan_pre", "pos_inf_pre", "residual_overflow", "relu_then_residual"],
    )
    def test_linear_non_finite_iff_chain(self, x, w, b, r):
        x, w, b, r = (Tensor(np.array(a, dtype=np.float64)) for a in (x, w, b, r))
        for relu, with_residual in LINEAR_FORMS + [(False, False)]:
            residual = r if with_residual else None
            fused = _raises_non_finite(lambda: ad.linear(x, w, b, relu=relu, residual=residual))
            chain = _raises_non_finite(lambda: _linear_chain(x, w, b, relu, residual))
            assert fused == chain, (relu, with_residual)

    def test_linear_non_finite_cases_do_raise(self):
        neg_inf = (Tensor(np.array([[-1e200]])), Tensor(np.array([[1e200]])), Tensor(np.zeros(1)))
        with pytest.raises(NonFiniteError), np.errstate(all="ignore"):
            ad.linear(*neg_inf, relu=True)
        big = Tensor(np.array([[1e308]]))
        with pytest.raises(NonFiniteError), np.errstate(all="ignore"):
            ad.linear(big, Tensor(np.ones((1, 1))), Tensor(np.zeros(1)), residual=big)

    @pytest.mark.parametrize(
        "x, gain, bias",
        [
            ([[1.0, 2.0, 4.0]], [1.0, 2.0, 3.0], [0.5, 0.0, -1.0]),
            ([[1.0, 2.0, 4.0]], [1e308, 1.0, 1.0], [0.0, 0.0, 0.0]),  # gain overflows
            ([[1.0, 2.0, 4.0]], [1e308, 1.0, 1.0], [-1e308, 0.0, 0.0]),  # an infinite product stays so
            ([[1.0, 2.0, 4.0]], [1.0, 1.0, 1e308], [0.0, 0.0, 1e308]),  # bias overflows
            ([[1e308, 1e308, -1e308]], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]),  # row mean overflows
        ],
        ids=["finite", "gain_overflow", "gain_overflow_with_bias", "bias_overflow", "mean_overflow"],
    )
    def test_layer_norm_non_finite_iff_chain(self, x, gain, bias):
        x, gain, bias = (Tensor(np.array(a, dtype=np.float64)) for a in (x, gain, bias))
        fused = _raises_non_finite(lambda: ad.layer_norm_rows(x, gain, bias))
        chain = _raises_non_finite(lambda: _layer_norm_chain(x, gain, bias))
        assert fused == chain

    @pytest.mark.parametrize("seed", SEEDS)
    def test_linear_rows_gradients(self, seed):
        # Three unequal segments, one of a single row, through the ReLU and the residual.
        rng = np.random.default_rng(seed)
        x, w, b = Tensor(_rand(rng, 6, 3)), Tensor(_rand(rng, 3, 4)), Tensor(_rand(rng, 4))
        r = Tensor(_rand(rng, 6, 4))
        target = _rand(rng, 6, 4)
        rows = [(0, 2), (2, 3), (3, 6)]
        check_gradients(
            lambda: ad.squared_error(ad.linear(x, w, b, relu=True, residual=r, rows=rows), target), [x, w, b, r]
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6),
        widths=st.sampled_from([(3, 4), (32, 32), (64, 32), (32, 1)]),
    )
    def test_linear_rows_give_each_segment_its_own_bits(self, seed, lengths, widths):
        """Each segment's rows are the bits of a linear over it alone; the gradients those of ``rows=None``."""
        rng = np.random.default_rng(seed)
        k, n = widths
        m = sum(lengths)
        x, w, b = Tensor(rng.normal(size=(m, k))), Tensor(rng.normal(size=(k, n))), Tensor(rng.normal(size=n))
        r = Tensor(rng.normal(size=(m, n)))
        stops = np.cumsum(lengths).tolist()
        rows = [(stop - n_rows, stop) for n_rows, stop in zip(lengths, stops)]
        out = ad.linear(x, w, b, relu=True, residual=r, rows=rows)
        for start, stop in rows:
            alone = ad.linear(Tensor(x.data[start:stop]), w, b, relu=True, residual=Tensor(r.data[start:stop]))
            assert out.data[start:stop].tobytes() == alone.data.tobytes()
        # The backward ignores rows: under a loss whose upstream gradient does
        # not depend on the output, the leaves get the bits of rows=None.
        def grads(rows):
            for t in (x, w, b, r):
                t.grad = None
            with Tape() as tape:
                loss = ad.mean_axis(ad.mean_axis(ad.linear(x, w, b, relu=True, residual=r, rows=rows), 0), 0)
            tape.backward(loss)
            return [t.grad.tobytes() for t in (x, w, b, r)]

        pre = x.data @ w.data + b.data
        pre_rows = np.concatenate([x.data[start:stop] @ w.data for start, stop in rows]) + b.data
        if np.array_equal(pre > 0, pre_rows > 0):  # both forms keep the same ReLU mask
            assert grads(rows) == grads(None)

    @pytest.mark.parametrize(
        "rows",
        [
            [(0, 2)],  # rows 2.. belong to no segment
            [(0, 2), (3, 5)],  # a gap
            [(0, 3), (2, 5)],  # an overlap
            [(2, 5), (0, 2)],  # out of order
            [(0, 6)],  # past the last row
            [(0, 2), (2, 2), (2, 5)],  # an empty segment
            [],  # no segment
        ],
        ids=["short", "gap", "overlap", "out_of_order", "past_the_end", "empty_segment", "none"],
    )
    def test_linear_rejects_rows_that_do_not_tile(self, rows):
        x, w, b = Tensor(np.ones((5, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(4))
        with pytest.raises(ValueError, match="linear"):
            ad.linear(x, w, b, rows=rows)

    def test_rejects_bad_shapes(self):
        x, w, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(4))
        with pytest.raises(ValueError):
            ad.linear(x, w, b, residual=Tensor(np.ones((2, 3))))
        with pytest.raises(ValueError):
            ad.layer_norm_rows(x, Tensor(np.ones(3)))
        with pytest.raises(ValueError):
            ad.layer_norm_rows(x, Tensor(np.ones(4)), Tensor(np.ones(4)))
