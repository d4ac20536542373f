"""Dense float64 tensors with tape-based reverse-mode differentiation.

Design rules:
  - ops never write their inputs or the gradient their backward is given;
    data change only between tapes, where ``optim.adam_step`` updates the
    parameters in place. An op may finish buffers it has just made in place,
    one operation of its expression at a time and in order, so no bit moves;
  - no implicit broadcasting — shapes must match exactly, with explicit
    row-vector ops (add_rowvec, mul_rowvec, and the bias and affine
    arguments of linear and layer_norm_rows) for bias/affine patterns;
  - every op checks its output for NaN/Inf, and ``linear(..., relu=True)``
    also checks its pre-activation, which the ReLU would map from NaN or
    -inf to 0; so a fused form raises ``NonFiniteError`` exactly when its
    op chain would;
  - fused forms cut tape ops without changing a bit:
    ``linear(x, w, b, relu, residual)`` is ``linear`` → ``relu`` →
    ``add(·, residual)``, and ``layer_norm_rows(x, gain, bias)`` is
    ``layer_norm_rows`` → ``mul_rowvec`` → ``add_rowvec``, each computing
    the chain's expressions in its order, forward and backward; the
    unfused ops stay as their references;
  - ops that run over a packed batch (``attention``, ``segment_mean``) take
    each segment's rows as ``(start, stop)`` bounds, so one op serves every
    video of the batch without padding or cross-video terms; ``linear``
    takes them too (``rows``), to form each segment's product on its own and
    so give each segment the bits of a pass over it alone;
  - ops record onto the thread's active Tape (if any); replaying the tape
    in reverse visits each op exactly once in reverse topological order
    and accumulates gradients into ``.grad``; a leaf whose ``.grad`` is
    already an array (a parameter's view of ``optim.FlatParams.grad``)
    accumulates into it in place.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteError

_STATE = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_STATE, "tape", None)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """Contiguous row-major float64 array, optionally carrying a gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def _accumulate(t: Tensor, g: np.ndarray, copy: bool = False) -> None:
    # On first write t keeps g itself, which the backward has just built;
    # pass copy=True when g is an upstream gradient or a view of one. A
    # preset .grad (a parameter's view of a flat gradient buffer) is added to.
    if t.grad is None:
        t.grad = np.array(g) if copy else np.asarray(g)
    else:
        t.grad += g


class Tape:
    """Execution-ordered record of primitive ops for one backward pass."""

    def __init__(self) -> None:
        self._ops: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("a Tape is already active on this thread")
        _STATE.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _STATE.tape = None

    def record(self, out: Tensor, backward: Callable[[np.ndarray], None]) -> None:
        self._ops.append((out, backward))

    def __len__(self) -> int:
        return len(self._ops)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and replay ops in reverse order.

        Each op's entry and its output's gradient are dropped once the op
        has run, so intermediate arrays are freed during the pass; only
        tensors no op produced (parameters and inputs) keep a ``.grad``.
        The tape is empty afterwards.
        """
        if loss.data.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        loss.grad = np.ones_like(loss.data)
        ops = self._ops
        while ops:
            out, backward_fn = ops.pop()
            if out.grad is not None:
                backward_fn(out.grad)
                out.grad = None


def _make(op: str, value: np.ndarray, backward: Callable[[np.ndarray], None]) -> Tensor:
    _check_finite(value, op)
    out = Tensor.__new__(Tensor)
    out.data = value if value.flags["C_CONTIGUOUS"] else np.ascontiguousarray(value)
    out.grad = None
    tape = _active_tape()
    if tape is not None:
        tape.record(out, backward)
    return out


def _require_shape(t: Tensor, rank: int, op: str) -> None:
    if t.data.ndim != rank:
        raise ValueError(f"{op} expects rank-{rank} input, got shape {t.data.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _require_shape(a, 2, "matmul")
    _require_shape(b, 2, "matmul")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    value = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _make("matmul", value, backward)


def _relu_in_place(v: np.ndarray) -> np.ndarray:
    """Overwrite finite v with ``np.where(v > 0, v, 0.0)``, bit for bit, and return it.

    Which zero ``maximum`` returns for -0.0 depends on the numpy build, where
    ``where`` gives +0.0; adding 0.0 turns -0.0 into +0.0 and leaves every
    other value as it is.
    """
    np.maximum(v, 0.0, out=v)
    v += 0.0
    return v


def linear(
    x: Tensor,
    w: Tensor,
    b: Tensor,
    relu: bool = False,
    residual: Tensor | None = None,
    rows: Sequence[tuple[int, int]] | None = None,
) -> Tensor:
    """``relu?(x @ w + b) + residual`` of an (m, k) matrix, with b added to every row.

    One op with the arithmetic, values and gradients of the chain
    ``linear`` → ``relu`` → ``add(·, residual)``. The pre-activation is
    checked before the ReLU, which would map NaN and -inf to 0.

    With ``rows``, bounds that tile x's rows in order, ``x @ w`` is formed
    one segment at a time: BLAS may round a row's sums differently for a
    different row count, so each segment's rows then hold exactly what a
    ``linear`` over that segment alone gives. The rest runs once over all
    rows, and the backward does not depend on ``rows``.
    """
    _require_shape(x, 2, "linear")
    _require_shape(w, 2, "linear")
    _require_shape(b, 1, "linear")
    if x.data.shape[1] != w.data.shape[0] or w.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"linear shape mismatch: {x.data.shape} @ {w.data.shape} + {b.data.shape}")
    if residual is not None and residual.data.shape != (x.data.shape[0], w.data.shape[1]):
        raise ValueError(f"linear residual shape mismatch: {residual.data.shape}")
    if rows is None:
        value = x.data @ w.data
    else:
        _require_tiling(rows, x.data.shape[0], "linear")
        value = np.empty((x.data.shape[0], w.data.shape[1]))
        for start, stop in rows:
            value[start:stop] = x.data[start:stop] @ w.data
    value += b.data
    mask = None
    if relu:
        _check_finite(value, "linear")
        mask = _relu_in_place(value) > 0
    if residual is not None:
        value += residual.data

    def backward(g: np.ndarray) -> None:
        if residual is not None:
            _accumulate(residual, g, copy=True)
        if mask is not None:
            g = g * mask
        _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        _accumulate(b, np.add.reduce(g, axis=0))

    return _make("linear", value, backward)


def _require_bounds(bounds: Sequence[tuple[int, int]], n_rows: int, op: str) -> None:
    if not bounds:
        raise ValueError(f"{op} needs at least one segment")
    for start, stop in bounds:
        if not 0 <= start < stop <= n_rows:
            raise ValueError(f"{op} segment [{start}:{stop}] out of range for {n_rows} rows")


def _require_tiling(bounds: Sequence[tuple[int, int]], n_rows: int, op: str) -> None:
    """Bounds whose segments cover rows 0..n_rows once each, in order."""
    _require_bounds(bounds, n_rows, op)
    starts = [start for start, _ in bounds]
    stops = [stop for _, stop in bounds]
    if starts != [0] + stops[:-1] or stops[-1] != n_rows:
        raise ValueError(f"{op} segments must tile the {n_rows} rows in order")


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    q_bounds: Sequence[tuple[int, int]],
    k_bounds: Sequence[tuple[int, int]],
) -> Tensor:
    """Scaled dot-product attention in which each segment sees only its own keys.

    Query rows ``q_bounds[s]`` attend to key and value rows ``k_bounds[s]``
    alone, with scores scaled by 1/sqrt(width of q): for one segment of each
    this is ``softmax(q kᵀ / √d) v``. The query segments must tile q's rows
    in order, so every output row belongs to exactly one segment. Only the
    per-segment score blocks are formed, never a (rows × keys) mask.
    """
    for t in (q, k, v):
        _require_shape(t, 2, "attention")
    if q.data.shape[1] != k.data.shape[1] or k.data.shape[0] != v.data.shape[0]:
        raise ValueError(f"attention shape mismatch: q {q.data.shape}, k {k.data.shape}, v {v.data.shape}")
    if len(q_bounds) != len(k_bounds):
        raise ValueError("attention needs one key segment per query segment")
    _require_tiling(q_bounds, q.data.shape[0], "attention")
    _require_bounds(k_bounds, k.data.shape[0], "attention")
    c = 1.0 / math.sqrt(q.data.shape[1])
    value = np.empty((q.data.shape[0], v.data.shape[1]))
    probs = []
    for (a, b), (lo, hi) in zip(q_bounds, k_bounds):
        # p = softmax(q kᵀ c), each step finished in place on the score block.
        p = q.data[a:b] @ k.data[lo:hi].T
        p *= c
        p -= np.maximum.reduce(p, axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= np.add.reduce(p, axis=1, keepdims=True)
        probs.append(p)
        np.matmul(p, v.data[lo:hi], out=value[a:b])

    def backward(g: np.ndarray) -> None:
        gq = np.zeros_like(q.data)
        gk = np.zeros_like(k.data)
        gv = np.zeros_like(v.data)
        for (a, b), (lo, hi), p in zip(q_bounds, k_bounds, probs):
            gv[lo:hi] += p.T @ g[a:b]
            # ds = ((dp - rowsum(dp * p)) * p) * c, finished in place on dp.
            ds = g[a:b] @ v.data[lo:hi].T
            ds -= np.add.reduce(ds * p, axis=1, keepdims=True)
            ds *= p
            ds *= c
            gq[a:b] += ds @ k.data[lo:hi]
            gk[lo:hi] += ds.T @ q.data[a:b]
        _accumulate(q, gq)
        _accumulate(k, gk)
        _accumulate(v, gv)

    return _make("attention", value, backward)


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op} shape mismatch: {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g, copy=True)
        _accumulate(b, g, copy=True)

    return _make("add", a.data + b.data, backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g, copy=True)
        _accumulate(b, -g)

    return _make("sub", a.data - b.data, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _make("mul", a.data * b.data, backward)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * c)

    return _make("scale", x.data * c, backward)


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Add a length-n vector to every row of an (m, n) matrix."""
    _require_shape(x, 2, "add_rowvec")
    _require_shape(v, 1, "add_rowvec")
    if x.data.shape[1] != v.data.shape[0]:
        raise ValueError(f"add_rowvec shape mismatch: {x.data.shape} + {v.data.shape}")

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g, copy=True)
        _accumulate(v, g.sum(axis=0))

    return _make("add_rowvec", x.data + v.data[np.newaxis, :], backward)


def mul_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Scale every row of an (m, n) matrix elementwise by a length-n vector."""
    _require_shape(x, 2, "mul_rowvec")
    _require_shape(v, 1, "mul_rowvec")
    if x.data.shape[1] != v.data.shape[0]:
        raise ValueError(f"mul_rowvec shape mismatch: {x.data.shape} * {v.data.shape}")

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * v.data[np.newaxis, :])
        _accumulate(v, (g * x.data).sum(axis=0))

    return _make("mul_rowvec", x.data * v.data[np.newaxis, :], backward)


def transpose(x: Tensor) -> Tensor:
    _require_shape(x, 2, "transpose")

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g.T, copy=True)

    return _make("transpose", x.data.T.copy(), backward)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ValueError("concat needs at least one tensor")
    rank = parts[0].data.ndim
    for p in parts:
        if p.data.ndim != rank:
            raise ValueError("concat rank mismatch")
    if not 0 <= axis < rank:
        raise ValueError(f"concat axis {axis} out of range for rank {rank}")
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            index = [slice(None)] * rank
            index[axis] = slice(start, stop)
            _accumulate(p, g[tuple(index)], copy=True)

    return _make("concat", np.concatenate([p.data for p in parts], axis=axis), backward)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) of a matrix (or leading entries of a vector)."""
    if x.data.ndim == 0:
        raise ValueError("slice_rows needs rank >= 1")
    n = x.data.shape[0]
    if not (0 <= start < stop <= n):
        raise ValueError(f"slice_rows [{start}:{stop}] out of range for {n} rows")

    def backward(g: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        full[start:stop] = g
        _accumulate(x, full)

    return _make("slice_rows", x.data[start:stop].copy(), backward)


def gather_rows(x: Tensor, index) -> Tensor:
    """Rows ``x[index]`` of a matrix, in the given order; an index may repeat."""
    _require_shape(x, 2, "gather_rows")
    index = np.asarray(index, dtype=np.intp)
    n = x.data.shape[0]
    if index.ndim != 1 or index.size == 0 or index.min() < 0 or index.max() >= n:
        raise ValueError(f"gather_rows needs a non-empty 1-d index into {n} rows")

    def backward(g: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        np.add.at(full, index, g)
        _accumulate(x, full)

    return _make("gather_rows", x.data[index], backward)


def segment_mean(x: Tensor, bounds: Sequence[tuple[int, int]]) -> Tensor:
    """Row s is the mean of rows ``bounds[s] = (start, stop)`` of a matrix."""
    _require_shape(x, 2, "segment_mean")
    _require_bounds(bounds, x.data.shape[0], "segment_mean")

    def backward(g: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        for (start, stop), row in zip(bounds, g):
            full[start:stop] += row / (stop - start)
        _accumulate(x, full)

    value = np.stack([x.data[start:stop].mean(axis=0) for start, stop in bounds])
    return _make("segment_mean", value, backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * mask)

    return _make("relu", np.where(mask, x.data, 0.0), backward)


def sigmoid(x: Tensor) -> Tensor:
    # exp(-|x|) never overflows, so both branches are safe.
    e = np.exp(-np.abs(x.data))
    value = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * value * (1.0 - value))

    return _make("sigmoid", value, backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a matrix."""
    _require_shape(x, 2, "softmax_rows")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    value = e / e.sum(axis=1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        dot = (g * value).sum(axis=1, keepdims=True)
        _accumulate(x, (g - dot) * value)

    return _make("softmax_rows", value, backward)


def layer_norm_rows(
    x: Tensor, gain: Tensor | None = None, bias: Tensor | None = None, eps: float = 1e-12
) -> Tensor:
    """Normalize each row to zero mean / unit variance, then scale by gain and shift by bias.

    Without gain and bias there is no affine. With both (length-n vectors
    for an (m, n) matrix) this is one op with the arithmetic, values and
    gradients of the chain ``layer_norm_rows`` → ``mul_rowvec`` →
    ``add_rowvec``.
    """
    _require_shape(x, 2, "layer_norm_rows")
    if (gain is None) != (bias is None):
        raise ValueError("layer_norm_rows takes gain and bias together")
    if gain is not None and not gain.data.shape == bias.data.shape == x.data.shape[1:]:
        raise ValueError(f"layer_norm_rows affine shape mismatch: {x.data.shape}, {gain.shape}, {bias.shape}")
    # mu, x - mu, mean((x - mu)²) + eps, 1/sqrt, * inv, * gain + bias: each in order, in
    # place in this op's buffers. A row mean is np.add.reduce then / n, as in ndarray.mean.
    n = x.data.shape[1]
    value = x.data - np.add.reduce(x.data, axis=1, keepdims=True) / n
    squares = np.square(value)
    var = np.add.reduce(squares, axis=1, keepdims=True) / n
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    value *= inv
    out = value
    if gain is not None:
        out = np.multiply(value, gain.data, out=squares)
        out += bias.data

    def backward(g: np.ndarray) -> None:
        # inv * (g - mean(g) - value * mean(g * value)), g first times gain.
        gy = g * value
        if gain is not None:
            _accumulate(bias, np.add.reduce(g, axis=0))
            _accumulate(gain, np.add.reduce(gy, axis=0))
            g = np.multiply(g, gain.data, out=gy)
            gy = g * value
        gy_mean = np.add.reduce(gy, axis=1, keepdims=True) / n
        dx = np.subtract(g, np.add.reduce(g, axis=1, keepdims=True) / n, out=gy)
        dx -= value * gy_mean
        dx *= inv
        _accumulate(x, dx)

    return _make("layer_norm_rows", out, backward)


def mean_axis(x: Tensor, axis: int) -> Tensor:
    """Mean over one axis (the axis is removed)."""
    if not 0 <= axis < x.data.ndim:
        raise ValueError(f"mean_axis axis {axis} out of range for shape {x.data.shape}")
    n = x.data.shape[axis]

    def backward(g: np.ndarray) -> None:
        expanded = np.expand_dims(g / n, axis)
        _accumulate(x, np.broadcast_to(expanded, x.data.shape).copy())

    return _make("mean_axis", x.data.mean(axis=axis), backward)


def squared_error(pred: Tensor, target) -> Tensor:
    """Scalar sum of squared differences against a constant target."""
    t = np.asarray(target, dtype=np.float64)
    if t.shape != pred.data.shape:
        raise ValueError(f"squared_error shape mismatch: {pred.data.shape} vs {t.shape}")
    diff = pred.data - t

    def backward(g: np.ndarray) -> None:
        _accumulate(pred, 2.0 * diff * g)

    return _make("squared_error", np.asarray((diff**2).sum()), backward)
