"""Adam with bias correction over flat buffers, plus the cosine learning-rate schedule.

Parameters, gradients and both moments are each one flat float64 buffer,
so ``adam_step`` is one elementwise pass, made block by block in place;
being elementwise, it equals a per-tensor update bit for bit.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .autodiff import Tensor
from .errors import NumericError

# Elements per block of ``adam_step``: two scratch blocks of this size stand in
# for the full-size temporaries of the unblocked expressions.
ADAM_BLOCK = 32768


class FlatParams(dict):
    """Named parameter tensors whose data and gradients are views of two flat buffers.

    The buffers ``data`` and ``grad`` are laid out in the given order
    (``init_params`` order). Packing copies each tensor's data into ``data``
    and rebinds its ``.data`` and ``.grad`` to views, so the tensors are
    updated in place and must not be replaced.
    """

    def __init__(self, params: Mapping[str, Tensor]) -> None:
        super().__init__(params)
        self.data = np.concatenate([np.empty(0)] + [p.data.reshape(-1) for p in self.values()])
        self.grad = np.zeros_like(self.data)
        for p, data, grad in zip(self.values(), self.views(self.data).values(), self.views(self.grad).values()):
            p.data, p.grad = data, grad

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's slice of a buffer laid out like ``data``, in its shape."""
        views, stop = {}, 0
        for name, p in self.items():
            start, stop = stop, stop + p.data.size
            views[name] = flat[start:stop].reshape(p.data.shape)
        return views

    def first_non_finite(self, flat: np.ndarray) -> str:
        """The first parameter whose slice of ``flat`` holds a NaN or infinity."""
        return next(name for name, view in self.views(flat).items() if not np.isfinite(view).all())


class AdamState:
    """Moment buffers ``m_flat``/``v_flat`` laid out like ``params.data``, views ``m``/``v`` by name, step ``t``."""

    def __init__(self, params: FlatParams, t: int = 0) -> None:
        self.m_flat = np.zeros_like(params.data)
        self.v_flat = np.zeros_like(params.data)
        self.m = params.views(self.m_flat)
        self.v = params.views(self.v_flat)
        self.t = t


@np.errstate(over="ignore", invalid="ignore")
def adam_step(
    params: FlatParams,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update of ``params.data`` from ``params.grad``, in place.

    Raises NumericError, and no overflow warning, naming the first parameter whose
    gradient or updated value is not finite; a bad gradient leaves everything unchanged.
    """
    g = params.grad
    if not np.isfinite(g).all():
        raise NumericError(f"non-finite gradient for {params.first_non_finite(g)!r}")
    state.t += 1
    bias1 = 1.0 - beta1**state.t
    bias2 = 1.0 - beta2**state.t
    # m = beta1*m + (1-beta1)*g; v = beta2*v + (1-beta2)*g*g;
    # data -= lr*(m/bias1) / (sqrt(v/bias2) + eps): each operation of these
    # expressions, in their order, in place over one block at a time.
    scratch = np.empty((2, min(g.size, ADAM_BLOCK)))
    for start in range(0, g.size, ADAM_BLOCK):
        span = slice(start, start + ADAM_BLOCK)
        gb, m, v, p = g[span], state.m_flat[span], state.v_flat[span], params.data[span]
        a, b = scratch[:, : gb.size]
        m *= beta1
        m += np.multiply(1.0 - beta1, gb, out=a)
        v *= beta2
        v += np.multiply(np.multiply(1.0 - beta2, gb, out=a), gb, out=a)
        np.add(np.sqrt(np.divide(v, bias2, out=a), out=a), eps, out=a)
        np.multiply(lr, np.divide(m, bias1, out=b), out=b)
        p -= np.divide(b, a, out=b)
    if not np.isfinite(params.data).all():
        raise NumericError(f"non-finite update for {params.first_non_finite(params.data)!r}")


def cosine_lr(
    step: int,
    total_steps: int,
    lr_max: float = 1e-4,
    lr_min: float = 1e-7,
) -> float:
    """Cosine annealing from lr_max (step 0) to lr_min (step total_steps)."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * step / total_steps))
