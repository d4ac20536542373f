"""Unfused reference ops, which no stage runs: the oracles the fused ``autodiff`` ops are proven
against, bit for bit. Unchecked; call them as ``reference_ops.relu``, so a patch here sees every call."""

import numpy as np

from engpred import autodiff as ad


def add_rowvec(x, v):
    def backward(g):
        ad._accumulate(x, g, copy=True)
        ad._accumulate(v, g.sum(axis=0))

    return ad._make("add_rowvec", x.data + v.data[np.newaxis, :], backward)


def mul_rowvec(x, v):
    def backward(g):
        ad._accumulate(x, g * v.data[np.newaxis, :])
        ad._accumulate(v, (g * x.data).sum(axis=0))

    return ad._make("mul_rowvec", x.data * v.data[np.newaxis, :], backward)


def transpose(x):
    def backward(g):
        ad._accumulate(x, g.T, copy=True)

    return ad._make("transpose", x.data.T.copy(), backward)


def relu(x):
    mask = x.data > 0

    def backward(g):
        ad._accumulate(x, g * mask)

    return ad._make("relu", np.where(mask, x.data, 0.0), backward)


def softmax_rows(x):
    e = np.exp(x.data - x.data.max(axis=1, keepdims=True))
    value = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * value).sum(axis=1, keepdims=True)
        ad._accumulate(x, (g - dot) * value)

    return ad._make("softmax_rows", value, backward)
