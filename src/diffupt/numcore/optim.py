"""Trainable parameters and the adaptive-moment optimizer step.

A parameter's value and its two Adam moments are three rows of one float64
buffer shaped (3, n): row 0 the values, row 1 the first moment, row 2 the
second. A lone ``Parameter`` owns a buffer of its own; ``Module.pack_parameters``
moves all of a model's parameters into one shared buffer, in
``named_parameters`` order, and every ``Parameter`` then views its slice of it.
``adam_step`` updates each contiguous run of the parameters it is given (same
buffer, adjacent slices, same step count) with whole-buffer operations.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class MissingGradError(RuntimeError):
    """adam_step was called on a parameter without a populated gradient."""


class Parameter:
    """A trainable tensor plus its optimizer moment state.

    ``buffer[:, start:start + size]`` holds the value, the first and the
    second moment; ``tensor.data``, ``first_moment`` and ``second_moment``
    are views of those three rows.
    """

    __slots__ = ("tensor", "first_moment", "second_moment", "step_count", "buffer", "start")

    def __init__(self, value):
        value = np.asarray(value, dtype=np.float64)
        buffer = np.zeros((3, value.size), dtype=np.float64)
        buffer[0] = value.reshape(-1)
        self.tensor = Tensor(buffer[0].reshape(value.shape), requires_grad=True)
        self.step_count = 0
        self._view(buffer, 0)

    def move_to(self, buffer: np.ndarray, start: int) -> None:
        """Copy value and moments into ``buffer[:, start:start + size]`` and view them there."""
        n = self.tensor.size
        buffer[:, start : start + n] = self.buffer[:, self.start : self.start + n]
        self._view(buffer, start)

    def _view(self, buffer: np.ndarray, start: int) -> None:
        cols = buffer[:, start : start + self.tensor.size]
        self.buffer, self.start = buffer, start
        self.tensor.data = cols[0].reshape(self.tensor.shape)
        self.first_moment, self.second_moment = cols[1], cols[2]

    def reset(self, value) -> None:
        """Set the value and restart the optimizer state: zero moments, step 0, no gradient."""
        self.tensor.data[...] = value
        self.first_moment[...] = 0.0
        self.second_moment[...] = 0.0
        self.step_count = 0
        self.tensor.grad = None

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @property
    def shape(self) -> tuple[int, ...]:
        return self.tensor.shape

    def __repr__(self):
        return f"Parameter(shape={self.shape}, steps={self.step_count})"


def _runs(params: list[Parameter]) -> list[list[Parameter]]:
    """``params`` split into maximal runs of adjacent slices of one buffer at one step count."""
    runs: list[list[Parameter]] = []
    for p in params:
        if runs:
            last = runs[-1][-1]
            if p.buffer is last.buffer and p.start == last.start + last.tensor.size and p.step_count == last.step_count:
                runs[-1].append(p)
                continue
        runs.append([p])
    return runs


def adam_step(
    params: list[Parameter],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected adaptive-moment update; gradients are consumed.

    Each contiguous run of ``params`` is updated at once, with the same
    elementwise expressions in the same order as one parameter at a time, so
    the result is bitwise that of a per-parameter update.
    """
    for run in _runs(params):
        for p in run:
            if p.tensor.grad is None:
                raise MissingGradError(f"parameter {p.shape} has no gradient; run backward first")
        g = np.concatenate([p.tensor.grad.reshape(-1) for p in run])
        start = run[0].start
        value, m, v = run[0].buffer[:, start : start + g.size]
        step = run[0].step_count + 1
        # two run-sized temporaries: t, and g once v no longer needs it
        t = (1.0 - beta1) * g
        m *= beta1
        m += t
        np.multiply(g, 1.0 - beta2, out=t)
        t *= g
        v *= beta2
        v += t
        m_hat = np.divide(m, 1.0 - beta1**step, out=g)
        m_hat *= lr
        v_hat = np.divide(v, 1.0 - beta2**step, out=t)
        np.sqrt(v_hat, out=v_hat)
        v_hat += eps
        m_hat /= v_hat
        value -= m_hat
        for p in run:
            p.step_count = step
            p.tensor.grad = None
