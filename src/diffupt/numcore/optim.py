"""Trainable parameters and the adaptive-moment optimizer step.

A parameter's value and its two Adam moments are three rows of one float64
buffer shaped (3, n): row 0 the values, row 1 the first moment, row 2 the
second. A lone ``Parameter`` owns a buffer of its own; ``Module.pack_parameters``
moves all of a model's parameters into one shared buffer, in
``named_parameters`` order, and every ``Parameter`` then views its slice of it.
``adam_step`` updates one contiguous run of them (a whole packed model, or
its re-initialised head) with whole-run operations, at Kingma and Ba's (2015)
decays and epsilon for every stage; only the learning rate varies.
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


# Adam's first- and second-moment decays and the epsilon that keeps its step finite
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def adam_step(params: list[Parameter], lr: float) -> None:
    """One bias-corrected adaptive-moment update; gradients are consumed.

    ``params`` must be one run: adjacent slices of one buffer, in buffer
    order, at one step count (``ValueError`` otherwise). The run is updated
    at once, with the same elementwise expressions in the same order as one
    parameter at a time, so the result is bitwise that of a per-parameter
    update.
    """
    if not params:
        raise ValueError("adam_step needs at least one parameter")
    first = params[0]
    stop = first.start
    for p in params:
        if p.tensor.grad is None:
            raise MissingGradError(f"parameter {p.shape} has no gradient; run backward first")
        if p.buffer is not first.buffer or p.start != stop or p.step_count != first.step_count:
            raise ValueError("adam_step updates one run: adjacent slices of one buffer at one step count")
        stop += p.tensor.size
    g = np.concatenate([p.tensor.grad.reshape(-1) for p in params])
    value, m, v = first.buffer[:, first.start : stop]
    step = first.step_count + 1
    # two run-sized temporaries: t, and g once v no longer needs it
    t = (1.0 - BETA1) * g
    m *= BETA1
    m += t
    np.multiply(g, 1.0 - BETA2, out=t)
    t *= g
    v *= BETA2
    v += t
    m_hat = np.divide(m, 1.0 - BETA1**step, out=g)
    m_hat *= lr
    v_hat = np.divide(v, 1.0 - BETA2**step, out=t)
    np.sqrt(v_hat, out=v_hat)
    v_hat += EPS
    m_hat /= v_hat
    value -= m_hat
    for p in params:
        p.step_count = step
        p.tensor.grad = None
