"""Counter-based deterministic random streams.

Each draw instantiates a Philox generator at (seed, draw counter), so a
stream's output is a pure function of its (seed, counter) state: replaying
from the same state reproduces draws bitwise, and child streams split off
by label never collide with the parent.
"""

from __future__ import annotations

import hashlib

import numpy as np

_U64 = (1 << 64) - 1


class RngStream:
    """Deterministic random stream addressed by (seed, counter)."""

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & _U64
        self.counter = int(counter)

    def _generator(self) -> np.random.Generator:
        # Each draw gets its own 2^128-wide counter block.
        bg = np.random.Philox(key=self.seed, counter=[0, 0, self.counter & _U64, 0])
        self.counter += 1
        return np.random.Generator(bg)

    def normal(self, shape=(), mean: float = 0.0, sd: float = 1.0) -> np.ndarray:
        return self._generator().normal(mean, sd, size=shape)

    def normal_blocks(self, n: int, row_shape, block: int, mean: float = 0.0, sd: float = 1.0):
        """One ``normal((n, *row_shape), mean, sd)`` draw, handed out as blocks
        of up to ``block`` rows in row order. numpy fills a draw in order, so the
        blocks, joined, are that draw bit for bit; the counter advances here, once."""
        gen = self._generator()
        return (gen.normal(mean, sd, size=(min(block, n - i), *row_shape)) for i in range(0, n, block))

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._generator().uniform(low, high, size=shape)

    def integers(self, shape, low: int, high: int) -> np.ndarray:
        """Integers in [low, high)."""
        return self._generator().integers(low, high, size=shape, dtype=np.int64)

    def permutation(self, n: int) -> np.ndarray:
        return self._generator().permutation(n)

    def split(self, label) -> "RngStream":
        """Derive an independent child stream from a string or int label."""
        h = hashlib.blake2b(
            str(label).encode("utf-8"),
            digest_size=8,
            key=self.seed.to_bytes(8, "little"),
        ).digest()
        return RngStream(int.from_bytes(h, "little"))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, counter={self.counter})"
