"""Scratch buffers that the kernels of one Monte Carlo phase reuse on every tile.

A phase runs the same kernels once per tile of draws. If each kernel made
new tile-sized arrays, every tile would fault in fresh zeroed pages: the
allocator hands freed blocks of this size back to the operating system
between tiles. A :class:`Workspace` holds numbered float64 buffers for the
life of one phase instead, so their pages are faulted in once.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Numbered float64 scratch buffers, each grown to the largest shape asked of it.

    ``work(i, shape)`` is buffer i as a C-contiguous array of that shape,
    holding whatever its last user left there. A kernel documents which
    numbers it writes; a caller keeps its own data out of them. A
    workspace belongs to one phase (or one public call), never to a module.
    """

    def __init__(self):
        self._buffers: dict[int, np.ndarray] = {}

    def __call__(self, i: int, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buffer = self._buffers.get(i)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[i] = np.empty(size)
        return buffer[:size].reshape(shape)
