"""Scratch buffers that the kernels of one Monte Carlo unit of work reuse.

A unit of work runs its kernels once per tile of draws, over one or more
phases. If each kernel made new tile-sized arrays, every tile would fault
in fresh zeroed pages: the allocator hands freed blocks of this size back to
the operating system between tiles and phases. A :class:`Workspace` holds
numbered float64 buffers for the life of one unit instead, so their pages
are faulted in once.
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
    workspace belongs to one unit of work or one public call; no kernel makes one.
    """

    def __init__(self):
        self._buffers: dict[int, np.ndarray] = {}

    def __call__(self, i: int, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buffer = self._buffers.get(i)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[i] = np.empty(size)
        return buffer[:size].reshape(shape)
