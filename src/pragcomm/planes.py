"""Reductions over a short last axis, computed on whole planes.

A per-cell kernel that reduces over a last axis of a few classes or
channels makes numpy run its inner loop once per cell.  The kernels of
``simworld`` and ``vq`` instead stack one plane per class or channel along
the first axis and combine planes, so every inner loop covers a whole
grid.  Planes are added in index order, never through BLAS, so a cell's
result does not depend on the other cells computed with it.  ``any_last``
tests a last axis of flags eight at a time.
"""

from __future__ import annotations

import numpy as np


def sum_planes(x: np.ndarray) -> np.ndarray:
    """``x[0] + x[1] + ...``, added in index order into a copy of ``x[0]``."""
    total = x[0].copy()
    for plane in x[1:]:
        total += plane
    return total


def any_last(flags: np.ndarray) -> np.ndarray:
    """``flags.any(axis=-1)`` of a bool array: the flags, padded with False
    to whole 8-byte words, are read as uint64 planes, and a cell is True
    where any of its words is nonzero."""
    n = flags.shape[-1]
    if n % 8 or not n or not flags.flags.c_contiguous:
        padded = np.zeros((*flags.shape[:-1], 8 * max(1, -(-n // 8))), dtype=bool)
        padded[..., :n] = flags
        flags = padded
    words = flags.view(np.uint64)
    out = words[..., 0] != 0
    for j in range(1, words.shape[-1]):
        out |= words[..., j] != 0
    return out
