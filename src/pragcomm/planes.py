"""Reductions over a short last axis, computed on whole planes.

A per-cell kernel that reduces over a last axis of a few classes or
channels makes numpy run its inner loop once per cell.  The kernels of
``simworld`` and ``vq`` instead stack one plane per class or channel along
the first axis and combine planes, so every inner loop covers a whole
grid.  Their results must keep numpy's bits, so ``sum_planes`` adds the
planes in the order ``np.sum`` adds the elements of a contiguous last
axis: in sequence below 8 elements; from 8 on, pairwise, with 8
accumulators per block of at most 128 elements and a recursive split of
longer runs.  Sums of products (``einsum``) add in sequence, which a plain
loop over planes reproduces; BLAS (``@``, ``matmul``) orders them
differently and is never used for them.  ``any_last`` tests a last axis of
flags eight at a time.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 128  # numpy's pairwise block size


def sum_planes(x: np.ndarray) -> np.ndarray:
    """``np.moveaxis(x, 0, -1).sum(axis=-1)`` of a float array, bit for bit,
    computed in place: ``x`` is overwritten, and the sum is returned as
    ``x[0]``.  A caller that needs its planes afterwards passes a copy."""
    if len(x) == 0:
        return np.zeros(x.shape[1:])
    _pairwise(x, 0, len(x))
    # numpy adds its sum onto +0.0, so a sum is never -0.0; a zero's sign
    # changes no nonzero partial sum, so adding +0.0 last reproduces that
    x[0] += 0.0
    return x[0]


def _pairwise(x: np.ndarray, lo: int, n: int) -> None:
    """Leave the sum of planes lo .. lo + n - 1 in plane lo."""
    if n < 8:
        for i in range(lo + 1, lo + n):
            x[lo] += x[i]
    elif n > _BLOCK:
        half = n // 2 - n // 2 % 8
        _pairwise(x, lo, half)
        _pairwise(x, lo + half, n - half)
        x[lo] += x[lo + half]
    else:
        acc = x[lo : lo + 8]  # accumulator j adds planes lo + j, lo + j + 8, ...
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            acc += x[i : i + 8]
        acc[0::2] += acc[1::2]  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        acc[0::4] += acc[2::4]
        acc[0] += acc[4]
        for i in range(end, lo + n):
            acc[0] += x[i]


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
