"""The per-length decode kernel as it was before the lookup table.

Kept as a test oracle: ``pragcomm.entropy_coder._jumps`` must give the same
jump array and, at every start whose codeword ends inside the payload, the
same symbol.  It decodes the codeword at every bit of a payload at once,
one codeword length at a time, with the canonical tables of Moffat &
Turpin 1997, built here from the code's lengths alone.
"""

from __future__ import annotations

import numpy as np

from pragcomm.entropy_coder import PrefixCode


def jumps(bits: np.ndarray, code: PrefixCode) -> tuple[np.ndarray, np.ndarray]:
    """Decode the codeword starting at every bit, one length at a time.

    Returns per start bit the symbol and, in ``jump`` (n + 3 entries), the
    bit after its codeword.  Failures jump to sinks that map to themselves:
    ``n + 1`` when the codeword, or the read up to the longest length, runs
    past the end (also the jump from ``n``), ``n + 2`` when the bits match
    no codeword.
    """
    # per length the number of codewords and the rank of the first, and
    # the symbols in rank order: sorted by (length, symbol)
    lengths = np.asarray(code.lengths)
    count = np.bincount(lengths)
    first_rank, order = np.cumsum(count) - count, np.argsort(lengths, kind="stable")
    count = count.tolist()
    max_len, n = len(count) - 1, bits.size
    padded = np.concatenate([bits, np.zeros(max_len, np.uint8)])
    # how far the bits read so far lie past the first code of the current
    # length: a prefix of a longer codeword keeps it in [count, n_symbols),
    # a prefix of no codeword never falls below that again, and a matched
    # codeword drives it negative.  It at most doubles per length, so over
    # at most 16 lengths it stays far inside int64.
    offset, length, matched = (np.zeros(n, np.int64) for _ in range(3))
    for L in range(1, max_len + 1):
        offset -= count[L - 1]
        offset *= 2
        offset += padded[L - 1 : L - 1 + n]
        hit = offset.view(np.uint64) < count[L]  # negatives wrap to huge
        np.putmask(length, hit, L)
        np.putmask(matched, hit, offset)
    jump = np.arange(n) + length
    jump[length == 0] = n + 2
    tail = jump[max(0, n - max_len + 1) :]  # the starts whose reads may overrun
    tail[tail > n] = n + 1
    jump = np.concatenate([jump, [n + 1, n + 1, n + 2]])
    return jump, order[first_rank[length] + matched]
