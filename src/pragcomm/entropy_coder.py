"""Canonical Huffman coding of index grids plus bit-exact serialization.

Codeword weights come from whatever tally the caller chooses: accumulated
task confidence (the default coding mode), raw occurrence counts, or nothing
at all (fixed-length codes).  Codes are canonical, so identical weights give
bit-identical codewords on every platform, and zero-weight symbols stay
encodable at the longest lengths instead of breaking the decoder.

Encoding, decoding and the wire format work on numpy bit arrays.  Each
code caches a table of its codewords' bits and the canonical tables of
Moffat & Turpin 1997 ("On the implementation of minimum redundancy prefix
codes"): the codewords of one length are consecutive integers, so a
decoder needs only the count per length and the symbols in canonical
order.  It decodes the codeword at every bit of a payload at once, one
length at a time, then walks the codeword starts.  No codeword is held in
a machine integer, so codes past 64 bits stay exact.

Wire format, version 1 (bit level, MSB first):
    magic "RDCM" | version u8 | h u16 | w u16 | code-table id u8 |
    confidence mask (h*w bits, row major) | redundancy mask (h*w bits) |
    base length u32 | base payload | full length u32 | full payload |
    zero padding to a byte boundary.
All multi-byte integers are big-endian.  The parser checks every declared
length against the blob and rejects trailing bytes and nonzero padding.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .vq import IndexGrid

MAGIC = b"RDCM"
VERSION = 1
HEADER_BYTES = 10  # magic, version, h, w, code-table id
SIDE_BITS = 16  # width of the h and w header fields

_PAD = 2  # fills bit-table cells past a codeword's length; no bit equals it


class CodingError(ValueError):
    """Raised for unencodable symbols or undecodable bitstreams."""


@dataclass(frozen=True)
class PrefixCode:
    """Canonical prefix code: per-symbol lengths plus (value, length) codewords."""

    lengths: tuple[int, ...]
    codewords: tuple[tuple[int, int], ...]  # (value, length) per symbol

    @property
    def n_symbols(self) -> int:
        return len(self.lengths)

    def kraft_sum(self) -> float:
        return sum(2.0 ** -l for l in self.lengths)

    def codeword_str(self, symbol: int) -> str:
        value, length = self.codewords[symbol]
        return format(value, f"0{length}b")

    @cached_property
    def bit_table(self) -> np.ndarray:
        """(n_symbols, max_len) uint8: row s holds symbol s's codeword bits,
        MSB first, then ``_PAD`` up to the longest length."""
        width = max(self.lengths)
        words = (self.codeword_str(s) for s in range(self.n_symbols))
        text = "".join(word.ljust(width, str(_PAD)) for word in words)
        return (np.frombuffer(text.encode(), np.uint8) - ord("0")).reshape(-1, width)

    @cached_property
    def canonical_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical decoding tables: per length L = 0..max_len the number of
        codewords and the rank of the first one, plus the symbols in rank
        order, i.e. sorted by (length, symbol) as ``_canonicalize`` assigns.

        The first code of each length stays implicit: the decoder tracks how
        far its bits lie past it, a number below ``n_symbols``.
        """
        lengths = np.asarray(self.lengths)
        count = np.bincount(lengths)
        return count, np.cumsum(count) - count, np.argsort(lengths, kind="stable")


def _canonicalize(lengths: list[int]) -> PrefixCode:
    order = sorted(range(len(lengths)), key=lambda s: (lengths[s], s))
    codewords = [None] * len(lengths)
    code = 0
    prev_len = 0
    for sym in order:
        length = lengths[sym]
        code <<= length - prev_len
        codewords[sym] = (code, length)
        code += 1
        prev_len = length
    return PrefixCode(tuple(lengths), tuple(codewords))


def _huffman_lengths(weights: np.ndarray) -> list[int]:
    n = len(weights)
    if n == 1:
        return [1]
    heap = [(float(w), i, i) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    parent: dict[int, int] = {}
    next_id = n
    while len(heap) > 1:
        w1, _, n1 = heapq.heappop(heap)
        w2, _, n2 = heapq.heappop(heap)
        parent[n1] = next_id
        parent[n2] = next_id
        heapq.heappush(heap, (w1 + w2, next_id, next_id))
        next_id += 1
    lengths = []
    for sym in range(n):
        depth = 0
        node = sym
        while node in parent:
            node = parent[node]
            depth += 1
        lengths.append(depth)
    return lengths


def build_code(weights: np.ndarray) -> PrefixCode:
    """Huffman-optimal canonical code for the given nonnegative weights.

    Zero-weight symbols are floored to a negligible epsilon so they land at
    the longest lengths while the code stays complete and decodable.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise CodingError("weights must be a nonempty vector")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise CodingError("weights must be finite and nonnegative")
    if not weights.any():
        raise CodingError("all-zero weights")
    scaled = weights / weights.sum()
    floor = float(scaled[scaled > 0].min()) * 1e-9 / len(weights)
    floored = np.maximum(scaled, floor)
    return _canonicalize(_huffman_lengths(floored))


def fixed_length_bits(n_symbols: int) -> int:
    """Fixed code length for an n-symbol alphabet: ceil(log2 n), minimum 1."""
    if n_symbols < 1:
        raise CodingError("alphabet must hold at least one symbol")
    return max(1, math.ceil(math.log2(n_symbols)))


def fixed_code(n_symbols: int) -> PrefixCode:
    """The fixed-length baseline code (all symbols at ceil(log2 n) bits)."""
    length = fixed_length_bits(n_symbols)
    return _canonicalize([length] * n_symbols)


def expected_length(code: PrefixCode, weights: np.ndarray) -> float:
    """Average codeword length in bits under the normalized weights."""
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise CodingError("weights sum to zero")
    return float((weights / total * np.asarray(code.lengths)).sum())


@dataclass(frozen=True)
class Bits:
    """An immutable bit string padded to bytes, with its exact bit length."""

    data: bytes
    n_bits: int


@dataclass(frozen=True)
class EncodedMessage:
    """One sender-to-receiver message; its size and bit counts derive from its parts."""

    conf_mask: np.ndarray  # (h, w) bool
    redund_mask: np.ndarray  # (h, w) bool
    base_payload: Bits  # base codes for every confidence-selected cell
    full_payload: Bits  # base+res codes for cells passing both masks

    def __post_init__(self):
        # an integer 0/1 mask would index cells by number, not select them
        kinds = {(m.shape, m.dtype) for m in (self.conf_mask, self.redund_mask)}
        if len(kinds) != 1 or self.conf_mask.ndim != 2 or self.conf_mask.dtype != bool:
            raise CodingError(f"masks must be boolean and share one (h, w) shape, got {kinds}")

    @property
    def h(self) -> int:
        return self.conf_mask.shape[0]

    @property
    def w(self) -> int:
        return self.conf_mask.shape[1]

    @property
    def payload_bits(self) -> int:
        return self.full_payload.n_bits

    @property
    def abstract_bits(self) -> int:
        return self.base_payload.n_bits

    @property
    def mask_bits(self) -> int:
        return 2 * self.h * self.w

    @property
    def total_bits(self) -> int:
        """Payloads plus the two raw mask bitmaps."""
        return self.payload_bits + self.abstract_bits + self.mask_bits


def _bits_of(payload: Bits) -> np.ndarray:
    """A payload's bits, one uint8 each."""
    n_bits, held = payload.n_bits, 8 * len(payload.data)
    if not 0 <= n_bits <= held:
        raise CodingError(f"payload declares {n_bits} bits but holds {held}")
    return np.unpackbits(np.frombuffer(payload.data, np.uint8), count=n_bits)


def _pack(bits: np.ndarray) -> Bits:
    return Bits(np.packbits(bits).tobytes(), int(bits.size))


def _codewords(tables: tuple, syms: np.ndarray) -> Bits:
    """Code each row of ``syms`` with ``tables[j]`` for column j, rows in
    order; the first symbol outside its code raises before any lookup."""
    limits = [table.shape[0] for table in tables]
    bad = np.flatnonzero((syms < 0) | (syms >= np.array(limits)))
    if bad.size:
        sym, limit = syms.flat[bad[0]], limits[bad[0] % len(limits)]
        raise CodingError(f"symbol {sym} outside code range {limit}")
    bits = np.hstack([table[syms[:, j]] for j, table in enumerate(tables)]).ravel()
    return _pack(bits[bits != _PAD])


def encode(
    idx,
    masks: tuple[np.ndarray, np.ndarray],
    codes: tuple[PrefixCode, PrefixCode],
    abstract: bool = True,
) -> EncodedMessage:
    """Encode an index grid under the confidence and redundancy masks.

    The base payload carries base-layer codes for every confidence-selected
    cell (the coarse abstract handed over before redundancy scoring); the
    full payload carries base-and-residual codes for cells passing both
    masks.  Cells are visited in raster order and bits packed MSB first.
    ``abstract=False`` drops the base payload for pipelines that never hand
    an abstract over.
    """
    conf_mask, redund_mask = (np.asarray(m, dtype=bool) for m in masks)
    h, w = idx.base_idx.shape
    if conf_mask.shape != (h, w) or redund_mask.shape != (h, w):
        raise CodingError(f"mask shapes must be {(h, w)}")
    tables = tuple(code.bit_table for code in codes)
    base_syms = idx.base_idx[conf_mask][:, None]
    base = _codewords(tables[:1], base_syms) if abstract else Bits(b"", 0)
    both = conf_mask & redund_mask
    full = _codewords(tables, np.stack([idx.base_idx[both], idx.res_idx[both]], 1))
    return EncodedMessage(conf_mask, redund_mask, base, full)


def transmitted_grid(idx, masks: tuple[np.ndarray, np.ndarray], abstract: bool = True):
    """The grid ``decode`` returns for the message ``encode`` makes from the
    same arguments: ``idx`` on the cells the message carries, -1 elsewhere."""
    conf_mask, redund_mask = (np.asarray(m, dtype=bool) for m in masks)
    both = conf_mask & redund_mask
    base_idx = np.where(conf_mask if abstract else both, idx.base_idx, -1)
    return IndexGrid(base_idx, np.where(both, idx.res_idx, -1))


def _jumps(bits: np.ndarray, code: PrefixCode) -> tuple[np.ndarray, np.ndarray]:
    """Decode the codeword starting at every bit, one length at a time.

    Returns per start bit the symbol and, in ``jump`` (n + 3 entries), the
    bit after its codeword.  Failures jump to sinks that map to themselves:
    ``n + 1`` when the codeword, or the read up to the longest length, runs
    past the end (also the jump from ``n``), ``n + 2`` when the bits match
    no codeword.
    """
    count, first_rank, order = code.canonical_tables
    count = count.tolist()
    max_len, n = len(count) - 1, bits.size
    padded = np.concatenate([bits, np.zeros(max_len, np.uint8)])
    # how far the bits read so far lie past the first code of the current
    # length: a prefix of a longer codeword keeps it in [count, n_symbols),
    # a prefix of no codeword never falls below that again, and a matched
    # codeword drives it negative.  It at most doubles per length, so an
    # occasional clip keeps it in int64 and leaves all three cases intact.
    offset, length, matched = (np.zeros(n, np.int64) for _ in range(3))
    for L in range(1, max_len + 1):
        offset -= count[L - 1]
        offset *= 2
        offset += padded[L - 1 : L - 1 + n]
        if L % 32 == 0:
            np.clip(offset, -1, code.n_symbols, out=offset)
        hit = offset.view(np.uint64) < count[L]  # negatives wrap to huge
        np.putmask(length, hit, L)
        np.putmask(matched, hit, offset)
    jump = np.arange(n) + length
    jump[length == 0] = n + 2
    tail = jump[max(0, n - max_len + 1) :]  # the starts whose reads may overrun
    tail[tail > n] = n + 1
    jump = np.concatenate([jump, [n + 1, n + 1, n + 2]])
    return jump, order[first_rank[length] + matched]


def _walk(jump: np.ndarray, k: int, what: str) -> np.ndarray:
    """The first k bits the walk from bit 0 along ``jump`` visits, found by
    pointer doubling; the k-th jump must end the n-bit payload exactly."""
    starts, stride = np.zeros(min(k, 1), np.int64), jump
    while starts.size < k:
        starts = np.concatenate([starts, stride[starts]])
        stride = stride[stride]
    starts, n = starts[:k], jump.size - 3
    end = jump[starts[-1]] if k else 0
    if end == n + 1:
        raise CodingError("truncated bitstream")
    if end == n + 2:
        raise CodingError("invalid codeword walk")
    if end != n:
        raise CodingError(f"{what} payload has trailing bits")
    return starts


def decode(msg: EncodedMessage, codes: tuple[PrefixCode, PrefixCode]):
    """Recover the index grid on the transmitted cells; absent cells are -1.

    Cells passing both masks get base and residual indices; cells only in the
    confidence mask get the abstract base index (when an abstract was sent).
    """
    base_idx, res_idx = (np.full((msg.h, msg.w), -1, dtype=np.int64) for _ in range(2))
    if msg.base_payload.n_bits:
        jump, syms = _jumps(_bits_of(msg.base_payload), codes[0])
        base_idx[msg.conf_mask] = syms[_walk(jump, int(msg.conf_mask.sum()), "base")]

    both = msg.conf_mask & msg.redund_mask
    if msg.full_payload.n_bits or np.any(both):
        bits = _bits_of(msg.full_payload)
        (b_jump, b_syms), (r_jump, r_syms) = (_jumps(bits, code) for code in codes)
        # one step reads a base codeword and its residual; sinks stay put
        starts = _walk(r_jump[b_jump], int(both.sum()), "full")
        base_idx[both] = b_syms[starts]
        res_idx[both] = r_syms[b_jump[starts]]
    return IndexGrid(base_idx, res_idx)


def message_to_bytes(msg: EncodedMessage, table_id: int = 0) -> bytes:
    """Serialize a message; a value too wide for its header field raises
    ``CodingError`` instead of being truncated."""
    fields = (
        ("h", msg.h, SIDE_BITS),
        ("w", msg.w, SIDE_BITS),
        ("table_id", table_id, 8),
        ("base payload length", msg.base_payload.n_bits, 32),
        ("full payload length", msg.full_payload.n_bits, 32),
    )
    for name, value, bits in fields:
        if not 0 <= value < 1 << bits:
            raise CodingError(f"{name} {value} does not fit its {bits}-bit field")
    header = MAGIC + bytes([VERSION]) + b"".join(
        int(value).to_bytes(bits // 8, "big") for _, value, bits in fields[:3]
    )
    body = [np.asarray(m, dtype=bool).ravel() for m in (msg.conf_mask, msg.redund_mask)]
    for payload in (msg.base_payload, msg.full_payload):
        length = int(payload.n_bits).to_bytes(4, "big")
        body += [np.unpackbits(np.frombuffer(length, np.uint8)), _bits_of(payload)]
    return header + np.packbits(np.concatenate(body)).tobytes()


def message_from_bytes(blob: bytes) -> tuple[EncodedMessage, int]:
    """Parse the wire format back into a message; returns (message, table id).

    A blob shorter than its declared lengths, longer than them rounded up
    to whole bytes, or with a nonzero padding bit raises ``CodingError``.
    """
    if len(blob) < HEADER_BYTES:
        raise CodingError("truncated bitstream")
    if blob[:4] != MAGIC:
        raise CodingError(f"bad magic {bytes(blob[:4])!r}")
    if blob[4] != VERSION:
        raise CodingError(f"unsupported version {blob[4]}")
    h, w = int.from_bytes(blob[5:7], "big"), int.from_bytes(blob[7:9], "big")
    bits = np.unpackbits(np.frombuffer(blob, np.uint8, offset=HEADER_BYTES))
    pos = 0

    def take(n_bits: int) -> np.ndarray:
        nonlocal pos
        if pos + n_bits > bits.size:
            raise CodingError("truncated bitstream")
        pos += n_bits
        return bits[pos - n_bits : pos]

    conf_mask, redund_mask = (take(h * w).astype(bool).reshape(h, w) for _ in range(2))
    base, full = (
        _pack(take(int.from_bytes(np.packbits(take(32)), "big"))) for _ in range(2)
    )
    if bits.size - pos >= 8:
        raise CodingError("trailing bytes after the message")
    if bits[pos:].any():
        raise CodingError("nonzero padding bits")
    return EncodedMessage(conf_mask, redund_mask, base, full), blob[9]
