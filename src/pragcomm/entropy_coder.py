"""Canonical Huffman coding of index grids plus bit-exact serialization.

Codeword weights come from whatever tally the caller chooses: accumulated
task confidence (the default coding mode), raw occurrence counts, or nothing
at all (fixed-length codes).  Codes are canonical, so identical weights give
bit-identical codewords on every platform, and zero-weight symbols stay
encodable at the longest lengths instead of breaking the decoder.  No
codeword is longer than ``MAX_CODE_BITS`` = 16 bits: a Huffman code with
longer codewords has its per-length counts adjusted as JPEG's Adjust_BITS
does (ITU-T T.81, Annex K.3), which keeps the code complete, and every
code that already fits keeps its lengths.

A message's two payloads are 1-D bool vectors, one element per bit;
bytes exist only in ``message_to_bytes`` and ``message_from_bytes``.  Each
code caches a table of its codewords' bits and a decode table over its
longest codeword's length, at most 2**16 entries (Hirschberg & Lelewer
1990, "Efficient decoding of prefix codes"; the codewords of one length
are consecutive integers, Moffat & Turpin 1997).  The decoder reads the
next bits at every bit of a payload at once, as one window per payload
that both codes of the full payload share, and looks each window up once:
the codeword it starts with, or none.  Then it walks the codeword starts.

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
MAX_CODE_BITS = 16  # longest codeword: a decode table has at most 2**16 entries


class CodingError(ValueError):
    """Raised for unencodable symbols or undecodable bitstreams."""


@dataclass(frozen=True)
class PrefixCode:
    """Canonical prefix code, given by its per-symbol codeword lengths."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        if not self.lengths or not 1 <= min(self.lengths) <= max(self.lengths) <= MAX_CODE_BITS:
            raise CodingError(
                f"codeword lengths must be from 1 to {MAX_CODE_BITS}, got {self.lengths}"
            )
        if sum(1 << (MAX_CODE_BITS - length) for length in self.lengths) > 1 << MAX_CODE_BITS:
            raise CodingError(f"codeword lengths {self.lengths} exceed the Kraft sum 1")

    @cached_property
    def codewords(self) -> tuple[tuple[int, int], ...]:
        """(value, length) per symbol: in (length, symbol) order each
        codeword is one more than the last, shifted left to its length."""
        codewords = [None] * self.n_symbols
        code = prev_len = 0
        for sym in sorted(range(self.n_symbols), key=lambda s: (self.lengths[s], s)):
            length = self.lengths[sym]
            code <<= length - prev_len
            codewords[sym] = (code, length)
            code += 1
            prev_len = length
        return tuple(codewords)

    @property
    def n_symbols(self) -> int:
        return len(self.lengths)

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
    def table_bits(self) -> int:
        """The bits ``decode_table`` looks up: the longest codeword's."""
        return max(self.lengths)

    @cached_property
    def decode_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Per value of the next ``table_bits`` bits of a payload, the
        length and the symbol of the codeword they start with; length 0
        when they start no codeword."""
        width = self.table_bits
        length, symbol = np.zeros((2, 1 << width), np.int64)
        for sym, (value, L) in enumerate(self.codewords):
            span = slice(value << (width - L), (value + 1) << (width - L))
            length[span], symbol[span] = L, sym
        return length, symbol


def _huffman_lengths(weights: np.ndarray) -> tuple[int, ...]:
    """Huffman codeword lengths: each merge of the two lightest subtrees
    puts every symbol under them one bit deeper."""
    n = len(weights)
    if n == 1:
        return (1,)
    lengths = [0] * n
    heap = [(float(w), i, [i]) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    for node in range(n, 2 * n - 1):  # node ids break weight ties
        w1, _, syms1 = heapq.heappop(heap)
        w2, _, syms2 = heapq.heappop(heap)
        for sym in syms1 + syms2:
            lengths[sym] += 1
        heapq.heappush(heap, (w1 + w2, node, syms1 + syms2))
    return tuple(lengths)


def _capped_lengths(lengths: tuple[int, ...]) -> tuple[int, ...]:
    """A complete code's lengths with none past ``MAX_CODE_BITS``, by
    Adjust_BITS (ITU-T T.81, Annex K.3) on the per-length counts: two
    codewords of the longest length I become one at I - 1, their former
    prefix, and one of two that split a codeword of the longest length
    J below I - 1.  The Kraft sum stays 1.  The symbols, in (length,
    symbol) order, take the new lengths in order."""
    count = np.bincount(lengths).tolist()
    for longest in range(len(count) - 1, MAX_CODE_BITS, -1):
        while count[longest]:
            j = longest - 2
            while not count[j]:
                j -= 1
            count[longest] -= 2
            count[longest - 1] += 1
            count[j + 1] += 2
            count[j] -= 1
    capped = np.empty(len(lengths), np.int64)
    capped[np.argsort(lengths, kind="stable")] = np.repeat(np.arange(len(count)), count)
    return tuple(capped.tolist())


def _check_alphabet(n_symbols: int) -> None:
    if not 1 <= n_symbols <= 1 << MAX_CODE_BITS:
        raise CodingError(f"a code holds 1 to {1 << MAX_CODE_BITS} symbols, got {n_symbols}")


def build_code(weights: np.ndarray) -> PrefixCode:
    """Huffman-optimal canonical code for the given nonnegative weights,
    its codewords capped at ``MAX_CODE_BITS``.

    Zero-weight symbols are floored to a negligible epsilon so they land at
    the longest lengths while the code stays complete and decodable.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise CodingError("weights must be a vector")
    _check_alphabet(weights.size)
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise CodingError("weights must be finite and nonnegative")
    if not weights.any():
        raise CodingError("all-zero weights")
    scaled = weights / weights.sum()
    floor = float(scaled[scaled > 0].min()) * 1e-9 / len(weights)
    lengths = _huffman_lengths(np.maximum(scaled, floor))
    return PrefixCode(lengths if max(lengths) <= MAX_CODE_BITS else _capped_lengths(lengths))


def fixed_code(n_symbols: int) -> PrefixCode:
    """The fixed-length baseline code: every symbol at ceil(log2 n) bits, minimum 1."""
    _check_alphabet(n_symbols)
    return PrefixCode((max(1, math.ceil(math.log2(n_symbols))),) * n_symbols)


def expected_length(code: PrefixCode, weights: np.ndarray) -> float:
    """Average codeword length in bits under the normalized weights."""
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise CodingError("weights sum to zero")
    return float((weights / total * np.asarray(code.lengths)).sum())


def _kind(a) -> str:
    """An array's dtype and shape, or any other value's type, for errors."""
    return f"{a.dtype} {a.shape}" if isinstance(a, np.ndarray) else type(a).__name__


def _is_bool_array(a, ndim: int) -> bool:
    return isinstance(a, np.ndarray) and a.ndim == ndim and a.dtype == bool


@dataclass(frozen=True)
class EncodedMessage:
    """One sender-to-receiver message; its size and bit counts derive from its parts."""

    conf_mask: np.ndarray  # (h, w) bool
    redund_mask: np.ndarray  # (h, w) bool
    base_payload: np.ndarray  # (n,) bool: base codes for every confidence-selected cell
    full_payload: np.ndarray  # (m,) bool: base+res codes for cells passing both masks

    def __post_init__(self):
        # an integer 0/1 mask would index cells by number, not select them
        masks = (self.conf_mask, self.redund_mask)
        if not all(_is_bool_array(m, 2) for m in masks) or masks[0].shape != masks[1].shape:
            kinds = ", ".join(_kind(m) for m in masks)
            raise CodingError(f"masks must be boolean and share one (h, w) shape, got {kinds}")
        for p in (self.base_payload, self.full_payload):
            if not _is_bool_array(p, 1):
                raise CodingError(f"payloads must be 1-D bool bit vectors, got {_kind(p)}")

    @property
    def h(self) -> int:
        return self.conf_mask.shape[0]

    @property
    def w(self) -> int:
        return self.conf_mask.shape[1]

    @property
    def payload_bits(self) -> int:
        return self.full_payload.size

    @property
    def abstract_bits(self) -> int:
        return self.base_payload.size

    @property
    def mask_bits(self) -> int:
        return 2 * self.h * self.w

    @property
    def total_bits(self) -> int:
        """Payloads plus the two raw mask bitmaps."""
        return self.payload_bits + self.abstract_bits + self.mask_bits


def _codewords(tables: tuple, syms: np.ndarray) -> np.ndarray:
    """Code each row of ``syms`` with ``tables[j]`` for column j, rows in
    order; the first symbol outside its code raises before any lookup."""
    limits = [table.shape[0] for table in tables]
    bad = np.flatnonzero((syms < 0) | (syms >= np.array(limits)))
    if bad.size:
        sym, limit = syms.flat[bad[0]], limits[bad[0] % len(limits)]
        raise CodingError(f"symbol {sym} outside code range {limit}")
    bits = np.hstack([table[syms[:, j]] for j, table in enumerate(tables)]).ravel()
    return bits[bits != _PAD] == 1


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
    masks.  Cells are visited in raster order, each codeword MSB first.
    ``abstract=False`` drops the base payload for pipelines that never hand
    an abstract over.
    """
    conf_mask, redund_mask = (np.asarray(m, dtype=bool) for m in masks)
    h, w = idx.base_idx.shape
    if conf_mask.shape != (h, w) or redund_mask.shape != (h, w):
        raise CodingError(f"mask shapes must be {(h, w)}")
    tables = tuple(code.bit_table for code in codes)
    base_syms = idx.base_idx[conf_mask][:, None]
    base = _codewords(tables[:1], base_syms) if abstract else np.zeros(0, bool)
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


def _window(bits: np.ndarray, width: int) -> np.ndarray:
    """The next ``width`` bits (at most 57) from every bit of ``bits`` as
    one number, MSB first, with zeros past the end: the 64-bit big-endian
    word at the bit's byte, shifted left past the bits before it."""
    packed = np.concatenate([np.packbits(bits), np.zeros(7, np.uint8)])
    words = np.ndarray(packed.size - 7, ">u8", packed, strides=(1,))
    word = words[:, None] << np.arange(8, dtype=np.uint64)  # bit i: row i >> 3, column i & 7
    return (word >> (64 - width)).ravel()[: bits.size].view(np.int64)  # int64 indexes fastest


def _jumps(bits: np.ndarray, window: np.ndarray, code: PrefixCode):
    """Decode the codeword starting at every bit of ``bits``, given their
    ``_window`` of ``code.table_bits`` bits.

    Returns per start bit the symbol and, in ``jump`` (n + 3 entries), the
    bit after its codeword.  Failures jump to sinks that map to themselves:
    ``n + 1`` when the codeword, or the read up to the longest length, runs
    past the end (also the jump from ``n``), ``n + 2`` when the bits match
    no codeword.
    """
    n, max_len = bits.size, code.table_bits
    length, sym = (table[window] for table in code.decode_table)
    jump = np.arange(n) + length
    jump[length == 0] = n + 2
    tail = jump[max(0, n - max_len + 1) :]  # the starts whose reads may overrun
    tail[tail > n] = n + 1
    return np.concatenate([jump, [n + 1, n + 1, n + 2]]), sym


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
    if msg.base_payload.size:
        bits = msg.base_payload
        jump, syms = _jumps(bits, _window(bits, codes[0].table_bits), codes[0])
        base_idx[msg.conf_mask] = syms[_walk(jump, int(msg.conf_mask.sum()), "base")]

    both = msg.conf_mask & msg.redund_mask
    if msg.full_payload.size or np.any(both):
        bits, width = msg.full_payload, max(c.table_bits for c in codes)
        window = _window(bits, width)  # the narrower code reads its leading bits
        (b_jump, b_syms), (r_jump, r_syms) = (
            _jumps(bits, window >> (width - c.table_bits), c) for c in codes
        )
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
        ("base payload length", msg.abstract_bits, 32),
        ("full payload length", msg.payload_bits, 32),
    )
    for name, value, bits in fields:
        if not 0 <= value < 1 << bits:
            raise CodingError(f"{name} {value} does not fit its {bits}-bit field")
    header = MAGIC + bytes([VERSION]) + b"".join(
        int(value).to_bytes(bits // 8, "big") for _, value, bits in fields[:3]
    )
    body = [msg.conf_mask.ravel(), msg.redund_mask.ravel()]
    for payload in (msg.base_payload, msg.full_payload):
        length = payload.size.to_bytes(4, "big")
        body += [np.unpackbits(np.frombuffer(length, np.uint8)), payload]
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
    bits = np.unpackbits(np.frombuffer(blob, np.uint8, offset=HEADER_BYTES)).view(bool)
    pos = 0

    def take(n_bits: int) -> np.ndarray:
        nonlocal pos
        if pos + n_bits > bits.size:
            raise CodingError("truncated bitstream")
        pos += n_bits
        return bits[pos - n_bits : pos]

    conf_mask, redund_mask = (take(h * w).reshape(h, w) for _ in range(2))
    base, full = (take(int.from_bytes(np.packbits(take(32)), "big")) for _ in range(2))
    if bits.size - pos >= 8:
        raise CodingError("trailing bytes after the message")
    if bits[pos:].any():
        raise CodingError("nonzero padding bits")
    return EncodedMessage(conf_mask, redund_mask, base, full), blob[9]
