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

``_layout`` alone says what a message's two payloads code, cells in
raster order: the abstract (base payload) the base index of every
confidence-mask cell, or nothing when none is sent, and the full payload
the base then the residual index of every cell in both masks.  v1 reads a
nonempty base payload as an abstract, so an abstract cut to zero bits
decodes as a message that never had one; an explicit flag would replace
that test.  A payload is a 1-D bool vector, one element per bit; bytes
exist only in ``message_to_bytes`` and ``message_from_bytes``.  Each code
caches its codewords' bits and a decode table over its longest codeword's
length, at most 2**16 entries (Hirschberg & Lelewer 1990, "Efficient
decoding of prefix codes"; the codewords of one length are consecutive
integers, Moffat & Turpin 1997).  The decoder reads the next bits at
every bit of a payload at once, as one window its layers' codes share,
looks each window up once per layer and walks the codeword starts.

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
from functools import cached_property, reduce

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
    base_payload: np.ndarray  # (n,) bool: the abstract
    full_payload: np.ndarray  # (m,) bool

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


def _layout(conf_mask: np.ndarray, redund_mask: np.ndarray, abstract: bool):
    """Per payload, in wire order, the cells it codes and the index layers
    (0 base, 1 residual) each cell carries, in codeword order."""
    return ((conf_mask & bool(abstract), (0,)), (conf_mask & redund_mask, (0, 1)))


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
    """Code ``idx`` under the two masks as ``_layout`` says, with or without an abstract."""
    conf_mask, redund_mask = (np.asarray(m, dtype=bool) for m in masks)
    h, w = idx.base_idx.shape
    if conf_mask.shape != (h, w) or redund_mask.shape != (h, w):
        raise CodingError(f"mask shapes must be {(h, w)}")
    grids, tables = (idx.base_idx, idx.res_idx), [code.bit_table for code in codes]
    base, full = (
        _codewords([tables[i] for i in layers], np.stack([grids[i][cells] for i in layers], 1))
        if cells.any() else np.zeros(0, bool)
        for cells, layers in _layout(conf_mask, redund_mask, abstract)
    )
    return EncodedMessage(conf_mask, redund_mask, base, full)


def carried(msg: EncodedMessage) -> tuple[np.ndarray, np.ndarray]:
    """The cells of ``msg`` that carry a base index and those that carry a
    residual index, each over both payloads."""
    layout = _layout(msg.conf_mask, msg.redund_mask, msg.abstract_bits > 0)
    return tuple(
        reduce(np.logical_or, [cells for cells, layers in layout if i in layers]) for i in (0, 1)
    )


def transmitted_grid(idx, msg: EncodedMessage):
    """The grid ``decode(msg, codes)`` returns when ``msg`` is the encoding
    of ``idx``: ``idx`` on the cells the message carries, -1 elsewhere."""
    grid = [np.full((msg.h, msg.w), -1, dtype=np.int64) for _ in range(2)]
    for out, src, cells in zip(grid, (idx.base_idx, idx.res_idx), carried(msg)):
        np.copyto(out, src, where=cells)
    return IndexGrid(*grid)


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
    """The index grid on the cells the message carries; absent cells are -1."""
    grid = [np.full((msg.h, msg.w), -1, dtype=np.int64) for _ in range(2)]
    payloads = (("base", msg.base_payload), ("full", msg.full_payload))
    layout = _layout(msg.conf_mask, msg.redund_mask, msg.abstract_bits > 0)
    for (what, bits), (cells, layers) in zip(payloads, layout):
        k = np.count_nonzero(cells)
        if not (k or bits.size):  # no cells, no bits: skip an empty walk's fixed cost
            continue
        width = max(codes[i].table_bits for i in layers)
        window = _window(bits, width)  # a narrower code reads its leading bits
        steps = [_jumps(bits, window >> (width - codes[i].table_bits), codes[i]) for i in layers]
        jump = steps[0][0]
        for layer_jump, _ in steps[1:]:  # one step reads a cell's codewords; sinks stay put
            jump = layer_jump[jump]
        starts = _walk(jump, k, what)
        for i, (layer_jump, syms) in zip(layers, steps):
            grid[i][cells] = syms[starts]
            starts = layer_jump[starts]
    return IndexGrid(*grid)


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
