"""Canonical Huffman coding of index grids plus bit-exact serialization.

Codeword weights come from whatever tally the caller chooses: accumulated
task confidence (the default coding mode), raw occurrence counts, or nothing
at all (fixed-length codes).  Codes are canonical, so identical weights give
bit-identical codewords on every platform, and zero-weight symbols stay
encodable at the longest lengths instead of breaking the decoder.

Wire format (bit level, MSB first):
    magic "RDCM" | version u8 | h u16 | w u16 | code-table id u8 |
    confidence mask (h*w bits, row major) | redundancy mask (h*w bits) |
    base length u32 | base payload | full length u32 | full payload |
    zero padding to a byte boundary.
All multi-byte integers are big-endian.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

MAGIC = b"RDCM"
VERSION = 1


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
    positive = weights[weights > 0]
    if positive.size == 0:
        raise CodingError("all-zero weights: accumulate frequencies before coding")
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


class BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, length: int) -> None:
        for i in range(length - 1, -1, -1):
            self.acc = (self.acc << 1) | ((value >> i) & 1)
            self.nbits += 1
            if self.nbits == 8:
                self.buf.append(self.acc)
                self.acc = 0
                self.nbits = 0

    def write_bits(self, bits: "Bits") -> None:
        reader = BitReader(bits.data, bits.n_bits)
        for _ in range(bits.n_bits):
            self.write(reader.read_bit(), 1)

    def finish(self) -> bytes:
        if self.nbits:
            self.buf.append(self.acc << (8 - self.nbits))
            self.acc = 0
            self.nbits = 0
        return bytes(self.buf)


class BitReader:
    def __init__(self, data: bytes, n_bits: int | None = None):
        self.data = data
        self.n_bits = len(data) * 8 if n_bits is None else n_bits
        self.pos = 0

    def read_bit(self) -> int:
        if self.pos >= self.n_bits:
            raise CodingError("truncated bitstream")
        byte = self.data[self.pos >> 3]
        bit = (byte >> (7 - (self.pos & 7))) & 1
        self.pos += 1
        return bit

    def read_uint(self, length: int) -> int:
        v = 0
        for _ in range(length):
            v = (v << 1) | self.read_bit()
        return v


@dataclass(frozen=True)
class Bits:
    """An immutable bit string padded to bytes, with its exact bit length."""

    data: bytes
    n_bits: int


@dataclass(frozen=True)
class EncodedMessage:
    """One sender-to-receiver message: masks, abstract payload, full payload."""

    h: int
    w: int
    conf_mask: np.ndarray  # (h, w) bool
    redund_mask: np.ndarray  # (h, w) bool
    base_payload: Bits  # base codes for every confidence-selected cell
    full_payload: Bits  # base+res codes for cells passing both masks
    total_bits: int  # payloads plus the two raw mask bitmaps

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
    def volume_bits(self) -> int:
        """Coded volume without the mask bitmaps (the without-mask accounting)."""
        return self.payload_bits + self.abstract_bits


def _encode_symbols(symbols, code: PrefixCode) -> Bits:
    writer = BitWriter()
    count = 0
    for sym in symbols:
        if not 0 <= sym < code.n_symbols:
            raise CodingError(f"symbol {sym} outside code range {code.n_symbols}")
        value, length = code.codewords[sym]
        writer.write(value, length)
        count += code.lengths[sym]
    return Bits(writer.finish(), count)


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
    base_code, res_code = codes
    sel = conf_mask.ravel()
    both = (conf_mask & redund_mask).ravel()
    base_syms = idx.base_idx.ravel()
    res_syms = idx.res_idx.ravel()

    base_payload = (
        _encode_symbols(base_syms[sel], base_code) if abstract else Bits(b"", 0)
    )
    writer = BitWriter()
    full_bits = 0
    for b, r in zip(base_syms[both], res_syms[both]):
        for sym, code in ((b, base_code), (r, res_code)):
            if not 0 <= sym < code.n_symbols:
                raise CodingError(f"symbol {sym} outside code range {code.n_symbols}")
            value, length = code.codewords[sym]
            writer.write(value, length)
            full_bits += length
    full_payload = Bits(writer.finish(), full_bits)
    total = base_payload.n_bits + full_payload.n_bits + 2 * h * w
    return EncodedMessage(
        h=h,
        w=w,
        conf_mask=conf_mask,
        redund_mask=redund_mask,
        base_payload=base_payload,
        full_payload=full_payload,
        total_bits=total,
    )


def _decode_symbol(reader: BitReader, table: dict, max_len: int) -> int:
    value = 0
    for length in range(1, max_len + 1):
        value = (value << 1) | reader.read_bit()
        sym = table.get((length, value))
        if sym is not None:
            return sym
    raise CodingError("invalid codeword walk")


def _decode_table(code: PrefixCode) -> tuple[dict, int]:
    table = {(l, v): s for s, (v, l) in enumerate(code.codewords)}
    return table, max(code.lengths)


def decode(msg: EncodedMessage, codes: tuple[PrefixCode, PrefixCode]):
    """Recover the index grid on the transmitted cells; absent cells are -1.

    Cells passing both masks get base and residual indices; cells only in the
    confidence mask get the abstract base index (when an abstract was sent).
    """
    from .vq import IndexGrid  # deferred to avoid an import cycle

    base_code, res_code = codes
    base_tab, base_max = _decode_table(base_code)
    res_tab, res_max = _decode_table(res_code)
    h, w = msg.h, msg.w
    base_idx = np.full((h, w), -1, dtype=np.int64)
    res_idx = np.full((h, w), -1, dtype=np.int64)

    if msg.base_payload.n_bits:
        reader = BitReader(msg.base_payload.data, msg.base_payload.n_bits)
        for (r, c) in np.argwhere(msg.conf_mask):
            base_idx[r, c] = _decode_symbol(reader, base_tab, base_max)
        if reader.pos != msg.base_payload.n_bits:
            raise CodingError("base payload has trailing bits")

    both = msg.conf_mask & msg.redund_mask
    if msg.full_payload.n_bits or np.any(both):
        reader = BitReader(msg.full_payload.data, msg.full_payload.n_bits)
        for (r, c) in np.argwhere(both):
            base_idx[r, c] = _decode_symbol(reader, base_tab, base_max)
            res_idx[r, c] = _decode_symbol(reader, res_tab, res_max)
        if reader.pos != msg.full_payload.n_bits:
            raise CodingError("full payload has trailing bits")
    return IndexGrid(base_idx, res_idx)


def _write_mask(writer: BitWriter, mask: np.ndarray) -> None:
    for bit in mask.ravel():
        writer.write(int(bit), 1)


def message_to_bytes(msg: EncodedMessage, table_id: int = 0) -> bytes:
    """Serialize a message; a value too wide for its header field raises
    ``CodingError`` instead of being truncated."""
    for name, value, bits in (
        ("h", msg.h, 16),
        ("w", msg.w, 16),
        ("table_id", table_id, 8),
        ("base payload length", msg.base_payload.n_bits, 32),
        ("full payload length", msg.full_payload.n_bits, 32),
    ):
        if not 0 <= value < 1 << bits:
            raise CodingError(f"{name} {value} does not fit its {bits}-bit field")
    writer = BitWriter()
    for byte in MAGIC:
        writer.write(byte, 8)
    writer.write(VERSION, 8)
    writer.write(msg.h, 16)
    writer.write(msg.w, 16)
    writer.write(table_id, 8)
    _write_mask(writer, msg.conf_mask)
    _write_mask(writer, msg.redund_mask)
    writer.write(msg.base_payload.n_bits, 32)
    writer.write_bits(msg.base_payload)
    writer.write(msg.full_payload.n_bits, 32)
    writer.write_bits(msg.full_payload)
    return writer.finish()


def message_from_bytes(blob: bytes) -> tuple[EncodedMessage, int]:
    """Parse the wire format back into a message; returns (message, table id)."""
    reader = BitReader(blob)
    magic = bytes(reader.read_uint(8) for _ in range(4))
    if magic != MAGIC:
        raise CodingError(f"bad magic {magic!r}")
    version = reader.read_uint(8)
    if version != VERSION:
        raise CodingError(f"unsupported version {version}")
    h = reader.read_uint(16)
    w = reader.read_uint(16)
    table_id = reader.read_uint(8)

    def read_mask() -> np.ndarray:
        bits = [reader.read_bit() for _ in range(h * w)]
        return np.array(bits, dtype=bool).reshape(h, w)

    conf_mask = read_mask()
    redund_mask = read_mask()

    def read_payload() -> Bits:
        n_bits = reader.read_uint(32)
        writer = BitWriter()
        for _ in range(n_bits):
            writer.write(reader.read_bit(), 1)
        return Bits(writer.finish(), n_bits)

    base_payload = read_payload()
    full_payload = read_payload()
    msg = EncodedMessage(
        h=h,
        w=w,
        conf_mask=conf_mask,
        redund_mask=redund_mask,
        base_payload=base_payload,
        full_payload=full_payload,
        total_bits=base_payload.n_bits + full_payload.n_bits + 2 * h * w,
    )
    return msg, table_id
