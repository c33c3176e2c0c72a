"""The bit-at-a-time entropy coder as it was before vectorization.

Kept as a test oracle: ``pragcomm.entropy_coder`` must produce the same
payloads, decoded grids and v1 blobs as these functions.  They share the
message types and the code tables with the package.  Their writers and
readers work on packed bytes; ``_payload`` and ``_packed`` convert to and
from the message's bool bit vectors at the edges.  ``huffman_lengths``
is the Huffman length count as it was before it counted depths while
merging: it records each node's parent and walks up from every symbol.
"""

from __future__ import annotations

import heapq

import numpy as np

from pragcomm.entropy_coder import (
    MAGIC,
    VERSION,
    CodingError,
    EncodedMessage,
    PrefixCode,
)
from pragcomm.vq import IndexGrid


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

    def write_bits(self, bits: np.ndarray) -> None:
        reader = BitReader(*_packed(bits))
        for _ in range(bits.size):
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

def huffman_lengths(weights: np.ndarray) -> list[int]:
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


def _payload(data: bytes, n_bits: int) -> np.ndarray:
    """The first n_bits of packed bytes as a bool bit vector."""
    return np.unpackbits(np.frombuffer(data, np.uint8), count=n_bits).astype(bool)


def _packed(bits: np.ndarray) -> tuple[bytes, int]:
    """A bool bit vector as packed bytes and its bit count."""
    return np.packbits(bits).tobytes(), bits.size


def _encode_symbols(symbols, code: PrefixCode) -> np.ndarray:
    writer = BitWriter()
    count = 0
    for sym in symbols:
        if not 0 <= sym < code.n_symbols:
            raise CodingError(f"symbol {sym} outside code range {code.n_symbols}")
        value, length = code.codewords[sym]
        writer.write(value, length)
        count += code.lengths[sym]
    return _payload(writer.finish(), count)


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
        _encode_symbols(base_syms[sel], base_code) if abstract else _payload(b"", 0)
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
    full_payload = _payload(writer.finish(), full_bits)
    return EncodedMessage(
        conf_mask=conf_mask,
        redund_mask=redund_mask,
        base_payload=base_payload,
        full_payload=full_payload,
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
    base_code, res_code = codes
    base_tab, base_max = _decode_table(base_code)
    res_tab, res_max = _decode_table(res_code)
    h, w = msg.h, msg.w
    base_idx = np.full((h, w), -1, dtype=np.int64)
    res_idx = np.full((h, w), -1, dtype=np.int64)

    if msg.base_payload.size:
        reader = BitReader(*_packed(msg.base_payload))
        for (r, c) in np.argwhere(msg.conf_mask):
            base_idx[r, c] = _decode_symbol(reader, base_tab, base_max)
        if reader.pos != msg.base_payload.size:
            raise CodingError("base payload has trailing bits")

    both = msg.conf_mask & msg.redund_mask
    if msg.full_payload.size or np.any(both):
        reader = BitReader(*_packed(msg.full_payload))
        for (r, c) in np.argwhere(both):
            base_idx[r, c] = _decode_symbol(reader, base_tab, base_max)
            res_idx[r, c] = _decode_symbol(reader, res_tab, res_max)
        if reader.pos != msg.full_payload.size:
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
        ("base payload length", msg.base_payload.size, 32),
        ("full payload length", msg.full_payload.size, 32),
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
    writer.write(msg.base_payload.size, 32)
    writer.write_bits(msg.base_payload)
    writer.write(msg.full_payload.size, 32)
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

    def read_payload() -> np.ndarray:
        n_bits = reader.read_uint(32)
        writer = BitWriter()
        for _ in range(n_bits):
            writer.write(reader.read_bit(), 1)
        return _payload(writer.finish(), n_bits)

    base_payload = read_payload()
    full_payload = read_payload()
    msg = EncodedMessage(
        conf_mask=conf_mask,
        redund_mask=redund_mask,
        base_payload=base_payload,
        full_payload=full_payload,
    )
    return msg, table_id
