import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pragcomm.entropy_coder import (
    MAX_CODE_BITS,
    CodingError,
    EncodedMessage,
    PrefixCode,
    _huffman_lengths,
    _jumps,
    _window,
    build_code,
    decode,
    encode,
    expected_length,
    fixed_code,
    message_from_bytes,
    message_to_bytes,
    transmitted_grid,
)
from pragcomm.infotheory import JointTable, entropy
from pragcomm.vq import IndexGrid

import bitwise_coder as bitwise
import jumps_oracle


def weight_entropy_bits(weights) -> float:
    w = np.asarray(weights, dtype=float)
    w = w[w > 0]
    p = w / w.sum()
    return float(-(p * np.log2(p)).sum())


class TestBuildCode:
    def test_dyadic_weights(self):
        code = build_code(np.array([8.0, 4.0, 2.0, 2.0]))
        assert code.lengths == (1, 2, 3, 3)
        assert expected_length(code, [8, 4, 2, 2]) == pytest.approx(1.75)

    def test_single_symbol_degenerate(self):
        code = build_code(np.array([3.0]))
        assert code.lengths == (1,)
        assert code.codeword_str(0) == "0"

    def test_all_zero_rejected(self):
        with pytest.raises(CodingError, match="all-zero"):
            build_code(np.zeros(4))

    @pytest.mark.parametrize(
        "weights, message",
        [
            (np.ones((2, 2)), "weights must be a vector"),
            (np.array([1.0, -1.0]), "weights must be finite and nonnegative"),
            (np.array([1.0, np.nan]), "weights must be finite and nonnegative"),
            (np.array([1.0, np.inf]), "weights must be finite and nonnegative"),
        ],
        ids=["2-D", "negative", "nan", "inf"],
    )
    def test_bad_weights_rejected(self, weights, message):
        with pytest.raises(CodingError, match=f"^{message}$"):
            build_code(weights)

    def test_expected_length_within_entropy_plus_one(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            w = rng.uniform(0.01, 10, size=rng.integers(2, 40))
            code = build_code(w)
            h = weight_entropy_bits(w)
            e = expected_length(code, w)
            assert h - 1e-9 <= e < h + 1.0

    def test_kraft_and_prefix_free(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            w = rng.uniform(0, 5, size=rng.integers(2, 20))
            w[rng.integers(len(w))] = 1.0  # at least one positive weight
            code = build_code(w)
            assert sum(2.0 ** -l for l in code.lengths) <= 1.0 + 1e-12
            words = [code.codeword_str(s) for s in range(code.n_symbols)]
            for a, b in itertools.permutations(words, 2):
                assert not a.startswith(b) or a == b

    def test_zero_weight_symbols_get_longest_codes(self):
        code = build_code(np.array([4.0, 2.0, 0.0, 1.0, 0.0]))
        max_positive = max(code.lengths[i] for i in (0, 1, 3))
        assert code.lengths[2] >= max_positive
        assert code.lengths[4] >= max_positive
        assert max(code.lengths) in (code.lengths[2], code.lengths[4])

    def test_huffman_optimal_exhaustive_small(self):
        rng = np.random.default_rng(79)
        for n in (2, 3, 4, 5):
            for _ in range(5):
                w = rng.uniform(0.05, 1.0, size=n)
                code = build_code(w)
                got = expected_length(code, w)
                best = min(
                    (w / w.sum() * np.array(ls)).sum()
                    for ls in itertools.product(range(1, n + 1), repeat=n)
                    if sum(2.0 ** -l for l in ls) <= 1.0 + 1e-12
                )
                assert got == pytest.approx(best, abs=1e-12)

    def test_canonical_determinism_under_scaling(self):
        w = np.array([5.0, 1.0, 3.0, 3.0, 0.25])
        c1 = build_code(w)
        c2 = build_code(w * 7.0)
        assert c1 == c2

    def test_canonical_order(self):
        code = build_code(np.array([8.0, 4.0, 2.0, 2.0]))
        assert code.codeword_str(0) == "0"
        assert code.codeword_str(1) == "10"
        assert code.codeword_str(2) == "110"
        assert code.codeword_str(3) == "111"


@st.composite
def huffman_weights(draw):
    """Random, tied, geometric and uniform positive weights."""
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {
        "random": rng.uniform(1e-6, 1.0, n),
        "tied": rng.integers(1, 4, n).astype(float),
        "geometric": 2.0 ** -np.arange(n),
        "uniform": np.ones(n),
    }[draw(st.sampled_from(("random", "tied", "geometric", "uniform")))]


class TestPrefixCode:
    """A code is its lengths: the codewords follow from them."""

    def test_hand_built_code_round_trips(self):
        code = PrefixCode((1, 1))
        idx = IndexGrid(np.array([[0, 1]]), np.array([[1, 0]]))
        masks = (np.ones((1, 2), bool),) * 2
        got = decode(encode(idx, masks, (code, code)), (code, code))
        assert (got.base_idx.tolist(), got.res_idx.tolist()) == ([[0, 1]], [[1, 0]])

    @pytest.mark.parametrize("lengths", [(), (0,), (2, 0), (-1, 1), (1, 1, 1), (2, 1, 2, 2),
                                         tuple(range(1, 17)) + (16, 16), (17,), (1, 17),
                                         tuple(range(1, 18)) + (17,)])
    def test_impossible_lengths_rejected(self, lengths):
        # the seventh set overfills the Kraft sum by 2**-16; the last three
        # hold a codeword longer than 16 bits, the last of them in a complete code
        with pytest.raises(CodingError, match="codeword lengths"):
            PrefixCode(lengths)

    def test_complete_long_code_accepted(self):
        code = PrefixCode(tuple(range(1, MAX_CODE_BITS + 1)) + (MAX_CODE_BITS,))
        assert code.codeword_str(MAX_CODE_BITS) == "1" * MAX_CODE_BITS

    @settings(max_examples=300, deadline=None)
    @given(weights=huffman_weights())
    def test_huffman_lengths_match_the_parent_map_walk(self, weights):
        assert _huffman_lengths(weights) == tuple(bitwise.huffman_lengths(weights))

    @settings(max_examples=300, deadline=None)
    @given(weights=huffman_weights())
    def test_built_code_is_huffman_capped_at_16_bits(self, weights):
        huffman = np.array(_huffman_lengths(weights / weights.sum()))
        got = np.array(build_code(weights).lengths)
        if huffman.max() <= MAX_CODE_BITS:
            np.testing.assert_array_equal(got, huffman)
            return
        assert got.max() <= MAX_CODE_BITS
        assert sum(1 << (MAX_CODE_BITS - int(L)) for L in got) == 1 << MAX_CODE_BITS
        shorter = huffman[:, None] < huffman[None, :]  # [a, b]: a's Huffman length is shorter
        assert not (shorter & (got[:, None] > got[None, :])).any()


class TestFixedLength:
    def test_values(self):
        assert fixed_code(128).lengths == (7,) * 128
        assert fixed_code(1).lengths == (1,)
        assert fixed_code(6).lengths == (3,) * 6

    def test_alphabets_past_a_16_bit_code_rejected(self):
        assert fixed_code(1 << 16).lengths == (16,) * (1 << 16)
        for n in (0, (1 << 16) + 1):
            for make in (fixed_code, lambda n: build_code(np.ones(n))):
                with pytest.raises(CodingError, match=f"1 to 65536 symbols, got {n}"):
                    make(n)

    def test_fixed_code_uniform(self):
        code = fixed_code(6)
        assert all(l == 3 for l in code.lengths)
        assert sum(2.0 ** -l for l in code.lengths) <= 1.0


def grid_fixture(h=4, w=5, n_base=4, n_res=8, seed=0):
    rng = np.random.default_rng(seed)
    idx = IndexGrid(rng.integers(n_base, size=(h, w)), rng.integers(n_res, size=(h, w)))
    base_code = build_code(rng.uniform(0.1, 1, n_base))
    res_code = build_code(rng.uniform(0.1, 1, n_res))
    return idx, base_code, res_code


class TestEncode:
    def test_all_masks_zero(self):
        idx, bc, rc = grid_fixture()
        zero = np.zeros((4, 5), dtype=bool)
        msg = encode(idx, (zero, zero), (bc, rc))
        assert msg.payload_bits == 0
        assert msg.abstract_bits == 0
        assert msg.total_bits == 2 * 4 * 5

    def test_full_masks_uniform_code_exact_count(self):
        h, w = 3, 4
        rng = np.random.default_rng(5)
        idx = IndexGrid(rng.integers(4, size=(h, w)), rng.integers(8, size=(h, w)))
        bc, rc = fixed_code(4), fixed_code(8)
        ones = np.ones((h, w), dtype=bool)
        msg = encode(idx, (ones, ones), (bc, rc))
        l_base, l_res = 2, 3
        assert msg.total_bits == h * w * (l_base + l_base + l_res) + 2 * h * w

    def test_round_trip_and_length_oracle(self):
        idx, bc, rc = grid_fixture(seed=11)
        rng = np.random.default_rng(12)
        conf = rng.uniform(size=(4, 5)) > 0.4
        red = rng.uniform(size=(4, 5)) > 0.3
        msg = encode(idx, (conf, red), (bc, rc))
        # independent per-cell length accumulator
        want_abstract = sum(bc.lengths[s] for s in idx.base_idx[conf])
        both = conf & red
        want_payload = sum(
            bc.lengths[b] + rc.lengths[r]
            for b, r in zip(idx.base_idx[both], idx.res_idx[both])
        )
        assert msg.abstract_bits == want_abstract
        assert msg.payload_bits == want_payload
        back = decode(msg, (bc, rc))
        np.testing.assert_array_equal(back.base_idx[conf], idx.base_idx[conf])
        np.testing.assert_array_equal(back.res_idx[both], idx.res_idx[both])
        assert np.all(back.base_idx[~conf] == -1)
        assert np.all(back.res_idx[~both] == -1)

    def test_symbol_out_of_range(self):
        idx = IndexGrid(np.array([[5]]), np.array([[0]]))
        bc, rc = fixed_code(4), fixed_code(8)
        ones = np.ones((1, 1), dtype=bool)
        with pytest.raises(CodingError, match="outside"):
            encode(idx, (ones, ones), (bc, rc))

    def test_no_abstract_variant(self):
        idx, bc, rc = grid_fixture(seed=13)
        ones = np.ones((4, 5), dtype=bool)
        msg = encode(idx, (ones, ones), (bc, rc), abstract=False)
        assert msg.abstract_bits == 0
        assert msg.payload_bits > 0
        back = decode(msg, (bc, rc))
        np.testing.assert_array_equal(back.base_idx, idx.base_idx)

    def test_lossless_round_trip_many_seeds(self):
        for seed in range(1000):
            idx, bc, rc = grid_fixture(h=3, w=3, seed=seed)
            rng = np.random.default_rng(seed + 10_000)
            conf = rng.uniform(size=(3, 3)) > 0.5
            red = rng.uniform(size=(3, 3)) > 0.5
            msg = encode(idx, (conf, red), (bc, rc))
            back = decode(msg, (bc, rc))
            np.testing.assert_array_equal(back.base_idx[conf], idx.base_idx[conf])
            both = conf & red
            np.testing.assert_array_equal(back.res_idx[both], idx.res_idx[both])

    @pytest.mark.parametrize("which", [0, 1])
    def test_mask_of_another_shape_rejected(self, which):
        idx, bc, rc = grid_fixture()  # a 4 x 5 grid
        masks = [np.ones((4, 5), dtype=bool)] * 2
        masks[which] = np.ones((5, 4), dtype=bool)
        with pytest.raises(CodingError, match=r"^mask shapes must be \(4, 5\)$"):
            encode(idx, tuple(masks), (bc, rc))

    def test_masks_must_be_boolean_and_share_one_grid_shape(self):
        idx, bc, rc = grid_fixture()
        ones = np.ones((4, 5), dtype=bool)
        msg = encode(idx, (ones, ones), (bc, rc))
        nested = ones.tolist()
        cases = [(ones, ones[:3]), (ones.ravel(), ones.ravel()), (ones, ones.astype(int)),
                 (ones.astype(int), ones.astype(int)), (nested, ones), (ones, nested),
                 (nested, nested), (tuple(map(tuple, nested)), ones)]
        for conf, redund in cases:
            with pytest.raises(CodingError, match="boolean and share one"):
                dataclasses.replace(msg, conf_mask=conf, redund_mask=redund)


class TestDecodeErrors:
    def test_truncated_stream(self):
        idx, bc, rc = grid_fixture(seed=21)
        ones = np.ones((4, 5), dtype=bool)
        msg = encode(idx, (ones, ones), (bc, rc))
        broken = EncodedMessage(
            conf_mask=msg.conf_mask,
            redund_mask=msg.redund_mask,
            base_payload=msg.base_payload[:-3],
            full_payload=msg.full_payload,
        )
        with pytest.raises(CodingError):
            decode(broken, (bc, rc))

    def test_invalid_codeword_walk(self):
        # degenerate single-symbol code leaves the "1" branch unassigned
        code = build_code(np.array([1.0]))
        idx = IndexGrid(np.zeros((1, 1), dtype=int), np.zeros((1, 1), dtype=int))
        ones = np.ones((1, 1), dtype=bool)
        msg = encode(idx, (ones, ones), (code, code))
        poisoned = EncodedMessage(
            conf_mask=msg.conf_mask,
            redund_mask=msg.redund_mask,
            base_payload=np.ones(1, bool),
            full_payload=msg.full_payload,
        )
        with pytest.raises(CodingError, match="invalid codeword"):
            decode(poisoned, (code, code))


class TestWireFormat:
    def test_byte_layout_header(self):
        idx, bc, rc = grid_fixture(h=2, w=3, seed=31)
        ones = np.ones((2, 3), dtype=bool)
        msg = encode(idx, (ones, ones), (bc, rc))
        blob = message_to_bytes(msg, table_id=7)
        assert blob[:4] == b"RDCM"
        assert blob[4] == 1  # version
        assert int.from_bytes(blob[5:7], "big") == 2
        assert int.from_bytes(blob[7:9], "big") == 3
        assert blob[9] == 7

    def test_round_trip(self):
        idx, bc, rc = grid_fixture(h=5, w=4, seed=33)
        rng = np.random.default_rng(34)
        conf = rng.uniform(size=(5, 4)) > 0.5
        red = rng.uniform(size=(5, 4)) > 0.2
        msg = encode(idx, (conf, red), (bc, rc))
        blob = message_to_bytes(msg, table_id=3)
        back, table_id = message_from_bytes(blob)
        assert table_id == 3
        np.testing.assert_array_equal(back.conf_mask, msg.conf_mask)
        np.testing.assert_array_equal(back.redund_mask, msg.redund_mask)
        assert back.total_bits == msg.total_bits
        dec = decode(back, (bc, rc))
        np.testing.assert_array_equal(dec.base_idx[conf], idx.base_idx[conf])

    def test_bad_magic(self):
        with pytest.raises(CodingError, match="magic"):
            message_from_bytes(b"NOPE" + bytes(20))

    @pytest.mark.parametrize(
        "field, value",
        [("h", 1 << 16), ("w", 1 << 16), ("table_id", 256),
         ("table_id", -1), ("base", 1 << 32), ("full", 1 << 32)],
    )
    def test_oversize_header_field_rejected(self, field, value):
        idx, bc, rc = grid_fixture(h=2, w=3, seed=36)
        ones = np.ones((2, 3), dtype=bool)
        msg = encode(idx, (ones, ones), (bc, rc))
        table_id = 0
        if field in ("h", "w"):
            mask = np.ones((value, 3) if field == "h" else (2, value), dtype=bool)
            msg = dataclasses.replace(msg, conf_mask=mask, redund_mask=mask)
        elif field == "table_id":
            table_id = value
        else:
            # a zero-stride view: 2**32 bits without allocating them
            payload = np.broadcast_to(np.zeros(1, bool), (value,))
            msg = dataclasses.replace(msg, **{f"{field}_payload": payload})
        with pytest.raises(CodingError, match="does not fit"):
            message_to_bytes(msg, table_id)

    def test_widest_header_fields_accepted(self):
        idx, bc, rc = grid_fixture(h=2, w=3, seed=37)
        ones = np.ones((2, 3), dtype=bool)
        blob = message_to_bytes(encode(idx, (ones, ones), (bc, rc)), table_id=255)
        assert message_from_bytes(blob)[1] == 255

    def test_deterministic_bytes(self):
        idx, bc, rc = grid_fixture(seed=35)
        ones = np.ones((4, 5), dtype=bool)
        blob1 = message_to_bytes(encode(idx, (ones, ones), (bc, rc)))
        blob2 = message_to_bytes(encode(idx, (ones, ones), (bc, rc)))
        assert blob1 == blob2


class TestCodingAblationDirection:
    def build_corpus(self):
        """Symbol stream where confident cells use few symbols and background
        cells spread over many; returns (occurrence, confidence) tallies."""
        n = 64
        rng = np.random.default_rng(41)
        occ = np.zeros(n)
        conf = np.zeros(n)
        # 3000 confident cells concentrated on symbols 0..3
        confident_syms = rng.choice(4, size=3000, p=[0.4, 0.3, 0.2, 0.1])
        np.add.at(occ, confident_syms, 1.0)
        np.add.at(conf, confident_syms, 1.0)
        # 7000 background cells spread over all the rest, near-zero confidence
        bg_syms = rng.integers(4, n, size=7000)
        np.add.at(occ, bg_syms, 1.0)
        np.add.at(conf, bg_syms, 1e-4)
        # transmitted distribution: only confident cells pass the mask
        transmitted = np.zeros(n)
        np.add.at(transmitted, confident_syms, 1.0)
        return occ, conf, transmitted, n

    def test_strict_ordering_and_entropy_band(self):
        occ, conf, transmitted, n = self.build_corpus()
        task_code = build_code(conf)
        occ_code = build_code(occ)
        fix_code = fixed_code(n)
        e_task = expected_length(task_code, transmitted)
        e_occ = expected_length(occ_code, transmitted)
        e_fix = expected_length(fix_code, transmitted)
        assert e_task < e_occ < e_fix
        h = weight_entropy_bits(conf)
        assert h <= e_task < h + 1.0


@st.composite
def prefix_codes(draw):
    n = draw(st.integers(1, 80))
    kind = draw(st.sampled_from(("weights", "fixed", "geometric", "lengths")))
    if kind == "fixed":
        return fixed_code(n)
    if kind == "lengths":  # hand-built, complete or not: every 2**-l <= 1 / n
        shortest = fixed_code(n).lengths[0]
        return PrefixCode(tuple(draw(st.lists(
            st.integers(shortest, shortest + 3), min_size=n, max_size=n))))
    if kind == "geometric":  # Huffman lengths 1..n-1, capped at 16 bits once n > 17
        return build_code(2.0 ** -np.arange(n))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    weights[draw(st.integers(0, n - 1))] = 1.0
    return build_code(np.array(weights))


@st.composite
def kernel_codes(draw):
    """Codes for the decode kernel: any of ``prefix_codes``, or the complete
    code with lengths 1, 2, ..., longest - 1, longest, longest for a longest
    length of 11 to 13 bits or the 16-bit cap, its symbols shuffled and
    some dropped, which leaves windows that start no codeword."""
    if draw(st.booleans()):
        return draw(prefix_codes())
    longest = draw(st.sampled_from((11, 12, 13, MAX_CODE_BITS)))
    lengths = draw(st.permutations(tuple(range(1, longest + 1)) + (longest,)))
    return PrefixCode(tuple(lengths[: draw(st.integers(1, len(lengths)))]))


@st.composite
def messages(draw):
    """(grid, masks, codes, abstract) for ``encode``."""
    codes = (draw(prefix_codes()), draw(prefix_codes()))
    shape = (draw(st.integers(0, 7)), draw(st.integers(0, 7)))
    grid = IndexGrid(*(
        draw(hnp.arrays(np.int64, shape, elements=st.integers(0, c.n_symbols - 1)))
        for c in codes
    ))
    masks = (draw(hnp.arrays(bool, shape)), draw(hnp.arrays(bool, shape)))
    return grid, masks, codes, draw(st.booleans())


def assert_same_message(got, want):
    assert (got.h, got.w, got.total_bits) == (want.h, want.w, want.total_bits)
    for name in ("base_payload", "full_payload", "conf_mask", "redund_mask"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestAgainstBitwiseOracle:
    """The vectorized coder against the bit-at-a-time one it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(case=messages(), table_id=st.integers(0, 255))
    def test_same_payloads_grids_and_blobs(self, case, table_id):
        grid, masks, codes, abstract = case
        got = encode(grid, masks, codes, abstract=abstract)
        want = bitwise.encode(grid, masks, codes, abstract=abstract)
        assert_same_message(got, want)
        got_grid, want_grid = decode(got, codes), bitwise.decode(want, codes)
        np.testing.assert_array_equal(got_grid.base_idx, want_grid.base_idx)
        np.testing.assert_array_equal(got_grid.res_idx, want_grid.res_idx)
        blob = message_to_bytes(got, table_id)
        assert blob == bitwise.message_to_bytes(want, table_id)
        parsed, oracle = message_from_bytes(blob), bitwise.message_from_bytes(blob)
        assert parsed[1] == oracle[1] == table_id
        assert_same_message(parsed[0], oracle[0])

    @settings(max_examples=100, deadline=None)
    @given(case=messages())
    def test_truncated_or_extended_blobs_raise(self, case):
        grid, masks, codes, abstract = case
        blob = message_to_bytes(encode(grid, masks, codes, abstract=abstract))
        for cut in range(len(blob)):
            with pytest.raises(CodingError):
                message_from_bytes(blob[:cut])
        for extra in (b"\x00", b"\x80", bytes(3)):
            with pytest.raises(CodingError, match="trailing bytes"):
                message_from_bytes(blob + extra)

    @settings(max_examples=100, deadline=None)
    @given(case=messages())
    def test_shortened_payloads_raise(self, case):
        grid, masks, codes, abstract = case
        msg = encode(grid, masks, codes, abstract=abstract)
        # an empty base payload is a message without an abstract
        for name, shortest in (("base_payload", 1), ("full_payload", 0)):
            payload = getattr(msg, name)
            for n_bits in range(shortest, payload.size):
                cut = dataclasses.replace(msg, **{name: payload[:n_bits]})
                with pytest.raises(CodingError):
                    decode(cut, codes)

    @settings(max_examples=60, deadline=None)
    @given(case=messages(), data=st.data())
    def test_flipped_bits_parse_only_to_their_own_blob(self, case, data):
        grid, masks, codes, abstract = case
        blob = bytearray(message_to_bytes(encode(grid, masks, codes, abstract)))
        positions = st.integers(0, 8 * len(blob) - 1)
        for bit in data.draw(st.lists(positions, max_size=6)):
            blob[bit // 8] ^= 0x80 >> bit % 8
        try:
            msg, table_id = message_from_bytes(bytes(blob))
        except CodingError:
            return
        assert message_to_bytes(msg, table_id) == blob
        try:
            decode(msg, codes)
        except CodingError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(case=messages(), data=st.data())
    def test_corrupted_payloads_fail_or_decode_alike(self, case, data):
        grid, masks, codes, abstract = case
        msg = encode(grid, masks, codes, abstract=abstract)
        name = data.draw(st.sampled_from(("base_payload", "full_payload")))
        payload = getattr(msg, name).copy()
        how = data.draw(st.sampled_from(("flip", "truncate", "extend")))
        if how == "flip" and payload.size:  # an empty payload is extended instead
            payload[data.draw(st.lists(st.integers(0, payload.size - 1), max_size=6))] ^= True
        elif how == "truncate":
            payload = payload[: data.draw(st.integers(0, payload.size))]
        else:
            extra = data.draw(hnp.arrays(bool, st.integers(1, 24)))
            payload = np.concatenate([payload, extra])
        corrupted = dataclasses.replace(msg, **{name: payload})
        outcomes = []
        for coder in (decode, bitwise.decode):
            try:
                got = coder(corrupted, codes)
            except CodingError:
                outcomes.append(None)
            else:
                arrays = (got.base_idx, got.res_idx)
                outcomes.append([(a.dtype, a.shape, a.tobytes()) for a in arrays])
        assert outcomes[0] == outcomes[1]


class TestTransmittedGrid:
    @settings(max_examples=300, deadline=None)
    @given(case=messages())
    def test_equals_the_decode_of_the_encoded_message(self, case):
        grid, masks, codes, abstract = case
        msg = encode(grid, masks, codes, abstract=abstract)
        got = transmitted_grid(grid, msg)
        # the bitwise oracle states the layout apart from the coder's _layout
        for want in (decode(msg, codes), bitwise.decode(msg, codes)):
            for name in ("base_idx", "res_idx"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestVectorizedCoder:
    def test_geometric_code_capped_at_16_bits(self):
        # Huffman gives symbol s of 2**-s length s + 1, up to 79 bits
        code = build_code(2.0 ** -np.arange(80))
        assert max(code.lengths) == MAX_CODE_BITS
        assert sum(2 ** (MAX_CODE_BITS - L) for L in code.lengths) == 2**MAX_CODE_BITS
        assert code.codeword_str(79) == "1" * MAX_CODE_BITS
        grid = IndexGrid(np.array([[79, 0, 78, 9]]), np.array([[78, 79, 1, 65]]))
        ones = np.ones((1, 4), dtype=bool)
        msg = encode(grid, (ones, ones), (code, code))
        want = bitwise.encode(grid, (ones, ones), (code, code))
        assert_same_message(msg, want)
        back, want_back = decode(msg, (code, code)), bitwise.decode(want, (code, code))
        for name in ("base_idx", "res_idx"):
            got, oracle, sent = (getattr(g, name) for g in (back, want_back, grid))
            assert got.tobytes() == oracle.tobytes() == sent.tobytes()

    @pytest.mark.parametrize("layer", ["base", "res"])
    def test_negative_symbol_rejected(self, layer):
        base, res = np.array([[1, 2]]), np.array([[3, 0]])
        (base if layer == "base" else res)[0, 1] = -1
        ones = np.ones((1, 2), dtype=bool)
        with pytest.raises(CodingError, match="symbol -1 outside code range"):
            encode(IndexGrid(base, res), (ones, ones), (fixed_code(4), fixed_code(8)))

    def test_tables_cached_per_code(self):
        code = build_code(np.array([5.0, 1.0, 1.0]))
        assert code.bit_table is code.bit_table
        assert code.decode_table is code.decode_table
        assert code == build_code(np.array([5.0, 1.0, 1.0]))
        np.testing.assert_array_equal(code.bit_table, [[0, 2], [1, 0], [1, 1]])
        # codewords 0, 10, 11 over two-bit windows 00, 01, 10, 11
        assert code.table_bits == 2
        np.testing.assert_array_equal(code.decode_table, [[1, 1, 2, 2], [0, 0, 1, 2]])

    def test_decode_table_marks_longer_and_missing_codewords(self):
        # codewords 0 and 1 followed by 15 zeros: windows 0... start the
        # first, 10...0 the second and every other 1... none
        code = PrefixCode((1, MAX_CODE_BITS))
        length, symbol = code.decode_table
        assert code.table_bits == MAX_CODE_BITS and length.size == 1 << MAX_CODE_BITS
        half = 1 << (MAX_CODE_BITS - 1)
        assert (length[:half] == 1).all() and (symbol[:half] == 0).all()
        assert (length[half], symbol[half]) == (MAX_CODE_BITS, 1)
        assert (length[half + 1 :] == 0).all()

    @settings(max_examples=300, deadline=None)
    @given(code=kernel_codes(), data=st.data())
    def test_kernel_matches_the_per_length_oracle(self, code, data):
        n = data.draw(st.integers(0, 300))
        density = data.draw(st.sampled_from((0.02, 0.3, 0.5, 0.7, 0.98)))
        bits = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(n) < density
        # a payload's window may be wider than the code's table
        width = data.draw(st.integers(code.table_bits, MAX_CODE_BITS))
        jump, sym = _jumps(bits, _window(bits, width) >> (width - code.table_bits), code)
        want_jump, want_sym = jumps_oracle.jumps(bits, code)
        np.testing.assert_array_equal(jump, want_jump)
        resolved = want_jump[:n] <= n
        np.testing.assert_array_equal(sym[resolved], want_sym[resolved])


class TestPayloads:
    """A payload is a 1-D bool vector, one element per bit."""

    @settings(max_examples=200, deadline=None)
    @given(case=messages(), table_id=st.integers(0, 255))
    def test_wire_round_trip_keeps_them_and_other_kinds_are_rejected(self, case, table_id):
        grid, masks, codes, abstract = case
        msg = encode(grid, masks, codes, abstract=abstract)
        back, got_id = message_from_bytes(message_to_bytes(msg, table_id))
        assert got_id == table_id
        for name in ("base_payload", "full_payload"):
            got, want = getattr(back, name), getattr(msg, name)
            assert (got.dtype, got.ndim) == (np.dtype(bool), 1)
            assert got.tobytes() == want.tobytes()
            for bad in (want.astype(np.uint8), want.astype(int), want[None], want.tolist()):
                with pytest.raises(CodingError, match="1-D bool"):
                    dataclasses.replace(msg, **{name: bad})


class TestStrictParser:
    def blob_with_padding(self):
        idx, bc, rc = grid_fixture(h=3, w=3, seed=52)
        ones = np.ones((3, 3), dtype=bool)
        msg = encode(idx, (ones, ones), (bc, rc))
        body_bits = 2 * 9 + 64 + msg.abstract_bits + msg.payload_bits
        assert body_bits % 8, "the fixture must end inside a byte"
        return msg, message_to_bytes(msg)

    def test_valid_blob_reserializes(self):
        _, blob = self.blob_with_padding()
        assert message_to_bytes(*message_from_bytes(blob)) == blob

    def test_trailing_bytes_rejected(self):
        _, blob = self.blob_with_padding()
        with pytest.raises(CodingError, match="trailing bytes"):
            message_from_bytes(blob + bytes(3))

    def test_nonzero_padding_rejected(self):
        _, blob = self.blob_with_padding()
        flipped = bytearray(blob)
        flipped[-1] |= 1  # the last bit of the last byte is padding
        with pytest.raises(CodingError, match="padding"):
            message_from_bytes(bytes(flipped))

    @pytest.mark.parametrize("field", ["h", "base length", "full length"])
    def test_declared_length_past_the_blob_rejected(self, field):
        msg, blob = self.blob_with_padding()
        bits = np.unpackbits(np.frombuffer(blob, np.uint8))
        # h follows magic and version; the base length follows the ten
        # header bytes and the two 9-bit masks, the full length the base
        # payload
        full_at = 98 + 32 + msg.abstract_bits
        start = {"h": 40, "base length": 98, "full length": full_at}[field]
        bits[start : start + 16] = 1
        with pytest.raises(CodingError, match="truncated"):
            message_from_bytes(np.packbits(bits).tobytes())

    def test_short_header_rejected(self):
        with pytest.raises(CodingError, match="truncated"):
            message_from_bytes(b"RDCM\x01")
