from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufcommit.bits import BitString, hamming_distance
from pufcommit.ecc import RepetitionCode, _majority_table


def test_enc_block_layout():
    code = RepetitionCode(2, 3)
    assert code.enc(BitString.from01("10")).to01() == "111000"
    assert code.enc(BitString.from01("01")).to01() == "000111"


def test_zero_maps_to_zero():
    code = RepetitionCode(6, 3)
    assert code.enc(BitString.zeros(6)) == BitString.zeros(18)


def test_parameters():
    code = RepetitionCode(4, 5)
    assert (code.msg_len, code.code_len, code.min_dist) == (4, 20, 5)
    with pytest.raises(ValueError):
        RepetitionCode(4, 4)  # even repeat factor would allow ties
    with pytest.raises(ValueError):
        RepetitionCode(0, 3)


def test_codewords_pairwise_distance():
    # every pair of codewords is at least the repeat factor apart
    for msg_len, repeat in [(6, 3), (5, 5)]:
        code = RepetitionCode(msg_len, repeat)
        words = [code.enc(BitString(v, msg_len)) for v in range(1 << msg_len)]
        assert min(
            hamming_distance(a, b) for a, b in combinations(words, 2)) == repeat


def test_dec_enc_identity_exhaustive():
    for msg_len, repeat in [(10, 3), (6, 5), (4, 7)]:
        code = RepetitionCode(msg_len, repeat)
        for v in range(1 << msg_len):
            m = BitString(v, msg_len)
            assert code.dec(code.enc(m)) == m


def test_correct_decoding_within_radius_exhaustive():
    # every message, every error pattern of weight <= (D-1)/2, code length <= 18
    for msg_len, repeat in [(6, 3), (3, 5)]:
        code = RepetitionCode(msg_len, repeat)
        assert code.code_len <= 18
        patterns = [()]
        positions = range(code.code_len)
        for w in range(1, (code.min_dist - 1) // 2 + 1):
            patterns.extend(combinations(positions, w))
        for v in range(1 << msg_len):
            m = BitString(v, msg_len)
            c = code.enc(m)
            for pattern in patterns:
                assert code.dec(c.flip(pattern)) == m


def test_block_majority_behavior():
    code = RepetitionCode(3, 5)
    m = BitString.from01("101")
    c = code.enc(m)
    # two flips inside one block: still recovered
    assert code.dec(c.flip([5, 7])) == m
    # three of five flips in one block: that message bit flips
    assert code.dec(c.flip([5, 6, 7])) == BitString.from01("111")


def test_length_checks():
    code = RepetitionCode(4, 3)
    with pytest.raises(ValueError, match="LEN_MISMATCH"):
        code.enc(BitString.zeros(5))
    with pytest.raises(ValueError, match="LEN_MISMATCH"):
        code.dec(BitString.zeros(11))


def test_enc_is_injective():
    code = RepetitionCode(8, 3)
    words = {code.enc(BitString(v, 8)) for v in range(256)}
    assert len(words) == 256


def reference_enc(code, m):
    """The encoder one message bit at a time, as first written."""
    block = (1 << code.repeat) - 1
    value = 0
    for j in range(code.msg_len):
        if m.value >> j & 1:
            value |= block << (j * code.repeat)
    return BitString(value, code.code_len)


def reference_majority_table(repeat, chunk):
    need = repeat // 2 + 1
    table = []
    for raw in range(1 << (repeat * chunk)):
        out = 0
        for j in range(chunk):
            block = (raw >> (j * repeat)) & ((1 << repeat) - 1)
            if block.bit_count() >= need:
                out |= 1 << j
        table.append(out)
    return table


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 3, 5, 7]), st.integers(1, 100), st.data())
def test_enc_matches_bit_loop(repeat, msg_len, data):
    code = RepetitionCode(msg_len, repeat)
    value = data.draw(st.sampled_from([0, (1 << msg_len) - 1])
                      | st.integers(0, (1 << msg_len) - 1))
    m = BitString(value, msg_len)
    assert code.enc(m) == reference_enc(code, m)


@pytest.mark.parametrize("repeat,chunk", [(3, 5), (5, 3), (7, 2)])
def test_majority_table_matches_definition(repeat, chunk):
    assert _majority_table(repeat, chunk) == reference_majority_table(repeat, chunk)


def reference_dec(code, c):
    """The decoder one table lookup at a time over the whole word, as
    first written (quadratic in the code length)."""
    chunk = max(1, 15 // code.repeat)
    table = _majority_table(code.repeat, chunk)
    span = code.repeat * chunk
    value, cv, out = 0, c.value, 0
    while out < code.msg_len:
        value |= table[cv & ((1 << span) - 1)] << out
        cv >>= span
        out += chunk
    return BitString(value & ((1 << code.msg_len) - 1), code.msg_len)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(1, 18, 2)), st.integers(1, 400), st.data())
def test_dec_matches_lookup_loop(repeat, msg_len, data):
    # word lengths on both sides of one slice of lookups, and words far
    # from any codeword as well as all-zero and all-one words
    code = RepetitionCode(msg_len, repeat)
    top = (1 << code.code_len) - 1
    value = data.draw(st.sampled_from([0, top]) | st.integers(0, top))
    c = BitString(value, code.code_len)
    assert code.dec(c) == reference_dec(code, c)


def test_dec_matches_lookup_loop_at_the_widest_word_in_use():
    # the sketch code of the original flow's second token at n = 16:
    # 25 392 source bits, blocks of 3
    code = RepetitionCode(8464, 3)
    c = BitString.random(code.code_len, Random(5))
    assert code.dec(c) == reference_dec(code, c)
