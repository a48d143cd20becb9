from itertools import product
from math import comb
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pufcommit.bits import (
    BitString,
    hamming_distance,
    neighborhood_size,
    stride_pattern,
)


# References for the masking layout: mask_commitment and the extractors are
# checked against them here and in test_extract.py and test_protocols.py.

def stride_indices(j, k, width):
    """Positions {j, j+k, ..., j+(width-1)k} carrying bit j of a k-bit string."""
    return [j + t * k for t in range(width)]


def spread(x, width):
    """x's bits each replicated across their stride positions: a k * width
    string whose position j + tk holds bit j of x.  One multiply by
    stride_pattern, checked against the per-bit loop below."""
    return BitString(x.value * stride_pattern(x.n, width), x.n * width)


def test_construction_and_roundtrips():
    b = BitString.from01("10110")
    assert len(b) == 5
    assert b.to01() == "10110"
    assert list(b) == [1, 0, 1, 1, 0]
    assert b[0] == 1 and b[1] == 0
    assert BitString.from_bits([1, 0, 1, 1, 0]) == b
    assert BitString(b.value, 5) == b
    assert b.weight == 3


def test_length_is_explicit_no_zero_extension():
    with pytest.raises(ValueError, match="LEN_MISMATCH"):
        BitString(8, 3)  # value needs 4 bits
    with pytest.raises(ValueError, match="LEN_MISMATCH: negative length"):
        BitString(0, -1)
    for n in (0, 1, 7, 64):
        assert BitString((1 << n) - 1, n).n == n
        for value in (1 << n, -1):
            with pytest.raises(ValueError, match="LEN_MISMATCH"):
                BitString(value, n)
    a = BitString.from01("101")
    b = BitString.from01("1010")
    with pytest.raises(ValueError, match="LEN_MISMATCH"):
        _ = a ^ b
    with pytest.raises(ValueError, match="LEN_MISMATCH"):
        _ = a & b
    with pytest.raises(ValueError, match="LEN_MISMATCH"):
        hamming_distance(a, b)


def test_immutability_and_hash():
    b = BitString.from01("01")
    for name in ("value", "n", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(b, name, 3)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(b, name)
    assert (b.value, b.n) == (2, 2)
    assert len({b, BitString.from01("01"), BitString.from01("10")}) == 2


def test_hamming_trivial_cases():
    assert hamming_distance(BitString.from01("1010"), BitString.from01("1000")) == 1
    x = BitString.from01("110011")
    assert hamming_distance(x, x) == 0


def test_hamming_matches_per_bit_loop_on_random_64bit_pairs():
    # independent oracle: compare position by position
    rng = Random(0xBEEF)
    for _ in range(200):
        a = BitString.random(64, rng)
        b = BitString.random(64, rng)
        expected = sum(1 for i in range(64) if a[i] != b[i])
        assert hamming_distance(a, b) == expected
        assert hamming_distance(b, a) == expected


def test_hamming_is_a_metric():
    # identity and symmetry over every pair of {0,1}^8
    n = 8
    vals = [BitString(v, n) for v in range(1 << n)]
    for a in vals:
        assert hamming_distance(a, a) == 0
    rng = Random(3)
    for _ in range(2000):
        a, b = rng.choice(vals), rng.choice(vals)
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert (hamming_distance(a, b) == 0) == (a == b)
    # triangle inequality, exhaustive on {0,1}^5
    small = [BitString(v, 5) for v in range(32)]
    for a, b, c in product(small, repeat=3):
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


def test_neighborhood_size_examples():
    assert neighborhood_size(8, 1) == 1           # only the center
    assert neighborhood_size(4, 3) == 1 + 4 + 6   # exhaustive below
    assert neighborhood_size(10, 11) == 2 ** 10   # whole cube


def test_neighborhood_size_matches_enumeration():
    # exhaustive count over {0,1}^4 around an arbitrary center
    n = 4
    center = BitString.from01("1010")
    for d in range(n + 2):
        ball = sum(
            1 for v in range(1 << n)
            if hamming_distance(BitString(v, n), center) < d
        )
        assert neighborhood_size(n, d) == ball
    with pytest.raises(ValueError):
        neighborhood_size(4, 6)
    with pytest.raises(ValueError):
        neighborhood_size(4, -1)


def test_stride_indices_partition():
    k, width = 4, 6
    seen = sorted(i for j in range(k) for i in stride_indices(j, k, width))
    assert seen == list(range(k * width))


def test_spread_places_each_bit_on_its_stride():
    rng = Random(11)
    for _ in range(50):
        k, width = rng.randint(1, 6), rng.randint(1, 8)
        x = BitString.random(k, rng)
        y = spread(x, width)
        assert len(y) == k * width
        for j in range(k):
            for pos in stride_indices(j, k, width):
                assert y[pos] == x[j]


def test_restrict_slice_concat():
    b = BitString.from01("110100")
    assert b.restrict([5, 0, 2]).to01() == "010"
    assert b.slice(1, 4).to01() == "101"
    assert b.take_stride(0, 2).to01() == "100"
    assert b.take_stride(1, 2).to01() == "110"
    assert b.take_stride(6, 1) == b.take_stride(6, 4) == BitString.zeros(0)
    assert BitString.from01("10").concat(BitString.from01("01")).to01() == "1001"
    assert (~BitString.from01("10")).to01() == "01"
    assert b.flip([0, 5]).to01() == "010101"


@pytest.mark.parametrize("start,step", [(2, -1), (7, 2), (7, 1), (0, 0), (-1, 2)])
def test_take_stride_refuses_bad_arguments(start, step):
    with pytest.raises(ValueError, match="LEN_MISMATCH"):
        BitString.from01("10110").take_stride(start, step)


def bitstrings(min_len=0, max_len=96):
    return st.integers(min_len, max_len).flatmap(
        lambda n: st.integers(0, (1 << n) - 1).map(lambda v: BitString(v, n)))


@settings(max_examples=200, deadline=None)
@given(x=bitstrings(1, 8), width=st.integers(1, 12))
def test_spread_strides_carry_their_bit(x, width):
    y = spread(x, width)
    k = x.n
    for j in range(k):
        stride = y.take_stride(j, k)
        assert stride == (BitString.ones(width) if x[j] else BitString.zeros(width))


def _spread_per_bit(x, width):
    """Reference: set every stride position of each set bit, one by one."""
    value = 0
    for j in range(x.n):
        if x[j]:
            for pos in stride_indices(j, x.n, width):
                value |= 1 << pos
    return BitString(value, x.n * width)


@settings(max_examples=300, deadline=None)
@given(x=bitstrings(0, 200), width=st.integers(0, 64))
@example(x=BitString.zeros(0), width=0)
@example(x=BitString.zeros(0), width=5)
@example(x=BitString.ones(7), width=0)
@example(x=BitString.ones(200), width=64)
def test_spread_matches_the_per_bit_loop(x, width):
    assert spread(x, width) == _spread_per_bit(x, width)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), b=bitstrings(1))
def test_take_stride_is_a_restriction(data, b):
    step = data.draw(st.integers(1, b.n + 1))
    start = data.draw(st.integers(0, b.n - 1))
    assert b.take_stride(start, step) == b.restrict(range(start, b.n, step))


@settings(max_examples=300, deadline=None)
@given(a=bitstrings(), b=bitstrings(), data=st.data())
def test_concat_and_slice_round_trip(a, b, data):
    ab = a.concat(b)
    assert len(ab) == a.n + b.n
    assert ab.slice(0, a.n) == a and ab.slice(a.n, ab.n) == b
    cut = data.draw(st.integers(0, ab.n))
    assert ab.slice(0, cut).concat(ab.slice(cut, ab.n)) == ab
