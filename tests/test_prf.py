"""The PRF identity every seeded log rests on: keyed blake2b in counter mode."""

import hashlib
from random import Random

from pufcommit.prf import derive_seed, prf_bits, prf_bytes


def textbook_prf_bytes(key: bytes, context: bytes, nbytes: int) -> bytes:
    """blake2b(context || counter as 8 little-endian bytes, key=key) per
    64-byte block, a fresh keyed hash for each, concatenated, then cut."""
    out = b""
    counter = 0
    while len(out) < nbytes:
        out += hashlib.blake2b(context + counter.to_bytes(8, "little"), key=key,
                               digest_size=64).digest()
        counter += 1
    return out[:nbytes]


def test_prf_bytes_is_keyed_blake2b_in_counter_mode():
    # 86 bytes is one 560 -> 64-bit hash seed with its offset; 5 286 is
    # the seed stream of the widest hash
    rng = Random(5)
    for key in (b"k", bytes(16), rng.randbytes(32), rng.randbytes(64)):
        for context in (b"", b"uhash", rng.randbytes(40)):
            for nbytes in (0, 1, 63, 64, 65, 86, 5286):
                got = prf_bytes(key, context, nbytes)
                assert len(got) == nbytes
                assert got == textbook_prf_bytes(key, context, nbytes)


def test_prf_bits_and_derive_seed_read_the_same_stream():
    key, context = bytes(range(16)), b"ctx"
    for nbits in (1, 7, 8, 9, 64, 513):
        stream = int.from_bytes(textbook_prf_bytes(key, context, (nbits + 7) // 8), "little")
        assert prf_bits(key, context, nbits) == stream & ((1 << nbits) - 1)
    key = (12345).to_bytes(16, "little")
    assert derive_seed(12345, "a", 1) == prf_bits(key, b"a/1", 64)


def test_derive_seed_known_answers():
    # the functionality's and party S's streams of every seed-23 session
    assert derive_seed(23, "func") == 0xb3436966ba6052c4
    assert derive_seed(23, "party", "S") == 0x4f1b68eaf2d565fb
