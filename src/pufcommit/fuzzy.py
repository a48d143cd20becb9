"""Average-case fuzzy extractor: code-offset sketch plus a universal hash.

Gen(w) draws a random inner-code message msg and a fresh hash seed, and
outputs

    sketch = w XOR Enc(msg)
    st     = H_seed(w)            (out_len bits)

with helper data p = (sketch, seed).  Rep(w', p) decodes w' XOR sketch to
the nearest codeword, re-derives w, and re-applies the seeded hash, so
any reading within the correction radius t reproduces st exactly.

H_seed is a Toeplitz (shifted-window) GF(2) family with a random offset,
a standard pairwise-independent construction; the stored seed is short
and the long Toeplitz string is expanded from it deterministically.

Output bit i of the hash is the parity of T[i : i+source_len] AND w, so
the whole output is the XOR of the windows T[j : j+out_len] over the set
bits j of w.  Two evaluation orders give the same bits:

* by output row, one masked parity per output bit; cheapest for narrow
  outputs, where out_len big-int ANDs cost less than a table build.  The
  parities, taken from the top row down, are packed in C: a list of 0/1
  ints becomes bytes, translate maps them to the digits b"0"/b"1", and
  int(..., 2) reads that numeral with row 0 as its lowest bit;
* by source byte (the method of Four Russians): T is cut into segments
  of _SEGMENT_BYTES source bytes, and each segment gets a table whose
  entry table[v] is the XOR of its T >> b over the set bits b of v, so an
  entry holds only out_len + 8 * _SEGMENT_BYTES bits.  The byte v of w at
  offset q inside its segment adds table[v] >> 8q to the output, so the
  loop XORs that entry unshifted into column q, which all segments share,
  and one Horner pass from the highest column down, value = (value >> 8)
  ^ columns[q], yields the sum of columns[q] >> 8q.  That is the same sum
  regrouped, since a right shift distributes over XOR and two shifts by 8
  are one by 16: one XOR per source byte and one shift per column.

The order is chosen by out_len alone, at a crossover measured on CPython
3.11 (_BYTE_TABLE_MIN_OUT).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitString
from .ecc import RepetitionCode
from .prf import prf_bits

__all__ = ["HelperData", "FuzzyExtractor", "check_matching"]

# Narrowest output hashed by byte tables.  Below it the per-row loop is
# faster: at out_len 128 the two orders tie, at 192 tables win by 1.1-1.8x.
_BYTE_TABLE_MIN_OUT = 192
# Source bytes per table segment.  On the widest hash here (25 392 ->
# 8 448 bits: about 1.8 ms a call on CPython 3.11 on a 2-core Xeon host,
# against 40-50 ms by rows), 192, 256 and 320 tie and 512 is slower.  While
# it runs, the hash holds a table and a column list of _SEGMENT_BYTES
# entries each, both of (out_len + 8 * _SEGMENT_BYTES) bits per entry:
# about 0.33 MB apiece on that hash.
_SEGMENT_BYTES = 256

# byte 0 or 1 to the digit "0" or "1", for _toeplitz_by_rows
_PARITY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _toeplitz_by_rows(toeplitz: int, wv: int, n_out: int) -> int:
    parities = bytes([((toeplitz >> i) & wv).bit_count() & 1
                      for i in range(n_out - 1, -1, -1)])
    return int(parities.translate(_PARITY_DIGITS), 2)


def _toeplitz_by_bytes(toeplitz: int, wv: int, n_in: int, n_out: int) -> int:
    data = wv.to_bytes((n_in + 7) // 8, "little")
    seg_mask = (1 << (n_out + 8 * _SEGMENT_BYTES)) - 1
    table = [0] * 256
    columns = [0] * min(_SEGMENT_BYTES, len(data))
    for start in range(0, len(data), _SEGMENT_BYTES):
        seg = (toeplitz >> (8 * start)) & seg_mask
        bit = 1
        for b in range(8):  # table[v] = XOR of seg >> b over the bits b of v
            row = seg >> b
            for v in range(bit, bit << 1):
                table[v] = table[v ^ bit] ^ row
            bit <<= 1
        for q, v in enumerate(data[start:start + _SEGMENT_BYTES]):
            if v:
                columns[q] ^= table[v]
    value = 0
    for column in reversed(columns):  # sum of columns[q] >> 8q, by Horner
        value = (value >> 8) ^ column
    return value & ((1 << n_out) - 1)


@dataclass(frozen=True)
class HelperData:
    sketch: BitString
    hash_seed: BitString

    def concat(self) -> BitString:
        """Wire form: sketch followed by seed."""
        return self.sketch.concat(self.hash_seed)

    @classmethod
    def from_concat(cls, data: BitString, source_len: int) -> "HelperData":
        if data.n < source_len:
            raise ValueError("LEN_MISMATCH: helper data shorter than the sketch")
        return cls(data.slice(0, source_len), data.slice(source_len, data.n))


@dataclass(frozen=True)
class FuzzyExtractor:
    """(m, out_len, t, eps) extractor on {0,1}^source_len with Hamming distance.

    eps is not asserted analytically; the almost-uniformity experiment in
    the harness bounds it empirically.
    """

    source_len: int
    out_len: int
    t: int
    m_req: int = 0
    seed_bits: int = 128

    def __post_init__(self):
        if self.out_len < 1:
            raise ValueError("out_len must be at least 1")
        if self.t < 0:
            raise ValueError("negative correction radius")
        r = 2 * self.t + 1
        if self.source_len % r:
            raise ValueError(
                f"source_len {self.source_len} not a multiple of the inner block {r}"
            )
        inner = RepetitionCode(self.source_len // r, r)
        if self.out_len > inner.msg_len:
            raise ValueError(
                "extractor must compress: out_len "
                f"{self.out_len} exceeds the {inner.msg_len} sketch-free bits"
            )
        object.__setattr__(self, "_inner", inner)

    @property
    def helper_len(self) -> int:
        return self.source_len + self.seed_bits

    def gen(self, w: BitString, rng) -> tuple[BitString, HelperData]:
        if w.n != self.source_len:
            raise ValueError(f"LEN_MISMATCH: source of {w.n} bits, expected {self.source_len}")
        msg = BitString.random(self._inner.msg_len, rng)
        sketch = w ^ self._inner.enc(msg)
        seed = BitString.random(self.seed_bits, rng)
        return self._hash(seed, w), HelperData(sketch, seed)

    def rep(self, w_prime: BitString, p: HelperData) -> BitString:
        if w_prime.n != self.source_len:
            raise ValueError(
                f"LEN_MISMATCH: source of {w_prime.n} bits, expected {self.source_len}"
            )
        if p.sketch.n != self.source_len:
            raise ValueError("LEN_MISMATCH: sketch length does not match the source")
        if p.hash_seed.n != self.seed_bits:
            raise ValueError(
                f"LEN_MISMATCH: seed of {p.hash_seed.n} bits, expected {self.seed_bits}"
            )
        recovered = p.sketch ^ self._inner.enc(self._inner.dec(w_prime ^ p.sketch))
        return self._hash(p.hash_seed, recovered)

    def _hash(self, seed: BitString, w: BitString) -> BitString:
        n_in, n_out = self.source_len, self.out_len
        stream = prf_bits(seed.to_bytes(), b"uhash", n_in + 2 * n_out - 1)
        toeplitz = stream & ((1 << (n_in + n_out - 1)) - 1)
        offset = stream >> (n_in + n_out - 1)
        if n_out < _BYTE_TABLE_MIN_OUT:
            value = _toeplitz_by_rows(toeplitz, w.value, n_out)
        else:
            value = _toeplitz_by_bytes(toeplitz, w.value, n_in, n_out)
        return BitString(value ^ offset, n_out)


def check_matching(fe: FuzzyExtractor, puf_params) -> bool:
    """True iff the extractor is provisioned for the given PUF family.

    The correction radius must cover the response noise, the required
    source entropy must equal the family's claimed residual min-entropy,
    and both must live on the same metric space.
    """
    return (
        fe.t >= puf_params.d_noise
        and fe.m_req == puf_params.m
        and fe.source_len == puf_params.rg
    )
