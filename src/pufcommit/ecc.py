"""Repetition codes with majority decoding.

The block layout is bit-major: message bit j occupies code positions
[j*r, (j+1)*r).  An odd repeat factor r gives minimum distance D = r and
tie-free majority decoding, so every property stays exhaustively
checkable at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bits import BitString

__all__ = ["RepetitionCode"]


_DEC_LOOKUPS = 48  # table lookups per slice of the word in RepetitionCode.dec


@lru_cache(maxsize=8)
def _majority_table(repeat: int, chunk: int) -> list[int]:
    """Majority votes for `chunk` blocks at once, indexed by their raw bits.

    Built by table[raw] = table[raw >> repeat] << 1 | vote[raw & block_mask]:
    the lowest block of raw votes bit 0, the higher blocks vote the rest.
    """
    need = repeat // 2 + 1
    vote = [int(raw.bit_count() >= need) for raw in range(1 << repeat)]
    table = vote
    for _ in range(chunk - 1):
        table = [high << 1 | low for high in table for low in vote]
    return table


@lru_cache(maxsize=8)
def _repeat_table(repeat: int) -> list[bytes]:
    """Code bytes of each message byte: bit b fills bits [b*r, (b+1)*r)."""
    block = (1 << repeat) - 1
    return [
        sum(block << (b * repeat) for b in range(8) if v >> b & 1).to_bytes(repeat, "little")
        for v in range(256)
    ]


@dataclass(frozen=True)
class RepetitionCode:
    msg_len: int
    repeat: int

    def __post_init__(self):
        if self.msg_len < 1:
            raise ValueError("msg_len must be positive")
        if self.repeat < 1 or self.repeat % 2 == 0:
            raise ValueError(f"repeat factor must be odd and positive, got {self.repeat}")

    @property
    def code_len(self) -> int:
        return self.msg_len * self.repeat

    @property
    def min_dist(self) -> int:
        return self.repeat

    def enc(self, m: BitString) -> BitString:
        if m.n != self.msg_len:
            raise ValueError(f"LEN_MISMATCH: message of {m.n} bits, expected {self.msg_len}")
        # each message byte fills exactly `repeat` code bytes; the unused
        # high bits of the last message byte are zero and so is their code
        table = _repeat_table(self.repeat)
        data = m.value.to_bytes((self.msg_len + 7) // 8, "little")
        return BitString(int.from_bytes(b"".join(map(table.__getitem__, data)), "little"),
                         self.code_len)

    def dec(self, c: BitString) -> BitString:
        """Per-block majority vote; total on all of {0,1}^L."""
        if c.n != self.code_len:
            raise ValueError(f"LEN_MISMATCH: word of {c.n} bits, expected {self.code_len}")
        r = self.repeat
        chunk = max(1, 15 // r)  # blocks resolved per table lookup
        table = _majority_table(r, chunk)
        span = r * chunk
        span_mask = (1 << span) - 1
        # The word is cut into slices of _DEC_LOOKUPS lookups each, and each
        # slice's votes are combined before being shifted into place, so no
        # shift per lookup spans the whole word: linear in the code length.
        # Blocks past the message read zero bits and vote 0.
        slice_bits = span * _DEC_LOOKUPS
        slice_mask = (1 << slice_bits) - 1
        slice_votes = chunk * _DEC_LOOKUPS
        cv = c.value
        value = 0
        for out in range(0, self.msg_len, slice_votes):
            word = cv & slice_mask
            cv >>= slice_bits
            votes = 0
            for shift in range(0, min(slice_votes, self.msg_len - out), chunk):
                votes |= table[word & span_mask] << shift
                word >>= span
            value |= votes << out
        return BitString(value, self.msg_len)

