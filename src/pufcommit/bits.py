"""Fixed-length bit vectors and Hamming geometry.

Every value that crosses a protocol boundary (challenges, responses,
commitments, codewords, masks) is a BitString.  Lengths are explicit and
never silently extended; mixing lengths is the classic protocol bug this
layer is designed to catch early.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

__all__ = [
    "BitString",
    "hamming_distance",
    "neighborhood_size",
    "stride_pattern",
]


class BitString:
    """Immutable vector of bits with an explicit length.

    Bit ``i`` of ``value`` is position ``i`` of the vector, so position 0
    is written first by ``to01``.  XOR/AND require equal lengths and raise
    ``ValueError("LEN_MISMATCH...")`` otherwise.
    """

    __slots__ = ("value", "n")

    def __init__(self, value: int, n: int):
        if n < 0:
            raise ValueError("LEN_MISMATCH: negative length")
        if value < 0 or value >> n:
            raise ValueError(f"LEN_MISMATCH: value does not fit in {n} bits")
        _set_value(self, value)
        _set_n(self, n)

    def __setattr__(self, *_):
        raise AttributeError("BitString is immutable")

    def __delattr__(self, _):
        raise AttributeError("BitString is immutable")

    def __reduce__(self):
        return (BitString, (self.value, self.n))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(0, n)

    @classmethod
    def ones(cls, n: int) -> "BitString":
        return cls((1 << n) - 1, n)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        value = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bit must be 0 or 1, got {b!r}")
            value |= b << n
            n += 1
        return cls(value, n)

    @classmethod
    def from01(cls, s: str) -> "BitString":
        return cls.from_bits(int(ch) for ch in s)

    @classmethod
    def random(cls, n: int, rng) -> "BitString":
        return cls(rng.getrandbits(n) if n else 0, n)

    # -- basics ----------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.value >> i) & 1

    def __iter__(self) -> Iterator[int]:
        v = self.value
        for _ in range(self.n):
            yield v & 1
            v >>= 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self.n == other.n
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.value, self.n))

    def __repr__(self) -> str:
        if self.n <= 64:
            return f"BitString({self.to01()!r})"
        return f"BitString(len={self.n}, weight={self.weight})"

    def to01(self) -> str:
        return "".join(str(b) for b in self)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes((self.n + 7) // 8 or 1, "little")

    def hex(self) -> str:
        return self.to_bytes().hex()

    @property
    def weight(self) -> int:
        return self.value.bit_count()

    # -- arithmetic -------------------------------------------------------

    def _check_len(self, other: "BitString", op: str) -> None:
        if not isinstance(other, BitString):
            raise TypeError(f"{op} needs a BitString, got {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"LEN_MISMATCH: {op} of lengths {self.n} and {other.n}")

    def __xor__(self, other: "BitString") -> "BitString":
        self._check_len(other, "xor")
        return BitString(self.value ^ other.value, self.n)

    def __and__(self, other: "BitString") -> "BitString":
        self._check_len(other, "and")
        return BitString(self.value & other.value, self.n)

    def __invert__(self) -> "BitString":
        return BitString(self.value ^ ((1 << self.n) - 1), self.n)

    def concat(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            raise TypeError("concat needs a BitString")
        return BitString(self.value | (other.value << self.n), self.n + other.n)

    def slice(self, start: int, stop: int) -> "BitString":
        if not 0 <= start <= stop <= self.n:
            raise ValueError(f"LEN_MISMATCH: slice [{start}:{stop}] of {self.n}")
        width = stop - start
        return BitString((self.value >> start) & ((1 << width) - 1), width)

    def restrict(self, indices: Sequence[int]) -> "BitString":
        """Bits at the given positions, in the given order."""
        value = 0
        for out, i in enumerate(indices):
            if not 0 <= i < self.n:
                raise IndexError(i)
            value |= ((self.value >> i) & 1) << out
        return BitString(value, len(indices))

    def take_stride(self, start: int, step: int) -> "BitString":
        """Bits at positions start, start+step, ... up to the end."""
        if step < 1 or not 0 <= start <= self.n:
            raise ValueError(
                f"LEN_MISMATCH: stride from {start} by {step} of {self.n}")
        if step == 1:
            return self.slice(start, self.n)
        return self.restrict(range(start, self.n, step))

    def flip(self, positions: Iterable[int]) -> "BitString":
        mask = 0
        for i in positions:
            if not 0 <= i < self.n:
                raise IndexError(i)
            mask |= 1 << i
        return BitString(self.value ^ mask, self.n)


# __init__ calls the slot setters bound once here: reaching them through
# BitString.value.__set__ costs two more lookups on every construction
_set_value = BitString.value.__set__
_set_n = BitString.n.__set__


def hamming_distance(a: BitString, b: BitString) -> int:
    """Number of positions where a and b differ."""
    a._check_len(b, "hamming_distance")
    return (a.value ^ b.value).bit_count()


def neighborhood_size(n: int, d: int) -> int:
    """Size of the strict-radius ball {y : d(x, y) < d} in {0,1}^n.

    Independent of the center; equals sum of C(n, i) for i < d.
    """
    if not 0 <= d <= n + 1:
        raise ValueError(f"radius {d} out of range for n={n}")
    return sum(comb(n, i) for i in range(d))


@lru_cache(maxsize=256)
def stride_pattern(k: int, width: int) -> int:
    """Word with bits 0, k, ..., (width-1)k set: stride 0 of a k-bit string
    spread over ``width`` blocks.  Stride j is this word shifted left by j."""
    p = 0
    for t in range(width):
        p |= 1 << (t * k)
    return p
