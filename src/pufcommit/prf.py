"""Keyed pseudorandom expansion used for latent response maps and hash seeds.

blake2b in counter mode; deterministic, keyed, and fast enough for the
Monte-Carlo scale this package targets.
"""

from __future__ import annotations

import hashlib

__all__ = ["prf_bytes", "prf_bits", "derive_seed"]

_BLOCK = 64  # blake2b digest size


def prf_bytes(key: bytes, context: bytes, nbytes: int) -> bytes:
    # a keyed blake2b compresses the padded key as its first block: do that
    # once per call and copy the keyed state for each counter block
    keyed = hashlib.blake2b(key=key, digest_size=_BLOCK)
    blocks = []
    for counter in range(-(-nbytes // _BLOCK)):
        h = keyed.copy()
        h.update(context + counter.to_bytes(8, "little"))
        blocks.append(h.digest())
    return b"".join(blocks)[:nbytes]


def prf_bits(key: bytes, context: bytes, nbits: int) -> int:
    data = prf_bytes(key, context, (nbits + 7) // 8)
    return int.from_bytes(data, "little") & ((1 << nbits) - 1)


def derive_seed(master: int, *labels) -> int:
    """Stable 64-bit sub-seed for a labeled randomness stream."""
    ctx = "/".join(str(x) for x in labels).encode()
    key = master.to_bytes(16, "little", signed=False)
    return prf_bits(key, ctx, 64)
