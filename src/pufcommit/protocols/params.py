"""Parameter bundles tying PUF families, extractors and codes together.

Each protocol instance fixes a security parameter n and a string length
k and derives every width from them:

* the sender-side extractor emits k*n bits (k*l with l = 3n for the
  plain scheme), so each committed bit is masked across n (or l) stride
  positions of the commitment string;
* the receiver's probe token is queried on codewords of the k*n-bit
  secret string, through a code whose minimum distance is 2*d_min - 1
  for the probe family's d_min, so any query within d_min of the real
  codeword decodes to the same string.

The standard() constructors pick desk-scale response widths: the inner
sketch block is 2*t + 1 wide and the sketch-free message keeps 16 bits
of slack over the extracted length, which keeps the extracted strings
statistically close to uniform at the sample sizes the harness uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ecc import RepetitionCode
from ..fuzzy import FuzzyExtractor, check_matching
from ..puf import PufParams

__all__ = ["CommitPair", "CpufParams", "ExtPufParams", "OriginalExtPufParams"]

_SLACK = 16  # sketch-free bits beyond the extracted length
_PROBE_D_MIN = 2  # d_min of every probe family; its code repeats each bit 2*d_min - 1 times


def _pair(challenge_len: int, out_len: int, d_noise: int, d_min: int | None = None,
          seed_bits: int = 128) -> "CommitPair":
    block = 2 * d_noise + 1
    rg = block * (out_len + _SLACK)
    puf = PufParams.standard(challenge_len, rg, d_noise=d_noise, d_min=d_min, m=rg)
    fe = FuzzyExtractor(source_len=rg, out_len=out_len, t=d_noise, m_req=rg,
                        seed_bits=seed_bits)
    return CommitPair(puf, fe)


@dataclass(frozen=True)
class CommitPair:
    """A PUF family with a matched fuzzy extractor."""

    puf: PufParams
    fe: FuzzyExtractor

    def __post_init__(self):
        if not check_matching(self.fe, self.puf):
            raise ValueError("PUF and extractor parameters do not match")


@dataclass(frozen=True)
class CpufParams:
    """Plain commitment: one token, extracted length k*l with l = 3n."""

    n: int
    k: int
    pair: CommitPair

    def __post_init__(self):
        if self.pair.fe.out_len != self.k * self.l:
            raise ValueError(f"extractor must emit k*l = {self.k * self.l} bits")

    @property
    def l(self) -> int:
        return 3 * self.n

    @property
    def mask_len(self) -> int:
        return self.k * self.l

    @classmethod
    def standard(cls, n: int, k: int, d_noise: int = 3) -> "CpufParams":
        return cls(n=n, k=k, pair=_pair(n, k * 3 * n, d_noise))


@dataclass(frozen=True)
class ExtPufParams:
    """Extractable commitment (revised flow): sender token plus a stateless,
    outgoing-silent probe token that returns before the mask is drawn."""

    n: int
    k: int
    main: CommitPair          # sender's token, extracted length k*n
    probe: CommitPair         # receiver's probe token, queried on codewords
    code: RepetitionCode      # k*n -> L with min distance 2*probe.d_min - 1

    def __post_init__(self):
        if self.main.fe.out_len != self.k * self.n:
            raise ValueError(f"main extractor must emit k*n = {self.k * self.n} bits")
        if self.code.msg_len != self.k * self.n:
            raise ValueError("code message length must be k*n")
        if self.code.min_dist != 2 * self.probe.puf.d_min - 1:
            raise ValueError("code distance must be 2*d_min - 1 of the probe family")
        if self.probe.puf.n != self.code.code_len:
            raise ValueError("probe challenge length must equal the code length")

    @property
    def mask_len(self) -> int:
        return self.k * self.n

    @classmethod
    def standard(cls, n: int, k: int, d_noise: int = 3) -> "ExtPufParams":
        code = RepetitionCode(k * n, 2 * _PROBE_D_MIN - 1)
        return cls(
            n=n,
            k=k,
            main=_pair(n, k * n, d_noise),
            probe=_pair(code.code_len, n, d_noise, d_min=_PROBE_D_MIN),
            code=code,
        )


@dataclass(frozen=True)
class OriginalExtPufParams:
    """The earlier extractable flow it replaces: the probe token stays with
    the sender until decommit, and the probe outputs are themselves
    committed under a second token.

    The published decommit step reproduces the second secret from the
    first token, which makes every honest decommitment fail; that reads
    as a typo for the second token, so the receiver runs the corrected
    reading.
    """

    n: int
    k: int
    first: CommitPair     # carries the committed string, extracted length k*l
    second: CommitPair    # carries st_E || p_E, extracted length m*l
    probe: CommitPair
    code: RepetitionCode  # k*l -> L

    def __post_init__(self):
        if self.first.fe.out_len != self.k * self.l:
            raise ValueError(f"first extractor must emit k*l = {self.k * self.l} bits")
        if self.second.fe.out_len != self.cat_len * self.l:
            raise ValueError("second extractor must emit |st_E || p_E| * l bits")
        if self.code.msg_len != self.k * self.l:
            raise ValueError("code message length must be k*l")
        if self.code.min_dist != 2 * self.probe.puf.d_min - 1:
            raise ValueError("code distance must be 2*d_min - 1 of the probe family")
        if self.probe.puf.n != self.code.code_len:
            raise ValueError("probe challenge length must equal the code length")

    @property
    def l(self) -> int:
        return 3 * self.n

    @property
    def cat_len(self) -> int:
        """Width of st_E || p_E on the wire."""
        return self.probe.fe.out_len + self.probe.fe.helper_len

    @property
    def mask_len(self) -> int:
        return self.k * self.l

    @classmethod
    def standard(cls, n: int, k: int = 1, d_noise: int = 3) -> "OriginalExtPufParams":
        l = 3 * n
        code = RepetitionCode(k * l, 2 * _PROBE_D_MIN - 1)
        probe = _pair(code.code_len, n, d_noise=1, d_min=_PROBE_D_MIN, seed_bits=64)
        cat = probe.fe.out_len + probe.fe.helper_len
        return cls(
            n=n,
            k=k,
            first=_pair(n, k * l, d_noise),
            second=_pair(n, cat * l, d_noise=1),
            probe=probe,
            code=code,
        )
