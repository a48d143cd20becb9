"""Shared protocol pieces: stride masking, the return check and the
probe-refused fallback."""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Optional

from ..bits import BitString, spread
from ..fuzzy import FuzzyExtractor, HelperData
from ..session import PartyHandle

__all__ = ["mask_commitment", "probe_outputs", "TestQuery", "record_test_query"]


def mask_commitment(st: BitString, x: BitString, r: BitString, width: int) -> BitString:
    """c = st XOR (x spread across its strides AND r)."""
    return st ^ (spread(x, width) & r)


def probe_outputs(response: Optional[BitString], fe: FuzzyExtractor,
                  rng: Random) -> tuple[BitString, HelperData]:
    """(st_E, p_E) extracted from a probe answer; all-zero strings, and no
    randomness drawn, when the probe refused (None or a wrong width)."""
    if response is None or response.n != fe.source_len:
        return (BitString.zeros(fe.out_len),
                HelperData(BitString.zeros(fe.source_len), BitString.zeros(fe.seed_bits)))
    return fe.gen(response, rng)


@dataclass(frozen=True)
class TestQuery:
    """Random-challenge fingerprint taken before a token is handed away."""

    challenge: BitString
    secret: BitString
    helper: HelperData

    def verify(self, api: PartyHandle, sid: str, fe: FuzzyExtractor) -> bool:
        response = api.eval(sid, self.challenge)
        if response is None or response.n != fe.source_len:
            return False
        return fe.rep(response, self.helper) == self.secret


def record_test_query(api: PartyHandle, sid: str, challenge_len: int,
                      fe: FuzzyExtractor) -> TestQuery:
    challenge = BitString.random(challenge_len, api.rng)
    response = api.eval(sid, challenge)
    st, p = fe.gen(response, api.rng)
    return TestQuery(challenge, st, p)
