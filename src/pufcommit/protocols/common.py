"""Shared protocol pieces: the run outcome with its commit and opening
steps, the two token steps every commitment is made of, the one message
intake, stride masking, the one return check and the probe-refused fallback.

Every message a party takes is checked by `fits`: `take` gives up at the
party's step on one that does not fit, and a receiver rejects such an opening.

Every commitment binds a string to a token the same way: `enroll` draws
a fresh challenge, reads the token on it and runs Gen; `reproduce`
re-reads the token on that challenge later and runs Rep on the helper.
Every Gen of a run goes through `generate`, which records the reading in
the session, and every Rep through `reproduce`, which reads that record."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..bits import BitString, stride_pattern
from ..fuzzy import FuzzyExtractor, HelperData
from ..session import PartyHandle, ProtocolAbort, Session

__all__ = ["Outcome", "commit_step", "open_step", "generate", "enroll", "reproduce",
           "fits", "take", "take_helpers", "mask_commitment", "probe_outputs", "TestQuery"]


@dataclass
class Outcome:
    """One run of a commitment protocol: how its commit phase ended and
    every opening the receiver has checked since."""

    session: Session
    committed: bool = False
    abort_step: Optional[str] = None
    commit_end: int = -1
    opened: dict = field(default_factory=dict)     # index -> accepted value or None
    receiver_view: dict = field(default_factory=dict)
    probe_sid: Optional[str] = None
    sender_name: str = "S"
    sender: object = None
    receiver: object = None

    @property
    def accepted(self) -> Optional[bool]:
        """False after a commit abort or any rejected opening, None while
        nothing has been opened."""
        if not self.committed:
            return False
        if not self.opened:
            return None
        return all(v is not None for v in self.opened.values())

    @property
    def value(self):
        return self.opened.get(0)

    def extraction_inputs(self) -> dict:
        """Everything the straight-line extractor needs from this session."""
        return {
            "cs": self.receiver_view["cs"],
            "masks": self.receiver_view["masks"],
            "k": self.receiver_view["k"],
            "code": self.receiver_view["code"],
            "probe_sid": self.probe_sid,
            "sender": self.sender_name,
            "commit_end": self.commit_end,
            "log": self.session.log,
        }


def commit_step(outcome: Outcome, commit: Callable[[], None], label: str = "") -> bool:
    """Run a commit phase and record how it ended.

    commit() carries the phase's messages.  A party giving up during it
    (ProtocolAbort) marks `abort:{label}{step}`; otherwise the session marks
    `{label}commit-complete` and the outcome is committed.  Returns
    outcome.committed."""
    session = outcome.session
    try:
        commit()
    except ProtocolAbort as abort:
        session.mark(f"abort:{label}{abort.step}")
        outcome.abort_step = abort.step
        return False
    outcome.commit_end = session.mark(f"{label}commit-complete")
    outcome.committed = True
    return True


def open_step(outcome: Outcome, slot: int, decommit: Callable[[], object],
              receiver_name: str = "R", **record):
    """Run one decommitment and record the receiver's verdict on `slot`.

    decommit() carries the opening and returns the accepted value or None.
    A party giving up during it (ProtocolAbort) rejects the slot and marks
    the step; otherwise the verdict, plus `record`, goes to the log."""
    session = outcome.session
    try:
        value = decommit()
    except ProtocolAbort as abort:
        session.mark(f"abort:{abort.step}")
        outcome.abort_step = abort.step
        outcome.opened[slot] = None
        return None
    outcome.opened[slot] = value
    session.outcome(receiver_name, accepted=value is not None,
                    value=value.to01() if isinstance(value, BitString) else value,
                    **record)
    return value


def _reading_key(fe: FuzzyExtractor, helper: HelperData) -> tuple:
    return (fe.source_len, fe.out_len, fe.t, fe.seed_bits,
            helper.hash_seed.value, helper.sketch.value)


def generate(api: PartyHandle, fe: FuzzyExtractor,
             reading: BitString) -> tuple[BitString, HelperData]:
    """(st, p): Gen on reading, recorded in the session for `reproduce`."""
    st, p = fe.gen(reading, api.rng)
    api.session.readings[_reading_key(fe, p)] = (reading.value, st)
    return st, p


def enroll(api: PartyHandle, sid: str, challenge_len: int,
           fe: FuzzyExtractor) -> tuple[BitString, BitString, HelperData]:
    """(s, st, p): a fresh challenge s, and Gen on the token's answer to it."""
    s = BitString.random(challenge_len, api.rng)
    st, p = generate(api, fe, api.eval(sid, s))
    return s, st, p


def reproduce(api: PartyHandle, sid: str, challenge: BitString, fe: FuzzyExtractor,
              helper: HelperData) -> Optional[BitString]:
    """Rep on the token's answer to challenge; None when the token refuses
    or answers with a width fe cannot take, so a check can reject instead
    of crash.

    An answer within t in total of a reading that `generate` recorded in
    this session under fe's widths and this helper gets the recorded st
    without decoding, which is what Rep returns: that Gen made w XOR
    sketch a codeword, so an answer w' within t of w in total, hence
    within t in every inner block, decodes back to w, and Rep hashes
    H_seed(w) = st.  The argument holds for whichever Gen made the entry,
    even if two collide on (seed, sketch).  Two honest readings of one
    challenge differ in fewer than d_noise <= t bits, so an honest
    opening never decodes; any other answer runs Rep in full."""
    response = api.eval(sid, challenge)
    if response is None or response.n != fe.source_len:
        return None
    recorded = api.session.readings.get(_reading_key(fe, helper))
    if recorded is not None and (response.value ^ recorded[0]).bit_count() <= fe.t:
        return recorded[1]
    return fe.rep(response, helper)


def _fits_field(value, width) -> bool:
    if isinstance(width, int):
        return isinstance(value, BitString) and value.n == width
    return width is None or type(value) is int and value in width


def fits(message, widths) -> bool:
    """Whether message is a tuple or list with one field per entry of
    widths: a BitString of that many bits for an int, one of the given
    ints for a tuple of ints, and anything for None (a field the party
    does not read)."""
    return (isinstance(message, (tuple, list)) and len(message) == len(widths)
            and all(map(_fits_field, message, widths)))


def take(message, widths, step: str):
    """message, if it fits widths; otherwise give up at `step`."""
    if not fits(message, widths):
        raise ProtocolAbort(step)
    return message


def take_helpers(message, fes: list[FuzzyExtractor], step: str) -> list[HelperData]:
    """The helper data sent for each extractor in fes; give up at `step` unless it fits."""
    wires = take(message, [fe.helper_len for fe in fes], step)
    return [HelperData.from_concat(w, fe.source_len) for w, fe in zip(wires, fes)]


def mask_commitment(st: BitString, x: BitString, r: BitString, width: int) -> BitString:
    """c = st XOR (x spread across its strides AND r), built as one string.

    Bit j of the k-bit x is spread onto positions j, j+k, ..., j+(width-1)k,
    where it gates r on its stride.  That spread is one multiply, x times
    stride_pattern(k, width), with no carries: the product is the sum of
    the copies x << tk for t < width, and since x < 2^k each copy fills only
    bits tk .. tk+k-1, so no two copies overlap."""
    if not st.n == r.n == x.n * width:
        raise ValueError(f"LEN_MISMATCH: mask of {x.n}x{width}, st of {st.n}, r of {r.n}")
    return BitString(st.value ^ (x.value * stride_pattern(x.n, width) & r.value), st.n)


def probe_outputs(response: Optional[BitString], fe: FuzzyExtractor,
                  api: PartyHandle) -> tuple[BitString, HelperData]:
    """(st_E, p_E) extracted from a probe answer; all-zero strings, with no
    randomness drawn and nothing recorded, when the probe refused (None or
    a wrong width)."""
    if response is None or response.n != fe.source_len:
        return (BitString.zeros(fe.out_len),
                HelperData(BitString.zeros(fe.source_len), BitString.zeros(fe.seed_bits)))
    return generate(api, fe, response)


@dataclass(frozen=True)
class TestQuery:
    """Random-challenge fingerprint taken before a token is handed away:
    an enrolment, TestQuery(*enroll(...))."""

    challenge: BitString
    secret: BitString
    helper: HelperData

    def take_back(self, api: PartyHandle, fe: FuzzyExtractor) -> str:
        """The returned token's sid; give up at TQ_FAIL unless it has this fingerprint."""
        sid = api.take_handover("await-probe-return")
        if reproduce(api, sid, self.challenge, fe, self.helper) != self.secret:
            raise ProtocolAbort("TQ_FAIL")
        return sid
