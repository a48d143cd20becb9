"""Plain token commitment.

Commit: the sender samples a token and a challenge s, extracts
(st, p) from the response, hands the token over together with p, gets a
uniform mask r of k*l bits back, and publishes c = st XOR (x^l AND r).
Open: the sender reveals (s, x); the receiver re-derives st from the
token it now holds and checks the masking equation.

Runs without a creator channel; the sender's token may keep unbounded
state, which is why the mask is l = 3n bits per committed bit.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..bits import BitString
from ..functionality import NO_CHANNEL_BUDGETS
from ..session import PartyHandle, Session
from .common import (Outcome, commit_step, enroll, fits, mask_commitment, open_step,
                     reproduce, take, take_helpers)
from .params import CpufParams

__all__ = ["CpufSender", "CpufReceiver", "run_cpuf"]


class CpufSender:
    SID = "cpuf/token"

    def __init__(self, params: CpufParams, x: BitString, api: PartyHandle):
        if x.n != params.k:
            raise ValueError(f"LEN_MISMATCH: value of {x.n} bits, expected {params.k}")
        self.params = params
        self.x = x
        self.api = api

    def setup(self) -> BitString:
        """Create the token, pick s, extract; returns the helper string."""
        api, p = self.api, self.params
        api.create(self.SID, p.pair.puf)
        self.s, self.st, self.helper = enroll(api, self.SID, p.n, p.pair.fe)
        return self.helper.concat()

    def send_token(self, receiver: str) -> None:
        self.api.handover(self.SID, receiver)

    def commitment(self, r) -> BitString:
        self.r = take((r,), [self.params.mask_len], "await-mask")[0]
        return mask_commitment(self.st, self.x, self.r, self.params.l)

    def opening(self):
        return self.s, self.x


class CpufReceiver:
    def __init__(self, params: CpufParams, api: PartyHandle):
        self.params = params
        self.api = api

    def receive_token_and_helper(self, helper) -> None:
        self.token_sid = self.api.take_handover("await-token")
        self.helper = take_helpers((helper,), [self.params.pair.fe], "await-token")[0]

    def draw_mask(self) -> BitString:
        self.r = BitString.random(self.params.mask_len, self.api.rng)
        return self.r

    def receive_commitment(self, c) -> None:
        self.c = take((c,), [self.params.mask_len], "await-c")[0]

    def check_opening(self, opening) -> Optional[BitString]:
        """x, if opening is an (s, x) that opens c; None otherwise."""
        p = self.params
        if not fits(opening, [p.n, p.k]):
            return None
        s, x = opening
        st = reproduce(self.api, self.token_sid, s, p.pair.fe, self.helper)
        if st is not None and self.c == mask_commitment(st, x, self.r, p.l):
            return x
        return None


def run_cpuf(params: CpufParams, x: BitString, seed: int,
             sender_factory: Callable = CpufSender,
             receiver_factory: Callable = CpufReceiver,
             open_phase: bool = True) -> Outcome:
    session = Session(seed, budgets=NO_CHANNEL_BUDGETS)
    S = sender_factory(params, x, session.handle_for("S"))
    R = receiver_factory(params, session.handle_for("R"))
    outcome = Outcome(session, sender=S, receiver=R)

    def commit():
        session.phase("S", "setup")
        helper = S.setup()
        session.begin_exchange_phase("token-to-receiver")
        S.send_token("R")
        R.receive_token_and_helper(session.msg("S", "R", "helper", helper))
        session.phase("R", "mask")
        r = session.msg("R", "S", "mask", R.draw_mask())
        session.phase("S", "commit")
        R.receive_commitment(session.msg("S", "R", "c", S.commitment(r)))

    if not commit_step(outcome, commit):
        return outcome
    outcome.receiver_view = {"r": R.r, "c": R.c, "helper": R.helper}
    if not open_phase:
        return outcome

    def decommit():
        return R.check_opening(session.msg("S", "R", "opening", S.opening()))

    session.phase("S", "open")
    open_step(outcome, 0, decommit)
    return outcome
