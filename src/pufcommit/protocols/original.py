"""Extractable token commitment, original flow (kept as an attack target).

The receiver sends its probe token first and only gets it back at
decommit time, so the sender holds the probe while the mask r is already
known.  The sender carries the committed string under one token and the
probe outputs st_E || p_E under a second one:

Commit: probe travels to the sender; the sender extracts (st_1, p_1) and
(st_2, p_2) from its two tokens, queries the probe on Enc(st_1), hands
both tokens over with p_1, p_2; the receiver replies with masks r_1
(k*l bits) and r_2 (|st_E || p_E| * l bits); the sender publishes
c_1 = st_1 XOR (x^l AND r_1) and c_2 = st_2 XOR ((st_E||p_E)^l AND r_2).

Open: the probe returns together with (s_1, s_2, x, st_E, p_E); the
receiver checks the return fingerprint, both masking equations, and
re-queries the probe on Enc(st_1).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..bits import BitString
from ..functionality import NO_CHANNEL_BUDGETS
from ..fuzzy import HelperData
from ..session import PartyHandle, Session
from .common import (Outcome, TestQuery, commit_step, enroll, fits, generate,
                     mask_commitment, open_step, probe_outputs, reproduce, take, take_helpers)
from .params import OriginalExtPufParams

__all__ = ["OriginalSender", "OriginalReceiver", "run_original_extpuf"]


class OriginalSender:
    SID_FIRST = "orig/token-1"
    SID_SECOND = "orig/token-2"

    def __init__(self, params: OriginalExtPufParams, x: BitString, api: PartyHandle):
        if x.n != params.k:
            raise ValueError(f"LEN_MISMATCH: value of {x.n} bits, expected {params.k}")
        self.params = params
        self.x = x
        self.api = api

    def receive_probe(self) -> None:
        self.probe_sid = self.api.take_handover("await-probe")

    def setup(self) -> tuple:
        api, p = self.api, self.params
        api.create(self.SID_FIRST, p.first.puf)
        api.create(self.SID_SECOND, p.second.puf)
        # Not two enrolments: both challenges are drawn before either read,
        # and enrolling in turn would change every seeded run of this flow.
        self.s1 = BitString.random(p.n, api.rng)
        self.s2 = BitString.random(p.n, api.rng)
        self.st1, self.p1 = generate(api, p.first.fe, api.eval(self.SID_FIRST, self.s1))
        self.st2, self.p2 = generate(api, p.second.fe, api.eval(self.SID_SECOND, self.s2))
        response = api.eval(self.probe_sid, p.code.enc(self.st1))
        self.st_e, self.p_e = probe_outputs(response, p.probe.fe, api)
        return self.p1.concat(), self.p2.concat()

    def send_tokens(self, receiver: str) -> None:
        self.api.handover(self.SID_FIRST, receiver)
        self.api.handover(self.SID_SECOND, receiver)

    def commitments(self, masks) -> tuple:
        p = self.params
        self.r1, self.r2 = take(masks, [p.mask_len, p.cat_len * p.l], "await-mask")
        c1 = mask_commitment(self.st1, self.x, self.r1, p.l)
        c2 = mask_commitment(self.st2, self.st_e.concat(self.p_e.concat()), self.r2, p.l)
        return c1, c2

    def return_probe(self, receiver: str) -> None:
        self.api.handover(self.probe_sid, receiver)

    def opening(self):
        return self.s1, self.s2, self.x, self.st_e, self.p_e.concat()


class OriginalReceiver:
    PROBE_SID = "orig/probe"

    def __init__(self, params: OriginalExtPufParams, api: PartyHandle):
        self.params = params
        self.api = api

    def create_probe(self) -> None:
        p = self.params
        self.api.create(self.PROBE_SID, p.probe.puf)
        self.tq = TestQuery(*enroll(self.api, self.PROBE_SID, p.probe.puf.n, p.probe.fe))

    def send_probe(self, sender: str) -> None:
        self.api.handover(self.PROBE_SID, sender)

    def receive_tokens_and_helpers(self, helpers) -> None:
        p = self.params
        self.first_sid = self.api.take_handover("await-tokens")
        self.second_sid = self.api.take_handover("await-tokens")
        self.p1, self.p2 = take_helpers(helpers, [p.first.fe, p.second.fe], "await-tokens")

    def draw_masks(self) -> tuple:
        p = self.params
        self.r1 = BitString.random(p.mask_len, self.api.rng)
        self.r2 = BitString.random(p.cat_len * p.l, self.api.rng)
        return self.r1, self.r2

    def receive_commitments(self, cs) -> None:
        p = self.params
        self.c1, self.c2 = take(cs, [p.mask_len, p.cat_len * p.l], "await-c")

    def check_opening(self, opening) -> Optional[BitString]:
        """x, if opening is an (s_1, s_2, x, st_E, p_E) that opens; None otherwise."""
        p = self.params
        returned = self.tq.take_back(self.api, p.probe.fe)
        if not fits(opening, [p.n, p.n, p.k, p.probe.fe.out_len, p.probe.fe.helper_len]):
            return None
        s1, s2, x, st_e, p_e_cat = opening
        st1 = reproduce(self.api, self.first_sid, s1, p.first.fe, self.p1)
        if st1 is None:
            return None
        # The published step reproduces st_2 from the first token, which
        # cannot succeed for honest runs; the corrected reading uses the second.
        st2 = reproduce(self.api, self.second_sid, s2, p.second.fe, self.p2)
        if st2 is None or self.c1 != mask_commitment(st1, x, self.r1, p.l):
            return None
        cat = st_e.concat(p_e_cat)
        if self.c2 != mask_commitment(st2, cat, self.r2, p.l):
            return None
        p_e = HelperData.from_concat(p_e_cat, p.probe.fe.source_len)
        if st_e != reproduce(self.api, returned, p.code.enc(st1), p.probe.fe, p_e):
            return None
        return x


def run_original_extpuf(params: OriginalExtPufParams, x: BitString, seed: int,
                        sender_factory: Callable = OriginalSender,
                        receiver_factory: Callable = OriginalReceiver,
                        open_phase: bool = True) -> Outcome:
    # no creator channel in the original model; sender tokens may be stateful
    session = Session(seed, budgets=NO_CHANNEL_BUDGETS)
    S = sender_factory(params, x, session.handle_for("S"))
    R = receiver_factory(params, session.handle_for("R"))
    outcome = Outcome(session, probe_sid=R.PROBE_SID, sender=S, receiver=R)

    def commit():
        session.phase("R", "probe-setup")
        R.create_probe()
        session.begin_exchange_phase("probe-to-sender")
        R.send_probe("S")
        session.phase("S", "setup")
        S.receive_probe()
        helpers = S.setup()
        session.begin_exchange_phase("tokens-to-receiver")
        S.send_tokens("R")
        R.receive_tokens_and_helpers(session.msg("S", "R", "helpers", helpers))
        session.phase("R", "masks")
        masks = session.msg("R", "S", "masks", R.draw_masks())
        session.phase("S", "commit")
        R.receive_commitments(session.msg("S", "R", "c", S.commitments(masks)))

    if not commit_step(outcome, commit):
        return outcome
    # cs / masks: the extractor's inputs for the one string c_1
    outcome.receiver_view = {
        "r": R.r1, "c": R.c1, "k": params.k, "code": params.code,
        "r2": R.r2, "c2": R.c2, "cs": [R.c1], "masks": [R.r1],
    }
    if not open_phase:
        return outcome

    def decommit():
        session.begin_exchange_phase("probe-return")
        S.return_probe("R")
        return R.check_opening(session.msg("S", "R", "opening", S.opening()))

    session.phase("S", "open")
    open_step(outcome, 0, decommit)
    return outcome
