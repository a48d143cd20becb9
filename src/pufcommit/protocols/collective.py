"""Extractable token commitment, revised flow, over N strings at once.

This is the one commitment core: the single-string protocol (run_extpuf)
is this flow with N = 1, and the compiler's channels run it too.

Commit: the receiver fingerprints its probe token; the sender draws one
challenge s^i per string from its own token and extracts (st^i, p^i).
Tokens swap (the sender's token plus every p^i one way, the probe the
other).  Holding the probe, the sender queries it on Enc(st^i) for every
string to get (st_E^i, p_E^i), substituting all-zero strings if the
probe refuses, then returns the probe.  Only after the probe passes the
return check does the receiver reveal one mask r^i per string, upon
which the sender publishes c^i = st^i XOR (x_i^n AND r^i).

Open, per index, at any later time, in any order, repeatedly: the sender
reveals (i, s^i, x_i, st_E^i, p_E^i); the receiver re-derives st^i from
the sender's token, checks the masking equation, and re-queries the
probe on Enc(st^i) to check st_E^i.

The probe crosses the sender's hands before any mask exists and never
comes back, which is the whole point: a sender can no longer aim a probe
query at a masked secret, and the query it must make to pass the st_E
check pins the string it can open.  The probe runs with zero state and
zero outgoing budget; its creator may still send it bits.  Token traffic
stays at two tokens and two exchange phases no matter how many strings
are committed.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..bits import BitString
from ..functionality import EXTPUF_BUDGETS, EventLog
from ..fuzzy import HelperData
from ..session import PartyHandle, Session
from .common import (Outcome, TestQuery, commit_step, enroll, fits, mask_commitment,
                     open_step, probe_outputs, reproduce, take, take_helpers)
from .params import ExtPufParams

__all__ = ["CollectiveSender", "CollectiveReceiver", "run_collective",
           "run_collective_commit", "open_index", "run_extpuf", "check_order_discipline"]


class CollectiveSender:
    SID = "coll/token"

    def __init__(self, params: ExtPufParams, values: list[BitString],
                 api: PartyHandle, label: str = ""):
        for v in values:
            if v.n != params.k:
                raise ValueError(f"LEN_MISMATCH: value of {v.n} bits, expected {params.k}")
        self.params = params
        self.values = list(values)
        self.n_strings = len(values)
        self.api = api
        self.sid = f"{label}{self.SID}"

    def create_token(self) -> None:
        self.api.create(self.sid, self.params.main.puf)

    def setup(self) -> list[BitString]:
        api, p = self.api, self.params
        self.create_token()
        self.s = []
        self.st = []
        self.helpers = []
        for _ in range(self.n_strings):
            s_i, st_i, p_i = enroll(api, self.sid, p.n, p.main.fe)
            self.s.append(s_i)
            self.st.append(st_i)
            self.helpers.append(p_i)
        return [h.concat() for h in self.helpers]

    def send_token(self, receiver: str) -> None:
        self.api.handover(self.sid, receiver)

    def ask_probe(self, st_i: BitString) -> Optional[BitString]:
        return self.api.eval(self.probe_sid, self.params.code.enc(st_i))

    def query_probe(self) -> None:
        """Query the probe on the codeword of every st^i; zeros where it refuses."""
        self.probe_sid = self.api.take_handover("await-probe")
        self.st_e = []
        self.p_e = []
        for st_i in self.st:
            st_e_i, p_e_i = probe_outputs(self.ask_probe(st_i),
                                          self.params.probe.fe, self.api)
            self.st_e.append(st_e_i)
            self.p_e.append(p_e_i)

    def return_probe(self, receiver: str) -> None:
        self.api.handover(self.probe_sid, receiver)

    def commitments(self, masks) -> list[BitString]:
        self.masks = list(take(masks, [self.params.mask_len] * self.n_strings, "await-mask"))
        return [
            mask_commitment(self.st[i], self.values[i], self.masks[i], self.params.n)
            for i in range(self.n_strings)
        ]

    def opening(self, index: int):
        return (index, self.s[index], self.values[index],
                self.st_e[index], self.p_e[index].concat())


class CollectiveReceiver:
    PROBE_SID = "coll/probe"

    def __init__(self, params: ExtPufParams, n_strings: int, api: PartyHandle,
                 label: str = ""):
        self.params = params
        self.n_strings = n_strings
        self.api = api
        self.probe_sid = f"{label}{self.PROBE_SID}"

    def create_probe(self) -> None:
        p = self.params
        self.api.create(self.probe_sid, p.probe.puf)
        self.tq = TestQuery(*enroll(self.api, self.probe_sid, p.probe.puf.n, p.probe.fe))

    def send_probe(self, sender: str) -> None:
        self.api.handover(self.probe_sid, sender)

    def receive_token_and_helpers(self, helpers) -> None:
        self.token_sid = self.api.take_handover("await-token")
        self.helpers = take_helpers(helpers, [self.params.main.fe] * self.n_strings,
                                    "await-token")

    def verify_return(self) -> None:
        """Take back whatever token came back, held to the fingerprint."""
        self.returned_probe = self.tq.take_back(self.api, self.params.probe.fe)

    def draw_masks(self) -> list[BitString]:
        self.masks = [
            BitString.random(self.params.mask_len, self.api.rng)
            for _ in range(self.n_strings)
        ]
        return self.masks

    def receive_commitments(self, cs) -> None:
        self.cs = list(take(cs, [self.params.mask_len] * self.n_strings, "await-c"))

    def check_opening(self, index, opening) -> Optional[BitString]:
        """The value of string `index`, which open_index asked for, or None.
        opening is (i, s, x, st_E, p_E); the index i it names is not read."""
        p = self.params
        if not fits(opening, [None, p.n, p.k, p.probe.fe.out_len, p.probe.fe.helper_len]):
            return None
        _, s, x, st_e, p_e_cat = opening
        st = reproduce(self.api, self.token_sid, s, p.main.fe, self.helpers[index])
        if st is None or self.cs[index] != mask_commitment(st, x, self.masks[index], p.n):
            return None
        p_e = HelperData.from_concat(p_e_cat, p.probe.fe.source_len)
        if st_e != reproduce(self.api, self.returned_probe, p.code.enc(st), p.probe.fe, p_e):
            return None
        return x


def run_collective_commit(params: ExtPufParams, values: list[BitString],
                          session: Session,
                          sender_factory: Callable = CollectiveSender,
                          receiver_factory: Callable = CollectiveReceiver,
                          sender_name: str = "S", receiver_name: str = "R",
                          label: str = "") -> Outcome:
    """Commit phase only, inside a caller-owned session; decommits go
    through open_index afterwards."""
    S = sender_factory(params, values, session.handle_for(sender_name), label=label)
    R = receiver_factory(params, len(values), session.handle_for(receiver_name),
                         label=label)
    outcome = Outcome(session, sender_name=sender_name, sender=S, receiver=R)

    def commit():
        session.phase(receiver_name, f"{label}probe-setup")
        R.create_probe()
        session.phase(sender_name, f"{label}setup")
        helpers = S.setup()
        session.begin_exchange_phase(f"{label}token-swap")
        S.send_token(receiver_name)
        R.receive_token_and_helpers(session.msg(sender_name, receiver_name, "helper", helpers))
        R.send_probe(sender_name)
        session.phase(sender_name, f"{label}probe-query")
        S.query_probe()
        session.begin_exchange_phase(f"{label}probe-return")
        S.return_probe(receiver_name)
        session.phase(receiver_name, f"{label}verify-return")
        R.verify_return()
        masks = session.msg(receiver_name, sender_name, "mask", R.draw_masks())
        session.phase(sender_name, f"{label}commit")
        R.receive_commitments(
            session.msg(sender_name, receiver_name, "c", S.commitments(masks)))

    if not commit_step(outcome, commit, label):
        return outcome
    outcome.probe_sid = R.returned_probe
    outcome.receiver_view = {
        "cs": R.cs, "masks": R.masks, "k": params.k, "code": params.code,
    }
    return outcome


def open_index(outcome: Outcome, index: int,
               receiver_name: str = "R") -> Optional[BitString]:
    """One decommitment; may be called at any time after commit, repeatedly.
    An index outside [0, N) is a rejected opening, and the sender is not
    asked for it; the sender's answer is checked against the string asked
    for, whatever index it names."""
    def decommit():
        if not 0 <= index < outcome.receiver.n_strings:
            return None
        opening = outcome.session.msg(outcome.sender_name, receiver_name, "opening",
                                      outcome.sender.opening(index))
        return outcome.receiver.check_opening(index, opening)

    return open_step(outcome, index, decommit, receiver_name, index=index)


def run_collective(params: ExtPufParams, values: list[BitString], seed: int,
                   sender_factory: Callable = CollectiveSender,
                   receiver_factory: Callable = CollectiveReceiver,
                   open_phase: bool = True) -> Outcome:
    """Whole-protocol convenience runner: commit, then open every index in
    order; open_index opens any other way."""
    session = Session(seed, budgets=EXTPUF_BUDGETS)
    outcome = run_collective_commit(params, values, session,
                                    sender_factory, receiver_factory)
    if outcome.committed and open_phase:
        for i in range(len(values)):
            open_index(outcome, i)
    return outcome


def run_extpuf(params: ExtPufParams, x: BitString, seed: int,
               sender_factory: Callable = CollectiveSender,
               receiver_factory: Callable = CollectiveReceiver,
               open_phase: bool = True) -> Outcome:
    """The single-string protocol: the collective flow over [x]; the
    receiver's view also names that string's c and r."""
    outcome = run_collective(params, [x], seed, sender_factory, receiver_factory,
                             open_phase)
    if outcome.committed:
        view = outcome.receiver_view
        view.update(c=view["cs"][0], r=view["masks"][0])
    return outcome


def check_order_discipline(log: EventLog, probe_sid: str, sender: str) -> bool:
    """Structural invariant of the revised flow on one transcript: the
    probe's return transfer precedes the mask message, and no sender query
    to the probe is answered after the return."""
    handover_steps = [rec.step for rec in log.records
                      if rec.kind == "handover" and rec.sid == probe_sid
                      and not rec.dropped]
    mask_steps = [rec.step for rec in log.records
                  if rec.kind == "protocol-msg" and rec.note == "mask"]
    if not mask_steps:
        return True  # no mask was ever revealed; nothing to order
    if len(handover_steps) < 2 or handover_steps[1] > mask_steps[0]:
        return False
    return_step = handover_steps[1]
    for rec in log.records:
        if (rec.kind == "eval" and rec.sid == probe_sid and rec.sender == sender
                and rec.step > return_step and not rec.dropped):
            return False
    return True
