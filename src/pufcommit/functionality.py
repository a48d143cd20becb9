"""The two ideal functionalities: the PUF token router and the reference
bit commitment, with one message discipline.

Both take a message one way (_Functionality.handle).  A message is a
tuple (kind, *fields) whose kind names one handler in the
functionality's _HANDLERS.  A message that is not such a tuple, names no
known kind, does not fit its handler's signature, or carries a field the
handler refuses raises MALFORMED and is not logged.  Every other message
is appended to the functionality's event log, including the silent
drops: a message the functionality cannot act on never raises, it leaves
it in the waiting state (EventRecord.dropped), which is what honest
parties experience as a timeout.

The router mediates six message kinds: init, eval, inmsg, handover,
ready, received.  Creation registers either a sampled honest instance or
a malicious machine (which always receives its own fresh embedded honest
instance).  Evaluation answers only the current owner, or the adversary
while a token is in transit.  A three-step transfer (handover by the
owner, ready and received by the adversary) moves ownership.  Malicious
tokens may exchange bits with their creator within the router's budgets,
which hold for every token alike and are counted per sid: incoming bits
are debited before the machine runs, and outgoing messages are dropped
once the budget is gone.  A zero incoming budget means there is no
creator channel at all (the Damgard-Scafuro model, NO_CHANNEL_BUDGETS):
every inmsg is dropped before its sid is looked at.

The reference bit commitment F_COM takes commit and open.  A commit bit
that is not the int 0 or 1 is MALFORMED.  A second commit, an open before
the commit or after the halt, and either from another party than the
sender are dropped in the waiting state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from inspect import signature
from random import Random
from typing import Optional

from .bits import BitString
from .puf import MachineProgram, MaliciousPufMachine, PufInstance, PufParams, sample_puf

__all__ = [
    "ADVERSARY",
    "EventLog",
    "Budgets",
    "NO_CHANNEL_BUDGETS",
    "EXTPUF_BUDGETS",
    "CommPufFunctionality",
    "BitCommitmentFunctionality",
    "audit_budgets",
    "audit_single_ownership",
]

ADVERSARY = "ADV"


def _encode(obj):
    if isinstance(obj, BitString):
        return {"len": obj.n, "hex": obj.hex()}
    if isinstance(obj, (list, tuple)):
        return [_encode(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, (str, int, bool, float)):
        return obj
    return repr(obj)


@dataclass(slots=True)
class EventRecord:
    step: int
    kind: str
    sid: Optional[str]
    sender: Optional[str]
    payload: object
    deliveries: list
    note: str = ""

    @property
    def dropped(self) -> bool:
        """The router left this message unanswered (the waiting state)."""
        return self.note.startswith("waiting-state")

    def to_line(self) -> str:
        return json.dumps(
            {
                "step": self.step,
                "kind": self.kind,
                "sid": self.sid,
                "sender": self.sender,
                "payload": _encode(self.payload),
                "deliveries": _encode(self.deliveries),
                "note": self.note,
            },
            sort_keys=True,
        )


class EventLog:
    """Append-only, serially numbered record of one session."""

    def __init__(self):
        self.records: list[EventRecord] = []

    def append(self, kind: str, sid=None, sender=None, payload=None,
               deliveries=(), note: str = "") -> EventRecord:
        # deliveries is copied: the router hands the same list to its
        # caller, and a delivery hook (a test's curious scheduler) may edit it
        rec = EventRecord(len(self.records), kind, sid, sender, payload,
                          list(deliveries), note)
        self.records.append(rec)
        return rec

    def __len__(self):
        return len(self.records)

    def serialize(self) -> str:
        return "\n".join(rec.to_line() for rec in self.records) + "\n"


@dataclass(frozen=True)
class Budgets:
    """Bit budgets for malicious tokens; None means unbounded."""

    k_state: Optional[int]
    k_in: Optional[int]
    k_out: Optional[int]


# no creator channel; tokens may keep unbounded state
NO_CHANNEL_BUDGETS = Budgets(k_state=None, k_in=0, k_out=0)
# the revised flow's model: stateless tokens, no outgoing channel,
# unbounded incoming
EXTPUF_BUDGETS = Budgets(k_state=0, k_in=None, k_out=0)


class _Functionality:
    """The one message discipline (see the module docstring); a subclass
    sets self.log and maps each message kind to a handler in _HANDLERS."""

    def _drop(self, kind, sid, sender, payload, note) -> list:
        self.log.append(kind, sid, sender, payload, [], f"waiting-state: {note}")
        return []

    def _done(self, kind, sid, sender, payload, deliveries, note="") -> list:
        self.log.append(kind, sid, sender, payload, deliveries, note)
        return deliveries

    def handle(self, msg: tuple) -> list:
        """Take one message; returns [(recipient, message_tuple), ...]."""
        if not isinstance(msg, tuple) or not msg or not isinstance(msg[0], str):
            raise ValueError(f"MALFORMED: {msg!r}")
        kind = msg[0]
        handler = self._HANDLERS.get(kind)
        if handler is None:
            raise ValueError(f"MALFORMED: unknown message kind {kind!r}")
        try:
            return handler(self, *msg[1:])
        except TypeError as exc:
            try:
                signature(handler).bind(self, *msg[1:])
            except TypeError:
                raise ValueError(f"MALFORMED: bad arity for {kind!r}: {exc}") from None
            raise  # the message fits: the error came from inside the handler


@dataclass
class _TokenRecord:
    sid: str
    instance: PufInstance          # the sampled instance (embedded one if malicious)
    owner: Optional[str]
    transit_to: Optional[str] = None
    prev_owner: Optional[str] = None
    creator: str = ""
    machine: Optional[MaliciousPufMachine] = None   # None: an honest token
    in_used: int = 0
    out_used: int = 0
    receipts: list = field(default_factory=list)


class CommPufFunctionality(_Functionality):
    """Router for possibly-communicating malicious tokens."""

    def __init__(self, rng: Random, log: EventLog, budgets: Budgets):
        self.rng = rng
        self.log = log
        self.budgets = budgets
        self.tokens: dict[str, _TokenRecord] = {}

    # perfbench/tracer.py wraps the router's entry point by looking it up
    # in this class's own __dict__
    handle = _Functionality.handle

    # -- init ---------------------------------------------------------------

    def _on_init(self, sid: str, sender: str, mode: str,
                 params: PufParams, program: MachineProgram | None = None) -> list:
        honest = mode == "honest"
        if not (isinstance(params, PufParams) and (honest or mode == "malicious")
                and (program is None if honest else isinstance(program, MachineProgram))):
            raise ValueError(f"MALFORMED: init {mode!r} of a {type(params).__name__}"
                             f" with a {type(program).__name__} program")
        if sid in self.tokens:
            return self._drop("init", sid, sender, mode, "sid already registered")
        instance = sample_puf(params, self.rng)
        machine = None
        if not honest:
            machine = MaliciousPufMachine(program, self.budgets.k_state, instance)
        self.tokens[sid] = _TokenRecord(
            sid=sid, instance=instance, owner=sender, creator=sender, machine=machine,
        )
        return self._done("init", sid, sender, mode,
                          [(sender, ("initialized", sid))],
                          note=f"instance={instance.puf_id}")

    # -- eval ----------------------------------------------------------------

    def _may_eval(self, rec: _TokenRecord, sender: str) -> bool:
        if rec.owner == sender and rec.transit_to is None:
            return True
        return sender == ADVERSARY and rec.owner is None

    def _on_eval(self, sid: str, sender: str, challenge: BitString) -> list:
        if not isinstance(challenge, BitString):
            raise ValueError("MALFORMED: eval challenge must be a BitString")
        rec = self.tokens.get(sid)
        if rec is None:
            return self._drop("eval", sid, sender, challenge, "unknown sid")
        if not self._may_eval(rec, sender):
            return self._drop("eval", sid, sender, challenge, "not the owner")
        if rec.machine is None:
            sigma = rec.instance.respond(challenge, self.rng)
            return self._done("eval", sid, sender, challenge,
                              [(sender, ("response", sid, challenge, sigma))], "honest")
        sigma, m_out = rec.machine.step("query", challenge, self.rng)
        deliveries = [(sender, ("response", sid, challenge, sigma))]
        note = "malicious" + self._send_out(rec, m_out, deliveries)
        return self._done("eval", sid, sender, challenge, deliveries, note=note)

    def _send_out(self, rec: _TokenRecord, m_out: Optional[BitString],
                  deliveries: list) -> str:
        """Deliver a machine's outgoing bits to its creator while k_out
        allows; returns what the log note says of them."""
        if m_out is None:
            return ""
        k_out = self.budgets.k_out
        if k_out is not None and rec.out_used + m_out.n > k_out:
            return " outmsg=dropped:k_out"
        rec.out_used += m_out.n
        deliveries.append((rec.creator, ("outmsg", rec.sid, m_out)))
        return " outmsg=sent"

    # -- creator-to-token messages -------------------------------------------

    def _on_inmsg(self, sid: str, sender: str, m_in: BitString) -> list:
        if not isinstance(m_in, BitString):
            raise ValueError("MALFORMED: inmsg payload must be a BitString")
        if self.budgets.k_in == 0:
            return self._drop("inmsg", sid, sender, m_in, "no creator channel")
        rec = self.tokens.get(sid)
        if rec is None or rec.machine is None or rec.creator != sender:
            return self._drop("inmsg", sid, sender, m_in, "no such malicious sid for sender")
        k_in = self.budgets.k_in
        if k_in is not None and rec.in_used + m_in.n > k_in:
            return self._drop("inmsg", sid, sender, m_in, "k_in budget")
        rec.in_used += m_in.n
        _, m_out = rec.machine.step("msg", m_in, self.rng)
        deliveries: list = []
        note = "debited" + self._send_out(rec, m_out, deliveries)
        return self._done("inmsg", sid, sender, m_in, deliveries, note=note)

    # -- three-step ownership transfer -----------------------------------------

    def _on_handover(self, sid: str, sender: str, target: str) -> list:
        rec = self.tokens.get(sid)
        if rec is None or rec.owner != sender or rec.transit_to is not None:
            return self._drop("handover", sid, sender, target, "sender does not hold sid")
        rec.prev_owner = rec.owner
        rec.owner = None
        rec.transit_to = target
        return self._done("handover", sid, sender, target,
                          [(ADVERSARY, ("invoke", sid, sender, target))])

    def _on_ready(self, sid: str, sender: str) -> list:
        rec = self.tokens.get(sid)
        if sender != ADVERSARY or rec is None or rec.transit_to is None:
            return self._drop("ready", sid, sender, None, "no transfer in flight")
        new_owner = rec.transit_to
        rec.owner = new_owner
        rec.transit_to = None
        rec.receipts.append(rec.prev_owner)
        return self._done("ready", sid, sender, None,
                          [(new_owner, ("handover", sid, rec.prev_owner))])

    def _on_received(self, sid: str, sender: str, original_owner: str) -> list:
        rec = self.tokens.get(sid)
        if sender != ADVERSARY or rec is None or original_owner not in rec.receipts:
            return self._drop("received", sid, sender, original_owner, "no receipt")
        return self._done("received", sid, sender, original_owner,
                          [(original_owner, ("received", sid))])

    _HANDLERS = {
        "init": _on_init,
        "eval": _on_eval,
        "inmsg": _on_inmsg,
        "handover": _on_handover,
        "ready": _on_ready,
        "received": _on_received,
    }


class BitCommitmentFunctionality(_Functionality):
    """Reference ideal bit commitment.

    commit(b) records the bit once and announces the commitment; open
    reveals (open, b) to the receiver and the adversary and halts.
    """

    def __init__(self, log: EventLog, sender: str = "S~", receiver: str = "R~"):
        self.log = log
        self.sender = sender
        self.receiver = receiver
        self.recorded: Optional[int] = None
        self.halted = False

    def _on_commit(self, sender: str, b: int) -> list:
        if type(b) is not int or b not in (0, 1):
            raise ValueError(f"MALFORMED: commit bit {b!r}")
        if self.halted or sender != self.sender or self.recorded is not None:
            return self._drop("fcom-commit", None, sender, b, "out of turn or not the sender")
        self.recorded = b
        return self._done("fcom-commit", None, sender, b,
                          [(self.receiver, ("committed",)), (ADVERSARY, ("committed",))])

    def _on_open(self, sender: str) -> list:
        if self.halted or sender != self.sender or self.recorded is None:
            return self._drop("fcom-open", None, sender, None, "out of turn or not the sender")
        self.halted = True
        b = self.recorded
        return self._done("fcom-open", None, sender, b,
                          [(self.receiver, ("open", b)), (ADVERSARY, ("open", b))])

    _HANDLERS = {"commit": _on_commit, "open": _on_open}


# ---------------------------------------------------------------------------
# Log audits
# ---------------------------------------------------------------------------

def audit_budgets(func: CommPufFunctionality) -> None:
    """Recompute delivered in/out bits per sid from the log and assert they
    never exceed the router's budgets."""
    in_bits: dict[str, int] = {}
    out_bits: dict[str, int] = {}
    for rec in func.log.records:
        if rec.kind == "inmsg" and not rec.dropped:
            in_bits[rec.sid] = in_bits.get(rec.sid, 0) + rec.payload.n
        for _, message in rec.deliveries:
            if message[0] == "outmsg":
                sid = message[1]
                out_bits[sid] = out_bits.get(sid, 0) + message[2].n
    k_in, k_out = func.budgets.k_in, func.budgets.k_out
    for sid, used in in_bits.items():
        if k_in is not None and used > k_in:
            raise AssertionError(f"k_in exceeded for {sid}: {used} > {k_in}")
    for sid, used in out_bits.items():
        if k_out is not None and used > k_out:
            raise AssertionError(f"k_out exceeded for {sid}: {used} > {k_out}")


def audit_single_ownership(func: CommPufFunctionality) -> None:
    """Replay the log and assert each sid always has exactly one owner or is
    in transit, never both, at every step."""
    state: dict[str, tuple] = {}
    for rec in func.log.records:
        if rec.dropped:
            continue
        if rec.kind == "init":
            if rec.sid in state:
                raise AssertionError(f"duplicate init accepted for {rec.sid}")
            state[rec.sid] = (rec.sender, None)
        elif rec.kind == "handover":
            owner, transit = state[rec.sid]
            if owner != rec.sender or transit is not None:
                raise AssertionError(f"handover from non-owner at step {rec.step}")
            state[rec.sid] = (None, rec.payload)
        elif rec.kind == "ready":
            owner, transit = state[rec.sid]
            if owner is not None or transit is None:
                raise AssertionError(f"ready without transfer at step {rec.step}")
            state[rec.sid] = (transit, None)
        if rec.sid in state:
            owner, transit = state[rec.sid]
            if (owner is None) == (transit is None):
                raise AssertionError(
                    f"sid {rec.sid} neither owned nor in transit at step {rec.step}"
                )
