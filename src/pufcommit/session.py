"""One protocol session: deterministic scheduler, party handles, transcript.

A session owns a functionality instance, a shared event log, and one
labeled randomness stream per participant, all derived from a single
master seed.  Protocol runners drive the parties phase by phase in a
fixed order; the only scheduling freedom (when a handed-over token is
actually delivered) belongs to the adversary hook, whose default
completes every transfer immediately.  A party takes a delivered token
with take_handover(step), which gives up at `step` when none is waiting.

Everything that happens lands in the same ordered log: router events,
direct protocol messages, phase annotations, exchange-phase markers and
outcomes.  With a fixed seed the serialized log is byte-identical across
runs.

A session also owns its readings: every Gen a party runs through
protocols.common records the reading it hashed there, so a later Rep of
the same token in this session can skip decoding.  The record goes with
the session.

Ownership runs one way: a party handle points at its session, and the
session never points at a handle.  The session keeps each party's
randomness stream by name, so every handle_for(name) returns a new handle
that draws from the same stream.  A finished run therefore holds no
reference cycle, and reference counting frees it, log and all, as soon
as its outcome is dropped.
"""

from __future__ import annotations

from random import Random
from typing import Optional

from .bits import BitString
from .functionality import (ADVERSARY, EXTPUF_BUDGETS, Budgets, CommPufFunctionality,
                            EventLog)
from .prf import derive_seed
from .puf import MachineProgram, PufParams

__all__ = [
    "ProtocolAbort",
    "Session",
    "PartyHandle",
    "ImmediateDelivery",
    "count_resources",
    "message_shapes",
]


class ProtocolAbort(Exception):
    """Raised when an honest party gives up; carries the aborting step."""

    def __init__(self, step: str):
        super().__init__(f"PROTOCOL_ABORT({step})")
        self.step = step


class ImmediateDelivery:
    """Default adversary: completes every token transfer at once."""

    def on_invoke(self, session: "Session", sid: str, frm: str, to: str) -> None:
        session.route(session.functionality.handle(("ready", sid, ADVERSARY)))
        session.route(session.functionality.handle(("received", sid, ADVERSARY, frm)))


class Session:
    def __init__(self, seed: int, budgets: Budgets = EXTPUF_BUDGETS, adversary=None):
        self.seed = seed
        self.log = EventLog()
        self.functionality = CommPufFunctionality(Random(derive_seed(seed, "func")),
                                                  self.log, budgets)
        self.adversary = adversary or ImmediateDelivery()
        self.mailboxes: dict[str, list] = {}
        self.exchange_phases = 0
        self._rngs: dict[str, Random] = {}
        self.readings: dict[tuple, tuple] = {}  # see protocols.common.reproduce

    def handle_for(self, name: str) -> "PartyHandle":
        """A handle for party `name`; every handle of one name shares its
        randomness stream."""
        rng = self._rngs.get(name)
        if rng is None:
            rng = self._rngs[name] = Random(derive_seed(self.seed, "party", name))
            self.mailboxes.setdefault(name, [])
        return PartyHandle(self, name, rng)

    # -- transcript annotations --------------------------------------------

    def phase(self, role: str, name: str) -> None:
        self.log.append("phase", None, role, name)

    def msg(self, frm: str, to: str, name: str, payload) -> object:
        """Record a direct protocol message and hand the payload over."""
        self.log.append("protocol-msg", None, frm, payload, [(to, (name,))], name)
        return payload

    def begin_exchange_phase(self, label: str) -> None:
        self.exchange_phases += 1
        self.log.append("exchange-phase", payload=label,
                        note=f"index={self.exchange_phases}")

    def outcome(self, role: str, **fields) -> None:
        self.log.append("outcome", sender=role, payload=dict(sorted(fields.items())))

    def mark(self, label: str) -> int:
        """Named position in the log; returns the step index."""
        return self.log.append("mark", None, None, label).step

    # -- functionality plumbing ---------------------------------------------

    def route(self, deliveries: list, expect_for: str | None = None):
        """Queue deliveries into mailboxes; return the response payload
        addressed to expect_for, if any."""
        answer = None
        for recipient, message in deliveries:
            if message[0] == "response" and recipient == expect_for:
                answer = message[3]
            elif recipient == ADVERSARY and message[0] == "invoke":
                _, sid, frm, to = message
                self.adversary.on_invoke(self, sid, frm, to)
            else:
                self.mailboxes.setdefault(recipient, []).append(message)
        return answer


class PartyHandle:
    """Capability a party uses to touch the functionality and its inbox."""

    def __init__(self, session: Session, name: str, rng: Random):
        self.session = session
        self.name = name
        self.rng = rng

    # -- token lifecycle ------------------------------------------------------

    def create(self, sid: str, params: PufParams,
               program: Optional[MachineProgram] = None) -> str:
        """Create a token: honest, or a malicious machine running program."""
        init = (("init", sid, self.name, "honest", params) if program is None
                else ("init", sid, self.name, "malicious", params, program))
        deliveries = self.session.functionality.handle(init)
        if not deliveries:
            raise ProtocolAbort(f"init({sid})")
        self.session.route(deliveries, expect_for=self.name)
        return sid

    def eval(self, sid: str, challenge: BitString) -> Optional[BitString]:
        """Query a token; None when the router stays silent or the token
        refuses to answer."""
        deliveries = self.session.functionality.handle(
            ("eval", sid, self.name, challenge))
        if not deliveries:
            return None
        return self.session.route(deliveries, expect_for=self.name)

    def handover(self, sid: str, to: str) -> None:
        session = self.session
        session.route(session.functionality.handle(("handover", sid, self.name, to)))

    # -- inbox -------------------------------------------------------------------

    def inbox(self) -> list:
        return self.session.mailboxes.setdefault(self.name, [])

    def take_handover(self, step: str) -> str:
        """Pop the next delivered token sid from the inbox; give up at `step`
        when no handed-over token is waiting."""
        box = self.inbox()
        for i, message in enumerate(box):
            if message[0] == "handover":
                box.pop(i)
                return message[1]
        raise ProtocolAbort(step)


# ---------------------------------------------------------------------------
# Log-derived summaries
# ---------------------------------------------------------------------------

def count_resources(log: EventLog) -> dict:
    """Tokens created and exchange phases, measured from the log."""
    pufs = sum(1 for rec in log.records if rec.kind == "init" and not rec.dropped)
    phases = sum(1 for rec in log.records if rec.kind == "exchange-phase")
    queries = sum(1 for rec in log.records if rec.kind == "eval" and not rec.dropped)
    return {"pufs_created": pufs, "exchange_phases": phases, "queries": queries}


def _payload_len(payload) -> int:
    if isinstance(payload, BitString):
        return payload.n
    if isinstance(payload, (list, tuple)):
        return sum(_payload_len(p) for p in payload)
    return 0


def message_shapes(log: EventLog) -> list:
    """(name, payload bits) of every direct protocol message, in log order;
    non-bit fields such as an opening's index count zero."""
    return [(rec.note, _payload_len(rec.payload))
            for rec in log.records if rec.kind == "protocol-msg"]
