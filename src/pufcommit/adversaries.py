"""Adversary zoo: attack senders, cheating receivers, and the ideal-world
simulator strategies.

Every member is a drop-in replacement for one party of one protocol,
addressable by a stable string id from the harness.  Each declares what
it is expected to achieve so the test suite can assert the whole zoo at
once: the ambiguous-query sender breaks extraction of the original flow,
and the late-query sender shows its query going unanswered in the
revised one; the equivocating openers probe binding; the substituting
returner trips the return check; the stateful probe is refused outright
under the zero-state regime; the chatty token probes the outgoing-bit
budget.

Revised-flow members are written once, against the collective core; the
single-string protocol runs the same classes with one string.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .bits import BitString
from .puf import chatty_program, replay_on_marker_program, silent_program
from .session import PartyHandle, ProtocolAbort
from .protocols.compiler import (
    HonestCompilerReceiver,
    HonestCompilerSender,
    share_index,
)
from .protocols.collective import CollectiveReceiver, CollectiveSender
from .protocols.cpuf import CpufSender
from .protocols.original import OriginalSender

__all__ = [
    "AdversaryStrategy",
    "zoo",
    "strategy_by_id",
    "AmbiguousQuerySender",
    "EquivocatingCpufSender",
    "EquivocatingCollectiveSender",
    "SubstitutingReturnSender",
    "LateQuerySender",
    "NeverQuerySender",
    "ChattyTokenSender",
    "StatefulProbeReceiver",
    "AbortingProbeReceiver",
    "EGuessCompilerSender",
    "AlternatingBlobSender",
    "SimulatorCompilerSender",
    "SimulatorCompilerReceiver",
]


# ---------------------------------------------------------------------------
# Attack on the original flow
# ---------------------------------------------------------------------------

class AmbiguousQuerySender(OriginalSender):
    """Commits honestly to the bit 0, then also queries the probe on the
    codeword of st_1 XOR r_1 once the mask is known.

    Both candidate bits then pass the per-query check (c_1 equals the
    unmasked secret for one query and the masked one for the other), so
    extraction sees two candidates and gives up; the decommitment to 0
    still verifies.  Works only while the sender holds the probe after
    seeing r, which the original message order allows.
    """

    def __init__(self, params, x, api: PartyHandle):
        if x.n != 1 or x.value != 0:
            raise ValueError("this strategy commits to the single bit 0")
        super().__init__(params, x, api)

    def commitments(self, masks):
        cs = super().commitments(masks)
        self.api.eval(self.probe_sid, self.params.code.enc(self.st1 ^ self.r1))
        return cs


# ---------------------------------------------------------------------------
# Binding attackers: commit honestly, open to something else
# ---------------------------------------------------------------------------

class EquivocatingCpufSender(CpufSender):
    def opening(self):
        s_fake = BitString.random(self.params.n, self.api.rng)
        return s_fake, ~self.x


class EquivocatingCollectiveSender(CollectiveSender):
    def opening(self, index):
        s_fake = BitString.random(self.params.n, self.api.rng)
        return (index, s_fake, ~self.values[index],
                self.st_e[index], self.p_e[index].concat())


# ---------------------------------------------------------------------------
# Return-check and budget probes (revised flow)
# ---------------------------------------------------------------------------

class NeverQuerySender(CollectiveSender):
    """Skips the probe entirely and commits with all-zero probe outputs;
    can never open, and extraction has nothing to work with."""

    def ask_probe(self, st_i):
        return None


class SubstitutingReturnSender(CollectiveSender):
    """Returns a fresh token of the probe family instead of the probe and
    keeps the real probe; the receiver's fingerprint check should catch
    the swap before any mask is revealed."""

    DECOY_SID = "coll/decoy"

    def return_probe(self, receiver):
        self.api.create(self.DECOY_SID, self.params.probe.puf)
        self.api.handover(self.DECOY_SID, receiver)


class LateQuerySender(CollectiveSender):
    """Honest except for one probe query per string aimed at the masked
    secret after the masks arrive; by then the probe is back with the
    receiver and the router stays silent, so the attempts are no-ops."""

    def commitments(self, masks):
        self.late_answers = [
            self.api.eval(self.probe_sid, self.params.code.enc(st_i ^ r_i))
            for st_i, r_i in zip(self.st, masks)
        ]
        return super().commitments(masks)


class ChattyTokenSender(CollectiveSender):
    """Creates its own token as a malicious machine that answers honestly
    but tries to send every incoming challenge back to its creator,
    probing the outgoing-bit budget."""

    def create_token(self):
        p = self.params
        self.api.create(self.sid, p.main.puf, chatty_program())

    def leaked_messages(self) -> list:
        return [m for m in self.api.inbox() if m[0] == "outmsg"]


class _UncheckedProbeReceiver(CollectiveReceiver):
    """Fields a malicious probe running the subclass's probe_program() and
    takes back whatever token returns without a fingerprint check."""

    def create_probe(self):
        self.api.create(self.probe_sid, self.params.probe.puf, self.probe_program())

    def verify_return(self):
        self.returned_probe = self.api.take_handover("await-probe-return")


class StatefulProbeReceiver(_UncheckedProbeReceiver):
    """Tries to field a probe that records what it is queried on, so the
    receiver could learn the committed string after the probe returns.
    Under the zero-state regime the router refuses the machine at creation
    time; this class exists to prove that refusal fires."""

    def probe_program(self):
        p = self.params
        return replay_on_marker_program(p.probe.fe.source_len,
                                        BitString.zeros(p.probe.puf.n))

    def read_probe_memory(self) -> Optional[BitString]:
        """After the return, ask the stateful probe to replay the last
        query it saw (the marker challenge triggers the leak)."""
        marker = BitString.zeros(self.params.probe.puf.n)
        return self.api.eval(self.returned_probe, marker)


class AbortingProbeReceiver(_UncheckedProbeReceiver):
    """Fields a probe that refuses every query; the sender must complete
    the commit phase with all-zero probe outputs rather than abort."""

    def probe_program(self):
        return silent_program()

    def check_opening(self, *args):
        return None  # nothing this receiver accepts is meaningful


# ---------------------------------------------------------------------------
# Compiler-level cheats
# ---------------------------------------------------------------------------

class EGuessCompilerSender(HonestCompilerSender):
    """Keeps both bit values alive in every pair and forges the equality
    bits for a guessed challenge string; survives the equality subprotocol
    exactly when the guess matches all n challenge bits."""

    def make_blobs(self):
        self.guess = [self.api.rng.getrandbits(1) for _ in range(self.n)]
        return super().make_blobs()

    def blob_value(self, j):
        return self.b ^ (j % 2)  # first blob of the pair carries b, second not-b

    def equality_message(self):
        return [self.pair_xor(t, g) for t, g in enumerate(self.guess)]

    def decommit_choice(self):
        return [2 * t for t in range(self.n)]  # the blobs that carry b


class AlternatingBlobSender(HonestCompilerSender):
    """Honest inside each pair but the pair values alternate 0,1,0,1,...
    across pairs; passes the equality subprotocol yet can never open a
    common bit, and extraction of the pairs yields an empty intersection."""

    def blob_value(self, j):
        return (j // 2) % 2


# ---------------------------------------------------------------------------
# Ideal-world simulator strategies
# ---------------------------------------------------------------------------

class SimulatorCompilerSender(HonestCompilerSender):
    """Sender-side simulation against a corrupted receiver.

    Extracts the challenge bits from the receiver's commitment and plants
    blob values through the honest sender: in every pair one blob, at a
    uniform position, carries 1 and the other 0.  It patches the equality
    bits to match the extracted challenges (random where extraction
    failed), aborts if the receiver opens anything else, and at decommit
    time opens the blobs carrying whatever bit the ideal commitment
    reveals (set_revealed)."""

    needs_extraction = True

    def __init__(self, n, b, api):
        super().__init__(n, 0, api)  # the real bit is unknown here
        self.e_star: Optional[list] = None
        self.revealed: Optional[int] = None

    def set_extracted(self, e_star):
        self.e_star = list(e_star)

    def set_revealed(self, b):
        self.revealed = b

    def make_blobs(self):
        self.one_blob = [2 * t + self.api.rng.getrandbits(1) for t in range(self.n)]
        return super().make_blobs()

    def blob_value(self, j):
        return int(j == self.one_blob[j // 2])

    def equality_message(self):
        y = []
        for t in range(self.n):
            e_t = self.e_star[t]
            if e_t is None:
                y.append(self.api.rng.getrandbits(1))
            else:
                y.append(self.pair_xor(t, e_t))
        return y

    def equality_open_indices(self, e_bits):
        if list(e_bits) != self.e_star:
            raise ProtocolAbort("sim-e-mismatch")
        return super().equality_open_indices(e_bits)

    def decommit_choice(self):
        if self.revealed not in (0, 1):
            raise ProtocolAbort("sim-missing-bit")
        return [blob ^ self.revealed ^ 1 for blob in self.one_blob]


class SimulatorCompilerReceiver(HonestCompilerReceiver):
    """Receiver-side simulation against a corrupted sender.

    Extracts all blob shares, forms the per-blob values, intersects the
    per-pair value sets, and decides what the dummy sender hands to the
    ideal commitment: the unique common bit, 0 if the intersection is
    empty, abort if both bits survived (the sender cheated the equality
    subprotocol).  A later decommitment is forwarded only when it opens
    the extracted bit."""

    needs_extraction = True

    def __init__(self, n, api):
        super().__init__(n, api)
        self.b_star: Optional[int] = None

    def set_extracted(self, shares_star):
        """Decide b_star: the bit some blob of every pair carries, 0 if no
        bit does, None if both do."""
        values = []
        for j in range(2 * self.n):
            s0 = shares_star[share_index(j, 0)]
            s1 = shares_star[share_index(j, 1)]
            values.append(None if s0 is None or s1 is None else s0 ^ s1)
        common = {0, 1}
        for t in range(self.n):
            common &= {values[2 * t], values[2 * t + 1]}
        self.b_star = None if common == {0, 1} else common.pop() if common else 0

    def check_equalities(self, y_bits, indices, open_share):
        passed = super().check_equalities(y_bits, indices, open_share)
        if passed and self.b_star is None:  # the sender guessed e
            raise ProtocolAbort("sim-A-ambiguous")
        return passed


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdversaryStrategy:
    strategy_id: str
    role: str                  # sender | receiver
    protocol: str              # cpuf | extpuf | collextpuf | original-extpuf | uccompiler
    factory: Callable
    expect: str                # what a run against the honest peer should yield
    notes: str = ""


def zoo() -> list[AdversaryStrategy]:
    return [
        AdversaryStrategy("honest-sender", "sender", "extpuf",
                          CollectiveSender, expect="accept"),
        AdversaryStrategy("honest-receiver", "receiver", "extpuf",
                          CollectiveReceiver, expect="accept"),
        AdversaryStrategy("ambiguous-query-attacker", "sender", "original-extpuf",
                          AmbiguousQuerySender, expect="accept",
                          notes="extraction yields no unique candidate while the "
                                "decommitment to 0 is accepted"),
        AdversaryStrategy("equivocating-open-cpuf", "sender", "cpuf",
                          EquivocatingCpufSender, expect="reject"),
        AdversaryStrategy("equivocating-open-extpuf", "sender", "extpuf",
                          EquivocatingCollectiveSender, expect="reject"),
        AdversaryStrategy("equivocating-open-collective", "sender", "collextpuf",
                          EquivocatingCollectiveSender, expect="reject"),
        AdversaryStrategy("honest-collective-sender", "sender", "collextpuf",
                          CollectiveSender, expect="accept"),
        AdversaryStrategy("never-query-collective", "sender", "collextpuf",
                          NeverQuerySender, expect="reject"),
        AdversaryStrategy("substituting-returner-collective", "sender", "collextpuf",
                          SubstitutingReturnSender, expect="abort:TQ_FAIL"),
        AdversaryStrategy("substituting-returner", "sender", "extpuf",
                          SubstitutingReturnSender, expect="abort:TQ_FAIL"),
        AdversaryStrategy("late-query-sender", "sender", "extpuf",
                          LateQuerySender, expect="accept",
                          notes="the post-return probe query is dropped unanswered"),
        AdversaryStrategy("never-query-sender", "sender", "extpuf",
                          NeverQuerySender, expect="reject"),
        AdversaryStrategy("chatty-token-sender", "sender", "extpuf",
                          ChattyTokenSender, expect="accept",
                          notes="outgoing messages must be dropped under k_out = 0"),
        AdversaryStrategy("stateful-probe-receiver", "receiver", "extpuf",
                          StatefulProbeReceiver, expect="construction-error",
                          notes="zero-state regime refuses the machine at creation"),
        AdversaryStrategy("aborting-probe-receiver", "receiver", "extpuf",
                          AbortingProbeReceiver, expect="sender-completes",
                          notes="sender substitutes zeros and finishes the commit"),
        AdversaryStrategy("e-guessing-sender", "sender", "uccompiler",
                          EGuessCompilerSender, expect="abort:blob-equalities",
                          notes="survives the equality subprotocol with "
                                "probability 2^-n"),
        AdversaryStrategy("alternating-blob-sender", "sender", "uccompiler",
                          AlternatingBlobSender, expect="reject",
                          notes="passes the commit phase, no common bit to open"),
    ]


def strategy_by_id(strategy_id: str) -> AdversaryStrategy:
    for strategy in zoo():
        if strategy.strategy_id == strategy_id:
            return strategy
    raise KeyError(f"unknown adversary id {strategy_id!r}")
