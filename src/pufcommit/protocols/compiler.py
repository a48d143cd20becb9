"""Bit commitment compiled from extractable collective commitments.

Blob layout: for a committed bit b the sender draws 2n blobs, blob j
being the share pair (b_j^0, b_j^1) with b_j^1 = b XOR b_j^0, and
commits all 4n share bits.  Blobs are grouped into n consecutive pairs
(2t, 2t+1).  The receiver commits its challenge bits e, one per pair,
before the sender commits anything; that ordering is what lets the
ideal-world simulation extract e first and build its blobs around it.

Commit phase: receiver commits e; sender commits the shares; then the
equality subprotocol runs: the sender sends y_t = b_{2t}^0 XOR
b_{2t+1}^0 for every pair, the receiver opens e, and the sender names
the e_t-shares of both blobs in each pair.  The receiver takes y and the
indices, each a logged message, through the intake (`common.fits`),
opens every share it checks, and checks each y_t against its pair's
opened shares.  A sender whose paired blobs disagree passes only by
having guessed e outright.

Decommit: the sender picks l_t in {2t, 2t+1} per pair and opens both
shares of blob l_t; the receiver accepts if some single bit b explains
every opened pair.  Each share opens once per run: the decommitment
opens only the share of blob l_t not yet open.

Channels: each direction is one extractable bit channel, the only seam
between the parties and the token layer.  A channel commits a list of
bits, opens bit i, opens them all in order (stopping at the first
failure) and extracts the committed bits straight-line; the parties see
only ints.  `CollectiveChannel` runs one collective instance over all its
bits (two tokens, two exchange phases) as one-bit strings under the one
bundle `channel_params` gives: the n challenge bits one way, the 4n blob
shares the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

from ..bits import BitString
from ..extract import run_extractor_collective
from ..functionality import EXTPUF_BUDGETS
from ..session import ProtocolAbort, Session
from .collective import open_index, run_collective_commit
from .common import Outcome, commit_step, fits, open_step
from .params import ExtPufParams

__all__ = [
    "share_index",
    "equality_shares",
    "channel_params",
    "CollectiveChannel",
    "HonestCompilerSender",
    "HonestCompilerReceiver",
    "CompilerOutcome",
    "run_uccompiler",
    "open_uccompiler",
]


def share_index(blob: int, eps: int) -> int:
    """Index of share b_blob^eps in the sender's committed vector."""
    return 2 * blob + eps


def equality_shares(e_bits: list[int]) -> list[int]:
    """The e_t-shares of both blobs of every pair t, pair by pair."""
    return [share_index(blob, e_t) for t, e_t in enumerate(e_bits)
            for blob in (2 * t, 2 * t + 1)]


# ---------------------------------------------------------------------------
# Commitment channels
# ---------------------------------------------------------------------------

class CollectiveChannel:
    """One direction's bits under a single collective instance, each
    committed as a one-bit string."""

    def __init__(self, session: Session, params: ExtPufParams,
                 sender_name: str, receiver_name: str, label: str):
        self.session = session
        self.params = params
        self.sender_name = sender_name
        self.receiver_name = receiver_name
        self.label = label
        self.outcome: Optional[Outcome] = None

    def commit(self, bits: list[int]) -> bool:
        self.outcome = run_collective_commit(
            self.params, [BitString(bit, 1) for bit in bits], self.session,
            sender_name=self.sender_name, receiver_name=self.receiver_name,
            label=self.label,
        )
        return self.outcome.committed

    def open(self, index: int) -> Optional[int]:
        bit = open_index(self.outcome, index, receiver_name=self.receiver_name)
        return None if bit is None else bit.value

    def open_all(self) -> Optional[list[int]]:
        """The committed bits, or None from the first opening that fails."""
        bits = []
        for t in range(self.outcome.receiver.n_strings):
            bit = self.open(t)
            if bit is None:
                return None
            bits.append(bit)
        return bits

    def extract(self) -> list[Optional[int]]:
        """Every committed bit read from the run's log, None where that fails."""
        return [None if bit is None else bit.value
                for bit in run_extractor_collective(self.extraction_inputs())]

    def extraction_inputs(self) -> dict:
        return self.outcome.extraction_inputs()


# Least mask width of a one-bit channel string.  The collective extractor
# matches another index's query with probability about 2(N-1)/2^width
# (N = 4n on the blob channel), so n-bit masks collide at small n.
_CHANNEL_WIDTH = 24


def channel_params(n: int, d_noise: int) -> ExtPufParams:
    """The bundle both channels commit their one-bit strings under, masked
    at least _CHANNEL_WIDTH wide."""
    return ExtPufParams.standard(max(n, _CHANNEL_WIDTH), 1, d_noise=d_noise)


# ---------------------------------------------------------------------------
# Compiler-level parties
# ---------------------------------------------------------------------------

class HonestCompilerSender:
    needs_extraction = False

    def __init__(self, n: int, b: int, api):
        if b not in (0, 1):
            raise ValueError(f"bit expected, got {b!r}")
        self.n = n
        self.b = b
        self.api = api

    def blob_value(self, j: int) -> int:
        """The bit blob j carries."""
        return self.b

    def make_blobs(self) -> list[int]:
        rng = self.api.rng
        self.shares = []
        for j in range(2 * self.n):
            value = self.blob_value(j)
            b0 = rng.getrandbits(1)
            self.shares.extend([b0, value ^ b0])
        return self.shares

    def pair_xor(self, t: int, eps: int) -> int:
        """XOR of the eps-shares of pair t's two blobs."""
        return self.shares[share_index(2 * t, eps)] ^ self.shares[share_index(2 * t + 1, eps)]

    def equality_message(self) -> list[int]:
        return [self.pair_xor(t, 0) for t in range(self.n)]

    def equality_open_indices(self, e_bits: list[int]) -> list[int]:
        return equality_shares(e_bits)

    def decommit_choice(self) -> list[int]:
        rng = self.api.rng
        return [2 * t + rng.getrandbits(1) for t in range(self.n)]


class HonestCompilerReceiver:
    needs_extraction = False

    def __init__(self, n: int, api):
        self.n = n
        self.api = api

    def choose_e(self) -> list[int]:
        self.e_bits = [self.api.rng.getrandbits(1) for _ in range(self.n)]
        return self.e_bits

    def check_equalities(self, y_bits, indices, open_share: Callable) -> bool:
        """Whether every y_t is the XOR of the opened e_t-shares of pair t.
        y_bits must be n bits and indices exactly those shares, checked
        before any share opens; every share opens before any pair is checked."""
        if not (fits(y_bits, [(0, 1)] * self.n)
                and fits(indices, [(i,) for i in equality_shares(self.e_bits)])):
            return False
        opened = [open_share(i) for i in indices]
        return all(None not in (a, c) and y == a ^ c
                   for y, a, c in zip(y_bits, opened[::2], opened[1::2]))

    def check_decommit(self, chosen, open_share: Callable) -> Optional[int]:
        """The bit both shares of every chosen blob open to, or None.  chosen
        must name blob 2t or 2t+1 of each pair t, checked before any share opens."""
        if not fits(chosen, [(2 * t, 2 * t + 1) for t in range(self.n)]):
            return None
        pairs = [(open_share(share_index(blob, 0)), open_share(share_index(blob, 1)))
                 for blob in chosen]
        if any(None in pair for pair in pairs):
            return None
        values = {s0 ^ s1 for s0, s1 in pairs}
        return values.pop() if len(values) == 1 else None


# ---------------------------------------------------------------------------
# The compiled protocol
# ---------------------------------------------------------------------------

@dataclass
class CompilerOutcome(Outcome):
    """A compiled run; its value is the opened bit."""

    blob_channel: object = None
    open_share: Optional[Callable] = None   # the blob channel's open, each share once


def run_uccompiler(n: int, b: int, seed: int, mode: str = "collective",
                   sender_factory: Callable = HonestCompilerSender,
                   receiver_factory: Callable = HonestCompilerReceiver,
                   open_phase: bool = True,
                   d_noise: int = 3) -> CompilerOutcome:
    """Run the compiled bit commitment end to end over collective channels.

    A party that declares needs_extraction (a simulator) gets the
    straight-line extraction of the channel the other party commits on.
    """
    # perfbench/workloads.py still passes mode="collective", the one mode left
    if mode != "collective":
        raise ValueError(f"unknown channel mode {mode!r}")
    session = Session(seed, budgets=EXTPUF_BUDGETS)

    S = sender_factory(n, b, session.handle_for("S"))
    R = receiver_factory(n, session.handle_for("R"))
    outcome = CompilerOutcome(session, sender=S, receiver=R)

    params = channel_params(n, d_noise)
    # direction R -> S: the challenge bits; R is the channel sender
    e_channel = CollectiveChannel(session, params, "R", "S", "e/")
    # direction S -> R: the blob shares
    blob_channel = CollectiveChannel(session, params, "S", "R", "blob/")
    outcome.blob_channel = blob_channel
    outcome.open_share = cache(blob_channel.open)

    def commit():
        session.phase("R", "choose-e")
        if not e_channel.commit(R.choose_e()):
            raise ProtocolAbort("e-commit")
        if S.needs_extraction:
            S.set_extracted(e_channel.extract())

        session.phase("S", "make-blobs")
        if not blob_channel.commit(S.make_blobs()):
            raise ProtocolAbort("blob-commit")
        if R.needs_extraction:
            R.set_extracted(blob_channel.extract())

        # equality subprotocol
        session.phase("S", "equalities")
        y_bits = session.msg("S", "R", "y", _sent(S.equality_message()))
        e = e_channel.open_all()
        if e is None:
            raise ProtocolAbort("e-open")
        indices = session.msg("S", "R", "equality-shares", _sent(S.equality_open_indices(e)))
        if not R.check_equalities(y_bits, indices, outcome.open_share):
            raise ProtocolAbort("blob-equalities")

    if not commit_step(outcome, commit):
        return outcome
    if open_phase:
        open_uccompiler(outcome)
    return outcome


def _sent(message):
    """A message as the log keeps it: a list is copied, as its sender may change it."""
    return list(message) if isinstance(message, list) else message


def open_uccompiler(outcome: CompilerOutcome) -> Optional[int]:
    """Decommit phase; callable later, e.g. once an ideal commitment opens."""
    session, S, R = outcome.session, outcome.sender, outcome.receiver

    def decommit():
        chosen = session.msg("S", "R", "open-choice", _sent(S.decommit_choice()))
        return R.check_decommit(chosen, outcome.open_share)

    session.phase("S", "open")
    return open_step(outcome, 0, decommit)
