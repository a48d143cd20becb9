"""Real-world versus ideal-world runs of the compiled bit commitment.

One corruption case at a time: the corrupted party's code is plugged
into both worlds.  The real world runs the protocol as-is; the ideal
world runs the reference commitment functionality with the matching
simulator strategy carrying the protocol conversation.  Worlds are then
compared as histograms of a small seed-stable feature tuple per run
(message shapes, accept flags, the abort step and the final output; the
opened share bits stay out, see `world_features`); full-transcript
equality would be too strong under independent randomness.
"""

from __future__ import annotations

from ..adversaries import SimulatorCompilerReceiver, SimulatorCompilerSender
from ..functionality import ADVERSARY, BitCommitmentFunctionality, EventLog
from ..protocols.compiler import (
    CompilerOutcome,
    HonestCompilerReceiver,
    HonestCompilerSender,
    open_uccompiler,
    run_uccompiler,
)
from ..session import message_shapes

__all__ = [
    "world_features",
    "run_real_world",
    "run_ideal_receiver_corrupt",
    "run_ideal_sender_corrupt",
]


def world_features(outcome: CompilerOutcome, final_output) -> tuple:
    """Small summary of one run, comparable across worlds: message names
    with bit counts, decommit accept flags, the abort step, and the final
    receiver-side output.  The raw opened share bits are one-time-pad
    uniform in both worlds by construction; folding them in would only add
    multinomial noise, so the opened values enter through the outcome
    records (which value each decommitment revealed as accepted)."""
    abort_step = None
    accepts = []
    for rec in outcome.session.log.records:
        if rec.kind == "outcome":
            accepts.append(bool(rec.payload.get("accepted")))
        elif rec.kind == "mark" and str(rec.payload).startswith("abort"):
            abort_step = rec.payload
    return (
        tuple(message_shapes(outcome.session.log)),
        all(accepts) if accepts else None,
        abort_step,
        final_output,
    )


def run_real_world(n: int, b: int, seed: int,
                   sender_factory=HonestCompilerSender,
                   receiver_factory=HonestCompilerReceiver,
                   d_noise: int = 3) -> tuple:
    """Plain protocol run; the final output is the receiver's."""
    outcome = run_uccompiler(n, b, seed, sender_factory=sender_factory,
                             receiver_factory=receiver_factory, d_noise=d_noise)
    final = outcome.value if outcome.accepted else None
    return world_features(outcome, final), outcome


def run_ideal_receiver_corrupt(n: int, b: int, seed: int,
                               receiver_factory=HonestCompilerReceiver,
                               d_noise: int = 3) -> tuple:
    """Ideal world, corrupted receiver.

    The environment hands b to the dummy sender, which commits through
    the reference functionality; the simulator, notified of the
    commitment, walks the corrupted receiver through the commit phase
    with planted blobs.  When the functionality later opens, the
    simulator opens the blobs matching the revealed bit.
    """
    fcom = BitCommitmentFunctionality(EventLog())
    fcom.handle(("commit", fcom.sender, b))

    outcome = run_uccompiler(
        n, 0, seed,
        sender_factory=SimulatorCompilerSender,
        receiver_factory=receiver_factory,
        open_phase=False,
        d_noise=d_noise,
    )
    final = None
    if outcome.committed:
        deliveries = fcom.handle(("open", fcom.sender))
        outcome.sender.set_revealed(next(m[1] for r, m in deliveries if r == ADVERSARY))
        value = open_uccompiler(outcome)
        # the corrupted receiver's protocol output is what the environment sees
        final = value if outcome.accepted else None
    return world_features(outcome, final), outcome


def run_ideal_sender_corrupt(n: int, b: int, seed: int,
                             sender_factory=HonestCompilerSender,
                             d_noise: int = 3) -> tuple:
    """Ideal world, corrupted sender.

    The simulator plays the honest receiver, extracts every blob share
    during the sender's commitment, and lets the corrupted dummy sender
    hand the intersected bit to the functionality (0 when nothing
    survives; abort when both bits do).  A decommitment is forwarded to
    the functionality only when the sender opens the extracted bit.
    """
    fcom = BitCommitmentFunctionality(EventLog())

    outcome = run_uccompiler(
        n, b, seed,
        sender_factory=sender_factory,
        receiver_factory=SimulatorCompilerReceiver,
        open_phase=False,
        d_noise=d_noise,
    )
    final = None
    sim: SimulatorCompilerReceiver = outcome.receiver
    if outcome.committed:
        fcom.handle(("commit", fcom.sender, sim.b_star))
        value = open_uccompiler(outcome)
        if outcome.accepted:
            if value == sim.b_star:
                deliveries = fcom.handle(("open", fcom.sender))
                final = next(m[1] for r, m in deliveries if r == fcom.receiver)
            else:
                outcome.session.mark("abort:sim-wrong-open")
    return world_features(outcome, final), outcome
