"""Simulated PUF families: honest instances and malicious token machines.

An honest instance is a keyed pseudorandom map from challenges to ideal
responses plus bounded read noise: each evaluation flips at most
floor((d_noise - 1)/2) uniformly chosen positions, so two readings of the
same challenge are always within d_noise - 1 < d_noise of each other by
the triangle inequality.  The map itself leaks nothing about which
challenge produced a response.  Each instance memoizes its ideal map per
challenge, so a re-read skips the PRF expansion; the memo holds only what
a fresh PRF evaluation of the same key and challenge returns, and the
noise is drawn afresh on every read.

A malicious token is an arbitrary deterministic program with a bounded
bit budget of persistent state and optional oracle access to one freshly
sampled honest instance that nobody else can reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Callable, Optional

from .bits import BitString, neighborhood_size
from .prf import prf_bits

__all__ = [
    "PufParams",
    "PufInstance",
    "sample_puf",
    "MachineProgram",
    "MaliciousPufMachine",
    "query_logging_program",
    "replay_on_marker_program",
    "chatty_program",
    "silent_program",
]


@dataclass(frozen=True)
class PufParams:
    """Family parameters: challenge/response widths, noise and security radii."""

    n: int          # challenge length, bits
    rg: int         # response length, bits
    d_noise: int    # strict bound on the distance between two readings
    d_min: int      # unpredictability radius
    m: int          # claimed residual min-entropy of a response, bits

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("challenge length must be positive")
        if not 0 <= self.d_noise <= self.rg:
            raise ValueError(f"d_noise {self.d_noise} out of range for rg={self.rg}")
        if not 0 < self.d_min <= self.n + 1:
            raise ValueError(f"d_min {self.d_min} out of range for n={self.n}")
        if not 0 < self.m <= self.rg:
            raise ValueError(f"claimed entropy {self.m} out of range for rg={self.rg}")

    @staticmethod
    def default_d_min(n: int) -> int:
        """Desk-scale default: keeps the close-query ball negligible for
        n >= 32 while staying exhaustively checkable at n <= 8."""
        return max(2, n // 8)

    @classmethod
    def standard(cls, n: int, rg: int, d_noise: int = 3, d_min: int | None = None,
                 m: int | None = None) -> "PufParams":
        return cls(
            n=n,
            rg=rg,
            d_noise=d_noise,
            d_min=d_min if d_min is not None else cls.default_d_min(n),
            m=m if m is not None else rg,
        )

    @property
    def max_flips(self) -> int:
        """Per-evaluation flip budget; d_noise of 0 or 1 is noiseless."""
        return max(0, (self.d_noise - 1) // 2)

    def ball_fraction(self) -> float:
        """|B(d_min)| / 2^n, the blind close-query hit rate per guess."""
        return neighborhood_size(self.n, self.d_min) / float(1 << self.n)


@dataclass(frozen=True)
class PufInstance:
    """One sampled device: an opaque id and a secret latent response map."""

    puf_id: str
    params: PufParams
    key: bytes = field(repr=False)
    _ideal: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _max_flips: int = field(default=0, init=False, compare=False, repr=False)

    def __post_init__(self):
        # respond reads the flip budget on every evaluation
        object.__setattr__(self, "_max_flips", self.params.max_flips)

    def ideal(self, s: BitString) -> BitString:
        if s.n != self.params.n:
            raise ValueError(f"LEN_MISMATCH: challenge of {s.n} bits, expected {self.params.n}")
        known = self._ideal.get(s.value)
        if known is None:
            known = BitString(prf_bits(self.key, s.to_bytes(), self.params.rg), self.params.rg)
            self._ideal[s.value] = known
        return known

    def respond(self, s: BitString, rng: Random) -> BitString:
        """One noisy evaluation; stateless, randomness injected by the caller."""
        base = self.ideal(s)
        budget = self._max_flips
        if budget == 0:
            return base
        # randrange(budget + 1) makes the one draw of randint(0, budget), and
        # randrange(rg) the one _randbelow(rg) that choice(range(rg)) and
        # sample(range(rg), 1) make, at less call overhead; one flip is one
        # XOR on the value, with no mask loop
        flips = rng.randrange(budget + 1)
        if flips == 0:
            return base
        rg = self.params.rg
        if flips == 1:
            return BitString(base.value ^ (1 << rng.randrange(rg)), rg)
        return base.flip(rng.sample(range(rg), flips))


def sample_puf(params: PufParams, rng: Random) -> PufInstance:
    key = rng.getrandbits(256).to_bytes(32, "little")
    puf_id = f"id-{rng.getrandbits(64):016x}"
    return PufInstance(puf_id=puf_id, params=params, key=key)


# ---------------------------------------------------------------------------
# Malicious token machines
# ---------------------------------------------------------------------------

# program signature: fn(kind, payload, state, oracle) -> (response, new_state, outgoing)
#   kind is "query" or "msg"; state is a BitString or None; oracle evaluates
#   the embedded honest instance (or raises if there is none).
ProgramFn = Callable[[str, BitString, Optional[BitString], Callable], tuple]


@dataclass(frozen=True)
class MachineProgram:
    name: str
    state_bits: int
    fn: ProgramFn


class MaliciousPufMachine:
    """Bounded-state token wrapper enforcing the declared budgets.

    Construction fails with STATE_BUDGET if the program declares more
    persistent state than the regime allows; runtime writes are audited
    against the same bound.
    """

    def __init__(self, program: MachineProgram, k_state: int | None,
                 inner: PufInstance | None = None):
        if k_state is not None and program.state_bits > k_state:
            raise ValueError(
                f"STATE_BUDGET: program {program.name!r} needs {program.state_bits} "
                f"state bits, regime allows {k_state}"
            )
        self.program = program
        self.k_state = k_state
        self.inner = inner
        self.state: BitString | None = (
            BitString.zeros(program.state_bits) if program.state_bits else None
        )

    def step(self, kind: str, payload: BitString, oracle_rng: Random):
        """Run one transition; returns (response, outgoing), either may be None."""
        def oracle(challenge: BitString) -> BitString:
            if self.inner is None:
                raise RuntimeError("machine has no embedded honest instance")
            return self.inner.respond(challenge, oracle_rng)

        response, new_state, outgoing = self.program.fn(kind, payload, self.state, oracle)
        if new_state is not None:
            if self.k_state is not None and new_state.n > self.k_state:
                raise ValueError(
                    f"STATE_BUDGET: write of {new_state.n} bits exceeds {self.k_state}"
                )
            self.state = new_state
        return response, outgoing


def query_logging_program(log_bits: int) -> MachineProgram:
    """Keeps the most recent query prefix in state; needs log_bits of memory."""
    def fn(kind, payload, state, oracle):
        if kind != "query":
            return None, None, None
        keep = payload.slice(0, min(log_bits, payload.n))
        pad = BitString.zeros(log_bits - keep.n)
        return oracle(payload), keep.concat(pad), None
    return MachineProgram("query-logger", log_bits, fn)


def replay_on_marker_program(response_len: int, marker: BitString) -> MachineProgram:
    """Stateful leak: store each query; on the marker challenge, answer with
    the stored query padded to the response width instead of a response."""
    state_bits = marker.n
    def fn(kind, payload, state, oracle):
        if kind != "query":
            return None, None, None
        if payload == marker and state is not None:
            leaked = state
            if leaked.n >= response_len:
                return leaked.slice(0, response_len), state, None
            return leaked.concat(BitString.zeros(response_len - leaked.n)), state, None
        keep = payload.slice(0, min(state_bits, payload.n))
        keep = keep.concat(BitString.zeros(state_bits - keep.n))
        return oracle(payload), keep, None
    return MachineProgram("replay-on-marker", state_bits, fn)


def chatty_program() -> MachineProgram:
    """Answers honestly but tries to send every query back to its creator."""
    def fn(kind, payload, state, oracle):
        if kind == "query":
            return oracle(payload), None, payload
        return None, None, payload
    return MachineProgram("chatty", 0, fn)


def silent_program() -> MachineProgram:
    """Refuses to answer: models an aborting token."""
    def fn(kind, payload, state, oracle):
        return None, None, None
    return MachineProgram("silent", 0, fn)
