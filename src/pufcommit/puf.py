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

import math
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Optional

from .bits import BitString, hamming_distance, neighborhood_size
from .prf import prf_bits
from .report import ExperimentReport

__all__ = [
    "PufParams",
    "PufInstance",
    "sample_puf",
    "MachineProgram",
    "MaliciousPufMachine",
    "passthrough_program",
    "constant_program",
    "query_logging_program",
    "replay_on_marker_program",
    "chatty_program",
    "silent_program",
    "estimate_unpredictability",
    "estimate_preimage_entropy",
    "close_query_experiment",
    "run_test_query_experiment",
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
        budget = self.params.max_flips
        if budget == 0:
            return base
        # randrange and choice make the same draws as randint(0, budget)
        # and sample(range(rg), 1), at a third of the call overhead
        flips = rng.randrange(budget + 1)
        if flips == 0:
            return base
        if flips == 1:
            return base.flip((rng.choice(range(self.params.rg)),))
        return base.flip(rng.sample(range(self.params.rg), flips))


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
    response_len: int
    wants_inner: bool = True


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

    @property
    def response_len(self) -> int:
        return self.program.response_len

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


def passthrough_program(response_len: int) -> MachineProgram:
    """Echo the embedded honest instance; indistinguishable from honest."""
    def fn(kind, payload, state, oracle):
        if kind != "query":
            return None, None, None
        return oracle(payload), None, None
    return MachineProgram("passthrough", 0, fn, response_len)


def constant_program(response_len: int) -> MachineProgram:
    def fn(kind, payload, state, oracle):
        if kind != "query":
            return None, None, None
        return BitString.zeros(response_len), None, None
    return MachineProgram("constant-zero", 0, fn, response_len, wants_inner=False)


def query_logging_program(response_len: int, log_bits: int) -> MachineProgram:
    """Keeps the most recent query prefix in state; needs log_bits of memory."""
    def fn(kind, payload, state, oracle):
        if kind != "query":
            return None, None, None
        keep = payload.slice(0, min(log_bits, payload.n))
        pad = BitString.zeros(log_bits - keep.n)
        return oracle(payload), keep.concat(pad), None
    return MachineProgram("query-logger", log_bits, fn, response_len)


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
    return MachineProgram("replay-on-marker", state_bits, fn, response_len)


def chatty_program(response_len: int) -> MachineProgram:
    """Answers honestly but tries to send every query back to its creator."""
    def fn(kind, payload, state, oracle):
        if kind == "query":
            return oracle(payload), None, payload
        return None, None, payload
    return MachineProgram("chatty", 0, fn, response_len)


def silent_program(response_len: int) -> MachineProgram:
    """Refuses to answer: models an aborting token."""
    def fn(kind, payload, state, oracle):
        return None, None, None
    return MachineProgram("silent", 0, fn, response_len, wants_inner=False)


# ---------------------------------------------------------------------------
# Family-level experiments
# ---------------------------------------------------------------------------

def estimate_unpredictability(params: PufParams, trials: int, seed: int = 0,
                              num_queries: int = 4,
                              include_challenge: bool = False) -> ExperimentReport:
    """Empirical response-entropy estimate under far-away queries.

    Each trial samples a fresh instance, a challenge s, and num_queries
    challenges at distance >= d_min from s, evaluates the queries first
    and then s, and pools the s-responses.  Two estimates are reported:

    * ``estimated_bits``: -log2 of the maximum pooled frequency, a
      max-likelihood plug-in for the response min-entropy.  It needs on
      the order of 2^(rg+6) trials to sit within a bit of the truth.
    * ``probe_success``: hit rate of a predictor that answers with the
      response of the nearest query, probing whether conditioning on the
      far-away responses helps at all.

    ``clears_m`` allows one bit of plug-in bias against the claim.
    """
    if params.rg > 16:
        raise ValueError("empirical estimation limited to rg <= 16")
    if params.d_min > params.n:
        return ExperimentReport(
            name="unpredictability", trials=0, successes=0, status="vacuous",
            details={"reason": "no challenge at distance >= d_min exists"},
        )
    rng = Random(seed)
    counts: dict[int, int] = {}
    probe_hits = 0
    for _ in range(trials):
        inst = sample_puf(params, rng)
        s = BitString.random(params.n, rng)
        queries = []
        while len(queries) < num_queries:
            q = BitString.random(params.n, rng)
            if hamming_distance(q, s) >= params.d_min:
                queries.append(q)
        if include_challenge:
            queries[0] = s
        if any(hamming_distance(q, s) < params.d_min for q in queries):
            return ExperimentReport(
                name="unpredictability", trials=0, successes=0,
                status="PRECONDITION_UNMET",
                details={"reason": "query list intersects the d_min ball around s"},
            )
        q_responses = [inst.respond(q, rng) for q in queries]
        sigma = inst.respond(s, rng)
        counts[sigma.value] = counts.get(sigma.value, 0) + 1
        nearest = min(range(num_queries), key=lambda i: hamming_distance(queries[i], s))
        if q_responses[nearest] == sigma:
            probe_hits += 1
    max_freq = max(counts.values()) / trials
    estimated = -math.log2(max_freq)
    clears = estimated >= params.m - 1.0
    return ExperimentReport(
        name="unpredictability",
        trials=trials,
        successes=trials if clears else 0,
        failures=0 if clears else trials,
        details={
            "estimated_bits": estimated,
            "claimed_m": params.m,
            "clears_m": clears,
            "probe_success": probe_hits / trials,
            "distinct_responses": len(counts),
        },
    )


def estimate_preimage_entropy(params: PufParams, trials: int, seed: int = 0) -> float:
    """Plug-in estimate of how much a response reveals about its challenge.

    Challenges are uniform; the estimate is -log2 of the maximum pooled
    challenge frequency among observed (response, challenge) pairs.  For
    the keyed-map construction responses carry no challenge information,
    so the value should approach n (up to plug-in bias).
    """
    if params.n > 12:
        raise ValueError("estimation limited to n <= 12")
    rng = Random(seed)
    counts: dict[int, int] = {}
    for _ in range(trials):
        inst = sample_puf(params, rng)
        s = BitString.random(params.n, rng)
        inst.respond(s, rng)  # response drawn; independent of s by construction
        counts[s.value] = counts.get(s.value, 0) + 1
    return -math.log2(max(counts.values()) / trials)


def close_query_experiment(params: PufParams, trials: int, queries_per_trial: int = 8,
                           seed: int = 0) -> ExperimentReport:
    """Blind-guess baseline for landing a query inside the d_min ball.

    The adversary holds (sigma, instance) and fires queries_per_trial
    uniform queries; a trial succeeds if any lands within d_min of the
    secret challenge.  The report carries the 10x ball-fraction budget the
    baseline is expected to stay under.
    """
    rng = Random(seed)
    hits = 0
    for _ in range(trials):
        inst = sample_puf(params, rng)
        s = BitString.random(params.n, rng)
        inst.respond(s, rng)
        got = False
        for _ in range(queries_per_trial):
            q = BitString.random(params.n, rng)
            inst.respond(q, rng)
            if hamming_distance(q, s) < params.d_min:
                got = True
        if got:
            hits += 1
    bound = 10.0 * params.ball_fraction()
    return ExperimentReport(
        name="close-query",
        trials=trials,
        successes=hits,
        failures=trials - hits,
        details={
            "hit_rate": hits / trials,
            "bound": bound,
            "within_bound": hits / trials <= bound,
            "queries_per_trial": queries_per_trial,
        },
    )


def run_test_query_experiment(params: PufParams, fe, trials: int, seed: int = 0,
                          substitute: bool = True) -> ExperimentReport:
    """Detection rate of the random-challenge return check.

    The challenger records (s, st, p) from its own instance, then either
    gets the same instance back (substitute=False) or a fresh one
    (substitute=True) and re-runs the reproduction check.  Success means
    the check flagged a substitution, or passed an honest return.
    """
    rng = Random(seed)
    ok = 0
    for _ in range(trials):
        inst = sample_puf(params, rng)
        s = BitString.random(params.n, rng)
        st, p = fe.gen(inst.respond(s, rng), rng)
        returned = sample_puf(params, rng) if substitute else inst
        match = fe.rep(returned.respond(s, rng), p) == st
        if substitute:
            ok += 0 if match else 1
        else:
            ok += 1 if match else 0
    return ExperimentReport(
        name="test-query-substituted" if substitute else "test-query-honest",
        trials=trials,
        successes=ok,
        failures=trials - ok,
        details={"substitute": substitute},
    )
