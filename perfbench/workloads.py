"""The benchmark's workloads: seeded inputs, one trial, and its outcome check.

A workload turns (workload seed, trial index) into the inputs of one
trial, runs the trial through the public ``pufcommit`` API, and checks the
outcome against the paper's claim.  Input generation and the check sit
outside the timed region; the trial itself is everything a user of the
lab would run.

An extraction miss is counted, not failed, only when it is one of the
protocol's two known analytic errors at desk-scale widths:

* a zero-stride miss: the receiver's mask has an all-zero stride r|I_j,
  so no query can tell the two candidate bits apart (k*2^-n per string);
* an unqueried opening: a sender that never queried the probe still opens,
  because its all-zero st_E happened to equal the probe's hashed answer
  (2^-n per opening, n the probe extractor's output length).

Every other miss is a failed trial.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random
from typing import Optional

import pufcommit.extract as extract
from pufcommit.adversaries import AmbiguousQuerySender, zoo
from pufcommit.bits import BitString
from pufcommit.protocols import (
    ExtPufParams,
    OriginalExtPufParams,
    run_collective,
    run_extpuf,
    run_original_extpuf,
    run_uccompiler,
)

__all__ = ["WORKLOADS", "Outcome", "classify", "has_zero_stride", "logs_digest"]

ROUTER_KINDS = frozenset({"init", "eval", "inmsg", "handover", "ready", "received"})


@dataclass(frozen=True)
class Outcome:
    """Checked result of one trial.

    ``signature`` summarises every protocol result of the trial so that two
    runs of the same inputs can be compared; the counts are read from the
    trial's event logs.
    """

    failed: bool
    zero_stride_misses: int
    unqueried_opens: int
    signature: tuple
    log_records: int
    routed: int
    dropped: int


def has_zero_stride(mask: BitString, k: int) -> bool:
    """True when some stride r|I_j of a k-bit commitment's mask is all zero."""
    return any(mask.take_stride(j, k).value == 0 for j in range(k))


def classify(opened: Optional[BitString], extracted: Optional[BitString],
             expected: Optional[BitString], mask: BitString, k: int,
             queried: bool = True) -> str:
    """Outcome of extraction for one committed string.

    A miss is an accepted opening that differs from the extracted value, or
    an honest sender (``expected`` given) whose value was not extracted.
    ``queried`` tells whether the sender queried the probe at all before
    the commit phase closed.  Returns ``"ok"``, ``"zero-stride"``,
    ``"unqueried-open"`` or ``"fail"``.
    """
    miss = ((opened is not None and opened != extracted)
            or (expected is not None and extracted != expected))
    if not miss:
        return "ok"
    if has_zero_stride(mask, k):
        return "zero-stride"
    if opened is not None and expected is None and not queried:
        return "unqueried-open"
    return "fail"


def logs_digest(logs) -> str:
    """sha256 of the serialized event logs of one trial, in run order."""
    h = hashlib.sha256()
    for log in logs:
        h.update(log.serialize().encode())
    return h.hexdigest()


def _bits(value: Optional[BitString]) -> Optional[str]:
    return None if value is None else value.to01()


def _outcome(failed: bool, signature: tuple, logs, zero_stride: int = 0,
             unqueried: int = 0) -> Outcome:
    records = routed = dropped = 0
    for log in logs:
        for rec in log.records:
            records += 1
            if rec.kind in ROUTER_KINDS:
                routed += 1
                if rec.note.startswith("waiting-state"):
                    dropped += 1
    return Outcome(failed, zero_stride, unqueried, signature, records, routed, dropped)


class Workload:
    """One benchmark workload; subclasses fill in the three steps."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def _rng(self, i: int, label: str = "") -> Random:
        return Random(f"{self.name}/{self.seed}/{i}/{label}")

    def inputs(self, i: int):
        raise NotImplementedError

    def trial(self, inputs):
        raise NotImplementedError

    def check(self, inputs, result) -> Outcome:
        raise NotImplementedError

    def logs(self, result) -> list:
        raise NotImplementedError


class AttackOriginal(Workload):
    """The paper's break of the original extractable flow: the sender
    commits to 0, queries the probe on both candidate strings, and the
    extractor is left without a unique candidate while the opening to 0
    is accepted."""

    name = "attack-original"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.params = OriginalExtPufParams.standard(16, 1)

    def inputs(self, i):
        return self._rng(i).getrandbits(64)

    def trial(self, run_seed):
        out = run_original_extpuf(self.params, BitString.zeros(1), run_seed,
                                  sender_factory=AmbiguousQuerySender)
        return out, extract.run_extractor_original(out.extraction_inputs())

    def check(self, run_seed, result):
        out, extracted = result
        opened_zero = bool(out.accepted) and out.value == BitString.zeros(1)
        ok = extracted is None and opened_zero
        signature = (out.abort_step, out.accepted, _bits(out.value), _bits(extracted))
        return _outcome(not ok, signature, self.logs(result))

    def logs(self, result):
        return [result[0].session.log]


class UcCompilerN64(Workload):
    """An honest compiled bit commitment at n = 64 over collective channels.

    Besides completeness (accepted, value b) the check runs the blob
    channel's straight-line extractor, the simulator's view of the sender:
    every extracted blob must carry b."""

    name = "uccompiler-n64"
    n = 64

    def inputs(self, i):
        rng = self._rng(i)
        return rng.getrandbits(64), rng.getrandbits(1)

    def trial(self, inputs):
        run_seed, b = inputs
        out = run_uccompiler(self.n, b, run_seed, mode="collective")
        blobs = None
        if out.committed:
            blobs = extract.run_extractor_collective(
                out.blob_channel.extraction_inputs())
        return out, blobs

    def check(self, inputs, result):
        _, b = inputs
        out, shares = result
        failed = not (bool(out.accepted) and out.value == b) or shares is None
        misses = 0
        if shares is not None:
            masks = out.blob_channel.outcome.receiver_view["masks"]
            for j in range(2 * self.n):
                pair = shares[2 * j:2 * j + 2]
                if None not in pair and pair[0].value ^ pair[1].value == b:
                    continue
                if any(s is None and has_zero_stride(masks[2 * j + e], 1)
                       for e, s in enumerate(pair)):
                    misses += 1
                else:
                    failed = True
        signature = (out.abort_step, out.accepted, out.value,
                     None if shares is None else tuple(_bits(s) for s in shares))
        return _outcome(failed, signature, self.logs(result), zero_stride=misses)

    def logs(self, result):
        return [result[0].session.log]


class ExtractionZoo(Workload):
    """Every sender of the zoo written for the revised flow, single-string
    against ``run_extpuf`` and collective (N = 4) against
    ``run_collective``, each followed by the matching extractor."""

    name = "extraction-zoo"
    n, k, n_strings = 16, 4, 4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.params = ExtPufParams.standard(self.n, self.k)
        self.strategies = [s for s in zoo() if s.role == "sender"
                           and s.protocol in ("extpuf", "collextpuf")]

    def inputs(self, i):
        runs = []
        for s in self.strategies:
            rng = self._rng(i, s.strategy_id)
            count = 1 if s.protocol == "extpuf" else self.n_strings
            runs.append((rng.getrandbits(64),
                         [BitString.random(self.k, rng) for _ in range(count)]))
        return runs

    def trial(self, runs):
        results = []
        for s, (run_seed, values) in zip(self.strategies, runs):
            extracted = None
            if s.protocol == "extpuf":
                out = run_extpuf(self.params, values[0], run_seed,
                                 sender_factory=s.factory)
                if out.commit_end >= 0:
                    extracted = [extract.run_extractor_modified(out.extraction_inputs())]
            else:
                out = run_collective(self.params, values, run_seed,
                                     sender_factory=s.factory)
                if out.committed:
                    extracted = extract.run_extractor_collective(out.extraction_inputs())
            results.append((out, extracted))
        return results

    def check(self, runs, results):
        verdicts, signature = [], []
        for s, (_, values), (out, extracted) in zip(self.strategies, runs, results):
            if s.protocol == "extpuf":
                opened = [out.value if out.accepted else None]
                masks = [out.receiver_view.get("r")]
            else:
                opened = [out.opened.get(j) for j in range(len(values))]
                masks = out.receiver_view.get("masks")
            signature.append((s.strategy_id, out.abort_step, tuple(map(_bits, opened)),
                              None if extracted is None else tuple(map(_bits, extracted))))
            if extracted is None:  # aborted before commit: nothing to extract
                continue
            honest = s.strategy_id.startswith("honest")
            queried = bool(extract.probe_queries(out.session.log, out.probe_sid,
                                                 out.sender_name, out.commit_end))
            for j, value in enumerate(values):
                verdicts.append(classify(opened[j], extracted[j],
                                         value if honest else None, masks[j], self.k,
                                         queried))
        return _outcome("fail" in verdicts, tuple(signature), self.logs(results),
                        zero_stride=verdicts.count("zero-stride"),
                        unqueried=verdicts.count("unqueried-open"))

    def logs(self, results):
        return [out.session.log for out, _ in results]


WORKLOADS = {w.name: w for w in (AttackOriginal, UcCompilerN64, ExtractionZoo)}
