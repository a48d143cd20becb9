"""Straight-line extractors with interface access.

The extractor plays the honest receiver; interface access means it can
additionally read every query any party routed to honest tokens, which
here is a read-only scan of the session event log.  For each sender
query q to the probe token during the commit phase it decodes the
codeword to st and tests, stride by stride, whether the commitment string
c matches the unmasked or the masked secret.  The test works on whole
words.  For strings of kn bits let d = c xor st and let
S_j = stride_pattern(k, n) << j be the mask of the stride
I_j = {j, j+k, ..., j+(n-1)k}; then

    plain:  d & S_j == 0          (c|I_j == st|I_j)
    masked: (d xor r) & S_j == 0  (c|I_j == (st xor r)|I_j)

    plain and not masked  -> bit 0
    masked and not plain  -> bit 1
    both or neither       -> no candidate

A stride where r|I_j is all zero is always "both".

Candidates are deduplicated by value; a retried query that decodes to
the same string must not spoil extraction.  Exactly one distinct
candidate is the committed string; zero or several mean the sender is
bound to nothing it can open.

Every extractor takes the same inputs: the commitment strings ``cs`` and
masks ``masks`` of all committed strings, one for the single-string
flows, plus the log tap.
"""

from __future__ import annotations

from typing import Optional

from .bits import BitString, stride_pattern
from .functionality import EventLog

__all__ = [
    "extract_from_query",
    "probe_queries",
    "run_extractor_modified",
    "run_extractor_original",
    "run_extractor_collective",
]


def extract_from_query(st: BitString, c: BitString, r: BitString,
                       k: int) -> Optional[BitString]:
    """Candidate string from one decoded query, or None."""
    if not (st.n == c.n == r.n):
        raise ValueError(
            f"LEN_MISMATCH: st={st.n}, c={c.n}, r={r.n} must agree")
    if k < 1 or st.n % k:
        raise ValueError(f"LEN_MISMATCH: length {st.n} is not a multiple of k={k}")
    d = c.value ^ st.value
    e = d ^ r.value
    stride = stride_pattern(k, st.n // k)
    x = 0
    for j in range(k):
        plain = not d & stride
        if plain == (not e & stride):
            return None
        if not plain:
            x |= 1 << j
        stride <<= 1
    return BitString(x, k)


def probe_queries(log: EventLog, probe_sid: str, sender: str,
                  before_step: int) -> list[BitString]:
    """All challenges the sender routed to the probe token before the
    commit phase closed; the read-only tap of interface access."""
    out = []
    for rec in log.records:
        if rec.step >= before_step:
            break
        if (rec.kind == "eval" and rec.sid == probe_sid and rec.sender == sender
                and not rec.dropped):
            out.append(rec.payload)
    return out


def run_extractor_modified(inputs: dict) -> Optional[BitString]:
    """Extraction for the revised single-string protocol: the collective
    extractor on one string."""
    return _extract(inputs)[0]


def run_extractor_original(inputs: dict) -> Optional[BitString]:
    """Extraction for the original flow; bit commitments only."""
    if inputs["k"] != 1:
        raise ValueError("the original extraction procedure is defined for k = 1")
    return _extract(inputs)[0]


def run_extractor_collective(inputs: dict) -> list[Optional[BitString]]:
    """Componentwise extraction: every query is tried against every index."""
    return _extract(inputs)


def _extract(inputs: dict) -> list[Optional[BitString]]:
    """The candidate search behind all three entry points; they share it
    rather than call each other, so one extraction is one entry-point call."""
    queries = probe_queries(inputs["log"], inputs["probe_sid"], inputs["sender"],
                            inputs["commit_end"])
    k = inputs["k"]
    code = inputs["code"]
    decoded = [code.dec(q) for q in queries]
    if k == 1:
        return _collective_bits(decoded, inputs["cs"], inputs["masks"])
    results: list[Optional[BitString]] = []
    for c_i, r_i in zip(inputs["cs"], inputs["masks"]):
        found = set()
        for st in decoded:
            candidate = extract_from_query(st, c_i, r_i, k)
            if candidate is not None:
                found.add(candidate)
        results.append(found.pop() if len(found) == 1 else None)
    return results


def _collective_bits(decoded, cs, masks) -> list[Optional[BitString]]:
    """k = 1 shortcut: a query extracts bit 0 at index i when it decodes to
    c_i, bit 1 when it decodes to c_i xor r_i; index the candidates once
    instead of scanning every (index, query) pair.  A zero mask puts both
    entries on the same key, which correctly yields both candidates."""
    hits: dict[int, list] = {}
    for i, (c_i, r_i) in enumerate(zip(cs, masks)):
        hits.setdefault(c_i.value, []).append((i, 0))
        hits.setdefault((c_i ^ r_i).value, []).append((i, 1))
    found: list[set] = [set() for _ in cs]
    for st in decoded:
        for i, bit in hits.get(st.value, ()):
            found[i].add(bit)
    return [BitString(candidates.pop(), 1) if len(candidates) == 1 else None
            for candidates in found]
