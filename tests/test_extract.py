import hashlib
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufcommit.bits import BitString
from pufcommit.ecc import RepetitionCode
from pufcommit.adversaries import AmbiguousQuerySender, NeverQuerySender, zoo
from pufcommit.functionality import EventLog
from pufcommit.extract import (
    extract_from_query,
    probe_queries,
    run_extractor_collective,
    run_extractor_modified,
    run_extractor_original,
)
from pufcommit.protocols import (
    ExtPufParams,
    OriginalExtPufParams,
    run_collective,
    run_extpuf,
    run_original_extpuf,
)
from pufcommit.protocols.common import mask_commitment
from test_bits import spread, stride_indices

EP = ExtPufParams.standard(16, 4)
OP = OriginalExtPufParams.standard(8, 1)


def test_unmasked_query_extracts_zero_string():
    rng = Random(1)
    k, n = 3, 8
    st = BitString.random(k * n, rng)
    r = None
    while r is None or any(
        r.restrict(stride_indices(j, k, n)).weight == 0 for j in range(k)
    ):
        r = BitString.random(k * n, rng)
    assert extract_from_query(st, st, r, k) == BitString.zeros(k)
    assert extract_from_query(st, st ^ r, r, k) == BitString.ones(k)


def test_zero_mask_stride_yields_bot():
    k, n = 2, 4
    rng = Random(2)
    st = BitString.random(k * n, rng)
    # r zero on stride 0, dense elsewhere
    r = BitString.from_bits([0, 1] * n)
    assert all(r.restrict(stride_indices(0, k, n))[i] == 0 for i in range(n))
    assert extract_from_query(st, st, r, k) is None


def _reference_extract(st, c, r, k):
    """The stride test gathered stride by stride, as a reference."""
    bits = []
    for j in range(k):
        c_j, st_j = c.take_stride(j, k), st.take_stride(j, k)
        plain, masked = c_j == st_j, c_j == st_j ^ r.take_stride(j, k)
        if plain == masked:
            return None
        bits.append(int(masked))
    return BitString.from_bits(bits)


def test_bot_block_characterization_exhaustive():
    # the word-wise test returns exactly the per-stride reference; block j
    # yields no bit exactly when its mask stride is zero or the commitment
    # stride is neither the plain nor the masked secret
    for k, n in [(1, 4), (2, 2), (4, 1), (3, 1)]:
        size = k * n
        for st_v, c_v, r_v in product(range(1 << size), repeat=3):
            st, c, r = (BitString(st_v, size), BitString(c_v, size),
                        BitString(r_v, size))
            result = extract_from_query(st, c, r, k)
            assert result == _reference_extract(st, c, r, k)
            expect_bot = False
            for j in range(k):
                idx = stride_indices(j, k, n)
                c_j, st_j, r_j = c.restrict(idx), st.restrict(idx), r.restrict(idx)
                if r_j.weight == 0 or (c_j != st_j and c_j != st_j ^ r_j):
                    expect_bot = True
            assert (result is None) == expect_bot


@settings(max_examples=400, deadline=None)
@given(data=st.data(), k=st.integers(1, 8), n=st.integers(1, 24),
       kind=st.sampled_from(["plain", "masked", "random"]))
def test_word_wise_extraction_matches_the_per_stride_reference(data, k, n, kind):
    size = k * n

    def bits(length):
        return BitString(data.draw(st.integers(0, (1 << length) - 1)), length)

    secret = bits(size)
    # r keeps only the strides a random k-bit word selects, so zero
    # strides are common
    r = bits(size) & spread(bits(k), n)
    c = {"plain": lambda: secret,
         "masked": lambda: secret ^ (spread(bits(k), n) & r),
         "random": lambda: bits(size)}[kind]()
    assert extract_from_query(secret, c, r, k) == _reference_extract(secret, c, r, k)


def test_length_checks():
    with pytest.raises(ValueError, match="LEN_MISMATCH"):
        extract_from_query(BitString.zeros(4), BitString.zeros(4),
                           BitString.zeros(5), 2)
    with pytest.raises(ValueError, match="LEN_MISMATCH"):
        extract_from_query(BitString.zeros(5), BitString.zeros(5),
                           BitString.zeros(5), 2)


def test_honest_sender_extraction():
    rng = Random(3)
    for i in range(25):
        x = BitString.random(4, rng)
        out = run_extpuf(EP, x, seed=20000 + i)
        assert out.accepted
        assert run_extractor_modified(out.extraction_inputs()) == x


def test_never_query_sender_gives_bot_and_cannot_open():
    for i in range(25):
        out = run_extpuf(EP, BitString.from01("1011"), seed=21000 + i,
                         sender_factory=NeverQuerySender)
        assert run_extractor_modified(out.extraction_inputs()) is None
        assert out.accepted is False


def test_extraction_is_a_pure_tap():
    # running the extractor does not touch the transcript: same-seed runs
    # serialize identically whether or not extraction happens afterwards
    out1 = run_extpuf(EP, BitString.from01("0101"), seed=22000)
    before = out1.session.log.serialize()
    run_extractor_modified(out1.extraction_inputs())
    assert out1.session.log.serialize() == before
    out2 = run_extpuf(EP, BitString.from01("0101"), seed=22000)
    assert out2.session.log.serialize() == before


def test_collective_extraction_componentwise():
    rng = Random(4)
    values = [BitString.random(4, rng) for _ in range(4)]
    out = run_collective(EP, values, seed=23000)
    assert run_extractor_collective(out.extraction_inputs()) == values
    empty = run_collective(EP, [], seed=23001)
    assert run_extractor_collective(empty.extraction_inputs()) == []


def test_bit_shortcut_matches_per_query_extraction_exhaustive():
    # k = 1 goes through the indexed shortcut; it must agree with the
    # deduplicated per-query stride search for every 4-bit (st, c, r), zero
    # masks and a repeated query included
    code = RepetitionCode(4, 3)
    cs = [BitString(v, 4) for v in range(16)]
    for r_v, q1, q2 in product(range(16), repeat=3):
        r = BitString(r_v, 4)
        queries = [BitString(q1, 4), BitString(q2, 4), BitString(q1, 4)]
        log = EventLog()
        for st in queries:
            log.append("eval", sid="probe", sender="S", payload=code.enc(st))
        inputs = {"cs": cs, "masks": [r] * len(cs), "k": 1, "code": code,
                  "probe_sid": "probe", "sender": "S", "commit_end": len(log),
                  "log": log}
        expected = []
        for c in cs:
            found = {extract_from_query(st, c, r, 1) for st in queries} - {None}
            expected.append(found.pop() if len(found) == 1 else None)
        assert run_extractor_collective(inputs) == expected


def test_original_extractor_honest_and_dedup():
    out = run_original_extpuf(OP, BitString.from01("0"), seed=24000)
    assert run_extractor_original(out.extraction_inputs()) == BitString.from01("0")

    # a retried identical query must not spoil extraction: duplicate by hand
    from pufcommit.protocols import OriginalSender

    class RetryingSender(OriginalSender):
        def setup(self):
            result = super().setup()
            self.api.eval(self.probe_sid, self.params.code.enc(self.st1))
            return result

    out = run_original_extpuf(OP, BitString.from01("1"), seed=24001,
                              sender_factory=RetryingSender)
    inputs = out.extraction_inputs()
    queries = probe_queries(inputs["log"], inputs["probe_sid"], "S",
                            inputs["commit_end"])
    assert len(queries) == 2
    assert run_extractor_original(inputs) == BitString.from01("1")


def test_original_extractor_requires_bit_commitments():
    out = run_original_extpuf(OP, BitString.from01("0"), seed=24002)
    inputs = out.extraction_inputs()
    inputs["k"] = 2
    with pytest.raises(ValueError, match="k = 1"):
        run_extractor_original(inputs)


def test_ambiguous_query_attack_confuses_original_extractor():
    for i in range(10):
        out = run_original_extpuf(OP, BitString.zeros(1), seed=25000 + i,
                                  sender_factory=AmbiguousQuerySender)
        assert out.accepted and out.value == BitString.zeros(1)
        assert run_extractor_original(out.extraction_inputs()) is None


@st.composite
def masked_commitments(draw):
    """(st, x, r, c, width) with c = mask_commitment(st, x, r, width); a
    third of the draws also flip some bits of c."""
    k = draw(st.integers(1, 5))
    width = draw(st.integers(1, 8))
    n = k * width

    def bits(length):
        return BitString(draw(st.integers(0, (1 << length) - 1)), length)

    secret, x, r = bits(n), bits(k), bits(n)
    c = mask_commitment(secret, x, r, width)
    if draw(st.integers(0, 2)) == 0:
        c = c ^ bits(n)
    return secret, x, r, c, width


@settings(max_examples=200, deadline=None)
@given(case=masked_commitments())
def test_mask_commitment_is_st_xor_spread_x_and_r(case):
    secret, x, r, _, width = case
    assert mask_commitment(secret, x, r, width) == secret ^ (spread(x, width) & r)


def test_mask_commitment_refuses_mismatched_widths():
    x = BitString.from01("101")
    good = BitString.zeros(12)
    for st_, r, width in ((BitString.zeros(11), good, 4), (good, BitString.zeros(13), 4),
                          (good, good, 3), (BitString.zeros(9), BitString.zeros(9), 4)):
        with pytest.raises(ValueError, match="LEN_MISMATCH"):
            mask_commitment(st_, x, r, width)


@settings(max_examples=400, deadline=None)
@given(case=masked_commitments(), other_query=st.booleans(), data=st.data())
def test_every_extracted_candidate_opens_the_commitment(case, other_query, data):
    # soundness: whatever st' a query decodes to, a candidate x' it yields
    # reproduces c under the same mask
    secret, x, r, c, width = case
    query = (BitString(data.draw(st.integers(0, (1 << secret.n) - 1)), secret.n)
             if other_query else secret)
    candidate = extract_from_query(query, c, r, x.n)
    if candidate is not None:
        assert mask_commitment(query, candidate, r, width) == c


@settings(max_examples=400, deadline=None)
@given(case=masked_commitments())
def test_the_true_secret_extracts_x_when_no_stride_of_r_is_zero(case):
    secret, x, r, _, width = case
    k = x.n
    if all(r.take_stride(j, k).value for j in range(k)):
        c = mask_commitment(secret, x, r, width)
        assert extract_from_query(secret, c, r, k) == x


REVISED_SENDERS = [s for s in zoo() if s.role == "sender"
                   and s.protocol in ("extpuf", "collextpuf")]


def zoo_extractions() -> str:
    """What the extractor returns for every revised-flow zoo sender over
    20 seeds, against run_extpuf and against run_collective (N = 4): one
    line per committed run, each value as to01 and None as '-'."""
    def shown(found):
        return " ".join("-" if v is None else v.to01() for v in found)

    lines = []
    for s in REVISED_SENDERS:
        for seed in range(20):
            rng = Random(f"{s.strategy_id}/{seed}")
            values = [BitString.random(EP.k, rng) for _ in range(4)]
            single = run_extpuf(EP, values[0], seed, sender_factory=s.factory)
            if single.committed:
                found = [run_extractor_modified(single.extraction_inputs())]
                lines.append(f"{s.strategy_id} extpuf {seed} {shown(found)}")
            many = run_collective(EP, values, seed, sender_factory=s.factory)
            if many.committed:
                found = run_extractor_collective(many.extraction_inputs())
                lines.append(f"{s.strategy_id} collective {seed} {shown(found)}")
    return "\n".join(lines)


ZOO_EXTRACTIONS_SHA256 = (
    "3bab6b290892759d7f785276bc610d9aaf550c1cd468cf1c81183301aafb6cca")


def test_zoo_extractions_are_pinned():
    digest = hashlib.sha256(zoo_extractions().encode()).hexdigest()
    assert digest == ZOO_EXTRACTIONS_SHA256


def test_zoo_extraction_gathers_no_strides(monkeypatch):
    # the extractor tests whole words: no run or extraction gathers a stride
    def refuse(*_):
        raise AssertionError("a stride was gathered bit by bit")

    monkeypatch.setattr(BitString, "take_stride", refuse)
    monkeypatch.setattr(BitString, "restrict", refuse)
    assert zoo_extractions()
