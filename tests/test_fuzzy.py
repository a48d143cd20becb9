from collections import Counter
from contextlib import contextmanager
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pufcommit import fuzzy
from pufcommit.adversaries import SubstitutingReturnSender
from pufcommit.bits import BitString, hamming_distance
from pufcommit.ecc import RepetitionCode
from pufcommit.fuzzy import FuzzyExtractor, HelperData, check_matching
from pufcommit.prf import prf_bits
from pufcommit.protocols import (CpufParams, ExtPufParams, OriginalExtPufParams, run_collective,
                                 run_cpuf, run_extpuf, run_original_extpuf, run_uccompiler)
from pufcommit.protocols.common import generate, reproduce
from pufcommit.puf import PufParams
from pufcommit.session import PartyHandle, Session

CROSSOVER = fuzzy._BYTE_TABLE_MIN_OUT
SEGMENT_BITS = 8 * fuzzy._SEGMENT_BYTES


def make_fe(t=2, out_len=8, blocks=24, seed_bits=64):
    return FuzzyExtractor(source_len=(2 * t + 1) * blocks, out_len=out_len,
                          t=t, m_req=(2 * t + 1) * blocks, seed_bits=seed_bits)


def test_roundtrip_without_noise():
    fe = make_fe()
    rng = Random(0)
    w = BitString.random(fe.source_len, rng)
    st, p = fe.gen(w, rng)
    assert fe.rep(w, p) == st
    assert len(st) == fe.out_len


def test_roundtrip_at_full_radius():
    fe = make_fe(t=2)
    rng = Random(1)
    for _ in range(100):
        w = BitString.random(fe.source_len, rng)
        st, p = fe.gen(w, rng)
        flips = rng.sample(range(fe.source_len), fe.t)
        assert fe.rep(w.flip(flips), p) == st


def test_concentrated_flips_break_one_block():
    # t + ceil(t/2) flips inside a single inner block exceed its majority
    fe = make_fe(t=2)  # inner blocks are 5 wide
    rng = Random(2)
    w = BitString.random(fe.source_len, rng)
    st, p = fe.gen(w, rng)
    got = fe.rep(w.flip([0, 1, 2]), p)
    assert got != st


def test_independent_gens_differ_but_both_reproduce():
    fe = make_fe()
    rng = Random(3)
    w = BitString.random(fe.source_len, rng)
    helpers = set()
    for _ in range(200):
        st, p = fe.gen(w, rng)
        helpers.add((p.sketch, p.hash_seed))
        assert fe.rep(w, p) == st
    assert len(helpers) == 200


def test_construction_guards():
    with pytest.raises(ValueError, match="compress"):
        # out_len beyond the sketch-free bits: nothing would be hidden
        FuzzyExtractor(source_len=15, out_len=6, t=1, m_req=15)
    with pytest.raises(ValueError, match="multiple"):
        FuzzyExtractor(source_len=16, out_len=2, t=1, m_req=16)
    with pytest.raises(ValueError):
        FuzzyExtractor(source_len=15, out_len=0, t=1, m_req=15)


def test_input_length_checks():
    fe = make_fe()
    rng = Random(4)
    with pytest.raises(ValueError, match="LEN_MISMATCH"):
        fe.gen(BitString.zeros(fe.source_len + 1), rng)
    w = BitString.random(fe.source_len, rng)
    _, p = fe.gen(w, rng)
    with pytest.raises(ValueError, match="LEN_MISMATCH"):
        fe.rep(BitString.zeros(fe.source_len - 1), p)
    for seed_bits in (fe.seed_bits - 1, fe.seed_bits + 1):
        with pytest.raises(ValueError, match="LEN_MISMATCH"):
            fe.rep(w, HelperData(p.sketch, BitString.zeros(seed_bits)))


def test_helper_data_wire_roundtrip():
    fe = make_fe()
    rng = Random(5)
    w = BitString.random(fe.source_len, rng)
    st, p = fe.gen(w, rng)
    cat = p.concat()
    assert len(cat) == fe.helper_len
    back = HelperData.from_concat(cat, fe.source_len)
    assert back == p
    assert fe.rep(w, back) == st


def test_check_matching():
    fe = FuzzyExtractor(source_len=90, out_len=4, t=4, m_req=90)
    assert check_matching(fe, PufParams(n=16, rg=90, d_noise=4, d_min=2, m=90))
    # under-provisioned radius
    fe3 = FuzzyExtractor(source_len=70, out_len=4, t=3, m_req=70)
    assert not check_matching(fe3, PufParams(n=16, rg=70, d_noise=4, d_min=2, m=70))
    # different metric space
    assert not check_matching(fe, PufParams(n=16, rg=98, d_noise=4, d_min=2, m=90))
    # claimed entropy mismatch
    assert not check_matching(fe, PufParams(n=16, rg=90, d_noise=4, d_min=2, m=89))


def test_response_consistency_with_matched_token():
    from pufcommit.puf import sample_puf

    params = PufParams(n=16, rg=7 * 24, d_noise=3, d_min=2, m=7 * 24)
    fe = FuzzyExtractor(source_len=7 * 24, out_len=8, t=3, m_req=7 * 24)
    assert check_matching(fe, params)
    rng = Random(6)
    for _ in range(500):
        inst = sample_puf(params, rng)
        s = BitString.random(16, rng)
        sigma = inst.respond(s, rng)
        sigma2 = inst.respond(s, rng)
        assert hamming_distance(sigma, sigma2) < params.d_noise
        st, p = fe.gen(sigma, rng)
        assert fe.rep(sigma2, p) == st


def reference_rows(toeplitz, wv, n_out):
    """The Toeplitz product one output row at a time, as first written."""
    value = 0
    for i in range(n_out):
        value |= (((toeplitz >> i) & wv).bit_count() & 1) << i
    return value


def reference_hash(fe, seed, w):
    n_in, n_out = fe.source_len, fe.out_len
    stream = prf_bits(seed.to_bytes(), b"uhash", n_in + 2 * n_out - 1)
    toeplitz = stream & ((1 << (n_in + n_out - 1)) - 1)
    offset = stream >> (n_in + n_out - 1)
    return BitString(reference_rows(toeplitz, w.value, n_out) ^ offset, n_out)


@st.composite
def hash_cases(draw):
    # t = 0 makes the inner block 1 bit wide, so any source_len is legal
    source_len = draw(st.one_of(
        st.integers(1, 300),
        st.integers(CROSSOVER, 3 * SEGMENT_BITS + 40),
        st.sampled_from([SEGMENT_BITS - 1, SEGMENT_BITS, SEGMENT_BITS + 1,
                         2 * SEGMENT_BITS + 3]),
    ))
    out_len = draw(st.one_of(
        st.integers(1, min(source_len, 2 * CROSSOVER)),
        st.sampled_from([min(source_len, CROSSOVER - 1), min(source_len, CROSSOVER)]),
    ))
    kind = draw(st.sampled_from(["random", "zeros", "ones"]))
    value = {"random": draw(st.integers(0, (1 << source_len) - 1)),
             "zeros": 0, "ones": (1 << source_len) - 1}[kind]
    seed = BitString(draw(st.integers(0, (1 << 64) - 1)), 64)
    return FuzzyExtractor(source_len, out_len, 0, seed_bits=64), seed, BitString(value, source_len)


@settings(max_examples=150, deadline=None)
@given(hash_cases())
def test_hash_matches_row_loop(case):
    fe, seed, w = case
    assert fe._hash(seed, w) == reference_hash(fe, seed, w)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_byte_tables_match_row_loop_at_every_width(data):
    # the byte-table order is also exact below the crossover, where _hash
    # does not pick it; n_in not a multiple of 8 leaves a partial last byte
    n_in = data.draw(st.integers(1, 2 * SEGMENT_BITS + 20), label="n_in")
    n_out = data.draw(st.integers(1, 300), label="n_out")
    toeplitz = data.draw(st.integers(0, (1 << (n_in + n_out - 1)) - 1), label="toeplitz")
    wv = data.draw(st.sampled_from([0, (1 << n_in) - 1])
                   | st.integers(0, (1 << n_in) - 1), label="w")
    assert (fuzzy._toeplitz_by_bytes(toeplitz, wv, n_in, n_out)
            == reference_rows(toeplitz, wv, n_out))


def test_byte_tables_pick_one_window_per_unit_vector_and_are_linear():
    # the last of three segments is 20 bits short, so its missing columns
    # must still carry what the two full segments put there
    n_in, n_out = 2 * SEGMENT_BITS + 20, 200
    rng = Random(3)
    toeplitz = rng.getrandbits(n_in + n_out - 1)
    out_mask = (1 << n_out) - 1
    for j in (0, 7, 8, SEGMENT_BITS - 1, SEGMENT_BITS, SEGMENT_BITS + 8, n_in - 1):
        assert (fuzzy._toeplitz_by_bytes(toeplitz, 1 << j, n_in, n_out)
                == (toeplitz >> j) & out_mask), j
    a, b = rng.getrandbits(n_in), rng.getrandbits(n_in)
    assert (fuzzy._toeplitz_by_bytes(toeplitz, a ^ b, n_in, n_out)
            == fuzzy._toeplitz_by_bytes(toeplitz, a, n_in, n_out)
            ^ fuzzy._toeplitz_by_bytes(toeplitz, b, n_in, n_out))


def test_widest_hash_in_use_matches_row_loop():
    # the original flow's second token: 25 392 -> 8 448 bits, 13 segments
    fe = FuzzyExtractor(source_len=25392, out_len=8448, t=1, m_req=25392)
    rng = Random(11)
    seed = BitString.random(fe.seed_bits, rng)
    for w in (BitString.random(fe.source_len, rng), BitString.ones(fe.source_len)):
        assert fe._hash(seed, w) == reference_hash(fe, seed, w)


# -- Rep against decode-and-hash, on both sides of the session's record ----

def reference_rep(fe, w_prime, p):
    """Rep as first written: majority-vote each inner block of w' XOR
    sketch, re-apply the sketch to the voted codeword, hash the result."""
    r = 2 * fe.t + 1
    block = (1 << r) - 1
    word = (w_prime ^ p.sketch).value
    recovered = p.sketch.value
    for j in range(fe.source_len // r):
        if (word >> (j * r) & block).bit_count() > fe.t:
            recovered ^= block << (j * r)
    return reference_hash(fe, p.hash_seed, BitString(recovered, fe.source_len))


class FixedReading(PartyHandle):
    """A party in a fresh session whose token answers every challenge with
    `reading`, so generate and reproduce see the readings a test picks."""

    def __init__(self, rng: Random):
        super().__init__(Session(0), "P", rng)
        self.reading = None

    def eval(self, sid, challenge):
        return self.reading


def recorded(fe, w, rng):
    """A FixedReading party, and (st, p) from a Gen on w it recorded."""
    api = FixedReading(rng)
    return api, generate(api, fe, w)


def reproduced(api, fe, p, reading):
    """reproduce on a token that now reads `reading`."""
    api.reading = reading
    return reproduce(api, "token", BitString.zeros(1), fe, p)


@contextmanager
def counting_decodes():
    with patch.object(RepetitionCode, "dec", autospec=True,
                      side_effect=RepetitionCode.dec) as dec:
        yield dec


@st.composite
def readings(draw):
    """An extractor on either side of the byte-table crossover, a reading w,
    a gen seed, and a Random that places the noise."""
    t = draw(st.integers(0, 3))
    wide = draw(st.booleans())
    blocks = draw(st.integers(CROSSOVER, CROSSOVER + 64) if wide else st.integers(1, 64))
    out_len = draw(st.integers(CROSSOVER, blocks) if wide else st.integers(1, blocks))
    fe = FuzzyExtractor((2 * t + 1) * blocks, out_len, t)
    w = BitString(draw(st.integers(0, (1 << fe.source_len) - 1)), fe.source_len)
    return fe, w, draw(st.integers(0, 2**32)), Random(draw(st.integers(0, 2**32)))


def block_noise(fe, noise, load):
    """Flip positions with at most load(block) flips in each inner block."""
    r = 2 * fe.t + 1
    return [j * r + i for j in range(fe.source_len // r)
            for i in noise.sample(range(r), load(j))]


@settings(max_examples=60, deadline=None)
@given(readings(), st.sampled_from(["none", "some", "full"]))
def test_rep_within_t_per_block_returns_the_gen_hash(case, level):
    fe, w, gen_seed, noise = case
    load = {"none": lambda j: 0, "some": lambda j: noise.randint(0, fe.t),
            "full": lambda j: fe.t}[level]
    st_gen, p = fe.gen(w, Random(gen_seed))
    got = fe.rep(w.flip(block_noise(fe, noise, load)), p)
    assert got == st_gen == reference_hash(fe, p.hash_seed, w)


@settings(max_examples=60, deadline=None)
@given(readings())
def test_rep_within_t_in_total_returns_the_recorded_hash_without_decoding(case):
    fe, w, gen_seed, noise = case
    api, (st_gen, p) = recorded(fe, w, Random(gen_seed))
    reading = w.flip(noise.sample(range(fe.source_len), noise.randint(0, fe.t)))
    with counting_decodes() as dec:
        got = reproduced(api, fe, p, reading)
    assert dec.call_count == 0
    assert got == st_gen == reference_rep(fe, reading, p)


@settings(max_examples=60, deadline=None)
@given(readings())
def test_reproduce_beyond_t_in_total_decodes(case):
    fe, w, gen_seed, noise = case
    api, (_, p) = recorded(fe, w, Random(gen_seed))
    reading = w.flip(noise.sample(range(fe.source_len),
                                  noise.randint(fe.t + 1, fe.source_len)))
    with counting_decodes() as dec:
        got = reproduced(api, fe, p, reading)
    assert dec.call_count == 1
    assert got == reference_rep(fe, reading, p)


@settings(max_examples=60, deadline=None)
@given(readings())
def test_rep_beyond_t_in_total_but_within_t_per_block_decodes_to_the_gen_hash(case):
    # two blocks at t flips each put the reading 2t > t away from w
    fe, w, gen_seed, noise = case
    assume(fe.t >= 1 and fe.source_len // (2 * fe.t + 1) >= 2)
    st_gen, p = fe.gen(w, Random(gen_seed))
    reading = w.flip(block_noise(fe, noise,
                                 lambda j: fe.t if j < 2 else noise.randint(0, fe.t)))
    with counting_decodes() as dec:
        got = fe.rep(reading, p)
    assert dec.call_count == 1
    assert got == st_gen == reference_rep(fe, reading, p)


@settings(max_examples=60, deadline=None)
@given(readings())
def test_rep_beyond_t_in_one_block_hashes_the_word_it_recovered(case):
    # t + 1 flips in block j move its majority, so Rep recovers w with the
    # whole block flipped
    fe, w, gen_seed, noise = case
    r = 2 * fe.t + 1
    j = noise.randrange(fe.source_len // r)
    _, p = fe.gen(w, Random(gen_seed))
    reading = w.flip(block_noise(fe, noise,
                                 lambda i: fe.t + 1 if i == j else noise.randint(0, fe.t)))
    recovered = w.flip(range(j * r, (j + 1) * r))
    with counting_decodes() as dec:
        got = fe.rep(reading, p)
    assert dec.call_count == 1
    assert got == reference_rep(fe, reading, p) == reference_hash(fe, p.hash_seed, recovered)


# -- The session's reading record: honest runs decode nothing ---------------

EP = ExtPufParams.standard(16, 4)
X = BitString.from01("1011")


@pytest.fixture
def hash_count(monkeypatch):
    """Counts gen and rep calls, the decodes and the Toeplitz products
    actually computed."""
    counts = Counter()

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    for name in ("_toeplitz_by_rows", "_toeplitz_by_bytes"):
        monkeypatch.setattr(fuzzy, name, counting("hash", getattr(fuzzy, name)))
    for name in ("gen", "rep"):
        monkeypatch.setattr(FuzzyExtractor, name,
                            counting(name, getattr(FuzzyExtractor, name)))
    monkeypatch.setattr(RepetitionCode, "dec", counting("dec", RepetitionCode.dec))
    return counts


HONEST_RUNS = {
    "run_cpuf": lambda: run_cpuf(CpufParams.standard(16, 4), X, 5),
    "run_extpuf": lambda: run_extpuf(EP, X, 5),
    "run_collective": lambda: run_collective(EP, [X, ~X, X], 5),
    "run_original_extpuf": lambda: run_original_extpuf(OriginalExtPufParams.standard(8, 1),
                                                       BitString.from01("1"), 5),
    "run_uccompiler": lambda: run_uccompiler(4, 1, 5),
}


def test_honest_opening_reuses_the_gen_hash(hash_count):
    # every Gen of an honest run is recorded, so every Rep is answered from
    # the record: one Toeplitz product per Gen and none per Rep
    for runner, run in HONEST_RUNS.items():
        hash_count.clear()
        assert run().accepted, runner
        assert hash_count["gen"] > 0, runner
        assert hash_count["hash"] == hash_count["gen"], runner
        assert hash_count["rep"] == hash_count["dec"] == 0, runner


def test_a_new_session_recomputes_every_hash(hash_count):
    run_extpuf(EP, X, seed=5)
    first = hash_count["hash"]
    hash_count.clear()
    run_extpuf(EP, X, seed=5)
    assert hash_count["hash"] == first == hash_count["gen"]


def test_rep_of_a_substituted_probe_computes_its_hash(hash_count):
    out = run_extpuf(EP, X, seed=5, sender_factory=SubstitutingReturnSender)
    assert out.abort_step == "TQ_FAIL"
    assert hash_count["rep"] > 0
    assert hash_count["hash"] == hash_count["gen"] + hash_count["rep"]
    assert hash_count["dec"] == hash_count["rep"]


def test_memo_tells_widths_apart():
    rng = Random(13)
    w = BitString.random(600, rng)
    api, (st_gen, p) = recorded(FuzzyExtractor(600, 8, 0, seed_bits=64), w, rng)
    for out_len in (CROSSOVER, 9):
        fe = FuzzyExtractor(600, out_len, 0, seed_bits=64)
        assert reproduced(api, fe, p, w) == reference_rep(fe, w, p)
    assert reproduced(api, FuzzyExtractor(600, 8, 0, seed_bits=64), p, w) == st_gen


def test_memo_tells_t_and_seed_bits_apart():
    # Each pair differs in t or seed_bits only.  The reading is within the
    # Rep side's t of the Gen reading, so a record entry shared across the
    # pair would answer with st_gen; the reference shows that would be wrong.
    rng = Random(15)
    # 105 bits hold inner blocks of 1, 3, 5 and 7 bits
    for t_gen, t_rep in ((0, 3), (1, 2), (3, 1)):
        gen_fe = FuzzyExtractor(105, 8, t_gen, seed_bits=64)
        rep_fe = FuzzyExtractor(105, 8, t_rep, seed_bits=64)
        w = BitString.random(gen_fe.source_len, rng)
        api, (st_gen, p) = recorded(gen_fe, w, rng)
        assert reference_rep(rep_fe, w, p) != st_gen
        assert reproduced(api, rep_fe, p, w) == reference_rep(rep_fe, w, p)
    gen_fe = FuzzyExtractor(105, 8, 1, seed_bits=64)
    rep_fe = FuzzyExtractor(105, 8, 1, seed_bits=128)
    w = BitString.random(gen_fe.source_len, rng)
    api, (st_gen, p) = recorded(gen_fe, w, rng)
    wider = HelperData(p.sketch, BitString(p.hash_seed.value, 128))
    assert reference_rep(rep_fe, w, wider) != st_gen
    assert reproduced(api, rep_fe, wider, w) == reference_rep(rep_fe, w, wider)
