import hashlib
from collections import Counter
from contextlib import contextmanager
from functools import partial
from itertools import combinations, product
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

from test_benchmark_digests import WORKLOADS, logs_digest
from test_protocols import SEEDED_RUNS

CROSSOVER = fuzzy._MULTIPLY_SHIFT_MIN_OUT


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


def reference_toeplitz(fe, seed, w):
    n_in, n_out = fe.source_len, fe.out_len
    stream = prf_bits(seed.to_bytes(), b"uhash", n_in + 2 * n_out - 1)
    toeplitz = stream & ((1 << (n_in + n_out - 1)) - 1)
    offset = stream >> (n_in + n_out - 1)
    return BitString(reference_rows(toeplitz, w.value, n_out) ^ offset, n_out)


def multiply_add_shift(a, b, x, w_bar, out_bits):
    """Dietzfelbinger's ((a x + b) mod 2^w_bar) div 2^(w_bar - out_bits)."""
    return (a * x + b) % 2**w_bar // 2**(w_bar - out_bits)


def reference_multiply_add_shift(fe, seed, w):
    w_bar = fe.source_len + fe.out_len - 1
    stream = prf_bits(seed.to_bytes(), b"uhash", 2 * w_bar)
    a, b = stream % 2**w_bar, stream // 2**w_bar
    return BitString(multiply_add_shift(a, b, w.value, w_bar, fe.out_len), fe.out_len)


def reference_hash(fe, seed, w):
    """The hash of either family, picked by out_len as _hash picks it."""
    if fe.out_len < CROSSOVER:
        return reference_toeplitz(fe, seed, w)
    return reference_multiply_add_shift(fe, seed, w)


@st.composite
def hash_cases(draw):
    # t = 0 makes the inner block 1 bit wide, so any source_len is legal
    source_len = draw(st.one_of(st.integers(1, 300), st.integers(CROSSOVER, 2000)))
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


def test_widest_hash_in_use_matches_multiply_add_shift():
    # the original flow's second token: 25 392 -> 8 448 bits
    fe = FuzzyExtractor(source_len=25392, out_len=8448, t=1, m_req=25392)
    rng = Random(11)
    seed = BitString.random(fe.seed_bits, rng)
    for w in (BitString.random(fe.source_len, rng), BitString.ones(fe.source_len)):
        assert fe._hash(seed, w) == reference_multiply_add_shift(fe, seed, w)


def test_hash_switches_family_at_192_output_bits():
    rng = Random(12)
    seed = BitString.random(64, rng)
    w = BitString.random(600, rng)
    below, at = (FuzzyExtractor(600, out_len, 0, seed_bits=64) for out_len in (191, 192))
    assert below._hash(seed, w) == reference_toeplitz(below, seed, w)
    assert at._hash(seed, w) == reference_multiply_add_shift(at, seed, w)
    assert at._hash(seed, w) != reference_toeplitz(at, seed, w)


# sha256 of the hash's bytes at a seed and a reading drawn from
# Random("kat/<n_in>/<n_out>"): 191 bits is the Toeplitz product, which
# these pins carry over unchanged from the row loop, and 192 bits up is
# multiply-add-shift
KNOWN_HASHES = {
    (600, 191, 0): "025aa9eae157b16d9c9bb44938cb731fbc860df60a8d42341672ea30917b22b8",
    (600, 192, 0): "5aaf038c6b043486818f95f3d266490b4d0d85879ab3c829d4e06b80efead793",
    (25392, 8448, 1): "5e33e26b7e41f28daa2e34d95edd1fa4edce46afd5a7b635459df91a7e16589f",
}


@pytest.mark.parametrize("n_in,n_out,t", sorted(KNOWN_HASHES))
def test_hash_known_answers(n_in, n_out, t):
    fe = FuzzyExtractor(n_in, n_out, t, seed_bits=64)
    rng = Random(f"kat/{n_in}/{n_out}")
    seed, w = BitString.random(64, rng), BitString.random(n_in, rng)
    digest = hashlib.sha256(fe._hash(seed, w).to_bytes()).hexdigest()
    assert digest == KNOWN_HASHES[n_in, n_out, t]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_split_multiply_matches_the_one_multiply(data):
    # _multiply_add_shift multiplies only the product bits below w_bar
    n_in = data.draw(st.integers(CROSSOVER, 2000), label="n_in")
    n_out = data.draw(st.integers(CROSSOVER, n_in), label="n_out")
    w_bar = n_in + n_out - 1
    a = data.draw(st.sampled_from([0, 2**w_bar - 1]) | st.integers(0, 2**w_bar - 1), label="a")
    b = data.draw(st.integers(0, 2**w_bar - 1), label="b")
    x = data.draw(st.sampled_from([0, 2**n_in - 1]) | st.integers(0, 2**n_in - 1), label="x")
    assert (fuzzy._multiply_add_shift(a | b << w_bar, x, n_in, n_out)
            == multiply_add_shift(a, b, x, w_bar, n_out))


def pairs_uniform(h, keys, in_bits, out_bits):
    """True iff, over the keys, (h(key, x), h(key, y)) is uniform on
    [2^out_bits]^2 for every pair of inputs x != y in [2^in_bits]."""
    counts, n_keys = Counter(), 0
    pairs = list(combinations(range(2**in_bits), 2))
    for key in keys:
        n_keys += 1
        hs = [h(key, x) for x in range(2**in_bits)]
        counts.update((x, y, hs[x], hs[y]) for x, y in pairs)
    outputs = list(product(range(2**out_bits), repeat=2))
    return all(counts[x, y, u, v] * 4**out_bits == n_keys
               for x, y in pairs for u, v in outputs)


@pytest.mark.parametrize("in_bits,out_bits", [(2, 1), (3, 2), (4, 2), (4, 3)])
def test_multiply_add_shift_is_strongly_universal(in_bits, out_bits):
    # every key (a, b) in [2^w_bar)^2, through the function _hash calls
    w_bar = in_bits + out_bits - 1
    keys = list(product(range(2**w_bar), repeat=2))
    assert pairs_uniform(
        lambda key, x: fuzzy._multiply_add_shift(key[0] | key[1] << w_bar, x,
                                                 in_bits, out_bits),
        keys, in_bits, out_bits)
    # the check fails with w_bar one bit short, and with the offset b = 0
    short = list(product(range(2**(w_bar - 1)), repeat=2))
    assert not pairs_uniform(
        lambda key, x: multiply_add_shift(*key, x, w_bar - 1, out_bits),
        short, in_bits, out_bits)
    assert not pairs_uniform(
        lambda a, x: fuzzy._multiply_add_shift(a, x, in_bits, out_bits),
        range(2**w_bar), in_bits, out_bits)


def event_log_digest(case):
    return hashlib.sha256(SEEDED_RUNS[case]().session.log.serialize().encode()).hexdigest()


def workload_digest(name, seed, trial):
    workload = WORKLOADS[name](seed)
    return logs_digest(workload.logs(workload.trial(workload.inputs(trial))))


# The seeded runs that hash 192 output bits or more, with their digests
# from before those hashes became multiply-add-shift.  Under the Toeplitz
# hash they must come back, so the re-taken pins hide no other change.
TOEPLITZ_PINS = {
    "cpuf": (partial(event_log_digest, "cpuf"),
             "eea0e4408ac6e28d82842ece468aa06adc2ec4bdc59988ab15637096570a991c"),
    "original-ambiguous": (
        partial(event_log_digest, "original-ambiguous"),
        "d4e4707de9ff1c9e17b220eb94d8ba4428e0f5a52b526347b43f8f692d606173"),
    "original-probe-kept": (
        partial(event_log_digest, "original-probe-kept"),
        "09555d583033a0b1863d3497ec98c2991e332f01259d26b06f77ef38f66f6946"),
    "original-substituted-probe": (
        partial(event_log_digest, "original-substituted-probe"),
        "3c95145d09d006496c3a8fcba64402aba07c039c59b47e7968f568474c0a37e8"),
    "attack-original-23-0": (
        partial(workload_digest, "attack-original", 23, 0),
        "d46c7e1ae6925ae8959bf01299fd43efa31ec4144fef6b426460adf30bb299d4"),
    "attack-original-23-1": (
        partial(workload_digest, "attack-original", 23, 1),
        "8d6412ba23d3a480a95e89f20a20334e89d364295a84f1ff298753297306e863"),
    "attack-original-57-0": (
        partial(workload_digest, "attack-original", 57, 0),
        "5c8b18f33678b5f858e604f4ffe7a4682bad644e949148b5910c42ce0f3e4166"),
}


@pytest.mark.parametrize("case", sorted(TOEPLITZ_PINS))
def test_retaken_pins_come_back_under_the_toeplitz_hash(case, monkeypatch):
    digest, toeplitz_digest = TOEPLITZ_PINS[case]
    monkeypatch.setattr(FuzzyExtractor, "_hash", reference_toeplitz)
    assert digest() == toeplitz_digest


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
    """An extractor on either side of the hash-family switch, a reading w,
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
    """Counts gen and rep calls, the decodes and the hashes of either family
    actually computed."""
    counts = Counter()

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    for name in ("_toeplitz_by_rows", "_multiply_add_shift"):
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
    # the record: one hash per Gen and none per Rep
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
