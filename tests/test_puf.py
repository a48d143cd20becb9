from itertools import combinations
from random import Random

import pytest

from pufcommit.bits import BitString, hamming_distance
from pufcommit.harness.config import ExperimentConfig
from pufcommit.harness.experiments import run_experiment
from pufcommit.puf import (
    MachineProgram,
    MaliciousPufMachine,
    PufParams,
    chatty_program,
    query_logging_program,
    sample_puf,
    silent_program,
)


def params(n=16, rg=64, d_noise=5, **kw):
    return PufParams.standard(n, rg, d_noise=d_noise, **kw)


def test_same_seed_same_map():
    rng1, rng2 = Random(1), Random(1)
    a = sample_puf(params(), rng1)
    b = sample_puf(params(), rng2)
    probe = Random(9)
    for _ in range(50):
        s = BitString.random(16, probe)
        assert a.ideal(s) == b.ideal(s)


def test_distinct_seeds_give_distinct_maps():
    rng = Random(2)
    a = sample_puf(params(), rng)
    b = sample_puf(params(), rng)
    probe = Random(10)
    for _ in range(100):
        s = BitString.random(16, probe)
        assert hamming_distance(a.ideal(s), b.ideal(s)) >= 1


def test_noiseless_when_bound_is_tight():
    rng = Random(3)
    for d_noise in (0, 1):
        inst = sample_puf(params(d_noise=d_noise), rng)
        s = BitString.random(16, rng)
        first = inst.respond(s, rng)
        assert all(inst.respond(s, rng) == first for _ in range(20))
        assert first == inst.ideal(s)


def test_respond_draws_what_choice_and_sample_draw_on_a_twin_rng():
    # the reference draws the flip count with randint, one flip with
    # choice(range(rg)) and more with sample; flip budgets 0, 1 and 2, where
    # a budget of 0 draws nothing
    for d_noise in (1, 3, 5):
        inst = sample_puf(params(d_noise=d_noise), Random(d_noise))
        s = BitString.random(16, Random(7))
        budget, rg = (d_noise - 1) // 2, inst.params.rg
        rng, twin = Random(11), Random(11)
        counts = set()
        for _ in range(2000):
            flips = twin.randint(0, budget) if budget else 0
            if flips == 0:
                expected = inst.ideal(s)
            elif flips == 1:
                expected = inst.ideal(s).flip((twin.choice(range(rg)),))
            else:
                expected = inst.ideal(s).flip(twin.sample(range(rg), flips))
            assert inst.respond(s, rng) == expected
            counts.add(flips)
        assert counts == set(range(budget + 1))
        assert rng.getstate() == twin.getstate()


def test_bounded_noise_pairwise():
    rng = Random(4)
    inst = sample_puf(params(d_noise=5), rng)
    s = BitString.random(16, rng)
    responses = [inst.respond(s, rng) for _ in range(1000)]
    assert len(responses[0]) == 64
    # spot-exhaustive pairwise check on a slice, full check on a sample
    for a, b in combinations(responses[:60], 2):
        assert hamming_distance(a, b) < 5
    for _ in range(2000):
        a, b = rng.choice(responses), rng.choice(responses)
        assert hamming_distance(a, b) < 5


def test_statelessness_under_interleaving():
    rng = Random(5)
    inst = sample_puf(params(), rng)
    s = BitString.random(16, rng)
    ideal_before = inst.ideal(s)
    for _ in range(25):
        inst.respond(BitString.random(16, rng), rng)
    assert inst.ideal(s) == ideal_before


def test_challenge_length_check():
    rng = Random(6)
    inst = sample_puf(params(), rng)
    with pytest.raises(ValueError, match="LEN_MISMATCH"):
        inst.respond(BitString.zeros(15), rng)


def test_params_validation():
    with pytest.raises(ValueError):
        PufParams(n=8, rg=16, d_noise=17, d_min=2, m=16)
    with pytest.raises(ValueError):
        PufParams(n=8, rg=16, d_noise=3, d_min=0, m=16)
    with pytest.raises(ValueError):
        PufParams(n=8, rg=16, d_noise=3, d_min=2, m=17)
    assert PufParams.default_d_min(32) == 4
    assert PufParams.default_d_min(8) == 2


# -- malicious machines -------------------------------------------------------

def test_passthrough_machine_tracks_inner_instance():
    # the chatty program answers through its embedded honest instance
    rng = Random(7)
    inner = sample_puf(params(d_noise=3, rg=64), rng)
    machine = MaliciousPufMachine(chatty_program(), k_state=0, inner=inner)
    s = BitString.random(16, rng)
    response, outgoing = machine.step("query", s, rng)
    assert outgoing == s
    assert hamming_distance(response, inner.ideal(s)) <= inner.params.max_flips


def test_query_logger_rejected_without_state_budget():
    with pytest.raises(ValueError, match="STATE_BUDGET"):
        MaliciousPufMachine(query_logging_program(log_bits=16), k_state=0)


def test_runtime_state_writes_are_audited():
    def fn(kind, payload, state, oracle):
        return BitString.zeros(8), BitString.zeros(12), None

    program = MachineProgram("overwriter", 4, fn)
    machine = MaliciousPufMachine(program, k_state=4)
    with pytest.raises(ValueError, match="STATE_BUDGET"):
        machine.step("query", BitString.zeros(4), Random(0))


def test_chatty_and_silent_programs():
    rng = Random(9)
    inner = sample_puf(params(rg=32), rng)
    chatty = MaliciousPufMachine(chatty_program(), k_state=0, inner=inner)
    s = BitString.random(16, rng)
    response, outgoing = chatty.step("query", s, rng)
    assert outgoing == s
    silent = MaliciousPufMachine(silent_program(), k_state=0)
    assert silent.step("query", s, rng) == (None, None)


# -- family games, as the props experiments run them ---------------------------

def test_close_query_baseline_within_budget():
    report = run_experiment(ExperimentConfig(experiment="props-cq", n=8, trials=1000,
                                             seed=4, extras={"queries": 8}))
    assert report.details["within_bound"]
    assert report.details["hit_rate"] > 0  # the ball is big at n=8, hits happen


def test_test_query_detects_substitution():
    report = run_experiment(ExperimentConfig(experiment="props-tq", n=16, trials=300,
                                             seed=5))
    assert report.successes >= 297  # >= 99%
    assert report.details["honest_false_positives"] == 0
