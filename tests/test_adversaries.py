from collections import Counter
from itertools import product
from random import Random
from types import SimpleNamespace

import pytest

from pufcommit.bits import BitString
from pufcommit.adversaries import (
    AmbiguousQuerySender,
    ChattyTokenSender,
    EGuessCompilerSender,
    SimulatorCompilerReceiver,
    SimulatorCompilerSender,
    StatefulProbeReceiver,
    strategy_by_id,
    zoo,
)
from pufcommit.functionality import Budgets, audit_budgets
from pufcommit.harness.ucsim import (
    run_ideal_receiver_corrupt,
    run_ideal_sender_corrupt,
    run_real_world,
)
from pufcommit.protocols import (
    ExtPufParams,
    OriginalExtPufParams,
    compiler,
    open_index,
    open_uccompiler,
    run_collective,
    run_collective_commit,
    run_cpuf,
    run_extpuf,
    run_original_extpuf,
    run_uccompiler,
)
from pufcommit.protocols.compiler import equality_shares, share_index
from pufcommit.protocols.params import CpufParams
from pufcommit.session import ProtocolAbort, Session

EP = ExtPufParams.standard(16, 4)
OP = OriginalExtPufParams.standard(8, 1)
CP = CpufParams.standard(16, 4)


def run_strategy(strategy, seed):
    if strategy.protocol == "cpuf":
        return run_cpuf(CP, BitString.from01("1010"), seed,
                        sender_factory=strategy.factory)
    if strategy.protocol == "extpuf":
        kwargs = {}
        kwargs["sender_factory" if strategy.role == "sender"
               else "receiver_factory"] = strategy.factory
        return run_extpuf(EP, BitString.from01("0110"), seed, **kwargs)
    if strategy.protocol == "collextpuf":
        values = [BitString.from01("1001"), BitString.from01("0100")]
        return run_collective(EP, values, seed, sender_factory=strategy.factory)
    if strategy.protocol == "original-extpuf":
        return run_original_extpuf(OP, BitString.zeros(1), seed,
                                   sender_factory=strategy.factory)
    if strategy.protocol == "uccompiler":
        return run_uccompiler(6, 0, seed, sender_factory=strategy.factory)
    raise AssertionError(strategy.protocol)


def test_zoo_is_well_stocked():
    members = zoo()
    assert len(members) >= 8
    assert len({m.strategy_id for m in members}) == len(members)
    assert strategy_by_id("ambiguous-query-attacker").role == "sender"
    with pytest.raises(KeyError):
        strategy_by_id("nonexistent")


def test_every_member_runs_to_its_expected_end():
    for strategy in zoo():
        for seed in range(5):
            if strategy.expect == "construction-error":
                with pytest.raises(ValueError, match="STATE_BUDGET"):
                    run_strategy(strategy, 31000 + seed)
                continue
            out = run_strategy(strategy, 31000 + seed)
            if strategy.expect == "accept":
                accepted = (out.accepted if hasattr(out, "accepted") else None)
                if hasattr(out, "opened") and out.opened:
                    accepted = all(v is not None for v in out.opened.values())
                assert accepted, strategy.strategy_id
            elif strategy.expect == "reject":
                if hasattr(out, "opened") and out.opened:
                    assert all(v is None for v in out.opened.values()), \
                        strategy.strategy_id
                else:
                    assert out.accepted is False, strategy.strategy_id
            elif strategy.expect.startswith("abort:"):
                assert out.abort_step == strategy.expect.split(":", 1)[1], \
                    strategy.strategy_id
            elif strategy.expect == "sender-completes":
                assert out.commit_end > 0, strategy.strategy_id


def test_ambiguous_query_strategy_commits_only_to_bit_0():
    with pytest.raises(ValueError, match="bit 0"):
        AmbiguousQuerySender(OP, BitString.from01("1"), None)


def test_chatty_token_outgoing_dropped_at_zero_budget():
    out = run_extpuf(EP, BitString.from01("0011"), seed=32000,
                     sender_factory=ChattyTokenSender)
    assert out.accepted  # the machine answers honestly via its inner instance
    assert out.sender.leaked_messages() == []
    audit_budgets(out.session.functionality)


def test_chatty_token_leaks_within_a_positive_budget():
    session = Session(32001, budgets=Budgets(k_state=0, k_in=None, k_out=EP.n))
    out = run_collective_commit(EP, [BitString.from01("0011")], session,
                                sender_factory=ChattyTokenSender)
    if out.committed:
        open_index(out, 0)
    leaked = out.sender.leaked_messages()
    assert len(leaked) == 1  # exactly one challenge fits the budget
    audit_budgets(out.session.functionality)


def test_stateful_probe_leaks_when_state_is_allowed():
    # the demonstration behind the zero-state requirement: with state, the
    # returned probe replays the sender's codeword query to its creator
    session = Session(33000, budgets=Budgets(k_state=None, k_in=None, k_out=0))
    out = run_collective_commit(EP, [BitString.from01("1110")], session,
                                receiver_factory=StatefulProbeReceiver)
    assert out.commit_end > 0
    receiver = out.receiver
    replayed = receiver.read_probe_memory()
    sender = out.sender
    codeword = EP.code.enc(sender.st[0])
    assert replayed.slice(0, codeword.n) == codeword  # the codeword leaked


def test_eguess_sender_survival_is_rare():
    survived = 0
    for i in range(120):
        out = run_uccompiler(4, 1, seed=34000 + i,
                             sender_factory=EGuessCompilerSender)
        survived += int(out.committed)
    # guessing 4 bits: about 1/16 of runs
    assert 1 <= survived <= 25


def test_simulator_sender_abort_branch():
    sim = SimulatorCompilerSender.__new__(SimulatorCompilerSender)
    sim.e_star = [0, 1, None]
    with pytest.raises(ProtocolAbort, match="sim-e-mismatch"):
        sim.equality_open_indices([0, 1, 1])
    # the extracted e: the e_t-shares of both blobs of every pair
    sim.e_star = [0, 1, 1]
    assert sim.equality_open_indices([0, 1, 1]) == [0, 2, 5, 7, 9, 11]


class Tape:
    """An rng that plays back a fixed tape of single bits."""

    def __init__(self, bits):
        self.bits = iter(bits)

    def getrandbits(self, k):
        assert k == 1
        return next(self.bits)


def planted_by_hand(n, rng):
    """The simulator's shares and, per pair, its (blob holding 0, blob
    holding 1), as it planted them before it planted blob values through
    the honest sender: each share written by hand."""
    slot_for_bit = []
    shares = [0] * (4 * n)
    for t in range(n):
        first, second = 2 * t, 2 * t + 1
        if rng.getrandbits(1):
            zero_blob, one_blob = first, second
        else:
            zero_blob, one_blob = second, first
        slot_for_bit.append((zero_blob, one_blob))
        b0 = rng.getrandbits(1)
        shares[share_index(zero_blob, 0)] = b0
        shares[share_index(zero_blob, 1)] = b0
        b0 = rng.getrandbits(1)
        shares[share_index(one_blob, 0)] = b0
        shares[share_index(one_blob, 1)] = b0 ^ 1
    return shares, slot_for_bit


def test_planted_blob_values_give_the_hand_planted_share_layouts():
    # over every bit tape both forms make the same multiset of share
    # vectors, each with the blobs opened for a revealed 0 and for a 1;
    # only the order of the draws differs
    for n in (1, 2):
        by_hand, planted = Counter(), Counter()
        for tape in product((0, 1), repeat=3 * n):
            shares, slots = planted_by_hand(n, Tape(tape))
            by_hand[(tuple(shares), *(tuple(s[b] for s in slots) for b in (0, 1)))] += 1
            sim = SimulatorCompilerSender(n, 0, SimpleNamespace(rng=Tape(tape)))
            shares = tuple(sim.make_blobs())
            choices = []
            for b in (0, 1):
                sim.set_revealed(b)
                choices.append(tuple(sim.decommit_choice()))
            planted[(shares, *choices)] += 1
        assert planted == by_hand and len(by_hand) == 2 ** (3 * n)


def test_simulators_get_their_extraction_from_the_runner():
    # the sender-side simulator learns e from the receiver's commitment
    out = run_uccompiler(16, 0, seed=34000, sender_factory=SimulatorCompilerSender,
                         open_phase=False)
    assert out.committed
    assert out.sender.e_star == out.receiver.e_bits
    # the receiver-side simulator extracts the bit every blob carries
    out = run_uccompiler(16, 1, seed=34001, receiver_factory=SimulatorCompilerReceiver,
                         open_phase=False)
    assert out.committed and out.receiver.b_star == 1


def test_the_simulator_sender_opens_the_bit_it_is_revealed():
    def committed():
        return run_uccompiler(4, 0, seed=34002, sender_factory=SimulatorCompilerSender,
                              open_phase=False)

    for b in (0, 1):
        out = committed()
        out.sender.set_revealed(b)
        assert open_uccompiler(out) == b and out.accepted
    out = committed()
    assert open_uccompiler(out) is None and out.abort_step == "sim-missing-bit"


def test_simulator_receiver_decision_cases():
    class Api:
        rng = Random(0)

    def equality_run(shares, y_bits):
        return sim.check_equalities(y_bits, equality_shares(sim.e_bits), shares.__getitem__)

    sim = SimulatorCompilerReceiver(2, Api())
    sim.e_bits = [0, 1]
    # all blobs carry the bit 1
    shares = [0, 1, 1, 0, 0, 1, 1, 0]
    sim.set_extracted(shares)
    assert sim.b_star == 1 and equality_run(shares, [1, 1])
    # alternating pair values: empty intersection, defaults to 0
    shares = [0, 0, 1, 1, 0, 1, 1, 0]
    sim.set_extracted(shares)
    assert sim.b_star == 0 and equality_run(shares, [1, 1])
    # a failed extraction leaves only the other blob's bit in that pair
    sim.set_extracted([None, 1, 1, 0, 0, 1, 1, 0])
    assert sim.b_star == 1
    # both values alive in every pair: the cheat case, which gives up only
    # once the equality check it cheated has passed
    shares = [0, 0, 0, 1, 0, 1, 0, 0]
    sim.set_extracted(shares)
    assert sim.b_star is None
    assert not equality_run(shares, [1, 1])
    with pytest.raises(ProtocolAbort, match="sim-A-ambiguous"):
        equality_run(shares, [0, 1])




class StoredBitsChannel:
    """The four-method channel the compiler is written against, with no
    tokens: it keeps the committed bits, logs each opening as a message,
    and extracts exactly."""

    def __init__(self, session, params, sender_name, receiver_name, label):
        self.session = session
        self.ends = (sender_name, receiver_name)

    def commit(self, bits):
        self.bits = list(bits)
        self.session.msg(*self.ends, "stored-commit", len(self.bits))
        return True

    def open(self, index):
        return self.session.msg(*self.ends, "stored-open", self.bits[index])

    def open_all(self):
        return [self.open(t) for t in range(len(self.bits))]

    def extract(self):
        return list(self.bits)


@pytest.fixture
def stored_channel(monkeypatch):
    monkeypatch.setattr(compiler, "CollectiveChannel", StoredBitsChannel)


def test_compiler_runs_over_any_channel_with_the_four_methods(stored_channel):
    for b in (0, 1):
        out = run_uccompiler(4, b, seed=35000 + b)
        assert out.accepted and out.value == b
        assert isinstance(out.blob_channel, StoredBitsChannel)
        for world in (run_real_world, run_ideal_receiver_corrupt, run_ideal_sender_corrupt):
            features, _ = world(3, b, seed=35010 + b)
            assert features[2] is None and features[3] == b


def test_each_stored_share_opens_once_in_every_world(stored_channel):
    # n shares for the equality subprotocol, then the other share of each
    # of the n chosen blobs: 3n S -> R openings, however the bit is opened
    n = 3
    for world in (run_real_world, run_ideal_receiver_corrupt, run_ideal_sender_corrupt):
        features, out = world(n, 1, seed=35020)
        assert features[3] == 1
        opens = [rec for rec in out.session.log.records if rec.kind == "protocol-msg"
                 and rec.note == "stored-open" and rec.sender == "S"]
        assert len(opens) == 3 * n, world.__name__


class SecondAnswerFlippingChannel(StoredBitsChannel):
    """A stored-bits channel whose sender answers a repeated opening of a
    bit with the other bit."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = set()

    def open(self, index):
        again = index in self.asked
        self.asked.add(index)
        return self.session.msg(*self.ends, "stored-open", self.bits[index] ^ again)


def test_a_share_is_judged_on_its_first_opening(monkeypatch):
    # asked twice, this sender would flip the e_t-share of every chosen
    # blob, so that each opened pair explained the other bit
    monkeypatch.setattr(compiler, "CollectiveChannel", SecondAnswerFlippingChannel)
    for b in (0, 1):
        out = run_uccompiler(4, b, seed=35030 + b)
        assert out.accepted and out.value == b


def test_e_guessing_sender_is_caught_by_the_simulator_over_an_exact_channel(stored_channel):
    # exact extraction sees both bits alive in every pair, so the simulator
    # gives up exactly when the guess of e passed the equality check: 2^-n
    aborts = []
    for i in range(400):
        features, _ = run_ideal_sender_corrupt(2, 1, seed=36000 + i,
                                               sender_factory=EGuessCompilerSender)
        aborts.append(features[2])
    assert set(aborts) == {"abort:blob-equalities", "abort:sim-A-ambiguous"}
    assert 60 <= aborts.count("abort:sim-A-ambiguous") <= 140  # about 100
