from random import Random

import pytest

from pufcommit.bits import BitString
from pufcommit.functionality import (
    ADVERSARY,
    BitCommitmentFunctionality,
    Budgets,
    NO_CHANNEL_BUDGETS,
    CommPufFunctionality,
    EventLog,
    audit_budgets,
    audit_single_ownership,
)
from pufcommit.protocols.collective import check_order_discipline
from pufcommit.puf import MachineProgram, PufParams, chatty_program

P = PufParams.standard(8, 16, d_noise=1)


def make(budgets=Budgets(k_state=0, k_in=None, k_out=0), seed=0):
    log = EventLog()
    return CommPufFunctionality(Random(seed), log, budgets), log


def counters(func, sid):
    """(incoming, outgoing) bits the router has debited to sid."""
    rec = func.tokens[sid]
    return rec.in_used, rec.out_used


def transfer(func, sid, frm, to):
    func.handle(("handover", sid, frm, to))
    func.handle(("ready", sid, ADVERSARY))
    func.handle(("received", sid, ADVERSARY, frm))


def test_init_and_duplicate_sid_silently_ignored():
    func, log = make()
    first = func.handle(("init", "a", "P1", "honest", P))
    assert first == [("P1", ("initialized", "a"))]
    again = func.handle(("init", "a", "P2", "honest", P))
    assert again == []
    assert "waiting-state" in log.records[-1].note


def test_eval_owner_only():
    func, _ = make()
    func.handle(("init", "a", "P1", "honest", P))
    s = BitString.zeros(8)
    ok = func.handle(("eval", "a", "P1", s))
    assert ok and ok[0][1][0] == "response" and len(ok[0][1][3]) == 16
    assert func.handle(("eval", "a", "P2", s)) == []
    assert func.handle(("eval", "missing", "P1", s)) == []


def test_handover_three_step_transfer():
    func, _ = make()
    func.handle(("init", "a", "P1", "honest", P))
    s = BitString.zeros(8)

    invoked = func.handle(("handover", "a", "P1", "P2"))
    assert invoked == [(ADVERSARY, ("invoke", "a", "P1", "P2"))]
    # in transit: owner evals are refused, the adversary may still look
    assert func.handle(("eval", "a", "P1", s)) == []
    assert func.handle(("eval", "a", "P2", s)) == []
    adv = func.handle(("eval", "a", ADVERSARY, s))
    assert adv and adv[0][1][0] == "response"

    ready = func.handle(("ready", "a", ADVERSARY))
    assert ready == [("P2", ("handover", "a", "P1"))]
    ack = func.handle(("received", "a", ADVERSARY, "P1"))
    assert ack == [("P1", ("received", "a"))]

    assert func.handle(("eval", "a", "P2", s)) != []
    assert func.handle(("eval", "a", "P1", s)) == []
    # the adversary lost its in-transit window
    assert func.handle(("eval", "a", ADVERSARY, s)) == []


def test_handover_guards():
    func, _ = make()
    func.handle(("init", "a", "P1", "honest", P))
    assert func.handle(("handover", "a", "P2", "P3")) == []   # not the owner
    assert func.handle(("ready", "a", ADVERSARY)) == []        # nothing in flight
    assert func.handle(("received", "a", ADVERSARY, "P1")) == []


def test_malformed_messages_raise():
    # the shapes every kind shares are in
    # test_both_functionalities_refuse_a_malformed_shape_alike
    func, _ = make()
    with pytest.raises(ValueError, match="MALFORMED"):
        func.handle(("init", "a", "P1", "sideways", P))
    with pytest.raises(ValueError, match="MALFORMED"):
        func.handle(("eval", "a", "P1", "not-bits"))


@pytest.mark.parametrize("init", [
    ("init", "a", "P1", "honest", "not-params"),
    ("init", "m", "P1", "malicious", P, "not-a-program"),
    ("init", "a", "P1", "honest", P, chatty_program()),
], ids=["params-not-PufParams", "malicious-program-not-MachineProgram",
        "honest-with-program"])
def test_router_refuses_a_malformed_init(init):
    func, log = make()
    with pytest.raises(ValueError, match="MALFORMED: init"):
        func.handle(init)
    assert func.tokens == {} and len(log) == 0


def test_a_failing_token_program_is_not_a_malformed_message():
    # the program returns None where (response, state, outgoing) is due:
    # the message was well formed, so the program's own TypeError surfaces
    func, _ = make()
    broken = MachineProgram("returns-none", 0, lambda kind, payload, state, oracle: None)
    func.handle(("init", "m", "P1", "malicious", P, broken))
    with pytest.raises(TypeError, match="cannot unpack non-iterable NoneType"):
        func.handle(("eval", "m", "P1", BitString.zeros(8)))


def test_malicious_machine_and_outgoing_budget():
    budgets = Budgets(k_state=0, k_in=None, k_out=20)
    func, _ = make(budgets=budgets)
    func.handle(("init", "m", "P1", "malicious", P, chatty_program()))
    s = BitString.random(8, Random(5))
    deliveries = func.handle(("eval", "m", "P1", s))
    kinds = [msg[0] for _, msg in deliveries]
    assert kinds == ["response", "outmsg"]
    # 8 bits used, 12 remain; next query exhausts, third is dropped
    func.handle(("eval", "m", "P1", s))
    third = func.handle(("eval", "m", "P1", s))
    assert [msg[0] for _, msg in third] == ["response"]
    assert counters(func, "m") == (0, 16)
    audit_budgets(func)


def test_outgoing_dropped_entirely_at_zero_budget():
    func, _ = make(budgets=Budgets(k_state=0, k_in=None, k_out=0))
    func.handle(("init", "m", "P1", "malicious", P, chatty_program()))
    deliveries = func.handle(("eval", "m", "P1", BitString.zeros(8)))
    assert [msg[0] for _, msg in deliveries] == ["response"]
    assert counters(func, "m") == (0, 0)


def test_incoming_budget_debited_before_machine_runs():
    func, log = make(budgets=Budgets(k_state=0, k_in=10, k_out=None))
    func.handle(("init", "m", "P1", "malicious", P, chatty_program()))
    first = func.handle(("inmsg", "m", "P1", BitString.zeros(8)))
    assert [msg[0] for _, msg in first] == ["outmsg"]
    over = func.handle(("inmsg", "m", "P1", BitString.zeros(8)))
    assert over == []
    assert "k_in" in log.records[-1].note
    assert counters(func, "m")[0] == 8  # the refused message was not debited
    # only the creator may use the channel
    assert func.handle(("inmsg", "m", "P2", BitString.zeros(4))) == []
    audit_budgets(func)


def test_state_budget_enforced_at_creation():
    from pufcommit.puf import query_logging_program

    func, _ = make(budgets=Budgets(k_state=0, k_in=None, k_out=0))
    with pytest.raises(ValueError, match="STATE_BUDGET"):
        func.handle(("init", "m", "P1", "malicious", P, query_logging_program(8)))


def test_stateless_machine_replay_is_order_independent():
    queries = [BitString.random(8, Random(100 + i)) for i in range(12)]

    def run(order, seed):
        func, _ = make(budgets=Budgets(k_state=0, k_in=None, k_out=0), seed=seed)
        func.handle(("init", "m", "P1", "malicious", P, chatty_program()))
        out = {}
        for idx in order:
            deliveries = func.handle(("eval", "m", "P1", queries[idx]))
            out[idx] = deliveries[0][1][3]
        return out

    # noiseless family: responses per query are identical under permutation
    forward = run(range(12), seed=1)
    shuffled_order = [7, 2, 11, 0, 5, 9, 1, 10, 3, 8, 6, 4]
    shuffled = run(shuffled_order, seed=1)
    assert forward == shuffled


def test_no_channel_router_drops_every_inmsg():
    func, log = make(budgets=NO_CHANNEL_BUDGETS)
    func.handle(("init", "m", "P1", "malicious", P, chatty_program()))
    # a 0-bit message would fit a zero budget; it must not step the machine
    for sid, m_in in (("m", BitString.zeros(0)), ("m", BitString.random(8, Random(4))),
                      ("missing", BitString.zeros(8))):
        assert func.handle(("inmsg", sid, "P1", m_in)) == []
        assert log.records[-1].dropped
        assert log.records[-1].note == "waiting-state: no creator channel"
    assert counters(func, "m") == (0, 0)
    deliveries = func.handle(("eval", "m", "P1", BitString.zeros(8)))
    assert [msg[0] for _, msg in deliveries] == ["response"]
    assert counters(func, "m") == (0, 0)
    audit_budgets(func)
    # the budgets are the router's: an init cannot bring its own
    with pytest.raises(ValueError, match="MALFORMED"):
        func.handle(("init", "m2", "P1", "malicious", P, chatty_program(),
                     Budgets(k_state=0, k_in=None, k_out=8)))


def test_budget_and_ownership_audits_on_a_busy_log():
    func, _ = make(budgets=Budgets(k_state=0, k_in=32, k_out=16))
    func.handle(("init", "a", "P1", "honest", P))
    func.handle(("init", "m", "P2", "malicious", P, chatty_program()))
    rng = Random(6)
    for _ in range(10):
        func.handle(("eval", "a", "P1", BitString.random(8, rng)))
        func.handle(("eval", "m", "P2", BitString.random(8, rng)))
        func.handle(("inmsg", "m", "P2", BitString.random(8, rng)))
    transfer(func, "a", "P1", "P2")
    func.handle(("eval", "a", "P2", BitString.random(8, rng)))
    audit_budgets(func)
    audit_single_ownership(func)


def _probe_log(events):
    """A hand-built revised-flow log: each (kind, sender, note) is on the
    probe sid, except protocol messages, which have none."""
    log = EventLog()
    for kind, sender, note in events:
        log.append(kind, sid=None if kind == "protocol-msg" else "p",
                   sender=sender, note=note)
    return log


# R hands the probe to S, S queries it and hands it back
RETURN = [("handover", "R", ""), ("eval", "S", ""), ("handover", "S", "")]
MASK = ("protocol-msg", "R", "mask")


@pytest.mark.parametrize("events,ordered", [
    (RETURN + [MASK], True),
    (RETURN + [("eval", "S", "waiting-state: not the owner"), MASK], True),
    (RETURN[:2] + [MASK, RETURN[2]], False),
    (RETURN + [("eval", "S", ""), MASK], False),
], ids=["honest", "late-query-dropped", "return-after-mask", "late-query-answered"])
def test_order_discipline_on_hand_built_logs(events, ordered):
    assert check_order_discipline(_probe_log(events), "p", "S") is ordered


def test_bit_commitment_reference():
    log = EventLog()
    fcom = BitCommitmentFunctionality(log)
    # open before commit: nothing, logged as the waiting state
    assert fcom.handle(("open", fcom.sender)) == []
    assert log.records[-1].dropped
    out = fcom.handle(("commit", fcom.sender, 1))
    assert (fcom.receiver, ("committed",)) in out
    # second commit ignored
    assert fcom.handle(("commit", fcom.sender, 0)) == []
    assert log.records[-1].dropped
    opened = fcom.handle(("open", fcom.sender))
    assert (fcom.receiver, ("open", 1)) in opened
    assert (ADVERSARY, ("open", 1)) in opened
    # halted: further messages do nothing
    assert fcom.handle(("open", fcom.sender)) == []
    with pytest.raises(ValueError, match="MALFORMED"):
        fcom.handle(("commit", fcom.sender, 2))


@pytest.mark.parametrize("msg", [("commit",), ("commit", "S~"), ("commit", "S~", 1, 0),
                                 ("open",), ("open", "S~", 1)])
def test_bit_commitment_refuses_a_wrong_arity(msg):
    fcom = BitCommitmentFunctionality(EventLog())
    with pytest.raises(ValueError, match=f"MALFORMED: bad arity for '{msg[0]}'"):
        fcom.handle(msg)
    assert fcom.recorded is None and not fcom.halted


@pytest.mark.parametrize("b", [True, False, 1.0, "1", None, 2], ids=repr)
def test_bit_commitment_refuses_a_bit_that_is_not_the_int_0_or_1(b):
    fcom = BitCommitmentFunctionality(EventLog())
    with pytest.raises(ValueError, match="MALFORMED: commit bit"):
        fcom.handle(("commit", fcom.sender, b))
    assert fcom.recorded is None and len(fcom.log) == 0


# each functionality, built fresh, with one well-formed message it takes
FUNCTIONALITIES = {
    "router": (lambda: make()[0], ("ready", "a", ADVERSARY)),
    "router-eval": (lambda: make()[0], ("eval", "a", "P1", BitString.zeros(8))),
    "fcom": (lambda: BitCommitmentFunctionality(EventLog()), ("open", "S~")),
}
# shape -> (the malformed message made from the well-formed one, refusal,
# in which {kind} is the well-formed message's kind)
MALFORMED_SHAPES = {
    "non-tuple": (list, r"MALFORMED: \["),
    "bare-kind": (lambda ok: ok[0], "MALFORMED: '{kind}'"),
    "empty": (lambda ok: (), r"MALFORMED: \(\)"),
    "non-str-kind": (lambda ok: (1,) + ok[1:], r"MALFORMED: \(1,"),
    "unknown-kind": (lambda ok: ("frobnicate",) + ok[1:],
                     "MALFORMED: unknown message kind 'frobnicate'"),
    "short-arity": (lambda ok: ok[:-1], "MALFORMED: bad arity for '{kind}'"),
    "long-arity": (lambda ok: ok + ("extra",), "MALFORMED: bad arity for '{kind}'"),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_SHAPES))
@pytest.mark.parametrize("name", sorted(FUNCTIONALITIES))
def test_both_functionalities_refuse_a_malformed_shape_alike(name, shape):
    build, ok = FUNCTIONALITIES[name]
    malformed, refusal = MALFORMED_SHAPES[shape]
    func = build()
    with pytest.raises(ValueError, match="^" + refusal.replace("{kind}", ok[0])):
        func.handle(malformed(ok))
    assert len(func.log) == 0
    func.handle(ok)
    assert len(func.log) == 1
