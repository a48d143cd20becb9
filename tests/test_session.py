import pytest

from pufcommit.bits import BitString
from pufcommit.functionality import ADVERSARY, Budgets
from pufcommit.protocols import CpufParams, ExtPufParams, run_cpuf, run_extpuf
from pufcommit.session import (
    ImmediateDelivery,
    ProtocolAbort,
    Session,
    count_resources,
    message_shapes,
)


class CuriousDelivery(ImmediateDelivery):
    """Evaluates every in-transit token once before delivering it."""

    def __init__(self, challenge_for):
        self.challenge_for = challenge_for
        self.observed: list = []

    def on_invoke(self, session, sid, frm, to):
        challenge = self.challenge_for(sid)
        if challenge is not None:
            deliveries = session.functionality.handle(("eval", sid, ADVERSARY, challenge))
            for recipient, message in list(deliveries):
                if message[0] == "response" and recipient == ADVERSARY:
                    self.observed.append((sid, message[2], message[3]))
                    deliveries.remove((recipient, message))
            session.route(deliveries)
        super().on_invoke(session, sid, frm, to)


def test_same_seed_gives_byte_identical_logs():
    params = ExtPufParams.standard(8, 2)
    x = BitString.from01("10")
    a = run_extpuf(params, x, seed=42).session.log.serialize()
    b = run_extpuf(params, x, seed=42).session.log.serialize()
    assert a == b
    c = run_extpuf(params, x, seed=43).session.log.serialize()
    assert a != c


def test_message_shapes_are_stable():
    params = CpufParams.standard(8, 2)
    x = BitString.from01("01")
    f1 = message_shapes(run_cpuf(params, x, seed=5).session.log)
    f2 = message_shapes(run_cpuf(params, x, seed=5).session.log)
    assert f1 == f2
    assert ("c", params.mask_len) in f1


def test_resource_counting():
    params = ExtPufParams.standard(8, 2)
    out = run_extpuf(params, BitString.from01("11"), seed=1)
    res = count_resources(out.session.log)
    assert res["pufs_created"] == 2
    assert res["exchange_phases"] == 2
    assert res["queries"] >= 4


def test_curious_adversary_can_eval_in_transit():
    probe_challenges = {}

    def challenge_for(sid):
        return probe_challenges.get(sid)

    adversary = CuriousDelivery(challenge_for)
    session = Session(7, budgets=Budgets(k_state=0, k_in=None, k_out=0),
                      adversary=adversary)
    api = session.handle_for("P1")
    from pufcommit.puf import PufParams

    params = PufParams.standard(8, 16, d_noise=1)
    api.create("tok", params)
    probe_challenges["tok"] = BitString.zeros(8)
    api.handover("tok", "P2")
    assert len(adversary.observed) == 1
    sid, challenge, response = adversary.observed[0]
    assert sid == "tok" and len(response) == 16
    # transfer still completed
    assert session.functionality.tokens["tok"].owner == "P2"


def test_mailbox_and_handover_api():
    session = Session(9)
    from pufcommit.puf import PufParams

    a = session.handle_for("A")
    b = session.handle_for("B")
    a.create("t", PufParams.standard(8, 16, d_noise=1))
    a.handover("t", "B")
    sid = b.take_handover("await-token")
    assert sid == "t"
    with pytest.raises(ProtocolAbort):
        b.take_handover("await-token")
    session.msg("A", "B", "hello", BitString.from01("1"))
    assert session.log.records[-1].note == "hello"


def test_take_handover_gives_up_at_its_step_when_nothing_was_handed_over():
    from pufcommit.puf import PufParams

    session = Session(9)
    a = session.handle_for("A")
    with pytest.raises(ProtocolAbort) as empty:
        a.take_handover("await-probe")
    assert empty.value.step == "await-probe"
    # the creator's inbox then holds only `initialized` and `received`
    a.create("t", PufParams.standard(8, 16, d_noise=1))
    a.handover("t", "B")
    assert [m[0] for m in a.inbox()] == ["initialized", "received"]
    with pytest.raises(ProtocolAbort) as after:
        a.take_handover("await-probe-return")
    assert after.value.step == "await-probe-return"
    assert len(a.inbox()) == 2
