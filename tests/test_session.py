from pufcommit.bits import BitString
from pufcommit.functionality import Budgets
from pufcommit.protocols import CpufParams, ExtPufParams, run_cpuf, run_extpuf
from pufcommit.session import (
    CuriousDelivery,
    Session,
    count_resources,
    message_shapes,
)


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
    sid = b.take_handover()
    assert sid == "t"
    assert b.take_handover() is None
    a.send("B", "hello", BitString.from01("1"))
    assert session.log.records[-1].note == "hello"
