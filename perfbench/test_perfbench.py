"""Tests of the benchmark itself: the tracer, the traced/untraced agreement
and the outcome checks.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from random import Random

import pytest

from run import use_repo_source

use_repo_source()

import pufcommit.fuzzy  # noqa: E402
import pufcommit.prf  # noqa: E402
import pufcommit.puf  # noqa: E402
import pufcommit.session  # noqa: E402
from pufcommit.adversaries import strategy_by_id  # noqa: E402
from pufcommit.bits import BitString  # noqa: E402
from pufcommit.extract import run_extractor_modified  # noqa: E402
from pufcommit.prf import derive_seed  # noqa: E402
from pufcommit.protocols import ExtPufParams, run_extpuf  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, classify, logs_digest  # noqa: E402

TRIALS = {"attack-original": 2, "uccompiler-n64": 2, "extraction-zoo": 6}


def _run(workload, trials, tracer=None):
    outcomes, digests = [], []
    for i in range(trials):
        inputs = workload.inputs(i)
        if tracer is None:
            result = workload.trial(inputs)
        else:
            with tracer.trial():
                result = workload.trial(inputs)
        outcomes.append(workload.check(inputs, result))
        digests.append(logs_digest(workload.logs(result)))
    return outcomes, digests


def test_tracer_puts_back_every_name_it_wrapped():
    tracer = Tracer()
    bound = tracer.bound_names()
    before = {(id(ns), attr): vars(ns)[attr] for ns, attr in bound}
    names = {(ns.__name__, attr) for ns, attr in bound}
    for by_value in (("pufcommit.fuzzy", "prf_bits"), ("pufcommit.puf", "prf_bits"),
                     ("pufcommit.session", "derive_seed"),
                     ("pufcommit.functionality", "sample_puf")):
        assert by_value in names
    workload = WORKLOADS["extraction-zoo"](1)
    with pytest.raises(RuntimeError):
        with tracer.trial():
            assert pufcommit.fuzzy.prf_bits is not before[(id(pufcommit.fuzzy), "prf_bits")]
            workload.trial(workload.inputs(0))
            raise RuntimeError("abandon the trial")
    for ns, attr in bound:
        assert vars(ns)[attr] is before[(id(ns), attr)]
    assert pufcommit.puf.prf_bits is pufcommit.prf.prf_bits
    assert pufcommit.session.derive_seed is pufcommit.prf.derive_seed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced_run(name):
    trials = TRIALS[name]
    plain, plain_digests = _run(WORKLOADS[name](7), trials)
    counters = []
    for _ in range(2):
        tracer = Tracer()
        traced, traced_digests = _run(WORKLOADS[name](7), trials, tracer)
        assert traced == plain
        assert traced_digests == plain_digests
        assert tracer.calls["log"] == sum(o.log_records for o in plain)
        assert tracer.calls["router"] == sum(o.routed for o in plain)
        counters.append((dict(tracer.calls), dict(tracer.work)))
    assert counters[0] == counters[1]
    assert not any(o.failed for o in plain)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_add_up_to_traced_trial_time(name):
    tracer = Tracer()
    _run(WORKLOADS[name](3), 2, tracer)
    assert set(tracer.self_ns) <= set(LAYERS)
    assert all(ns >= 0 for ns in tracer.self_ns.values())
    assert sum(tracer.self_ns.values()) == sum(tracer.trial_ns)
    for layer in ("prf", "puf", "fuzzy", "ecc", "router", "log", "extract"):
        assert tracer.calls[layer] > 0 and tracer.self_ns[layer] > 0, layer
    assert tracer.work["prf.bytes"] > 0 and tracer.work["fuzzy.hash_bitops"] > 0


def _harness_extraction_run(master_seed, trial, strategy_id):
    """One run of the harness ``extraction`` experiment (extpuf, n=16, k=4)."""
    x = BitString.random(4, Random(derive_seed(master_seed, f"input/{strategy_id}", trial)))
    out = run_extpuf(ExtPufParams.standard(16, 4), x,
                     derive_seed(master_seed, "run", strategy_id, trial),
                     sender_factory=strategy_by_id(strategy_id).factory)
    return x, out, run_extractor_modified(out.extraction_inputs())


@pytest.mark.parametrize("master_seed,trial,strategy_id", [
    (2, 174, "honest-sender"),
    (4, 362, "late-query-sender"),
])
def test_known_zero_stride_misses_are_not_failures(master_seed, trial, strategy_id):
    x, out, extracted = _harness_extraction_run(master_seed, trial, strategy_id)
    assert out.accepted and out.value == x and extracted is None
    expected = x if strategy_id.startswith("honest") else None
    assert classify(out.value, extracted, expected, out.receiver_view["r"], 4) == "zero-stride"


def test_crafted_miss_without_zero_stride_is_a_failure():
    x, out, extracted = _harness_extraction_run(1, 0, "honest-sender")
    r = out.receiver_view["r"]
    assert extracted == x and all(r.take_stride(j, 4).value for j in range(4))
    assert classify(out.value, extracted, x, r, 4) == "ok"
    wrong = ~x
    assert classify(out.value, wrong, x, r, 4) == "fail"          # opening != extraction
    assert classify(None, None, x, r, 4) == "fail"                # honest value not extracted
    assert classify(out.value, wrong, None, r, 4) == "fail"       # cheating sender's opening
    zero_stride = BitString(r.value & ~sum(1 << p for p in range(0, 64, 4)), 64)
    assert classify(out.value, None, x, zero_stride, 4) == "zero-stride"
    # a cheating sender's stray opening is excused only when it never queried
    assert classify(out.value, None, None, r, 4, queried=True) == "fail"
    assert classify(out.value, None, None, r, 4, queried=False) == "unqueried-open"
    assert classify(None, None, x, r, 4, queried=False) == "fail"


def test_lucky_unqueried_opening_is_counted_not_failed():
    # trial 105 at seed 5: never-query-collective opens string 1 because its
    # all-zero st_E equals the probe's hashed answer, a 2^-16 event at n=16
    workload = WORKLOADS["extraction-zoo"](5)
    inputs = workload.inputs(105)
    outcome = workload.check(inputs, workload.trial(inputs))
    assert (outcome.failed, outcome.unqueried_opens, outcome.zero_stride_misses) == (False, 1, 0)
    assert ("never-query-collective", None, (None, "1010", None, None),
            (None, None, None, None)) in outcome.signature
