"""A finished run frees itself by reference counting.

Party handles point at their session and the session never points back,
so dropping a run's outcome frees the session, its log and its tokens at
once; nothing waits for the cyclic collector.
"""

import gc
import weakref
from random import Random

import pytest

from pufcommit.adversaries import AmbiguousQuerySender, SubstitutingReturnSender
from pufcommit.bits import BitString
from pufcommit.harness.config import ExperimentConfig
from pufcommit.harness.experiments import run_experiment
from pufcommit.prf import derive_seed
from pufcommit.protocols import run_extpuf, run_original_extpuf
from pufcommit.session import Session
from test_protocols import EP2, OP, OUTCOME_CASES, X2, run_equalities

# each faulty sender class is built once here: a class is itself cyclic
FAULTY = {runner: type("Faulty", (honest,), {faults["commit-abort"][0]:
                                             faults["commit-abort"][1]})
          for runner, (_, honest, faults) in OUTCOME_CASES.items()}

RUNS = {
    **{runner: (lambda run=run, honest=honest: run(honest, True))
       for runner, (run, honest, _) in OUTCOME_CASES.items()},
    **{f"{runner}-commit-abort": (lambda run=run, runner=runner:
                                  run(FAULTY[runner], True))
       for runner, (run, _, _) in OUTCOME_CASES.items()},
    # the equality subprotocol runs keep the ids they had as run_blob_equalities
    "run_blob_equalities-unequal": lambda: run_equalities(4, 1, 13021, unequal=(1,)),
    "run_blob_equalities-tampered": lambda: run_equalities(4, 0, 13022, tampered=(0, 2)),
    "run_original_extpuf-ambiguous": lambda: run_original_extpuf(
        OP, BitString.from01("0"), 13023, sender_factory=AmbiguousQuerySender),
    "run_extpuf-substituting-returner": lambda: run_extpuf(
        EP2, X2, 13024, sender_factory=SubstitutingReturnSender),
}

EXPERIMENTS = {
    **{f"completeness-{protocol}": ExperimentConfig(
        "completeness", protocol=protocol, n=8, k=2, n_strings=2, trials=1)
       for protocol in ("cpuf", "extpuf", "collextpuf", "original-extpuf",
                        "uccompiler", "blob-equalities")},
    "extraction": ExperimentConfig("extraction", protocol="extpuf",
                                   adversary="all-senders", n=8, k=2, trials=1),
    "attack-original": ExperimentConfig("attack-original", protocol="original-extpuf",
                                        n=8, k=1, trials=1),
    "uc-sim-receiver": ExperimentConfig("uc-sim", n=8, trials=1, case="receiver"),
    "uc-sim-sender": ExperimentConfig("uc-sim", n=8, trials=1, case="sender"),
    "hiding": ExperimentConfig("hiding", protocol="extpuf", n=8, k=2, trials=1),
}

PATHS = {**RUNS, **{f"experiment-{name}": (lambda cfg=cfg: run_experiment(cfg))
                    for name, cfg in EXPERIMENTS.items()}}


def dropped_session(run) -> weakref.ref:
    """Run, drop the outcome, and return a weak reference to its session."""
    outcome = run()
    assert outcome.session.log.records
    return weakref.ref(outcome.session)


@pytest.mark.parametrize("case", sorted(RUNS))
def test_a_dropped_run_is_freed_without_the_collector(case):
    RUNS[case]()  # imports and module caches settle outside the check
    gc.collect()
    gc.disable()
    try:
        session = dropped_session(RUNS[case])
        assert session() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("case", sorted(PATHS))
def test_a_run_leaves_no_cyclic_garbage(case):
    PATHS[case]()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        PATHS[case]()
        gc.collect()
        kinds = sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert kinds == []


@pytest.mark.parametrize("case", sorted(RUNS))
def test_handles_of_one_party_draw_from_one_stream(case):
    session = RUNS[case]().session
    first, second = session.handle_for("S"), session.handle_for("S")
    replay = Random()
    replay.setstate(first.rng.getstate())
    drawn = [first.rng.getrandbits(64), second.rng.getrandbits(64),
             first.rng.getrandbits(64)]
    assert drawn == [replay.getrandbits(64) for _ in range(3)]


def test_a_party_stream_is_derived_from_the_session_seed():
    session = Session(31)
    first, second = session.handle_for("S"), session.handle_for("S")
    expected = Random(derive_seed(31, "party", "S"))
    assert [first.rng.random(), second.rng.random()] == [expected.random(),
                                                         expected.random()]
    assert session.handle_for("R").rng.random() == Random(
        derive_seed(31, "party", "R")).random()
