import hashlib
import json
import pickle
from pathlib import Path

from dataclasses import replace

import pytest

from pufcommit.adversaries import zoo
from pufcommit.harness.config import ConfigError, ExperimentConfig, load_config
from pufcommit.harness.experiments import EXPERIMENTS, PROTOCOL_TABLE, run_experiment
from pufcommit.protocols import CpufSender
from pufcommit.report import ExperimentReport, wilson_interval
from pufcommit.session import count_resources


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert 0.95 < lo < 1 and hi == 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


def test_report_tally_invariant():
    with pytest.raises(ValueError, match="tally"):
        ExperimentReport(name="x", trials=10, successes=4, failures=4,
                         aborts_by_step={"tq": 1})
    report = ExperimentReport(name="x", trials=10, successes=5, failures=4,
                              aborts_by_step={"tq": 1})
    assert report.p_hat == 0.5
    canon = json.loads(report.to_json())
    assert "wall_time" not in canon
    assert canon["wilson95"][0] <= 0.5 <= canon["wilson95"][1]


def test_config_yaml_roundtrip(tmp_path: Path):
    path = tmp_path / "c.yaml"
    path.write_text(
        "version: 1\nexperiment: props-cq\nprotocol: cpuf\n"
        "n: 8\nk: 2\ntrials: 3\nseed: 5\nqueries: 12\n"
    )
    cfg = load_config(path)
    assert cfg.protocol == "cpuf" and cfg.trials == 3
    assert cfg.extras == {"queries": 12}


@pytest.mark.parametrize("field,value,needle", [
    ("experiment", "nonsense", "experiment"),
    ("protocol", "nonsense", "protocol"),
    ("adversary", "nonsense", "adversary"),
    ("trials", 0, "trials"),
    ("mode", "bulk", "mode"),
    ("d_noise", 2, "d_noise"),
    ("n_strings", 0, "n_strings"),
])
def test_config_validation_paths(field, value, needle):
    cfg = ExperimentConfig(experiment="completeness", protocol="cpuf", trials=2)
    setattr(cfg, field, value)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert err.value.path == needle


def test_config_error_survives_the_trip_from_a_worker():
    # a trial that raises in a fork worker is pickled back to the caller;
    # an error that cannot be rebuilt there leaves the pool waiting forever
    err = pickle.loads(pickle.dumps(ConfigError("adversary", "not a sender")))
    assert (err.path, err.message) == ("adversary", "not a sender")


def test_extraction_without_senders_is_a_config_error():
    # no zoo sender runs this protocol: the experiment must refuse it, not
    # report a pass over zero runs
    cfg = ExperimentConfig(experiment="extraction", protocol="blob-equalities",
                           adversary="all-senders", n=8, k=2, trials=5, seed=1)
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg)
    assert err.value.path == "protocol"


TINY = {
    "completeness": {"protocol": "cpuf"},
    "binding": {"protocol": "cpuf", "adversary": "equivocating-open-cpuf"},
    "hiding": {"protocol": "cpuf"},
    "extraction": {"protocol": "extpuf", "adversary": "all-senders"},
    "costs": {"protocol": "cpuf", "trials": 1},
    "lemmas": {"extras": {"max_support": 3}},
}


def _tiny(experiment, **fields):
    """A small config of experiment; TINY's fields win over the defaults."""
    return ExperimentConfig(**{**dict(experiment=experiment, n=8, k=1, n_strings=1,
                                      trials=2, seed=1),
                               **fields, **TINY.get(experiment, {})})


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_experiment_runs_from_a_config(experiment):
    report = run_experiment(_tiny(experiment))
    assert report.name and "passed" in report.details


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_config_name_names_every_report(experiment):
    assert run_experiment(_tiny(experiment, name="mine")).name == "mine"


# costs runs its one trial in one process, whatever jobs says
SERIAL = ["costs"]


@pytest.mark.parametrize("experiment", SERIAL)
def test_jobs_on_a_serial_experiment_is_a_config_error(experiment):
    cfg = _tiny(experiment, jobs=3)
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg)
    assert err.value.path == "jobs"


@pytest.mark.parametrize("experiment", sorted(set(EXPERIMENTS) - set(SERIAL)))
def test_workers_change_no_report(experiment):
    # every trial draws its own streams, so splitting the trials over workers
    # changes nothing but the recorded job count; 41 trials give the sampled
    # games outcomes that a stream shared across trials would change, and
    # split unevenly over 3 workers (14, 14, 13)
    one = run_experiment(_tiny(experiment, trials=41)).to_canonical_dict()
    assert one["resources"].pop("jobs") == 1
    for jobs in (2, 3):
        split = run_experiment(_tiny(experiment, trials=41, jobs=jobs)).to_canonical_dict()
        assert split["resources"].pop("jobs") == jobs
        assert split == one, jobs


SUPPORTED = {
    "completeness": set(PROTOCOL_TABLE),
    "costs": set(PROTOCOL_TABLE) - {"blob-equalities"},
    "binding": {"cpuf", "extpuf", "collextpuf"},
    "hiding": {"cpuf", "extpuf", "collextpuf"},
    "extraction": {"extpuf", "collextpuf"},
}


@pytest.mark.parametrize("experiment", sorted(SUPPORTED))
@pytest.mark.parametrize("protocol", PROTOCOL_TABLE)
def test_protocol_table_support_matrix(protocol, experiment):
    senders = [s.strategy_id for s in zoo()
               if s.role == "sender" and s.protocol == protocol]
    adversary = {"binding": senders[0] if senders else "honest",
                 "extraction": "all-senders"}.get(experiment, "honest")
    cfg = ExperimentConfig(experiment=experiment, protocol=protocol,
                           adversary=adversary, n=8, k=1, n_strings=2, trials=1,
                           seed=1)
    if protocol in SUPPORTED[experiment]:
        assert run_experiment(cfg).trials == 1
    else:
        with pytest.raises(ConfigError) as err:
            run_experiment(cfg)
        assert err.value.path == "protocol"


def test_completeness_experiment_and_determinism():
    cfg = ExperimentConfig(experiment="completeness", protocol="extpuf",
                           n=8, k=2, trials=6, seed=9)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first.successes == 6
    assert first.to_json() == second.to_json()
    other = run_experiment(ExperimentConfig(
        experiment="completeness", protocol="extpuf", n=8, k=2, trials=6, seed=10))
    assert other.successes == 6  # different seed, same verdict


def test_costs_experiment():
    report = run_experiment(ExperimentConfig(
        experiment="costs", protocol="extpuf", n=8, k=2, trials=1, seed=1))
    assert report.details["measured"] == [2, 2]
    assert report.details["passed"]


@pytest.mark.parametrize("protocol,counts", [("cpuf", [1, 1]),
                                             ("original-extpuf", [3, 3])])
def test_costs_checks_the_tokens_of_the_protocols_without_channels(protocol, counts):
    report = run_experiment(ExperimentConfig(
        experiment="costs", protocol=protocol, n=8, trials=1, seed=1))
    assert report.details["expected"] == report.details["measured"] == counts
    assert report.details["passed"]


def test_costs_fails_when_a_run_differs_from_the_table(monkeypatch):
    class SpareTokenSender(CpufSender):
        def setup(self):
            self.api.create("cpuf/spare", self.params.pair.puf)
            return super().setup()

    entry = PROTOCOL_TABLE["cpuf"]
    monkeypatch.setitem(PROTOCOL_TABLE, "cpuf", replace(
        entry, run=lambda p, values, seed, **kw: entry.run(
            p, values, seed, sender_factory=SpareTokenSender, **kw)))
    report = run_experiment(ExperimentConfig(
        experiment="costs", protocol="cpuf", n=8, trials=1, seed=1))
    assert report.details["measured"] == [2, 1]
    assert report.details["expected"] == [1, 1]
    assert report.details["honest_run_accepted"] and not report.details["passed"]


@pytest.mark.parametrize("mode,tokens", [("collective", 4), ("per-string", 8 * 4 + 2)])
def test_blob_equalities_runs_the_configured_channel_mode(mode, tokens):
    cfg = ExperimentConfig(experiment="completeness", protocol="blob-equalities",
                           mode=mode, n=4, trials=1, seed=1)
    entry = PROTOCOL_TABLE["blob-equalities"]
    out = entry.run(entry.params(cfg), [1], 5)
    resources = count_resources(out.session.log)
    assert out.committed
    assert (resources["pufs_created"], resources["exchange_phases"]) == (tokens, tokens)


def test_lemmas_experiment():
    report = run_experiment(ExperimentConfig(
        experiment="lemmas", trials=100, seed=2, extras={"max_support": 5}))
    assert report.details["passed"]
    assert report.details["tolerance"] == 0


def test_props_experiments_small():
    tq = run_experiment(ExperimentConfig(experiment="props-tq", n=12, trials=60,
                                         seed=3))
    assert tq.details["passed"]
    cq = run_experiment(ExperimentConfig(experiment="props-cq", n=8, trials=200,
                                         seed=4))
    assert cq.details["passed"]
    ind = run_experiment(ExperimentConfig(experiment="props-indist", n=12,
                                          trials=400, seed=5))
    assert ind.details["advantage"] <= 0.05
    crp = run_experiment(ExperimentConfig(experiment="props-crp", n=12,
                                          trials=200, seed=6))
    assert crp.details["passed"]


# sha256 of report.to_json() for the token-family games at fixed seeds.
# tq and crp were taken while the games still lived in puf.py; cq and
# indist were re-taken when each game trial got its own seeded stream,
# which changes what those two games sample
SEEDED_GAMES = {
    "cq-n8": dict(experiment="props-cq", n=8, trials=200, seed=4),
    "cq-n12": dict(experiment="props-cq", n=12, trials=200, seed=4),
    "cq-n6-queries3": dict(experiment="props-cq", n=6, trials=150, seed=9,
                           extras={"queries": 3}),
    "tq": dict(experiment="props-tq", n=12, trials=100, seed=3),
    "indist": dict(experiment="props-indist", n=12, trials=200, seed=5),
    "crp": dict(experiment="props-crp", n=12, trials=100, seed=6),
}
GAME_REPORT_SHA256 = {
    "cq-n8": "405208c5d6881d0f6bd27a924c587e5eccdfc2c986b25d8781feba2c66274257",
    "cq-n12": "35be95826d78d1767d27b0f29e87cd9e2cf75d760c2eaa4c6040de6571295f1e",
    "cq-n6-queries3": "6385dba3675cae0004230573cf37ac708ae299b7b61d36a68870669836cb09de",
    "tq": "008ff95546ed0441df749b24adc204de1814bbfc5481cefc6485c9b0f46a6afc",
    "indist": "69db48979257550f284fe0065fcfdecac1f0b16c12b5a6bbf32df0f6c7344af7",
    "crp": "18caddbbf74bb2e0efdf17102b78ca6e8d437b0617402f67a8dc86fb16af5051",
}


@pytest.mark.parametrize("game", sorted(SEEDED_GAMES))
def test_seeded_game_reports_are_pinned(game):
    report = run_experiment(ExperimentConfig(**SEEDED_GAMES[game]))
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == GAME_REPORT_SHA256[game]


# sha256 of report.to_json() for the compiled commitment's reports, taken
# before the channel table: moving the channel mode into the channel
# classes must leave every report byte-identical.  The uc-sim digests were
# re-taken when one-bit channel strings got masks of at least 24 bits
SEEDED_COMPILER_REPORTS = {
    "completeness-uccompiler": dict(experiment="completeness", protocol="uccompiler",
                                    n=6, trials=20, seed=2),
    "completeness-uccompiler-per-string": dict(
        experiment="completeness", protocol="uccompiler", mode="per-string", n=3,
        trials=10, seed=2),
    "completeness-blob-equalities": dict(experiment="completeness",
                                         protocol="blob-equalities", n=6, trials=20,
                                         seed=2),
    "costs-uccompiler": dict(experiment="costs", protocol="uccompiler", n=8, trials=1,
                             seed=2),
    "costs-uccompiler-per-string": dict(experiment="costs", protocol="uccompiler",
                                        mode="per-string", n=4, trials=1, seed=2),
    "uc-sim-receiver": dict(experiment="uc-sim", case="receiver", n=6, trials=40,
                            seed=2),
    "uc-sim-e-guessing-sender": dict(experiment="uc-sim", case="sender",
                                     adversary="e-guessing-sender", n=4, trials=40,
                                     seed=2),
}
COMPILER_REPORT_SHA256 = {
    "completeness-uccompiler":
        "9cf010dcca0ae46333b8549e5d3245863bf44d7f51c0d7804896fcd80bcf3cf9",
    "completeness-uccompiler-per-string":
        "0078a020556e29047cba2a35918cd40bb09c85a7029eca70c4c6d9f3adb3ab4b",
    "completeness-blob-equalities":
        "f6daa4988cf2dde6b5dd86266c0d4c3f9ec930705c17be211b0f7bd8ff73eea1",
    "costs-uccompiler":
        "f2465a54653668336be8eed5aff8f0a0407125e44dff1dda5f03578d51c680f6",
    "costs-uccompiler-per-string":
        "bce7753aa7ed974a152597b8b5b167d3a1184ec7424abe660790ed68aebc5c80",
    "uc-sim-receiver":
        "31cae738e4c2000643e67e1da7dc1e9f95dd89d5c7a84b30a6c3444ec14b33f0",
    "uc-sim-e-guessing-sender":
        "ed2cff4329db06b0efea55d5325f90ec8f05cd4a04dbbf5bc04c6c3e471b6277",
}


@pytest.mark.parametrize("case", sorted(SEEDED_COMPILER_REPORTS))
def test_seeded_compiler_reports_are_pinned(case):
    report = run_experiment(ExperimentConfig(**SEEDED_COMPILER_REPORTS[case]))
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == COMPILER_REPORT_SHA256[case]


def test_e_guessing_sender_meets_the_simulator_only_abort():
    # the sender guesses every challenge bit with probability 2^-n; the
    # simulator must then see the ambiguous blobs and abort
    report = run_experiment(ExperimentConfig(
        experiment="uc-sim", case="sender", adversary="e-guessing-sender", n=4,
        trials=100, seed=3))
    assert report.details["sim_ambiguous_abort_rate"] > 0
    assert report.details["abort_consistent"]


def test_fe_experiments_small():
    rt = run_experiment(ExperimentConfig(experiment="fe-roundtrip", n=8, k=2,
                                         trials=300, seed=7))
    assert rt.successes == 300
    unif = run_experiment(ExperimentConfig(experiment="fe-uniformity", n=8, k=2,
                                           trials=4000, seed=8))
    assert unif.details["feature_sd"] <= 0.05


def test_binding_experiment_small():
    report = run_experiment(ExperimentConfig(
        experiment="binding", protocol="cpuf", adversary="equivocating-open-cpuf",
        n=16, k=4, trials=30, seed=9))
    assert report.successes == 30 and report.details["passed"]


def test_extraction_experiment_small():
    report = run_experiment(ExperimentConfig(
        experiment="extraction", protocol="extpuf", adversary="all-senders",
        n=16, k=2, trials=5, seed=10))
    assert report.details["passed"]


def test_hiding_experiment_small():
    report = run_experiment(ExperimentConfig(
        experiment="hiding", protocol="cpuf", n=16, k=2, trials=400, seed=11))
    assert report.details["advantage"] <= 0.1  # loose at this sample size
