import hashlib
import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from dataclasses import asdict, replace

import pytest

from pufcommit.adversaries import zoo
from pufcommit.harness import experiments
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
    # mode is no field, so a config naming it is refused as an extra key
    pytest.param("extras", {"mode": "bulk"}, "mode", id="mode-bulk-mode"),
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


def test_blob_equalities_runs_the_compiler_channels():
    cfg = ExperimentConfig(experiment="completeness", protocol="blob-equalities",
                           n=4, trials=1, seed=1)
    entry = PROTOCOL_TABLE["blob-equalities"]
    out = entry.run(entry.params(cfg), [1], 5)
    resources = count_resources(out.session.log)
    assert out.committed
    assert (resources["pufs_created"], resources["exchange_phases"]) == (4, 4)


# what a compiler run with one single-string instance per committed string
# spent, measured on live runs before that channel mode was deleted
LIVE_PER_STRING = {2: (18, 18, 54), 3: (26, 26, 78), 4: (34, 34, 102), 8: (66, 66, 198),
                   16: (130, 130, 390), 64: (514, 514, 1542)}


@pytest.mark.parametrize("n", sorted(LIVE_PER_STRING))
def test_costs_gives_the_per_string_counts_by_the_sum_rule(n):
    report = run_experiment(ExperimentConfig(
        experiment="costs", protocol="uccompiler", n=n, trials=1, seed=2))
    assert report.details["measured"] == [4, 4] and report.details["passed"]
    per_string = report.details["per_string"]
    counts = (per_string["pufs_created"], per_string["exchange_phases"],
              per_string["queries"])
    assert counts == LIVE_PER_STRING[n]
    # 4n + 1 instances (the challenge string and 4n shares), each with 2
    # tokens, 2 exchange phases and 6 evaluations once it opens
    assert counts == (8 * n + 2, 8 * n + 2, 24 * n + 6)


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


# sha256 of report.to_json() for every experiment that no other pin covers,
# taken while four experiments still built their reports by hand: one row
# per experiment must leave every report byte-identical.  Completeness
# reports record neither their seed nor their widths, so their pins check
# the tally only
SEEDED_REPORTS = {
    "completeness-cpuf": dict(experiment="completeness", protocol="cpuf", n=8, k=2,
                              trials=6, seed=1),
    "completeness-extpuf": dict(experiment="completeness", protocol="extpuf", n=8, k=2,
                                trials=6, seed=1),
    "completeness-collextpuf": dict(experiment="completeness", protocol="collextpuf", n=8,
                                    k=2, n_strings=3, trials=6, seed=1),
    "completeness-original-extpuf": dict(experiment="completeness",
                                         protocol="original-extpuf", n=8, k=1, trials=6,
                                         seed=1),
    "attack-original": dict(experiment="attack-original", n=16, k=1, trials=10, seed=7),
    "attack-neutralized": dict(experiment="attack-neutralized", n=8, k=2, trials=6, seed=7),
    "binding-cpuf": dict(experiment="binding", protocol="cpuf",
                         adversary="equivocating-open-cpuf", n=8, k=2, trials=6, seed=4),
    "hiding-extpuf": dict(experiment="hiding", protocol="extpuf", n=8, k=2, trials=30,
                          seed=5),
    "extraction-extpuf": dict(experiment="extraction", protocol="extpuf",
                              adversary="all-senders", n=8, k=2, trials=6, seed=6),
    "costs-cpuf": dict(experiment="costs", protocol="cpuf", n=8, trials=1),
    "lemmas": dict(experiment="lemmas", trials=50, seed=9, extras={"max_support": 5}),
    "uc-sim-sender": dict(experiment="uc-sim", case="sender", n=6, trials=20, seed=8),
    "uc-sim-alternating-blob-sender": dict(experiment="uc-sim", case="sender",
                                           adversary="alternating-blob-sender", n=6,
                                           trials=20, seed=8),
    "fe-roundtrip": dict(experiment="fe-roundtrip", n=8, k=2, trials=30, seed=11),
    "fe-uniformity": dict(experiment="fe-uniformity", n=8, k=2, trials=200, seed=11),
}
REPORT_SHA256 = {
    "completeness-cpuf":
        "df66ba2c9fb4140cb81c81570296ca117ace2832f4fef5a3a61ec6d71867c8e3",
    "completeness-extpuf":
        "1abc252130bad32eba1c8089df0e3a3a08d004fbaee13600bad3e4b6e4619ac2",
    "completeness-collextpuf":
        "4a0f0d88c763e24de38f04bff4cc8803e76c259cd5b9a9826d69c3e9139e8890",
    "completeness-original-extpuf":
        "22178cbee29ade41473756a46fdb06b8c4d2d8a40220b9f7b58f928457c3a41f",
    "attack-original":
        "9562ff95b99a2b01e68b5bdf19ee093b074ed45c03102a37d5f327d1e1864dc7",
    "attack-neutralized":
        "3d0489ad9fd03daa5ee1395d1be709b8b94c020ded36f067aa9036055cd43071",
    "binding-cpuf":
        "3e736a6fbcfce1ec84c6e53c66285708c30b69b1de3d688fd5d629142a13002f",
    "hiding-extpuf":
        "e29a6b7915bf4a224082a1e64cd6ef365ab1f7a182eb31fe9133d39b6f13fb98",
    "extraction-extpuf":
        "c601289b31547b3ce0e2f9fb80bc12221bda597d1a254c093c9a81e8b8234dfd",
    "costs-cpuf":
        "d51342e025e98862fce4b89b3bb452e1c74fe4dd9f1c1631eb815e186488926d",
    "lemmas":
        "56f888584a348823ed01388437d38080a4a8a7e6a292d8523deb50a322342c0e",
    "uc-sim-sender":
        "c86e31e24fb4d2045ea1104310169fc7e030a23aa445bc75ba2974e947ee4628",
    "uc-sim-alternating-blob-sender":
        "22d0fb8c310f761755a1c845d9ddeab9575bee40f12f18039eb14ac0962d1a49",
    "fe-roundtrip":
        "d9dbcb490fd01296824b48fb0f0437fc21d84db16d377461fd88c1cab5f05ce9",
    "fe-uniformity":
        "e793b2f605555f61ba4f93f0b814f566a24211712d4b64b574693df5c026fb34",
}


@pytest.mark.parametrize("case", sorted(SEEDED_REPORTS))
def test_seeded_experiment_reports_are_pinned(case):
    report = run_experiment(ExperimentConfig(**SEEDED_REPORTS[case]))
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == REPORT_SHA256[case]


def test_missed_probe_substitution_is_not_an_order_violation():
    # at this seed one trial's decoy probe passes the 8-bit return
    # fingerprint (a 2^-8 event), so that run commits with the decoy; the
    # gate still fails, but for the right reason
    report = run_experiment(ExperimentConfig(experiment="attack-neutralized",
                                             n=8, k=2, trials=6, seed=9))
    assert report.aborts_by_step == {"substitution-missed": 1}
    assert report.details["passed"] is False


# every config the suite expects to be refused, with the path it is refused on
REFUSED = {
    "binding-honest": (dict(experiment="binding", protocol="cpuf"), "adversary"),
    "binding-a-receiver": (dict(experiment="binding", protocol="extpuf",
                                adversary="stateful-probe-receiver"), "adversary"),
    "binding-another-protocols-sender": (dict(experiment="binding", protocol="collextpuf",
                                              adversary="equivocating-open-extpuf"),
                                         "adversary"),
    "extraction-honest": (dict(experiment="extraction", protocol="extpuf"), "adversary"),
    "completeness-a-sender": (dict(experiment="completeness", protocol="cpuf",
                                   adversary="honest-sender"), "adversary"),
    "hiding-a-sender": (dict(experiment="hiding", protocol="extpuf",
                             adversary="equivocating-open-extpuf"), "adversary"),
    "costs-a-sender": (dict(experiment="costs", protocol="collextpuf",
                            adversary="never-query-collective"), "adversary"),
    "uc-sim-sender-all-senders": (dict(experiment="uc-sim", case="sender",
                                       adversary="all-senders"), "adversary"),
    "uc-sim-sender-revised-flow-sender": (dict(experiment="uc-sim", case="sender",
                                               adversary="honest-sender"), "adversary"),
    "uc-sim-receiver-a-sender": (dict(experiment="uc-sim", case="receiver",
                                      adversary="e-guessing-sender"), "adversary"),
    # mode is no field, so a config naming it is refused as an extra key
    "uc-sim-per-string": (dict(experiment="uc-sim", extras={"mode": "per-string"}),
                          "mode"),
    **{f"per-string-{protocol}": (dict(experiment="completeness", protocol=protocol,
                                       extras={"mode": "per-string"}), "mode")
       for protocol in ("cpuf", "extpuf", "collextpuf", "original-extpuf")},
    **{f"max-support-{value}": (dict(experiment="lemmas", extras={"max_support": value}),
                                "max_support")
       for value in (9, 1, 12, "many")},
    **{f"queries-{value}": (dict(experiment="props-cq", extras={"queries": value}),
                            "queries")
       for value in (0, -3, "many")},
    "costs-trials": (dict(experiment="costs", protocol="cpuf", trials=5), "trials"),
    "costs-jobs": (dict(experiment="costs", protocol="cpuf", trials=1, jobs=3), "jobs"),
    "extraction-blob-equalities": (dict(experiment="extraction", protocol="blob-equalities",
                                        adversary="all-senders"), "protocol"),
    # derive_seed cannot key a seed outside 16 unsigned bytes
    "seed-negative": (dict(experiment="completeness", protocol="cpuf", seed=-1), "seed"),
    "seed-2^128": (dict(experiment="completeness", protocol="cpuf", seed=1 << 128), "seed"),
    # 8 balls of radius d_min - 1 around the forger's queries can cover {0,1}^5
    "props-crp-n-5": (dict(experiment="props-crp", n=5), "n"),
}


def _refused(case, **fields):
    config, path = REFUSED[case]
    return ExperimentConfig(**{**dict(n=8, k=2, trials=2), **config, **fields}), path


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_validate_alone_refuses_every_refused_config(case):
    cfg, path = _refused(case)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert err.value.path == path


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_refused_config_starts_no_worker(monkeypatch, case):
    # a config refused inside fork workers could hang the pool's exit
    def no_pool(method):
        raise AssertionError("a worker pool started for a refused config")

    monkeypatch.setattr(experiments, "get_context", no_pool)
    cfg, path = _refused(case, jobs=2)
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg)
    assert err.value.path == path


def test_props_crp_refuses_an_n_where_the_queries_can_cover_every_challenge():
    # _crp_trial redraws its challenge until it lies d_min or more from all
    # the forger's queries; where their balls can cover {0,1}^n it may never stop
    for n in range(2, 6):
        with pytest.raises(ConfigError, match=r"8\*neighborhood_size\(n, d_min\) < 2\^n") as err:
            ExperimentConfig(experiment="props-crp", n=n, trials=2).validate()
        assert err.value.path == "n"
    assert experiments.CRP_QUERIES == 8
    ExperimentConfig(experiment="props-crp", n=6, trials=2).validate()


def _least_accepted(experiment, **fields):
    """experiment's config at the least n >= 2 that validate accepts."""
    trials = 1 if experiment == "costs" else 2
    for n in range(2, 65):
        try:
            return ExperimentConfig(experiment=experiment, n=n, trials=trials,
                                    **fields).validate()
        except ConfigError:
            pass
    raise AssertionError(f"validate accepts {experiment} {fields} at no n")


def test_no_accepted_config_hangs():
    # every row once, with each protocol its entry lists, at the least n
    # validate accepts, where a trial that redraws forever shows first;
    # in a child process, so that a run that never ends fails the test
    configs = []
    for experiment in EXPERIMENTS:
        for protocol in [p for p, entry in PROTOCOL_TABLE.items()
                         if experiment in entry.experiments] or [None]:
            senders = [s.strategy_id for s in zoo()
                       if s.role == "sender" and s.protocol == protocol]
            adversary = {"binding": senders[0] if senders else "honest",
                         "extraction": "all-senders"}.get(experiment, "honest")
            configs.append(asdict(_least_accepted(experiment, protocol=protocol,
                                                  adversary=adversary)))
    code = ("import json, sys\n"
            "from pufcommit.harness.config import ExperimentConfig\n"
            "from pufcommit.harness.experiments import run_experiment\n"
            "for fields in json.load(sys.stdin):\n"
            "    print(fields['experiment'], fields['protocol'], fields['n'], flush=True)\n"
            "    run_experiment(ExperimentConfig(**fields))\n"
            "print('done')\n")
    src = str(Path(experiments.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    try:
        out = subprocess.run([sys.executable, "-c", code], input=json.dumps(configs), env=env,
                             check=True, capture_output=True, text=True, timeout=60).stdout
    except subprocess.TimeoutExpired as hung:
        pytest.fail(f"a run did not end in 60 s; the last line names it: {hung.stdout!r}")
    assert out.splitlines() == [f"{c['experiment']} {c['protocol']} {c['n']}"
                                for c in configs] + ["done"]


@pytest.mark.parametrize("trials, jobs, chunks", [(4, 8, 4), (9, 4, 3)])
def test_the_pool_has_one_worker_per_chunk(monkeypatch, trials, jobs, chunks):
    # trials split into ceil(trials / jobs)-sized chunks can leave fewer
    # chunks than jobs, and a worker with no chunk is a fork for nothing
    sizes = []

    class InProcessPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return list(map(fn, jobs))

    monkeypatch.setattr(experiments, "get_context",
                        lambda method: SimpleNamespace(Pool=InProcessPool))
    cfg = ExperimentConfig(experiment="lemmas", trials=trials, jobs=jobs)
    total = experiments._run_trials(cfg, lambda cfg, i: Counter(success=1, seen=i))
    assert sizes == [chunks]
    assert total == Counter(success=trials, seen=sum(range(trials)))


def test_a_trial_that_raises_in_a_worker_does_not_hang_the_pool():
    # imap_unordered let the pool's exit terminate it while its task handler
    # was still putting chunks; that could block forever on the queue's lock
    src = str(Path(experiments.__file__).resolve().parents[2])
    code = (
        "from pufcommit.harness.config import ExperimentConfig\n"
        "from pufcommit.harness.experiments import _run_trials\n"
        "def trial(cfg, i):\n"
        "    if i % 2 == 0:\n"
        "        raise ValueError(i)\n"
        "cfg = ExperimentConfig(experiment='lemmas', trials=8, jobs=2)\n"
        "for _ in range(50):\n"
        "    try:\n"
        "        _run_trials(cfg, trial)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('the trial error was lost')\n"
        "print('done')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "done\n"


# sha256 of report.to_json() for the compiled commitment's reports, taken
# before the channel table: moving the channel mode into the channel
# classes must leave every report byte-identical.  The uc-sim digests were
# re-taken when one-bit channel strings got masks of at least 24 bits;
# costs-uccompiler was re-taken when it gained the per-string counts of the
# sum rule and when each blob share opened once, and uc-sim-receiver when it
# dropped the two sender-only keys
SEEDED_COMPILER_REPORTS = {
    "completeness-uccompiler": dict(experiment="completeness", protocol="uccompiler",
                                    n=6, trials=20, seed=2),
    "completeness-blob-equalities": dict(experiment="completeness",
                                         protocol="blob-equalities", n=6, trials=20,
                                         seed=2),
    "costs-uccompiler": dict(experiment="costs", protocol="uccompiler", n=8, trials=1,
                             seed=2),
    "uc-sim-receiver": dict(experiment="uc-sim", case="receiver", n=6, trials=40,
                            seed=2),
    "uc-sim-e-guessing-sender": dict(experiment="uc-sim", case="sender",
                                     adversary="e-guessing-sender", n=4, trials=40,
                                     seed=2),
}
COMPILER_REPORT_SHA256 = {
    "completeness-uccompiler":
        "9cf010dcca0ae46333b8549e5d3245863bf44d7f51c0d7804896fcd80bcf3cf9",
    "completeness-blob-equalities":
        "f6daa4988cf2dde6b5dd86266c0d4c3f9ec930705c17be211b0f7bd8ff73eea1",
    "costs-uccompiler":
        "a50ace94a25a65ee7554c5d347ed7226602d4ad8a2725b03b00e2b034ffaf10c",
    "uc-sim-receiver":
        "107efcc6862036b79350c49cc1b67437904696d2db64ffb6af71c52c3d747107",
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
