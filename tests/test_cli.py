import json
from dataclasses import fields, replace
from pathlib import Path

import pytest
import yaml

from pufcommit.harness.cli import EXIT_ASSERT, EXIT_CONFIG, EXIT_OK, main
from pufcommit.harness.config import ExperimentConfig
from pufcommit.harness.experiments import PROTOCOL_TABLE
from pufcommit.protocols import run_uccompiler


def test_demo_runs(capsys):
    code = main(["demo", "extpuf", "--n", "8", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "transcript:" in out and "exchange-phase" in out


def test_demo_runs_the_requested_k(capsys):
    code = main(["demo", "cpuf", "--k", "9", "--n", "8", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "'value': '000000000'" in out


def test_attack_subcommand(capsys):
    code = main(["attack", "original-extpuf", "--trials", "5", "--n", "8",
                 "--seed", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "reproduced" in out and "5/5" in out


def test_costs_subcommand(capsys):
    code = main(["costs", "uccompiler", "--n", "6", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "4 / 4" in out


def test_costs_rejects_a_trial_count_it_would_ignore(capsys):
    for trials in ("5", "0"):
        assert main(["costs", "cpuf", "--n", "8", "--trials", trials]) == EXIT_CONFIG
        assert "trials:" in capsys.readouterr().err
    assert main(["costs", "cpuf", "--n", "8", "--trials", "1"]) == EXIT_OK


def test_costs_config_runs_exactly_one_trial(tmp_path: Path, capsys):
    cfg = tmp_path / "costs.yaml"
    for trials_line, code in (("trials: 5\n", EXIT_CONFIG), ("", EXIT_CONFIG),
                              ("trials: 1\n", EXIT_OK)):
        cfg.write_text("version: 1\nexperiment: costs\nprotocol: cpuf\nn: 8\n"
                       + trials_line)
        assert main(["experiment", str(cfg)]) == code
        err = capsys.readouterr().err
        if code == EXIT_CONFIG:
            assert "trials:" in err and "set trials: 1" in err
    # the flag overrides the file, and is held to the same rule
    assert main(["experiment", str(cfg), "--trials", "3"]) == EXIT_CONFIG
    assert "set trials: 1" in capsys.readouterr().err


def test_a_flag_can_make_a_config_file_valid(tmp_path: Path, capsys):
    # the file is parsed alone and validated once the flags have won
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("version: 1\nexperiment: completeness\nprotocol: cpuf\nn: 8\nk: 2\n"
                   "trials: 0\n")
    assert main(["experiment", str(cfg), "--trials", "3"]) == EXIT_OK
    assert "trials     : 3\n" in capsys.readouterr().out
    cfg.write_text("version: 1\nexperiment: costs\nprotocol: cpuf\nn: 8\n")
    assert main(["experiment", str(cfg), "--trials", "1"]) == EXIT_OK


def test_the_compiler_runs_one_channel_mode(tmp_path: Path, capsys):
    # no flag, config field or keyword picks another channel mode
    assert "mode" not in {f.name for f in fields(ExperimentConfig)}
    with pytest.raises(SystemExit) as exc:
        main(["costs", "uccompiler", "--mode", "collective"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --mode" in capsys.readouterr().err
    cfg = tmp_path / "mode.yaml"
    cfg.write_text("version: 1\nexperiment: costs\nprotocol: uccompiler\nmode: collective\n"
                   "trials: 1\n")
    assert main(["experiment", str(cfg)]) == EXIT_CONFIG
    assert "mode: costs reads no such config key" in capsys.readouterr().err
    assert run_uccompiler(3, 1, seed=5, mode="collective").accepted
    with pytest.raises(ValueError, match="unknown channel mode 'bulk'"):
        run_uccompiler(3, 1, seed=5, mode="bulk")


def test_lemmas_subcommand(capsys):
    assert main(["lemmas", "--trials", "50", "--seed", "5"]) == EXIT_OK
    assert "experiment : entropy-lemmas\n" in capsys.readouterr().out


def test_props_subcommand(capsys):
    assert main(["props", "tq", "--trials", "40", "--n", "12"]) == EXIT_OK
    assert "experiment : props-tq\n" in capsys.readouterr().out
    assert main(["props", "cq", "--trials", "40"]) == EXIT_OK
    assert "experiment : close-query\n" in capsys.readouterr().out


def test_jobs_on_a_serial_experiment_exits_2(tmp_path: Path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("version: 1\nexperiment: costs\nprotocol: cpuf\nn: 8\ntrials: 1\n"
                   "jobs: 3\n")
    assert main(["experiment", str(cfg)]) == EXIT_CONFIG
    assert "jobs:" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("n", "abc"),
    ("seed", 1.5),
    ("trials", True),
    ("protocol", 5),
    ("trails", 3),                  # a misspelt field is no extra
    ("queries", 4),                 # an extra that only props-cq reads
    ("extras", {"queries": 4}),     # extras cannot be set by name
])
def test_experiment_config_of_the_wrong_type_or_key_exits_2(tmp_path, capsys,
                                                            key, value):
    fields = {"version": 1, "experiment": "completeness", "protocol": "cpuf",
              "n": 8, "k": 2, "trials": 2, key: value}
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(fields))
    assert main(["experiment", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {key}:")


def test_experiment_subcommand_with_report(tmp_path: Path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(
        "version: 1\nexperiment: completeness\nprotocol: cpuf\n"
        "n: 8\nk: 2\ntrials: 4\nseed: 6\n"
    )
    out_path = tmp_path / "report.json"
    code = main(["experiment", str(cfg), "--out", str(out_path)])
    assert code == EXIT_OK
    data = json.loads(out_path.read_text())
    assert data["successes"] == 4


def test_config_error_exit_code(tmp_path: Path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("version: 1\nexperiment: nonsense\n")
    assert main(["experiment", str(cfg)]) == EXIT_CONFIG
    assert main(["experiment", str(tmp_path / "missing.yaml")]) == EXIT_CONFIG
    cfg.write_text(
        "version: 1\nexperiment: extraction\nprotocol: blob-equalities\n"
        "adversary: all-senders\nn: 8\nk: 2\ntrials: 5\n"
    )
    assert main(["experiment", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("seed", ["-1", str(1 << 128)])
def test_a_seed_derive_seed_cannot_key_exits_2(capsys, seed):
    assert main(["demo", "cpuf", "--seed", seed, "--trials", "2"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: seed:")


@pytest.mark.parametrize("experiment,protocol,adversary", [
    ("binding", "cpuf", None),                              # the default, honest
    ("binding", "extpuf", "stateful-probe-receiver"),       # not a sender
    ("binding", "collextpuf", "equivocating-open-extpuf"),  # another protocol's
    ("extraction", "extpuf", None),
    ("completeness", "cpuf", "honest-sender"),              # honest parties only
    ("hiding", "extpuf", "equivocating-open-extpuf"),
    ("costs", "collextpuf", "never-query-collective"),
])
def test_adversary_outside_the_protocols_senders_is_a_config_error(
        tmp_path: Path, capsys, experiment, protocol, adversary):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(
        f"version: 1\nexperiment: {experiment}\nprotocol: {protocol}\n"
        + (f"adversary: {adversary}\n" if adversary else "")
        + "n: 8\nk: 2\ntrials: 2\n"
    )
    assert main(["experiment", str(cfg)]) == EXIT_CONFIG
    assert "adversary" in capsys.readouterr().err


@pytest.mark.parametrize("case,adversary", [
    ("sender", "all-senders"),            # extraction only
    ("sender", "honest-sender"),          # a revised-flow sender, not the compiler's
    ("receiver", "e-guessing-sender"),    # the receiver case has no sender strategy
])
def test_ucsim_adversary_outside_its_case_is_a_config_error(
        tmp_path: Path, capsys, case, adversary):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(
        f"version: 1\nexperiment: uc-sim\ncase: {case}\nadversary: {adversary}\n"
        "n: 8\ntrials: 2\n"
    )
    assert main(["experiment", str(cfg)]) == EXIT_CONFIG
    assert "adversary" in capsys.readouterr().err


def test_assertion_failure_exit_code(monkeypatch):
    # a cost table that expects a second token fails the honest cpuf run,
    # which creates one token in one exchange phase
    monkeypatch.setitem(PROTOCOL_TABLE, "cpuf",
                        replace(PROTOCOL_TABLE["cpuf"], cost=lambda cfg: (2, 2)))
    assert main(["costs", "cpuf", "--n", "8"]) == EXIT_ASSERT


@pytest.mark.parametrize("case", ["receiver", "sender"])
def test_ucsim_passes_at_the_default_n(case):
    # one-bit channel strings are masked by at least 24 bits, so the
    # collective extractor does not confuse indices at n = 8
    assert main(["uc-sim", case, "--trials", "60"]) == EXIT_OK


@pytest.mark.parametrize("protocol", ["cpuf", "extpuf", "collextpuf", "original-extpuf"])
def test_mode_on_a_protocol_without_channels_exits_2(tmp_path: Path, capsys, protocol):
    with pytest.raises(SystemExit) as exc:
        main(["costs", protocol, "--n", "8", "--mode", "per-string"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --mode" in capsys.readouterr().err
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(f"version: 1\nexperiment: completeness\nprotocol: {protocol}\n"
                   "mode: per-string\nn: 8\ntrials: 2\n")
    assert main(["experiment", str(cfg)]) == EXIT_CONFIG
    assert "mode: completeness reads no such config key" in capsys.readouterr().err


def test_ucsim_subcommand_small():
    assert main(["uc-sim", "receiver", "--trials", "8", "--n", "16",
                 "--seed", "8"]) == EXIT_OK


@pytest.mark.parametrize("argv,config", [
    (["lemmas", "--trials", "5", "--max-support", "9"], None),
    (["lemmas", "--trials", "5", "--max-support", "1"], None),
    (None, "version: 1\nexperiment: lemmas\ntrials: 5\nmax_support: 12\n"),
    (None, "version: 1\nexperiment: lemmas\ntrials: 5\nmax_support: many\n"),
], ids=["flag-9", "flag-1", "config-12", "config-string"])
def test_lemmas_support_out_of_range_is_a_config_error(tmp_path: Path, capsys,
                                                       argv, config):
    if config is not None:
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(config)
        argv = ["experiment", str(cfg)]
    assert main(argv) == EXIT_CONFIG
    assert "max_support" in capsys.readouterr().err


@pytest.mark.parametrize("queries", ["0", "-3", "many"])
def test_close_query_count_must_be_positive(tmp_path: Path, capsys, queries):
    # no queries never land near the challenge: the gate would pass vacuously
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(f"version: 1\nexperiment: props-cq\nn: 8\ntrials: 5\n"
                   f"queries: {queries}\n")
    assert main(["experiment", str(cfg)]) == EXIT_CONFIG
    assert "queries" in capsys.readouterr().err


HIDING_CPUF = "version: 1\nexperiment: hiding\nprotocol: cpuf\nn: 8\ntrials: 40\n"


def _experiment_report(tmp_path: Path, text: str, *flags: str) -> dict:
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(text)
    out = tmp_path / "report.json"
    main(["experiment", str(cfg), "--out", str(out), *flags])
    return json.loads(out.read_text())


def test_experiment_seed_flag_overrides_the_config_even_at_one(tmp_path: Path, capsys):
    overridden = _experiment_report(tmp_path, HIDING_CPUF + "seed: 5\n", "--seed", "1")
    at_one = _experiment_report(tmp_path, HIDING_CPUF + "seed: 1\n")
    at_five = _experiment_report(tmp_path, HIDING_CPUF + "seed: 5\n")
    assert overridden == at_one
    assert overridden["successes"] != at_five["successes"]


@pytest.mark.parametrize("argv,path", [
    (["experiment", "{cfg}", "--trials", "0"], "trials"),
    (["experiment", "{cfg}", "--n", "0"], "n"),
    (["experiment", "{cfg}", "--jobs", "0"], "jobs"),
    (["lemmas", "--trials", "0"], "trials"),
    (["uc-sim", "receiver", "--n", "0"], "n"),
], ids=["experiment-trials", "experiment-n", "experiment-jobs", "lemmas-trials",
        "uc-sim-n"])
def test_zero_override_reaches_validation(tmp_path: Path, capsys, argv, path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("version: 1\nexperiment: completeness\nprotocol: cpuf\n"
                   "n: 8\nk: 2\ntrials: 3\n")
    assert main([a.format(cfg=cfg) for a in argv]) == EXIT_CONFIG
    assert f"{path}:" in capsys.readouterr().err
