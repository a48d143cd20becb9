"""Command-line front end.

Exit codes: 0 when every assertion of the invoked run held, 1 when an
assertion failed, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..bits import BitString
from ..report import ExperimentReport
from ..session import count_resources
from .config import ConfigError, ExperimentConfig, load_config
from .experiments import PROTOCOL_TABLE, run_experiment

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_CONFIG = 2


def _add_common(parser, trials=None, n=None, seed=1):
    parser.add_argument("--seed", type=int, default=seed, help="master seed")
    parser.add_argument("--trials", type=int, default=trials)
    parser.add_argument("--n", type=int, default=n, help="security parameter")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the canonical JSON report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pufcommit",
        description="Commitments from physically uncloneable tokens: protocol "
                    "demos, attack replays, and statistical experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="one annotated honest run of a protocol")
    p.add_argument("protocol", choices=PROTOCOL_TABLE)
    p.add_argument("--k", type=int, default=2)
    _add_common(p, trials=1, n=16)

    p = sub.add_parser("attack", help="replay the extraction break")
    p.add_argument("target", choices=["original-extpuf"])
    _add_common(p, trials=500, n=16)

    p = sub.add_parser("experiment", help="run a config file")
    p.add_argument("config", type=str)
    _add_common(p, seed=None)   # no override unless given
    p.add_argument("--jobs", type=int, default=None)

    p = sub.add_parser("uc-sim", help="real versus ideal world comparison")
    p.add_argument("case", choices=["receiver", "sender"])
    _add_common(p, trials=2000, n=8)

    p = sub.add_parser("costs", help="token and exchange-phase accounting")
    p.add_argument("protocol", choices=PROTOCOL_TABLE)
    p.add_argument("--k", type=int, default=1)
    _add_common(p, trials=1, n=16)

    p = sub.add_parser("lemmas", help="entropy inequality suite")
    _add_common(p, trials=10000)
    p.add_argument("--max-support", type=int, default=8)

    p = sub.add_parser("props", help="token-family property experiments")
    p.add_argument("property", choices=["cq", "indist", "crp", "tq"])
    _add_common(p, trials=1000, n=8)

    return parser


def _finish(report: ExperimentReport, out: str | None) -> int:
    print(report.summary())
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.to_json() + "\n")
        print(f"report written to {path}")
    return EXIT_OK if report.details["passed"] else EXIT_ASSERT


def _transcript(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    """Show one annotated honest transcript alongside the tally."""
    entry = PROTOCOL_TABLE[cfg.protocol]
    if not entry.transcript:
        return
    values = [BitString.zeros(cfg.k)] * entry.strings(cfg)
    log = entry.run(entry.params(cfg), values, cfg.seed).session.log
    print("\ntranscript:")
    for rec in log.records:
        if rec.kind in ("phase", "protocol-msg", "exchange-phase", "outcome"):
            print(f"  [{rec.step:3d}] {rec.kind:<14} {rec.sender or '':<3} "
                  f"{rec.note or rec.payload}")
    print(f"  resources: {count_resources(log)}")
    print()


def _attack_verdict(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    verdict = "reproduced" if report.successes == report.trials else "NOT reproduced"
    print(f"extraction break {verdict}: extractor gave up while the "
          f"decommitment to 0 was accepted in "
          f"{report.successes}/{report.trials} trials")


def _costs_line(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    measured = report.details["measured"]
    print(f"tokens created / exchange phases: {measured[0]} / {measured[1]}")
    per_string = report.details.get("per_string")
    if per_string:
        print(f"  one instance per string, by the sum rule: "
              f"{per_string['pufs_created']} / {per_string['exchange_phases']}")


def _flags(args) -> dict:
    """The common flags that are set, by the user or the subcommand's default."""
    return {key: getattr(args, key) for key in ("n", "trials", "seed", "jobs")
            if getattr(args, key, None) is not None}


@dataclass(frozen=True)
class _Command:
    preset: Callable   # args -> config fields; they win over the common flags
    show: Callable = lambda cfg, report: None   # printed before the summary


_COMMANDS = {
    "demo": _Command(
        lambda a: dict(experiment="completeness", protocol=a.protocol, k=a.k,
                       n_strings=2, name=f"demo/{a.protocol}"),
        _transcript),
    "attack": _Command(
        lambda a: dict(experiment="attack-original", protocol=a.target,
                       adversary="ambiguous-query-attacker", k=1,
                       name=f"attack/{a.target}"),
        _attack_verdict),
    # a config file's own fields give way to the flags set on the command line
    "experiment": _Command(lambda a: dict(vars(load_config(a.config)), **_flags(a))),
    "uc-sim": _Command(
        lambda a: dict(experiment="uc-sim", case=a.case, name=f"uc-sim/{a.case}")),
    "costs": _Command(
        lambda a: dict(experiment="costs", protocol=a.protocol, k=a.k),
        _costs_line),
    "lemmas": _Command(
        lambda a: dict(experiment="lemmas", extras={"max_support": a.max_support})),
    "props": _Command(lambda a: dict(experiment=f"props-{a.property}")),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        cfg = ExperimentConfig(**{**_flags(args), **command.preset(args)})
        report = run_experiment(cfg)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    command.show(cfg, report)
    return _finish(report, args.out or cfg.out)


if __name__ == "__main__":
    raise SystemExit(main())
