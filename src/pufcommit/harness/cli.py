"""Command-line front end.

Exit codes: 0 when every assertion of the invoked run held, 1 when an
assertion failed, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..bits import BitString
from ..report import ExperimentReport
from ..session import count_resources
from .config import PROTOCOLS, ConfigError, ExperimentConfig, load_config

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_CONFIG = 2


def _add_common(parser, trials=None, n=None, seed=1):
    parser.add_argument("--seed", type=int, default=seed, help="master seed")
    parser.add_argument("--trials", type=int, default=trials)
    parser.add_argument("--n", type=int, default=n, help="security parameter")
    parser.add_argument("--out", type=str, default=None,
                        help="write the canonical report (and event log for "
                             "single runs) under this path prefix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pufcommit",
        description="Commitments from physically uncloneable tokens: protocol "
                    "demos, attack replays, and statistical experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="one annotated honest run of a protocol")
    p.add_argument("protocol", choices=PROTOCOLS)
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
    p.add_argument("protocol", choices=PROTOCOLS)
    p.add_argument("--mode", choices=["collective", "per-string"],
                   default="collective")
    p.add_argument("--k", type=int, default=1)
    _add_common(p, trials=1, n=16)

    p = sub.add_parser("lemmas", help="entropy inequality suite")
    _add_common(p, trials=10000)
    p.add_argument("--max-support", type=int, default=8)

    p = sub.add_parser("props", help="token-family property experiments")
    p.add_argument("property", choices=["cq", "indist", "crp", "tq"])
    _add_common(p, trials=1000, n=8)

    return parser


def _emit(report: ExperimentReport, out: str | None) -> None:
    print(report.summary())
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.to_json() + "\n")
        print(f"report written to {path}")


def _finish(report: ExperimentReport, out: str | None) -> int:
    _emit(report, out)
    passed = report.details.get("passed")
    if passed is None:
        passed = report.successes == report.trials
    return EXIT_OK if passed else EXIT_ASSERT


def _demo(args) -> int:
    from .experiments import PROTOCOL_TABLE, run_experiment

    cfg = ExperimentConfig(
        experiment="completeness", protocol=args.protocol, n=args.n,
        k=args.k, n_strings=2, trials=args.trials, seed=args.seed,
        name=f"demo/{args.protocol}",
    )
    report = run_experiment(cfg)

    # show one annotated transcript alongside the tally
    entry = PROTOCOL_TABLE[args.protocol]
    if entry.transcript:
        values = [BitString.zeros(cfg.k)] * entry.strings(cfg)
        log = entry.run(entry.params(cfg), values, args.seed).session.log
        print("\ntranscript:")
        for rec in log.records:
            if rec.kind in ("phase", "protocol-msg", "exchange-phase", "outcome"):
                print(f"  [{rec.step:3d}] {rec.kind:<14} {rec.sender or '':<3} "
                      f"{rec.note or rec.payload}")
        print(f"  resources: {count_resources(log)}")
        print()
    return _finish(report, args.out)


def _attack(args) -> int:
    from .experiments import run_experiment

    cfg = ExperimentConfig(
        experiment="attack-original", protocol="original-extpuf",
        adversary="ambiguous-query-attacker",
        n=args.n, k=1, trials=args.trials, seed=args.seed,
        name="attack/original-extpuf",
    )
    report = run_experiment(cfg)
    ok = report.successes == report.trials
    verdict = "reproduced" if ok else "NOT reproduced"
    print(f"extraction break {verdict}: extractor gave up while the "
          f"decommitment to 0 was accepted in "
          f"{report.successes}/{report.trials} trials")
    return _finish(report, args.out)


def _experiment(args) -> int:
    from .experiments import run_experiment

    cfg = load_config(args.config)
    for key in ("trials", "n", "seed", "jobs"):
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    cfg.validate()
    report = run_experiment(cfg)
    return _finish(report, args.out or cfg.out)


def _ucsim(args) -> int:
    from .experiments import run_experiment

    cfg = ExperimentConfig(
        experiment="uc-sim", case=args.case, n=args.n,
        trials=args.trials, seed=args.seed,
        name=f"uc-sim/{args.case}",
    )
    return _finish(run_experiment(cfg), args.out)


def _costs(args) -> int:
    from .experiments import run_experiment

    cfg = ExperimentConfig(
        experiment="costs", protocol=args.protocol, mode=args.mode,
        n=args.n, k=args.k, trials=1, seed=args.seed,
        name=f"costs/{args.protocol}",
    )
    report = run_experiment(cfg)
    measured = report.details["measured"]
    print(f"tokens created / exchange phases: {measured[0]} / {measured[1]}")
    return _finish(report, args.out)


def _lemmas(args) -> int:
    from .experiments import run_experiment

    cfg = ExperimentConfig(
        experiment="lemmas", trials=args.trials, seed=args.seed,
        extras={"max_support": args.max_support}, name="lemmas",
    )
    return _finish(run_experiment(cfg), args.out)


def _props(args) -> int:
    from .experiments import run_experiment

    cfg = ExperimentConfig(
        experiment=f"props-{args.property}", n=args.n,
        trials=args.trials, seed=args.seed,
        name=f"props/{args.property}",
    )
    return _finish(run_experiment(cfg), args.out)


_COMMANDS = {
    "demo": _demo,
    "attack": _attack,
    "experiment": _experiment,
    "uc-sim": _ucsim,
    "costs": _costs,
    "lemmas": _lemmas,
    "props": _props,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
