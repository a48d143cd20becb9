"""Experiment configuration: versioned YAML, validated with field paths."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import yaml

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message

    def __reduce__(self):  # rebuilt from both fields when a worker raises it
        return (ConfigError, (self.path, self.message))


@dataclass
class ExperimentConfig:
    experiment: str
    version: int = 1
    name: str = ""
    protocol: Optional[str] = None
    adversary: str = "honest"
    n: int = 16
    k: int = 4
    n_strings: int = 4
    trials: int = 100
    seed: int = 1
    d_noise: int = 3
    case: str = "receiver"            # uc-sim corruption case
    jobs: int = 1
    out: Optional[str] = None
    extras: dict = field(default_factory=dict)

    def validate(self) -> "ExperimentConfig":
        """The one refusal point: the field checks, then the experiment
        row's, so no config it accepts is refused once its trials start."""
        from ..adversaries import zoo
        from .experiments import EXPERIMENTS, PROTOCOL_TABLE

        hints = get_type_hints(ExperimentConfig)
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is an int subclass, but `trials: true` is no trial count
            if isinstance(value, bool) or not isinstance(
                    value, get_args(hints[f.name]) or hints[f.name]):
                raise ConfigError(f.name, f"{value!r} is not {f.type}")
        if self.version != 1:
            raise ConfigError("version", f"unsupported config version {self.version}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError("experiment",
                              f"unknown experiment {self.experiment!r}; "
                              f"one of {', '.join(EXPERIMENTS)}")
        row = EXPERIMENTS[self.experiment]
        for key in self.extras:
            if key not in row.extras:
                raise ConfigError(key, f"{self.experiment} reads no such config key")
        if self.protocol is not None and self.protocol not in PROTOCOL_TABLE:
            raise ConfigError("protocol", f"unknown protocol {self.protocol!r}")
        known = {s.strategy_id for s in zoo()} | {"honest", "all-senders"}
        if self.adversary not in known:
            raise ConfigError("adversary", f"unknown adversary {self.adversary!r}")
        if self.trials < 1:
            raise ConfigError("trials", "at least one trial required")
        if self.n < 2:
            raise ConfigError("n", "security parameter too small")
        if self.k < 1:
            raise ConfigError("k", "string length must be positive")
        if self.n_strings < 1:
            raise ConfigError("n_strings", "at least one committed string required")
        if self.d_noise < 0 or self.d_noise % 2 == 0:
            raise ConfigError("d_noise", "noise bound must be odd (block width 2t+1)")
        if self.case not in ("receiver", "sender"):
            raise ConfigError("case", f"unknown corruption case {self.case!r}")
        if self.jobs < 1:
            raise ConfigError("jobs", "at least one worker")
        # derive_seed keys every stream with the seed as 16 unsigned bytes
        if not 0 <= self.seed < 1 << 128:
            raise ConfigError("seed", "seed must lie in [0, 2^128)")
        for check in row.checks:
            check(self)
        return self


def load_config(path: str | Path) -> ExperimentConfig:
    """The config a YAML file names, parsed only: `run_experiment` validates
    it once the command-line flags have won."""
    raw = yaml.safe_load(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ConfigError("", "config must be a mapping")
    # a key the experiment reads beyond the fields goes to extras, which
    # cannot itself be set by name
    known = {f.name for f in fields(ExperimentConfig)} - {"extras"}
    named = {}
    extras = {}
    for key, value in raw.items():
        if key in known:
            named[key] = value
        else:
            extras[key] = value
    if "experiment" not in named:
        raise ConfigError("experiment", "missing required field")
    return ExperimentConfig(extras=extras, **named)
