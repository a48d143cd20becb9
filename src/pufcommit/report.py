"""Experiment reports with Wilson confidence intervals.

A report is the unit every experiment returns: trial tallies, an abort
histogram, estimated probability with its 95% interval, and resource
counters.  Serialization is canonical (sorted keys, fixed float repr) so
that identical (config, seed) pairs produce byte-identical files; wall
time is tracked but deliberately kept out of the canonical form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["ExperimentReport", "wilson_interval"]


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Safe at the extremes (0 or trials successes) where the normal
    approximation collapses.
    """
    if trials <= 0:
        return (0.0, 1.0)
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} out of range for {trials} trials")
    p = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass
class ExperimentReport:
    name: str
    trials: int
    successes: int
    failures: int = 0
    aborts_by_step: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    resources: dict = field(default_factory=dict)
    # every experiment reports "ok"; the field stays because every
    # canonical report carries it
    status: str = "ok"
    wall_time: float = 0.0  # volatile, excluded from canonical serialization

    def __post_init__(self):
        aborts = sum(self.aborts_by_step.values())
        if self.successes + self.failures + aborts != self.trials:
            raise ValueError(
                "tally mismatch: "
                f"{self.successes}+{self.failures}+{aborts} != {self.trials}"
            )

    @property
    def p_hat(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def wilson(self, z: float = 1.96) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials, z)

    def to_canonical_dict(self) -> dict:
        lo, hi = self.wilson()
        return {
            "name": self.name,
            "status": self.status,
            "trials": self.trials,
            "successes": self.successes,
            "failures": self.failures,
            "aborts_by_step": dict(sorted(self.aborts_by_step.items())),
            "p_hat": self.p_hat,
            "wilson95": [lo, hi],
            "details": _canonical(self.details),
            "resources": dict(sorted(self.resources.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_canonical_dict(), sort_keys=True, indent=2)

    def summary(self) -> str:
        lo, hi = self.wilson()
        lines = [
            f"experiment : {self.name}",
            f"status     : {self.status}",
            f"trials     : {self.trials}",
            f"successes  : {self.successes}",
            f"failures   : {self.failures}",
            f"p_hat      : {self.p_hat:.6g}  (95% Wilson [{lo:.6g}, {hi:.6g}])",
        ]
        if self.aborts_by_step:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(self.aborts_by_step.items()))
            lines.append(f"aborts     : {parts}")
        for key, val in sorted(self.details.items()):
            lines.append(f"{key:<11}: {val}")
        for key, val in sorted(self.resources.items()):
            lines.append(f"{key:<11}: {val}")
        if self.wall_time:
            lines.append(f"wall_time  : {self.wall_time:.2f}s (not serialized)")
        return "\n".join(lines)


def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, float):
        return round(obj, 12)
    return obj
