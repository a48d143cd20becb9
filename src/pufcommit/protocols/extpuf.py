"""Extractable token commitment, revised flow, for a single string.

The single-string protocol is the collective flow (collective.py) with
N = 1: run_extpuf commits the one string through run_collective and, when
asked, opens index 0.  ExtPufOutcome is a read-only one-string view of
that run; it holds no protocol logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..bits import BitString
from ..functionality import Budgets
from .collective import (
    EXTPUF_BUDGETS,
    CollectiveOutcome,
    CollectiveReceiver,
    CollectiveSender,
    run_collective,
)
from .params import ExtPufParams

__all__ = ["ExtPufOutcome", "run_extpuf", "EXTPUF_BUDGETS"]


def _from_core(name: str) -> property:
    return property(lambda self: getattr(self.core, name))


@dataclass(frozen=True)
class ExtPufOutcome:
    """One-string view of a collective run over [x]."""

    core: CollectiveOutcome

    session = _from_core("session")
    abort_step = _from_core("abort_step")
    commit_end = _from_core("commit_end")
    probe_sid = _from_core("probe_sid")
    sender_name = _from_core("sender_name")
    sender = _from_core("sender")
    receiver = _from_core("receiver")

    @property
    def accepted(self) -> Optional[bool]:
        """False after an abort or a rejected opening, None while unopened."""
        if not self.core.committed:
            return False
        if 0 not in self.core.opened:
            return None
        return self.core.opened[0] is not None

    @property
    def value(self) -> Optional[BitString]:
        return self.core.opened.get(0)

    @property
    def receiver_view(self) -> dict:
        """The receiver's commit-phase view of the one string; empty after
        a commit abort."""
        view = self.core.receiver_view
        if not view:
            return {}
        return {"c": view["cs"][0], "r": view["masks"][0], "k": view["k"],
                "code": view["code"]}

    def extraction_inputs(self) -> dict:
        """Everything the straight-line extractor needs from this session."""
        return self.core.extraction_inputs()


def run_extpuf(params: ExtPufParams, x: BitString, seed: int,
               sender_factory: Callable = CollectiveSender,
               receiver_factory: Callable = CollectiveReceiver,
               open_phase: bool = True,
               budgets: Budgets = EXTPUF_BUDGETS) -> ExtPufOutcome:
    return ExtPufOutcome(run_collective(params, [x], seed, sender_factory,
                                        receiver_factory,
                                        open_indices=None if open_phase else [],
                                        budgets=budgets))
