from .params import CommitPair, CpufParams, ExtPufParams, OriginalExtPufParams
from .common import Outcome, open_step
from .cpuf import CpufReceiver, CpufSender, run_cpuf
from .original import OriginalReceiver, OriginalSender, run_original_extpuf
from .collective import (
    CollectiveReceiver,
    CollectiveSender,
    open_index,
    run_collective,
    run_collective_commit,
    run_extpuf,
)
from .compiler import CompilerOutcome, channel_params, open_uccompiler, run_uccompiler

__all__ = [
    "CommitPair",
    "CpufParams",
    "ExtPufParams",
    "OriginalExtPufParams",
    "Outcome",
    "open_step",
    "CpufSender",
    "CpufReceiver",
    "run_cpuf",
    "run_extpuf",
    "OriginalSender",
    "OriginalReceiver",
    "run_original_extpuf",
    "CollectiveSender",
    "CollectiveReceiver",
    "run_collective",
    "run_collective_commit",
    "open_index",
    "CompilerOutcome",
    "run_uccompiler",
    "open_uccompiler",
    "channel_params",
]
