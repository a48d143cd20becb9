from .params import CommitPair, CpufParams, ExtPufParams, OriginalExtPufParams
from .cpuf import CpufOutcome, CpufReceiver, CpufSender, run_cpuf
from .extpuf import ExtPufOutcome, run_extpuf
from .original import (
    OriginalOutcome,
    OriginalReceiver,
    OriginalSender,
    run_original_extpuf,
)
from .collective import (
    CollectiveOutcome,
    CollectiveReceiver,
    CollectiveSender,
    open_index,
    run_collective,
    run_collective_commit,
)
from .compiler import (
    CompilerOutcome,
    open_uccompiler,
    run_blob_equalities,
    run_uccompiler,
)

__all__ = [
    "CommitPair",
    "CpufParams",
    "ExtPufParams",
    "OriginalExtPufParams",
    "CpufOutcome",
    "CpufSender",
    "CpufReceiver",
    "run_cpuf",
    "ExtPufOutcome",
    "run_extpuf",
    "OriginalOutcome",
    "OriginalSender",
    "OriginalReceiver",
    "run_original_extpuf",
    "CollectiveOutcome",
    "CollectiveSender",
    "CollectiveReceiver",
    "run_collective",
    "run_collective_commit",
    "open_index",
    "CompilerOutcome",
    "run_uccompiler",
    "open_uccompiler",
    "run_blob_equalities",
]
