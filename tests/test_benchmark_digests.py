"""The benchmark's seeded logs: trial 0 of every workload at seed 23.

perfbench/workloads.py is imported as it stands, the way the benchmark's
own tests import it, so a change that moves any seeded log of a workload,
or the compiler API the workloads call, fails here first.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)

from workloads import WORKLOADS, logs_digest  # noqa: E402

SEED = 23
DIGESTS = {
    "attack-original": "d46c7e1ae6925ae8959bf01299fd43efa31ec4144fef6b426460adf30bb299d4",
    "uccompiler-n64": "c94a40df4f3386a5fb742aa48d12e4b5bd6e63a788b3dab438cdd2b55558de53",
    "extraction-zoo": "8260a2ae382c5dd960ee0d056a0451b9b2c9a00ddcd787ae79064934b6ede43c",
}


def test_every_workload_is_pinned():
    assert set(DIGESTS) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_benchmark_logs_are_pinned(name):
    workload = WORKLOADS[name](SEED)
    inputs = workload.inputs(0)
    result = workload.trial(inputs)
    assert not workload.check(inputs, result).failed
    assert logs_digest(workload.logs(result)) == DIGESTS[name]
