"""The benchmark's seeded logs: trial 0 of every workload at seed 23, the
one `record.log_sha256` reports, and two more trials of each.

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


# trial 1 at seed 23 and trial 0 at seed 57, so a kernel rewrite is checked
# on nine seeded logs
MORE_DIGESTS = {
    (23, 1, "attack-original"): "8d6412ba23d3a480a95e89f20a20334e89d364295a84f1ff298753297306e863",
    (23, 1, "uccompiler-n64"): "c2ccf4912c6a28d27e5d23316edd992e10580c673cf5eed52394e6fb5858b247",
    (23, 1, "extraction-zoo"): "64cffabc67e21093c7cb4662719551cfd31928a255a6f87d77cc80b7f2f1abe2",
    (57, 0, "attack-original"): "5c8b18f33678b5f858e604f4ffe7a4682bad644e949148b5910c42ce0f3e4166",
    (57, 0, "uccompiler-n64"): "6ea6a11c2e87910f7551f7443dc3eed39addaf3560b52f09663c5d1b95187535",
    (57, 0, "extraction-zoo"): "815d1f1c0b2c01539395923971b4d0a4dda96e30d81598f8e3d4112bdb91dae1",
}


def test_every_workload_is_pinned():
    assert set(DIGESTS) == set(WORKLOADS)
    assert {name for _, _, name in MORE_DIGESTS} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_benchmark_logs_are_pinned(name):
    workload = WORKLOADS[name](SEED)
    inputs = workload.inputs(0)
    result = workload.trial(inputs)
    assert not workload.check(inputs, result).failed
    assert logs_digest(workload.logs(result)) == DIGESTS[name]


@pytest.mark.parametrize("seed,trial,name", sorted(MORE_DIGESTS))
def test_more_benchmark_logs_are_pinned(seed, trial, name):
    workload = WORKLOADS[name](seed)
    inputs = workload.inputs(trial)
    result = workload.trial(inputs)
    assert not workload.check(inputs, result).failed
    assert logs_digest(workload.logs(result)) == MORE_DIGESTS[seed, trial, name]
