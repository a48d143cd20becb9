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
# the three attack-original digests were re-taken when hashes of 192 output
# bits or more became multiply-add-shift; test_fuzzy.py checks their
# earlier digests under the Toeplitz hash
DIGESTS = {
    "attack-original": "7185b124ff17d4f16859cdc91584f35a5e00d710a52a872d1f456dee48dc50bb",
    "uccompiler-n64": "c94a40df4f3386a5fb742aa48d12e4b5bd6e63a788b3dab438cdd2b55558de53",
    "extraction-zoo": "8260a2ae382c5dd960ee0d056a0451b9b2c9a00ddcd787ae79064934b6ede43c",
}


# trial 1 at seed 23 and trial 0 at seed 57, so a kernel rewrite is checked
# on nine seeded logs
MORE_DIGESTS = {
    (23, 1, "attack-original"): "e2a9f123f3589c20f76ad4a17da9ab89ec067caefb3d59b168657293c914fc5f",
    (23, 1, "uccompiler-n64"): "c2ccf4912c6a28d27e5d23316edd992e10580c673cf5eed52394e6fb5858b247",
    (23, 1, "extraction-zoo"): "64cffabc67e21093c7cb4662719551cfd31928a255a6f87d77cc80b7f2f1abe2",
    (57, 0, "attack-original"): "c75cee6831e2e52311e844c9ed6c5a7b8374f50fe0071b3fcea9de5495f714e6",
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
