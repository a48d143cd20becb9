"""pufcommit benchmark: one seeded workload, end to end or traced per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload uccompiler-n64 --seed 1 --seconds 20 --trace 0

The run is one process on one thread, a closed loop of trials.  It prints
human-readable lines, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from the outside-in tracer.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORKLOAD_NAMES = ("attack-original", "uccompiler-n64", "extraction-zoo")

MIN_TRIALS = 100        # p90 needs at least 10 samples beyond it
MIN_TRACED_PAIRS = 20
SETUP_SAMPLES = 5       # fresh-process set-ups per run, the median is reported


def use_repo_source() -> None:
    """Import pufcommit from this checkout's src/, never from elsewhere."""
    if not (SRC / "pufcommit" / "__init__.py").is_file():
        raise SystemExit(f"pufcommit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import pufcommit

    if Path(pufcommit.__file__).resolve().parent != SRC / "pufcommit":
        raise SystemExit(f"pufcommit imported from {pufcommit.__file__}, not {SRC}")


def set_up(name: str, seed: int, started: float):
    """Imports, parameter bundles and one warm-up trial (trial 0).

    Returns the workload, the warm-up's checked outcome, its seeded-log
    digest and the set-up time in seconds since ``started``."""
    use_repo_source()
    from workloads import WORKLOADS, logs_digest

    workload = WORKLOADS[name](seed)
    inputs = workload.inputs(0)
    result = workload.trial(inputs)
    outcome = workload.check(inputs, result)
    setup_s = time.perf_counter() - started
    return workload, outcome, logs_digest(workload.logs(result)), setup_s


def setup_probe(name: str, seed: int) -> dict:
    """Set up once in a fresh interpreter and report its time and digest."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True, cwd=REPO,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_untraced(workload, seconds: float) -> dict:
    times, failed, zero_stride, unqueried, i = [], 0, 0, 0, 0
    started = time.perf_counter()
    while i < MIN_TRIALS or time.perf_counter() - started < seconds:
        inputs = workload.inputs(i)
        t0 = time.perf_counter_ns()
        result = workload.trial(inputs)
        times.append(time.perf_counter_ns() - t0)
        outcome = workload.check(inputs, result)
        failed += outcome.failed
        zero_stride += outcome.zero_stride_misses
        unqueried += outcome.unqueried_opens
        i += 1
    elapsed = time.perf_counter() - started
    return {"attempted": i, "failed": failed, "zero_stride": zero_stride,
            "unqueried": unqueried, "elapsed": elapsed,
            "times_ms": [t / 1e6 for t in times]}


def run_traced(workload, seconds: float) -> dict:
    """Each trial's inputs run once untraced and once traced, alternating
    which goes first; the traced copy must reproduce the untraced outcome."""
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    plain_ms, failed, mismatched, zero_stride, unqueried, dropped, i = [], 0, 0, 0, 0, 0, 0
    started = time.perf_counter()
    while i < MIN_TRACED_PAIRS or time.perf_counter() - started < seconds:
        inputs = workload.inputs(i)
        checked = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.trial():
                    result = workload.trial(inputs)
            else:
                t0 = time.perf_counter_ns()
                result = workload.trial(inputs)
                plain_ms.append((time.perf_counter_ns() - t0) / 1e6)
            checked[traced] = workload.check(inputs, result)
        outcome = checked[True]
        failed += outcome.failed
        zero_stride += outcome.zero_stride_misses
        unqueried += outcome.unqueried_opens
        dropped += outcome.dropped
        mismatched += outcome != checked[False]
        i += 1
    per_trial = 1.0 / i
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (tracer.self_ns[layer] / 1e6 * per_trial, "ms")
        if layer not in ("log", "protocol"):
            metrics[f"{layer}.calls"] = (tracer.calls[layer] * per_trial, "count/trial")
    metrics["prf.bytes"] = (tracer.work["prf.bytes"] * per_trial, "B/trial")
    metrics["fuzzy.hash_bitops"] = (tracer.work["fuzzy.hash_bitops"] * per_trial,
                                    "bitop/trial")
    metrics["ecc.bits"] = (tracer.work["ecc.bits"] * per_trial, "bit/trial")
    metrics["router.dropped"] = (dropped * per_trial, "count/trial")
    metrics["log.records"] = (tracer.calls["log"] * per_trial, "count/trial")
    metrics["extract.zero_stride_misses"] = (zero_stride, "count")
    metrics["extract.unqueried_opens"] = (unqueried, "count")
    metrics["trace_overhead"] = (statistics.median(tracer.trial_ns) / 1e6
                                 / statistics.median(plain_ms), "ratio")
    return {"attempted": i, "failed": failed, "mismatched": mismatched,
            "metrics": metrics, "self_ns_total": sum(tracer.self_ns.values()),
            "trial_ns_total": sum(tracer.trial_ns)}


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workload, warm, digest, setup_s = set_up(args.workload, args.seed, started)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "log_sha256": digest}))
        return 0

    record = {"workload": args.workload, "seed": args.seed, "log_sha256": digest}
    correct = not warm.failed
    if args.trace == 0:
        probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        setups = [setup_s] + [p["setup_s"] for p in probes]
        digests_agree = all(p["log_sha256"] == digest for p in probes)
        run = run_untraced(workload, args.seconds)
        times = run["times_ms"]
        metrics = {
            "trials_per_s": (run["attempted"] / run["elapsed"], "1/s"),
            "trial_ms_p50": (statistics.median(times), "ms"),
            "trial_ms_p90": (statistics.quantiles(times, n=10)[8], "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
        record.update(failed_share=run["failed"] / run["attempted"],
                      zero_stride_misses=run["zero_stride"],
                      unqueried_opens=run["unqueried"],
                      setup_samples_s=setups, digests_agree=digests_agree)
        correct = correct and digests_agree and run["failed"] == 0
    else:
        run = run_traced(workload, args.seconds)
        metrics = run["metrics"]
        record.update(failed_share=run["failed"] / run["attempted"],
                      traced_mismatches=run["mismatched"],
                      self_time_sum_ms=run["self_ns_total"] / 1e6,
                      traced_time_sum_ms=run["trial_ns_total"] / 1e6)
        correct = correct and run["failed"] == 0 and run["mismatched"] == 0

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:28s} {value:14.6g} {unit}")
    print(f"{args.workload:16s} {'failed_share':28s} {record['failed_share']:14.6g} 1")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
