"""Experiment driver: every acceptance experiment as a pure function of
(config, master seed).

Every experiment runs its trials through `_run_trials`, except `costs`,
whose one honest trial settles the accounting.  Trial i draws only from
streams seeded by (master seed, label, i), and aggregation is a
commutative counter merge, so trials may run in any order and across
worker processes without changing the report.  Wall time is measured but
kept out of the canonical report.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from multiprocessing import get_context
from random import Random
from typing import Callable, Optional

from ..adversaries import AmbiguousQuerySender, zoo
from ..bits import BitString, hamming_distance
from ..entropy import histogram_distance, lemma_violations
from ..extract import run_extractor_collective, run_extractor_original
from ..functionality import check_order_discipline
from ..prf import derive_seed
from ..puf import PufParams, sample_puf
from ..report import ExperimentReport, wilson_interval
from ..session import count_resources
from ..protocols import (
    CpufParams,
    ExtPufParams,
    OriginalExtPufParams,
    run_collective,
    run_cpuf,
    run_original_extpuf,
    run_uccompiler,
)
from ..protocols.common import mask_commitment, reproduce
from .config import ConfigError, ExperimentConfig
from .ucsim import (
    run_ideal_receiver_corrupt,
    run_ideal_sender_corrupt,
    run_real_world,
)

__all__ = ["run_experiment", "EXPERIMENTS", "EXTRAS", "PROTOCOL_TABLE"]

HIDING_BOUND = 0.02
SD_BOUND = 0.02


@lru_cache(maxsize=32)
def _params(bundle, n, k, d_noise):
    return bundle.standard(n, k, d_noise=d_noise)


def _trial_rng(cfg: ExperimentConfig, label: str, i: int) -> Random:
    return Random(derive_seed(cfg.seed, label, i))


def _tseed(cfg: ExperimentConfig, label: str, i: int) -> int:
    return derive_seed(cfg.seed, label, i)


# ---------------------------------------------------------------------------
# Protocol table
# ---------------------------------------------------------------------------

def _opened_as_sampled(values: list, out) -> bool:
    return out.committed and all(out.opened.get(j) == v for j, v in enumerate(values))


@dataclass(frozen=True)
class ProtocolEntry:
    """What the experiments need to know about one protocol.

    run(params, values, seed, open_phase=True, sender_factory=...) runs it
    on the sampled values and returns its Outcome."""

    params: Callable                   # cfg -> parameter bundle
    run: Callable
    experiments: frozenset             # the experiments defined for it
    strings: Optional[Callable] = lambda cfg: 1   # cfg -> k-bit strings; None: one bit
    honest_ok: Callable = _opened_as_sampled      # (values, outcome) -> honest run worked
    cost: Optional[Callable] = None    # cfg -> expected (tokens, exchange phases)
    commit_view: Optional[Callable] = None        # (params, outcome) -> hiding view
    transcript: bool = False           # the demo prints an honest transcript
    channels: bool = False             # it runs the compiler's channels, so reads mode

    def sample(self, cfg: ExperimentConfig, rng: Random) -> list:
        if self.strings is None:
            return [rng.getrandbits(1)]
        return [BitString.random(cfg.k, rng) for _ in range(self.strings(cfg))]


_EXTPUF = ProtocolEntry(
    params=lambda cfg: _params(ExtPufParams, cfg.n, cfg.k, cfg.d_noise),
    run=run_collective,
    experiments=frozenset({"completeness", "binding", "hiding", "extraction", "costs"}),
    cost=lambda cfg: (2, 2),
    commit_view=lambda p, out: {"c": out.receiver_view["cs"][0],
                                "r": out.receiver_view["masks"][0],
                                "helper": out.receiver.helpers[0], "fe": p.main.fe},
    transcript=True,
)

PROTOCOL_TABLE = {
    "cpuf": ProtocolEntry(
        params=lambda cfg: _params(CpufParams, cfg.n, cfg.k, cfg.d_noise),
        run=lambda p, values, seed, **kw: run_cpuf(p, values[0], seed, **kw),
        experiments=frozenset({"completeness", "binding", "hiding", "costs"}),
        cost=lambda cfg: (1, 1),
        commit_view=lambda p, out: dict(out.receiver_view, fe=p.pair.fe),
        transcript=True,
    ),
    "extpuf": _EXTPUF,
    "collextpuf": replace(_EXTPUF, strings=lambda cfg: cfg.n_strings, transcript=False),
    "original-extpuf": ProtocolEntry(
        params=lambda cfg: _params(OriginalExtPufParams, cfg.n, cfg.k, cfg.d_noise),
        run=lambda p, values, seed, **kw: run_original_extpuf(p, values[0], seed, **kw),
        experiments=frozenset({"completeness", "costs"}),
        cost=lambda cfg: (3, 3),
    ),
    # the compiler derives its channel bundles from n itself
    "uccompiler": ProtocolEntry(
        params=lambda cfg: cfg,
        run=lambda cfg, values, seed, **kw: run_uccompiler(
            cfg.n, values[0], seed, mode=cfg.mode, d_noise=cfg.d_noise, **kw),
        experiments=frozenset({"completeness", "costs"}),
        strings=None,
        cost=lambda cfg: ((4, 4) if cfg.mode == "collective"
                          else (8 * cfg.n + 2, 8 * cfg.n + 2)),
        channels=True,
    ),
    "blob-equalities": ProtocolEntry(
        params=lambda cfg: cfg,
        run=lambda cfg, values, seed: run_uccompiler(cfg.n, values[0], seed, mode=cfg.mode,
                                                     open_phase=False, d_noise=cfg.d_noise),
        experiments=frozenset({"completeness"}),
        strings=None,
        honest_ok=lambda values, out: out.committed,
        channels=True,
    ),
}


def _entry(cfg: ExperimentConfig) -> ProtocolEntry:
    entry = PROTOCOL_TABLE.get(cfg.protocol)
    if entry is None or cfg.experiment not in entry.experiments:
        raise ConfigError("protocol", f"{cfg.experiment} undefined for {cfg.protocol!r}")
    if cfg.mode != "collective" and not entry.channels:
        raise ConfigError("mode", f"{cfg.protocol} runs no channels, so no {cfg.mode!r} ones")
    return entry


def _run(entry: ProtocolEntry, cfg: ExperimentConfig, values: list, seed: int, **kw):
    return entry.run(entry.params(cfg), values, seed, **kw)


def _honest_only(cfg: ExperimentConfig) -> None:
    """Completeness, hiding, costs and the uc-sim receiver case run honest
    parties only."""
    if cfg.adversary != "honest":
        raise ConfigError("adversary", f"{cfg.experiment} runs no adversary "
                                       f"strategy, not {cfg.adversary!r}")


def _senders(cfg: ExperimentConfig, all_senders: bool = False) -> list:
    """The zoo senders written for cfg.protocol that cfg.adversary names:
    one strategy, or all of them under all-senders where the experiment
    allows it."""
    senders = [s for s in zoo() if s.role == "sender" and s.protocol == cfg.protocol]
    if all_senders and cfg.adversary == "all-senders":
        return senders
    named = [s for s in senders if s.strategy_id == cfg.adversary]
    if not named:
        raise ConfigError("adversary", f"{cfg.experiment} on {cfg.protocol!r} needs "
                                       f"a zoo sender for it, not {cfg.adversary!r}")
    return named


# ---------------------------------------------------------------------------
# Per-trial counters
# ---------------------------------------------------------------------------

def _completeness_trial(cfg: ExperimentConfig, i: int) -> Counter:
    entry = _entry(cfg)
    _honest_only(cfg)
    values = entry.sample(cfg, _trial_rng(cfg, "input", i))
    out = _run(entry, cfg, values, _tseed(cfg, "run", i))
    ok = entry.honest_ok(values, out)
    counter = Counter(success=int(ok))
    if not ok:
        counter[f"abort:{out.abort_step or 'reject'}"] += 1
    return counter


def _attack_original_trial(cfg: ExperimentConfig, i: int) -> Counter:
    params = _params(OriginalExtPufParams, cfg.n, 1, cfg.d_noise)
    out = run_original_extpuf(params, BitString.zeros(1), _tseed(cfg, "run", i),
                              sender_factory=AmbiguousQuerySender)
    extracted = run_extractor_original(out.extraction_inputs())
    opened_zero = bool(out.accepted) and out.value == BitString.zeros(1)
    ok = extracted is None and opened_zero
    return Counter(
        success=int(ok),
        extractor_bot=int(extracted is None),
        opened_zero=int(opened_zero),
        **({} if ok else {"abort:attack-incomplete": 1}),
    )


def _neutralized_trial(cfg: ExperimentConfig, i: int) -> Counter:
    """Every revised-flow zoo sender, the late-query sender among them:
    each transcript keeps the return-before-mask order with no late probe
    answers, so no query can be aimed at a masked secret."""
    params = _params(ExtPufParams, cfg.n, cfg.k, cfg.d_noise)
    ok = True
    senders = [s for s in zoo() if s.protocol == "extpuf" and s.role == "sender"]
    for strategy in senders:
        rng = _trial_rng(cfg, f"x/{strategy.strategy_id}", i)
        x = BitString.random(cfg.k, rng)
        out = run_collective(params, [x], derive_seed(cfg.seed, strategy.strategy_id, i),
                             sender_factory=strategy.factory)
        probe = out.probe_sid or "coll/probe"
        if not check_order_discipline(out.session.log, probe, "S"):
            ok = False
    return Counter(success=int(ok), **({} if ok else {"abort:order-violated": 1}))


def _binding_trial(cfg: ExperimentConfig, i: int) -> Counter:
    entry = _entry(cfg)
    (strategy,) = _senders(cfg)
    values = entry.sample(cfg, _trial_rng(cfg, "input", i))
    out = _run(entry, cfg, values, _tseed(cfg, "run", i),
               sender_factory=strategy.factory)
    broke = any(v is not None for v in out.opened.values())
    return Counter(success=int(not broke), bound_broken=int(broke))


def _extraction_trial(cfg: ExperimentConfig, i: int) -> Counter:
    entry = _entry(cfg)
    counter: Counter = Counter(success=1)
    for strategy in _senders(cfg, all_senders=True):
        rng = _trial_rng(cfg, f"input/{strategy.strategy_id}", i)
        seed = derive_seed(cfg.seed, "run", strategy.strategy_id, i)
        values = entry.sample(cfg, rng)
        out = _run(entry, cfg, values, seed, sender_factory=strategy.factory)
        if not out.committed:
            counter[f"commit-abort:{strategy.strategy_id}"] += 1
            continue
        extracted = run_extractor_collective(out.extraction_inputs())
        violated = any(
            out.opened.get(j) is not None and out.opened[j] != extracted[j]
            for j in range(len(values))
        )
        if strategy.strategy_id.startswith("honest") and extracted != values:
            violated = True
        if violated:
            counter["success"] = 0
            counter[f"violation:{strategy.strategy_id}"] += 1
    if counter["success"] == 0:
        counter["abort:extraction-violated"] += 1
    return counter


def _commit_view(cfg: ExperimentConfig, b: int, seed: int) -> dict:
    """Commit-phase-only run returning what the distinguisher may touch."""
    entry = _entry(cfg)
    _honest_only(cfg)
    params = entry.params(cfg)
    x = BitString.ones(cfg.k) if b else BitString.zeros(cfg.k)
    out = entry.run(params, [x] * entry.strings(cfg), seed, open_phase=False)
    return dict(entry.commit_view(params, out), token=out.receiver.token_sid,
                api=out.receiver.api, width=params.mask_len // params.k)


def _hiding_trial(cfg: ExperimentConfig, i: int) -> Counter:
    rng = _trial_rng(cfg, "game", i)
    b = rng.getrandbits(1)
    view = _commit_view(cfg, b, _tseed(cfg, "run", i))
    x0, x1 = BitString.zeros(cfg.k), BitString.ones(cfg.k)
    for _ in range(2):  # the baseline reconstruction attempt, twice
        q = BitString.random(cfg.n, rng)
        st_guess = reproduce(view["api"], view["token"], q, view["fe"], view["helper"])
        if view["c"] == mask_commitment(st_guess, x0, view["r"], view["width"]):
            guess = 0
            break
        if view["c"] == mask_commitment(st_guess, x1, view["r"], view["width"]):
            guess = 1
            break
    else:
        guess = rng.getrandbits(1)
    return Counter(success=int(guess == b))


def _costs_run(cfg: ExperimentConfig) -> ExperimentReport:
    entry = _entry(cfg)
    _honest_only(cfg)
    # one honest run settles the accounting, so more trials would be ignored
    if cfg.trials != 1:
        raise ConfigError("trials", f"costs runs exactly one trial, not {cfg.trials}; "
                                    f"set trials: 1")
    if cfg.jobs != 1:
        raise ConfigError("jobs", f"costs runs one trial in one process, not on "
                                  f"{cfg.jobs} workers")
    values = entry.sample(cfg, _trial_rng(cfg, "input", 0))
    out = _run(entry, cfg, values, _tseed(cfg, "run", 0))
    ok = entry.honest_ok(values, out)
    expected = entry.cost(cfg)
    resources = count_resources(out.session.log)
    measured = (resources["pufs_created"], resources["exchange_phases"])
    passed = ok and measured == expected
    details = {
        "passed": passed,
        "measured": list(measured),
        "expected": list(expected),
        "honest_run_accepted": ok,
    }
    return _report(cfg, int(passed), details, f"{cfg.experiment}/{cfg.protocol}/{cfg.mode}",
                   resources=resources)


def _ucsim_trial(cfg: ExperimentConfig, i: int) -> Counter:
    rng = _trial_rng(cfg, "bit", i)
    b = rng.getrandbits(1)
    counter: Counter = Counter()
    if cfg.case == "receiver":
        _honest_only(cfg)
        real, _ = run_real_world(cfg.n, b, _tseed(cfg, "real", i),
                                 d_noise=cfg.d_noise)
        ideal, _ = run_ideal_receiver_corrupt(cfg.n, b, _tseed(cfg, "ideal", i),
                                              d_noise=cfg.d_noise)
    else:
        kwargs = {"d_noise": cfg.d_noise}
        if cfg.adversary != "honest":
            (strategy,) = _senders(replace(cfg, protocol="uccompiler"))
            kwargs["sender_factory"] = strategy.factory
        real, real_out = run_real_world(cfg.n, b, _tseed(cfg, "real", i), **kwargs)
        ideal, ideal_out = run_ideal_sender_corrupt(cfg.n, b, _tseed(cfg, "ideal", i),
                                                    **kwargs)
        if ideal_out.abort_step == "sim-A-ambiguous":
            counter["sim_ambiguous_abort"] += 1
    counter[("real", real)] += 1
    counter[("ideal", ideal)] += 1
    return counter


# ---------------------------------------------------------------------------
# Trial loop with optional fork-based workers
# ---------------------------------------------------------------------------

def _run_range(args) -> Counter:
    cfg, trial, lo, hi = args
    total: Counter = Counter()
    for i in range(lo, hi):
        total.update(trial(cfg, i))
    return total


def _run_trials(cfg: ExperimentConfig, trial: Callable) -> Counter:
    if cfg.jobs <= 1:
        return _run_range((cfg, trial, 0, cfg.trials))
    chunk = max(1, math.ceil(cfg.trials / cfg.jobs))
    jobs = [(cfg, trial, lo, min(lo + chunk, cfg.trials))
            for lo in range(0, cfg.trials, chunk)]
    total: Counter = Counter()
    with get_context("fork").Pool(cfg.jobs) as pool:
        for partial in pool.imap_unordered(_run_range, jobs):
            total.update(partial)
    return total


def _report(cfg: ExperimentConfig, successes: int, details: dict, name: str = "",
            aborts: Optional[dict] = None, resources: Optional[dict] = None) -> ExperimentReport:
    """Every report the harness returns.  It takes the config's name, else
    `name`, else experiment/protocol/adversary; a trial that neither
    succeeded nor aborted failed."""
    aborts = aborts or {}
    return ExperimentReport(
        name=cfg.name or name or f"{cfg.experiment}/{cfg.protocol or '-'}/{cfg.adversary}",
        trials=cfg.trials, successes=successes,
        failures=cfg.trials - successes - sum(aborts.values()),
        aborts_by_step=aborts, details=details, resources=resources or {},
    )


def _counter_report(cfg: ExperimentConfig, counter: Counter,
                    name: str = "") -> ExperimentReport:
    successes = counter.pop("success", 0)
    aborts = {key.split(":", 1)[1]: val for key, val in counter.items()
              if key.startswith("abort:")}
    details = {key: val for key, val in counter.items() if not key.startswith("abort:")}
    return _report(cfg, successes, details, name, aborts=aborts)


def _tagged(counter: Counter, tag: str) -> dict:
    """The histogram that trials merged into counter under (tag, key) keys."""
    return {key[1]: val for key, val in counter.items()
            if isinstance(key, tuple) and key[0] == tag}


# ---------------------------------------------------------------------------
# Runners: each takes the config and returns the report with its verdict
# ---------------------------------------------------------------------------

def _counted(trial: Callable, verdict: Callable, name: str = "") -> Callable:
    """The runner of an experiment whose report tallies the merged trial
    counters; verdict(cfg, report) returns the details it adds, "passed"
    among them."""
    def run(cfg: ExperimentConfig) -> ExperimentReport:
        report = _counter_report(cfg, _run_trials(cfg, trial), name)
        report.details.update(verdict(cfg, report))
        return report
    return run


def _every_trial(cfg: ExperimentConfig, report: ExperimentReport) -> dict:
    """The verdict of an experiment that passes when every trial succeeds."""
    return {"passed": report.successes == cfg.trials}


def _guessing_game(cfg: ExperimentConfig, report: ExperimentReport) -> dict:
    """The verdict of a game whose trial succeeds when the distinguisher
    guesses a hidden coin: it passes while the advantage over a coin flip
    stays within HIDING_BOUND."""
    advantage = abs(report.p_hat - 0.5)
    return {"advantage": advantage, "passed": advantage <= HIDING_BOUND}


def _ucsim(cfg: ExperimentConfig) -> ExperimentReport:
    if cfg.mode != "collective":
        raise ConfigError("mode", f"uc-sim runs collective channels only, not "
                                  f"{cfg.mode!r}: its simulators extract")
    counter = _run_trials(cfg, _ucsim_trial)
    real, ideal = _tagged(counter, "real"), _tagged(counter, "ideal")
    sd = histogram_distance(real, ideal)
    ambiguous = counter.get("sim_ambiguous_abort", 0)
    passed = sd <= SD_BOUND
    details = {
        "passed": passed,
        "feature_sd": sd,
        "distinct_features": len(set(real) | set(ideal)),
        "sim_ambiguous_abort_rate": ambiguous / cfg.trials,
        "e_guess_bound": 2.0 ** -cfg.n,
    }
    if cfg.adversary == "e-guessing-sender":
        # the simulator-only abort fires exactly when the sender guessed
        # every challenge bit; its rate must sit on the 2^-n bound
        lo, hi = wilson_interval(ambiguous, cfg.trials)
        details["abort_wilson95"] = [lo, hi]
        details["abort_consistent"] = lo <= 2.0 ** -cfg.n <= hi
        details["passed"] = passed and details["abort_consistent"]
    return _report(cfg, cfg.trials, details)


def _max_support(cfg: ExperimentConfig) -> int:
    max_support = cfg.extras.get("max_support", 8)
    if not isinstance(max_support, int) or not 2 <= max_support <= 8:
        raise ConfigError("max_support", f"{max_support!r} is not a support "
                          "size in 2..8, the range the suite enumerates")
    return max_support


def _lemmas_trial(cfg: ExperimentConfig, i: int) -> Counter:
    violated = lemma_violations(_trial_rng(cfg, "lemmas", i), _max_support(cfg))
    return Counter({("violated", lemma): int(bad) for lemma, bad in violated.items()},
                   success=int(not any(violated.values())))


def _lemmas(cfg: ExperimentConfig) -> ExperimentReport:
    counter = _run_trials(cfg, _lemmas_trial)
    details = {"violations": _tagged(counter, "violated"), "max_support": _max_support(cfg),
               "tolerance": 0, "passed": counter["success"] == cfg.trials}
    return _report(cfg, counter["success"], details, "entropy-lemmas")


# ---------------------------------------------------------------------------
# Family-level games without the router: one trial each, on the "game"
# stream, and the verdict that judges them
# ---------------------------------------------------------------------------

def _enrolled(pair, rng: Random) -> tuple:
    """A fresh instance of pair's family, a random challenge s, and the
    (st, p) that Gen makes of the instance's response to s."""
    inst = sample_puf(pair.puf, rng)
    s = BitString.random(pair.puf.n, rng)
    st, p = pair.fe.gen(inst.respond(s, rng), rng)
    return inst, s, st, p


def _queries(cfg: ExperimentConfig) -> int:
    queries = cfg.extras.get("queries", 8)
    if type(queries) is not int or queries < 1:
        raise ConfigError("queries", f"{queries!r} is not a positive number of "
                          "queries per trial")
    return queries


def _close_query_trial(cfg: ExperimentConfig, i: int) -> Counter:
    """The adversary holds (sigma, instance) and fires `queries` uniform
    queries; it succeeds if any lands within d_min of the secret challenge."""
    params = _params(PufParams, cfg.n, 8 * ((cfg.n + 7) // 8), 1)
    rng = _trial_rng(cfg, "game", i)
    inst = sample_puf(params, rng)
    s = BitString.random(params.n, rng)
    inst.respond(s, rng)
    got = False
    for _ in range(_queries(cfg)):
        q = BitString.random(params.n, rng)
        inst.respond(q, rng)
        got |= hamming_distance(q, s) < params.d_min
    return Counter(success=int(got))


def _close_query_verdict(cfg: ExperimentConfig, report: ExperimentReport) -> dict:
    """Blind-guess baseline for landing a query inside the d_min ball: the
    hit rate should stay under 10x the ball fraction."""
    rate = report.p_hat
    bound = 10.0 * _params(PufParams, cfg.n, 8 * ((cfg.n + 7) // 8), 1).ball_fraction()
    return {"hit_rate": rate, "bound": bound, "within_bound": rate <= bound,
            "passed": rate <= bound, "queries_per_trial": _queries(cfg)}


def _test_query_trial(cfg: ExperimentConfig, i: int) -> Counter:
    """The challenger records (s, st, p) from its own probe instance, gets
    back either a fresh instance or the one it sent, and re-runs the
    reproduction check: once substituted on the "game" stream, once
    returned honestly on the "honest" stream."""
    pair = _params(ExtPufParams, cfg.n, 1, cfg.d_noise).probe

    def reproduced(substitute: bool, rng: Random) -> bool:
        inst, s, st, p = _enrolled(pair, rng)
        returned = sample_puf(pair.puf, rng) if substitute else inst
        return pair.fe.rep(returned.respond(s, rng), p) == st

    return Counter(
        success=int(not reproduced(True, _trial_rng(cfg, "game", i))),
        honest_false_positives=int(not reproduced(False, _trial_rng(cfg, "honest", i))))


def _test_query_verdict(cfg: ExperimentConfig, report: ExperimentReport) -> dict:
    """Detection rate of the random-challenge return check: it passes when
    at least 99% of substitutions are flagged and no honest return is."""
    return {"detection_rate": report.p_hat, "passed": report.p_hat >= 0.99
            and report.details["honest_false_positives"] == 0}


def _indist_trial(cfg: ExperimentConfig, i: int) -> Counter:
    """Baseline distinguisher for extracted-versus-uniform: it queries the
    instance away from the secret challenge and tries to reproduce the
    candidate string; failing that it flips a coin."""
    pair = _params(ExtPufParams, cfg.n, 1, 1).main
    rng = _trial_rng(cfg, "game", i)
    inst, s, st, p = _enrolled(pair, rng)
    b = rng.getrandbits(1)
    shown = BitString.random(pair.fe.out_len, rng) if b else st
    for _ in range(4):
        q = BitString.random(cfg.n, rng)
        if (hamming_distance(q, s) >= pair.puf.d_min
                and pair.fe.rep(inst.respond(q, rng), p) == shown):
            guess = 0
            break
    else:
        guess = rng.getrandbits(1)
    return Counter(success=int(guess == b))


def _crp_trial(cfg: ExperimentConfig, i: int) -> Counter:
    """Baseline forger: queries the instance wherever it likes, then must
    name a fresh far-away challenge together with a reproducible secret;
    the trial succeeds when the forgery fails."""
    pair = _params(ExtPufParams, cfg.n, 1, 1).main
    rng = _trial_rng(cfg, "game", i)
    inst = sample_puf(pair.puf, rng)
    queries = [BitString.random(cfg.n, rng) for _ in range(8)]
    st, p = pair.fe.gen(inst.respond(queries[0], rng), rng)
    while True:
        s = BitString.random(cfg.n, rng)
        if all(hamming_distance(s, q) >= pair.puf.d_min for q in queries):
            break
    return Counter(success=int(pair.fe.rep(inst.respond(s, rng), p) != st))


def _crp_verdict(cfg: ExperimentConfig, report: ExperimentReport) -> dict:
    """A positive pass here is evidence for the assumption, not a proof."""
    rate = report.failures / cfg.trials
    return {"forgery_rate": rate, "passed": rate <= 0.01}


def _fe_roundtrip_trial(cfg: ExperimentConfig, i: int) -> Counter:
    pair = _params(ExtPufParams, cfg.n, cfg.k, cfg.d_noise).main
    rng = _trial_rng(cfg, "game", i)
    inst, s, st, p = _enrolled(pair, rng)
    return Counter(success=int(pair.fe.rep(inst.respond(s, rng), p) == st))


def _fe_uniformity_trial(cfg: ExperimentConfig, i: int) -> Counter:
    """The 4-bit projections of one extracted string, fresh instance per
    trial, and of one uniform string."""
    pair = _params(ExtPufParams, cfg.n, cfg.k, cfg.d_noise).main
    rng = _trial_rng(cfg, "game", i)
    _, _, st, _ = _enrolled(pair, rng)
    return Counter({("real", st.value & 0xF): 1,
                    ("unif", rng.getrandbits(pair.fe.out_len) & 0xF): 1})


def _fe_uniformity(cfg: ExperimentConfig) -> ExperimentReport:
    """Extracted-string-versus-uniform histograms; sampling noise dominates
    the distance."""
    counter = _run_trials(cfg, _fe_uniformity_trial)
    sd = histogram_distance(_tagged(counter, "real"), _tagged(counter, "unif"))
    return _report(cfg, cfg.trials, {"feature_sd": sd, "passed": sd <= SD_BOUND},
                   "fe-uniformity")


# ---------------------------------------------------------------------------
# Experiment table and entry point
# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "completeness": _counted(_completeness_trial, _every_trial),
    "attack-original": _counted(_attack_original_trial, _every_trial),
    "attack-neutralized": _counted(_neutralized_trial, _every_trial),
    "binding": _counted(_binding_trial, _every_trial),
    "hiding": _counted(_hiding_trial, _guessing_game),
    "extraction": _counted(_extraction_trial, _every_trial),
    "costs": _costs_run,
    "lemmas": _lemmas,
    "uc-sim": _ucsim,
    "props-cq": _counted(_close_query_trial, _close_query_verdict, "close-query"),
    "props-indist": _counted(_indist_trial, _guessing_game, "props-indist"),
    "props-crp": _counted(_crp_trial, _crp_verdict, "props-crp"),
    "props-tq": _counted(_test_query_trial, _test_query_verdict, "props-tq"),
    "fe-roundtrip": _counted(_fe_roundtrip_trial, _every_trial, "fe-roundtrip"),
    "fe-uniformity": _fe_uniformity,
}

# the config extras each experiment reads; validation refuses any other
EXTRAS = {"lemmas": ("max_support",), "props-cq": ("queries",)}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    cfg.validate()
    started = time.monotonic()
    report = EXPERIMENTS[cfg.experiment](cfg)
    report.wall_time = time.monotonic() - started
    report.resources.setdefault("jobs", cfg.jobs)
    return report
