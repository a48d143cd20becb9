"""Experiment driver: every acceptance experiment as a pure function of
(config, master seed).

Every experiment is one `Experiment` row, run one way: validation runs
the row's checks, `_run_trials` merges its trial counters (costs' one
trial too), `_report` tallies them and the verdict, a pure function of
the config and the merged counters, adds its details.  String keys are
tallied and detailed, (tag, key) keys are for the verdict alone, and
("resources", key) counts are the report's resources.  Trial i draws only
from streams seeded by (master seed, label, i), so trials may run in any
order and across worker processes without changing the report.  Wall
time is measured but kept out of the canonical report.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from multiprocessing import get_context
from random import Random
from typing import Callable, Optional

from ..adversaries import AmbiguousQuerySender, zoo
from ..bits import BitString, hamming_distance, neighborhood_size
from ..entropy import histogram_distance, lemma_violations
from ..extract import run_extractor_collective, run_extractor_original
from ..prf import derive_seed
from ..puf import PufParams, sample_puf
from ..report import ExperimentReport, wilson_interval
from ..session import count_resources
from ..protocols import (
    CpufParams,
    ExtPufParams,
    OriginalExtPufParams,
    channel_params,
    run_collective,
    run_cpuf,
    run_extpuf,
    run_original_extpuf,
    run_uccompiler,
)
from ..protocols.collective import check_order_discipline
from ..protocols.common import mask_commitment, reproduce
from .config import ConfigError, ExperimentConfig
from .ucsim import run_ideal_receiver_corrupt, run_ideal_sender_corrupt, run_real_world

__all__ = ["run_experiment", "Experiment", "EXPERIMENTS", "PROTOCOL_TABLE"]

HIDING_BOUND = 0.02
SD_BOUND = 0.02
CRP_QUERIES = 8   # the props-crp forger's queries before it names a challenge


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


def _per_string_resources(cfg: ExperimentConfig, i: int) -> dict:
    """The compiler's resources with one single-string instance per
    committed string, by the sum rule: one honest run of the n-bit
    challenge string under standard(n, n) plus 4n of a one-bit share under
    the channel bundle, each opening its string once.  Every instance
    spends 2 tokens and 2 phases and every opening 2 evaluations, wherever
    it falls, so the sum is exact for honest runs."""
    rng = _trial_rng(cfg, "sum-rule", i)
    e = run_extpuf(_params(ExtPufParams, cfg.n, cfg.n, cfg.d_noise),
                   BitString.random(cfg.n, rng), _tseed(cfg, "sum-rule/e", i))
    share = run_extpuf(channel_params(cfg.n, cfg.d_noise), BitString.random(1, rng),
                       _tseed(cfg, "sum-rule/share", i))
    e, share = count_resources(e.session.log), count_resources(share.session.log)
    return {key: e[key] + 4 * cfg.n * share[key] for key in e}


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
    per_string: Optional[Callable] = None  # (cfg, i) -> resources of one instance per string

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
    # the compiler derives its channel bundle from n itself
    "uccompiler": ProtocolEntry(
        params=lambda cfg: cfg,
        run=lambda cfg, values, seed, **kw: run_uccompiler(
            cfg.n, values[0], seed, d_noise=cfg.d_noise, **kw),
        experiments=frozenset({"completeness", "costs"}),
        strings=None,
        cost=lambda cfg: (4, 4),
        per_string=_per_string_resources,
    ),
    "blob-equalities": ProtocolEntry(
        params=lambda cfg: cfg,
        run=lambda cfg, values, seed: run_uccompiler(cfg.n, values[0], seed,
                                                     open_phase=False, d_noise=cfg.d_noise),
        experiments=frozenset({"completeness"}),
        strings=None,
        honest_ok=lambda values, out: out.committed,
    ),
}


def _senders(cfg: ExperimentConfig) -> list:
    """cfg.protocol's zoo senders that cfg.adversary names, or all of them."""
    senders = [s for s in zoo() if s.role == "sender" and s.protocol == cfg.protocol]
    if cfg.adversary == "all-senders":
        return senders
    return [s for s in senders if s.strategy_id == cfg.adversary]


def _extra(cfg: ExperimentConfig, key: str):
    """cfg's value of an extra key its experiment reads, else the default."""
    return cfg.extras.get(key, EXPERIMENTS[cfg.experiment].extras[key])


# ---------------------------------------------------------------------------
# Config checks: validation runs a row's checks before its first trial
# ---------------------------------------------------------------------------

def _entry(cfg: ExperimentConfig) -> None:
    entry = PROTOCOL_TABLE.get(cfg.protocol)
    if entry is None or cfg.experiment not in entry.experiments:
        raise ConfigError("protocol", f"{cfg.experiment} undefined for {cfg.protocol!r}")


def _honest_only(cfg: ExperimentConfig) -> None:
    """Completeness, hiding, costs and uc-sim's receiver case run honest parties."""
    if cfg.adversary != "honest":
        raise ConfigError("adversary", f"{cfg.experiment} runs no adversary "
                                       f"strategy, not {cfg.adversary!r}")


def _named_sender(cfg: ExperimentConfig, all_senders: bool = False) -> None:
    """cfg.adversary names a zoo sender of cfg.protocol, or all where allowed."""
    if not _senders(cfg) or (cfg.adversary == "all-senders" and not all_senders):
        raise ConfigError("adversary", f"{cfg.experiment} on {cfg.protocol!r} needs "
                                       f"a zoo sender for it, not {cfg.adversary!r}")


def _one_trial(cfg: ExperimentConfig) -> None:
    # one honest run settles the accounting, so more trials would be ignored
    if cfg.trials != 1:
        raise ConfigError("trials", f"costs runs exactly one trial, not {cfg.trials}; "
                                    f"set trials: 1")
    if cfg.jobs != 1:
        raise ConfigError("jobs", f"costs runs one trial in one process, not on "
                                  f"{cfg.jobs} workers")


def _ucsim_case(cfg: ExperimentConfig) -> None:
    """The receiver case runs honest parties, the sender case at most one
    compiler sender."""
    if cfg.case == "receiver":
        _honest_only(cfg)
    elif cfg.adversary != "honest":
        _named_sender(replace(cfg, protocol="uccompiler"))


def _far_challenge_left(cfg: ExperimentConfig) -> None:
    """Some challenge lies d_min or more from every forger query, else `_crp_trial` never ends."""
    d_min = _params(ExtPufParams, cfg.n, 1, 1).main.puf.d_min
    balls = CRP_QUERIES * neighborhood_size(cfg.n, d_min)
    if balls >= 1 << cfg.n:
        raise ConfigError("n", f"props-crp needs {CRP_QUERIES}*neighborhood_size(n, d_min) < 2^n "
                               f"for a challenge far from every query: {balls} >= {1 << cfg.n}")


def _support_range(cfg: ExperimentConfig) -> None:
    max_support = _extra(cfg, "max_support")
    if not isinstance(max_support, int) or not 2 <= max_support <= 8:
        raise ConfigError("max_support", f"{max_support!r} is not a support "
                          "size in 2..8, the range the suite enumerates")


def _positive_queries(cfg: ExperimentConfig) -> None:
    queries = _extra(cfg, "queries")
    if type(queries) is not int or queries < 1:
        raise ConfigError("queries", f"{queries!r} is not a positive number of "
                          "queries per trial")


# ---------------------------------------------------------------------------
# Per-trial counters and the verdicts that read them merged
# ---------------------------------------------------------------------------

def _every_trial(cfg: ExperimentConfig, counter: Counter) -> dict:
    """The verdict of an experiment that passes when every trial succeeds."""
    return {"passed": counter["success"] == cfg.trials}


def _sampled_run(cfg: ExperimentConfig, i: int, **kw) -> tuple:
    """Trial i's values of cfg.protocol, and the outcome of a run on them."""
    entry = PROTOCOL_TABLE[cfg.protocol]
    values = entry.sample(cfg, _trial_rng(cfg, "input", i))
    return values, entry.run(entry.params(cfg), values, _tseed(cfg, "run", i), **kw)


def _completeness_trial(cfg: ExperimentConfig, i: int) -> Counter:
    values, out = _sampled_run(cfg, i)
    ok = PROTOCOL_TABLE[cfg.protocol].honest_ok(values, out)
    counter = Counter(success=int(ok))
    if not ok:
        counter[f"abort:{out.abort_step or 'reject'}"] += 1
    return counter


def _costs_trial(cfg: ExperimentConfig, i: int) -> Counter:
    """One honest run settles the accounting: it succeeds when the run
    works and spends the tokens and exchange phases the table expects.
    The compiler also counts, by the sum rule, one instance per string."""
    entry = PROTOCOL_TABLE[cfg.protocol]
    values, out = _sampled_run(cfg, i)
    ok = entry.honest_ok(values, out)
    resources = count_resources(out.session.log)
    measured = (resources["pufs_created"], resources["exchange_phases"])
    per_string = entry.per_string(cfg, i) if entry.per_string else {}
    return Counter({**{("resources", key): val for key, val in resources.items()},
                    **{("per_string", key): val for key, val in per_string.items()},
                    ("honest", "accepted"): int(ok),
                    "success": int(ok and measured == entry.cost(cfg))})


def _costs_verdict(cfg: ExperimentConfig, counter: Counter) -> dict:
    resources = _tagged(counter, "resources")
    details = dict(_every_trial(cfg, counter),
                   measured=[resources["pufs_created"], resources["exchange_phases"]],
                   expected=list(PROTOCOL_TABLE[cfg.protocol].cost(cfg)),
                   honest_run_accepted=bool(counter[("honest", "accepted")]))
    per_string = _tagged(counter, "per_string")
    if per_string:
        details["per_string"] = per_string
    return details


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
    answers, so no query can be aimed at a masked secret.  A run that
    commits with a token other than the receiver's own probe is a decoy
    the n-bit return fingerprint missed, which happens about 2^-n of the
    time; it counts as substitution-missed, not as an order violation."""
    params = _params(ExtPufParams, cfg.n, cfg.k, cfg.d_noise)
    aborts: Counter = Counter()
    senders = [s for s in zoo() if s.protocol == "extpuf" and s.role == "sender"]
    for strategy in senders:
        rng = _trial_rng(cfg, f"x/{strategy.strategy_id}", i)
        x = BitString.random(cfg.k, rng)
        out = run_collective(params, [x], derive_seed(cfg.seed, strategy.strategy_id, i),
                             sender_factory=strategy.factory)
        own = out.receiver.probe_sid
        if out.probe_sid not in (None, own):
            aborts["abort:substitution-missed"] = 1
        elif not check_order_discipline(out.session.log, own, "S"):
            aborts["abort:order-violated"] = 1
    return Counter(success=int(not aborts), **aborts)


def _binding_trial(cfg: ExperimentConfig, i: int) -> Counter:
    (strategy,) = _senders(cfg)
    _, out = _sampled_run(cfg, i, sender_factory=strategy.factory)
    broke = any(v is not None for v in out.opened.values())
    return Counter(success=int(not broke), bound_broken=int(broke))


def _extraction_trial(cfg: ExperimentConfig, i: int) -> Counter:
    entry = PROTOCOL_TABLE[cfg.protocol]
    counter: Counter = Counter(success=1)
    for strategy in _senders(cfg):
        rng = _trial_rng(cfg, f"input/{strategy.strategy_id}", i)
        seed = derive_seed(cfg.seed, "run", strategy.strategy_id, i)
        values = entry.sample(cfg, rng)
        out = entry.run(entry.params(cfg), values, seed, sender_factory=strategy.factory)
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


def _hiding_trial(cfg: ExperimentConfig, i: int) -> Counter:
    entry = PROTOCOL_TABLE[cfg.protocol]
    params = entry.params(cfg)
    rng = _trial_rng(cfg, "game", i)
    b = rng.getrandbits(1)
    x0, x1 = BitString.zeros(cfg.k), BitString.ones(cfg.k)
    # a commit-phase-only run; the distinguisher sees what the receiver holds
    out = entry.run(params, [x1 if b else x0] * entry.strings(cfg), _tseed(cfg, "run", i),
                    open_phase=False)
    view, width = entry.commit_view(params, out), params.mask_len // params.k
    for _ in range(2):  # the baseline reconstruction attempt, twice
        q = BitString.random(cfg.n, rng)
        st_guess = reproduce(out.receiver.api, out.receiver.token_sid, q, view["fe"],
                             view["helper"])
        if view["c"] == mask_commitment(st_guess, x0, view["r"], width):
            guess = 0
            break
        if view["c"] == mask_commitment(st_guess, x1, view["r"], width):
            guess = 1
            break
    else:
        guess = rng.getrandbits(1)
    return Counter(success=int(guess == b))


def _guessing_game(cfg: ExperimentConfig, counter: Counter) -> dict:
    """The verdict of a game whose trial succeeds when the distinguisher
    guesses a hidden coin: it passes while the advantage over a coin flip
    stays within HIDING_BOUND."""
    advantage = abs(counter["success"] / cfg.trials - 0.5)
    return {"advantage": advantage, "passed": advantage <= HIDING_BOUND}


def _ucsim_trial(cfg: ExperimentConfig, i: int) -> Counter:
    """A real and an ideal run on one bit, the corrupted party in both."""
    b = _trial_rng(cfg, "bit", i).getrandbits(1)
    kwargs = {"d_noise": cfg.d_noise}
    if cfg.adversary != "honest":
        (strategy,) = _senders(replace(cfg, protocol="uccompiler"))
        kwargs["sender_factory"] = strategy.factory
    ideal_world = (run_ideal_receiver_corrupt if cfg.case == "receiver"
                   else run_ideal_sender_corrupt)
    real, _ = run_real_world(cfg.n, b, _tseed(cfg, "real", i), **kwargs)
    ideal, ideal_out = ideal_world(cfg.n, b, _tseed(cfg, "ideal", i), **kwargs)
    ambiguous = int(ideal_out.abort_step == "sim-A-ambiguous")
    return Counter({("real", real): 1, ("ideal", ideal): 1,
                    ("sim", "ambiguous-abort"): ambiguous}, success=1)


def _ucsim_verdict(cfg: ExperimentConfig, counter: Counter) -> dict:
    real, ideal = _tagged(counter, "real"), _tagged(counter, "ideal")
    sd = histogram_distance(real, ideal)
    ambiguous = counter[("sim", "ambiguous-abort")]
    passed = sd <= SD_BOUND
    details = {"passed": passed, "feature_sd": sd,
               "distinct_features": len(set(real) | set(ideal))}
    if cfg.case == "sender":
        # only a sender can guess e, and only its simulator can meet ambiguous blobs
        details.update(e_guess_bound=2.0 ** -cfg.n,
                       sim_ambiguous_abort_rate=ambiguous / cfg.trials)
    if cfg.adversary == "e-guessing-sender":
        # the simulator-only abort fires exactly when the sender guessed
        # every challenge bit; its rate must sit on the 2^-n bound
        lo, hi = wilson_interval(ambiguous, cfg.trials)
        details["abort_wilson95"] = [lo, hi]
        details["abort_consistent"] = lo <= 2.0 ** -cfg.n <= hi
        details["passed"] = passed and details["abort_consistent"]
    return details


def _lemmas_trial(cfg: ExperimentConfig, i: int) -> Counter:
    violated = lemma_violations(_trial_rng(cfg, "lemmas", i), _extra(cfg, "max_support"))
    return Counter({("violated", lemma): int(bad) for lemma, bad in violated.items()},
                   success=int(not any(violated.values())))


def _lemmas_verdict(cfg: ExperimentConfig, counter: Counter) -> dict:
    return dict(_every_trial(cfg, counter), violations=_tagged(counter, "violated"),
                max_support=_extra(cfg, "max_support"), tolerance=0)


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


def _close_query_trial(cfg: ExperimentConfig, i: int) -> Counter:
    """The adversary holds (sigma, instance) and fires `queries` uniform
    queries; it succeeds if any lands within d_min of the secret challenge."""
    params = _params(PufParams, cfg.n, 8 * ((cfg.n + 7) // 8), 1)
    rng = _trial_rng(cfg, "game", i)
    inst = sample_puf(params, rng)
    s = BitString.random(params.n, rng)
    inst.respond(s, rng)
    got = False
    for _ in range(_extra(cfg, "queries")):
        q = BitString.random(params.n, rng)
        inst.respond(q, rng)
        got |= hamming_distance(q, s) < params.d_min
    return Counter(success=int(got))


def _close_query_verdict(cfg: ExperimentConfig, counter: Counter) -> dict:
    """Blind-guess baseline for landing a query inside the d_min ball: the
    hit rate should stay under 10x the ball fraction."""
    rate = counter["success"] / cfg.trials
    bound = 10.0 * _params(PufParams, cfg.n, 8 * ((cfg.n + 7) // 8), 1).ball_fraction()
    return {"hit_rate": rate, "bound": bound, "within_bound": rate <= bound,
            "passed": rate <= bound, "queries_per_trial": _extra(cfg, "queries")}


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


def _test_query_verdict(cfg: ExperimentConfig, counter: Counter) -> dict:
    """Detection rate of the random-challenge return check: it passes when
    at least 99% of substitutions are flagged and no honest return is."""
    rate = counter["success"] / cfg.trials
    return {"detection_rate": rate,
            "passed": rate >= 0.99 and counter["honest_false_positives"] == 0}


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
    queries = [BitString.random(cfg.n, rng) for _ in range(CRP_QUERIES)]
    st, p = pair.fe.gen(inst.respond(queries[0], rng), rng)
    while True:
        s = BitString.random(cfg.n, rng)
        if all(hamming_distance(s, q) >= pair.puf.d_min for q in queries):
            break
    return Counter(success=int(pair.fe.rep(inst.respond(s, rng), p) != st))


def _crp_verdict(cfg: ExperimentConfig, counter: Counter) -> dict:
    """A positive pass here is evidence for the assumption, not a proof."""
    rate = (cfg.trials - counter["success"]) / cfg.trials
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
                    ("unif", rng.getrandbits(pair.fe.out_len) & 0xF): 1, "success": 1})


def _fe_uniformity_verdict(cfg: ExperimentConfig, counter: Counter) -> dict:
    """Extracted-string-versus-uniform histograms; sampling noise dominates
    the distance."""
    sd = histogram_distance(_tagged(counter, "real"), _tagged(counter, "unif"))
    return {"feature_sd": sd, "passed": sd <= SD_BOUND}


# ---------------------------------------------------------------------------
# Trial loop with optional fork-based workers, and the one report
# ---------------------------------------------------------------------------

def _run_range(args) -> Counter:
    cfg, trial, lo, hi = args
    total: Counter = Counter()
    for i in range(lo, hi):
        total.update(trial(cfg, i))
    return total


def _run_trials(cfg: ExperimentConfig, trial: Callable) -> Counter:
    # Counter.update keeps the zero counts that reports print; + drops them
    if cfg.jobs <= 1:
        return _run_range((cfg, trial, 0, cfg.trials))
    chunk = max(1, math.ceil(cfg.trials / cfg.jobs))
    jobs = [(cfg, trial, lo, min(lo + chunk, cfg.trials))
            for lo in range(0, cfg.trials, chunk)]
    total: Counter = Counter()
    # map returns only once every chunk is back, so leaving the block never
    # terminates a pool whose task handler is still putting chunks
    with get_context("fork").Pool(len(jobs)) as pool:
        for counts in pool.map(_run_range, jobs):
            total.update(counts)
    return total


def _tagged(counter: Counter, tag: str) -> dict:
    """The histogram that trials merged into counter under (tag, key) keys."""
    return {key[1]: val for key, val in counter.items()
            if isinstance(key, tuple) and key[0] == tag}


def _report(cfg: ExperimentConfig, counter: Counter, name: str) -> ExperimentReport:
    """Every report the harness returns.  It takes the config's name, else
    the row's name filled in from the config.  "abort:<step>" counts are
    aborts, a trial that neither succeeded nor aborted failed, every other
    string key is a detail, and ("resources", key) counts are resources."""
    named = {key: val for key, val in counter.items()
             if isinstance(key, str) and key != "success"}
    aborts = {key.split(":", 1)[1]: val for key, val in named.items()
              if key.startswith("abort:")}
    return ExperimentReport(
        name=cfg.name or name.format(experiment=cfg.experiment, protocol=cfg.protocol or "-",
                                     adversary=cfg.adversary),
        trials=cfg.trials, successes=counter["success"],
        failures=cfg.trials - counter["success"] - sum(aborts.values()),
        aborts_by_step=aborts,
        details={key: val for key, val in named.items() if not key.startswith("abort:")},
        resources=_tagged(counter, "resources"),
    )


# ---------------------------------------------------------------------------
# Experiment table and entry point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """trial(cfg, i) counts trial i; verdict(cfg, counter) gives the details,
    "passed" among them; name is filled in from the config; checks(cfg)
    refuse a config; extras maps each key read beyond the fields to its default."""

    trial: Callable
    verdict: Callable
    name: str = "{experiment}/{protocol}/{adversary}"
    checks: tuple = ()
    extras: dict = field(default_factory=dict)


EXPERIMENTS = {
    "completeness": Experiment(_completeness_trial, _every_trial,
                               checks=(_entry, _honest_only)),
    "attack-original": Experiment(_attack_original_trial, _every_trial),
    "attack-neutralized": Experiment(_neutralized_trial, _every_trial),
    "binding": Experiment(_binding_trial, _every_trial, checks=(_entry, _named_sender)),
    "hiding": Experiment(_hiding_trial, _guessing_game, checks=(_entry, _honest_only)),
    "extraction": Experiment(_extraction_trial, _every_trial,
                             checks=(_entry, partial(_named_sender, all_senders=True))),
    "costs": Experiment(_costs_trial, _costs_verdict, "{experiment}/{protocol}/collective",
                        (_entry, _honest_only, _one_trial)),
    "lemmas": Experiment(_lemmas_trial, _lemmas_verdict, "entropy-lemmas",
                         (_support_range,), {"max_support": 8}),
    "uc-sim": Experiment(_ucsim_trial, _ucsim_verdict, checks=(_ucsim_case,)),
    "props-cq": Experiment(_close_query_trial, _close_query_verdict, "close-query",
                           (_positive_queries,), {"queries": 8}),
    "props-indist": Experiment(_indist_trial, _guessing_game, "props-indist"),
    "props-crp": Experiment(_crp_trial, _crp_verdict, "props-crp", (_far_challenge_left,)),
    "props-tq": Experiment(_test_query_trial, _test_query_verdict, "props-tq"),
    "fe-roundtrip": Experiment(_fe_roundtrip_trial, _every_trial, "fe-roundtrip"),
    "fe-uniformity": Experiment(_fe_uniformity_trial, _fe_uniformity_verdict, "fe-uniformity"),
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Validate cfg, run its experiment's trials and return the report
    with the verdict's details."""
    row = EXPERIMENTS[cfg.validate().experiment]
    started = time.monotonic()
    counter = _run_trials(cfg, row.trial)
    report = _report(cfg, counter, row.name)
    report.details.update(row.verdict(cfg, counter))
    report.wall_time = time.monotonic() - started
    report.resources.setdefault("jobs", cfg.jobs)
    return report
