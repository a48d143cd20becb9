"""Outside-in layer tracer for the traced benchmark run.

The tracer wraps the public entry points of each ``pufcommit`` layer from
outside the package, only for the duration of one traced trial, and puts
every name back afterwards.  A function entry point is rebound wherever a
``pufcommit`` module holds it: ``fuzzy`` and ``puf`` import ``prf_bits`` by
value and ``session`` imports ``derive_seed`` by value, so wrapping only
the defining module would count PRF time as fuzzy, PUF or protocol time.

Self time of a span is its duration minus the durations of the wrapped
spans nested inside it.  Each traced trial is a root span whose self time
is the ``protocol`` layer: session, protocols, bit strings and the
benchmark's own trial code.  The self times of one trial therefore add up to
the trial's traced duration.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import pufcommit.ecc as ecc
import pufcommit.extract as extract
import pufcommit.functionality as functionality
import pufcommit.fuzzy as fuzzy
import pufcommit.prf as prf
import pufcommit.puf as puf

__all__ = ["LAYERS", "Tracer", "entry_points"]

LAYERS = ("prf", "puf", "fuzzy", "ecc", "router", "log", "extract", "protocol")


def _prf_bytes(args, kwargs):
    nbits = kwargs["nbits"] if "nbits" in kwargs else args[2]
    return "prf.bytes", (nbits + 7) // 8


def _hash_bitops(args, kwargs):
    fe = args[0]
    return "fuzzy.hash_bitops", fe.source_len * fe.out_len


def _ecc_bits(args, kwargs):
    return "ecc.bits", args[0].code_len


def entry_points() -> list:
    """(layer, defining owner, attribute name, work counter or None)."""
    return [
        ("prf", prf, "prf_bits", _prf_bytes),
        ("prf", prf, "derive_seed", None),
        ("puf", puf.PufInstance, "respond", None),
        ("puf", puf, "sample_puf", None),
        ("fuzzy", fuzzy.FuzzyExtractor, "gen", _hash_bitops),
        ("fuzzy", fuzzy.FuzzyExtractor, "rep", _hash_bitops),
        ("ecc", ecc.RepetitionCode, "enc", _ecc_bits),
        ("ecc", ecc.RepetitionCode, "dec", _ecc_bits),
        ("router", functionality.CommPufFunctionality, "handle", None),
        ("log", functionality.EventLog, "append", None),
        ("extract", extract, "run_extractor_original", None),
        ("extract", extract, "run_extractor_modified", None),
        ("extract", extract, "run_extractor_collective", None),
    ]


def _bindings(owner, name) -> list:
    """Every (namespace, name) that holds owner.name: the defining owner,
    plus each loaded pufcommit module that imported the function by value."""
    original = owner.__dict__[name]
    found = [(owner, name)]
    if isinstance(owner, type):
        return found
    for mod_name, module in list(sys.modules.items()):
        if module is owner or not mod_name.startswith("pufcommit"):
            continue
        for attr, value in vars(module).items():
            if value is original:
                found.append((module, attr))
    return found


class Tracer:
    """Accumulates per-layer self time and counts over traced trials."""

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.trial_ns: list[int] = []
        self._stack: list = []
        self._patches = []
        for layer, owner, name, counter in entry_points():
            original = owner.__dict__[name]
            wrapper = self._wrap(layer, original, counter)
            for namespace, attr in _bindings(owner, name):
                self._patches.append((namespace, attr, original, wrapper))

    def _wrap(self, layer, fn, counter):
        stack, self_ns, calls, work = self._stack, self.self_ns, self.calls, self.work

        def traced(*args, **kwargs):
            frame = [perf_counter_ns(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - frame[0]
                stack.pop()
                self_ns[layer] += elapsed - frame[1]
                stack[-1][1] += elapsed
                calls[layer] += 1
                if counter is not None:
                    key, amount = counter(args, kwargs)
                    work[key] += amount

        return traced

    def bound_names(self) -> list:
        """(namespace, attribute) pairs the tracer rebinds during a trial."""
        return [(namespace, attr) for namespace, attr, _, _ in self._patches]

    @contextmanager
    def trial(self):
        """Trace one trial: install the wrappers, time the root span, restore."""
        try:
            for namespace, attr, _, wrapper in self._patches:
                setattr(namespace, attr, wrapper)
            root = [perf_counter_ns(), 0]
            self._stack[:] = [root]
            try:
                yield
            finally:
                elapsed = perf_counter_ns() - root[0]
                self._stack.clear()
                self.self_ns["protocol"] += elapsed - root[1]
                self.trial_ns.append(elapsed)
        finally:
            for namespace, attr, original, _ in self._patches:
                setattr(namespace, attr, original)
