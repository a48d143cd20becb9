"""Exact entropy calculators over explicit finite distributions.

A joint distribution of (X, Y) is a nested sequence of non-negative
weights w[x][y] with total T: probabilities (T = 1) or integer counts.
All quantities are computed by direct enumeration, never estimated from
samples, so they can serve as oracles for the statistical layers above.
Logs are base 2 throughout; entropies are in bits.

The central quantity is the average (conditional) min-entropy

    Havg(X | Y) = -log2( E_{y <- Y} [ max_x Pr[X = x | Y = y] ] )
                = -log2( G(w) / T ),   G(w) = sum_y max_x w[x][y],

the standard measure of how well X can be guessed after seeing Y
(Dodis, Reyzin and Smith, "Fuzzy Extractors").  G is the guessing weight.

The suite at the bottom stress-tests the inequalities this package leans
on (monotonicity under functions, independence, the weak chain rule, the
equality and neighborhood bounds) on random small-support distributions.
Those are integer weights with one fixed total, so every inequality is a
comparison of integer guessing weights: exact, with no tolerance and no
logarithm.  log2 is taken only by the public calculators.
"""

from __future__ import annotations

import math
from random import Random

from .bits import neighborhood_size

__all__ = [
    "guessing_weight",
    "min_entropy",
    "max_entropy",
    "avg_min_entropy_matrix",
    "statistical_distance",
    "histogram_distance",
    "lemma_violations",
]


def guessing_weight(w):
    """G(w) = sum_y max_x w[x][y], the weight of guessing X from Y.

    Zero-weight columns contribute nothing (their column max is 0)."""
    return sum(map(max, zip(*w)))


def min_entropy(p) -> float:
    """H_inf(X) = -log2 max_x Pr[X = x]."""
    return -math.log2(max(p))


def max_entropy(support_size: int) -> float:
    """H_0(X) = log2 |supp(X)|."""
    if support_size < 1:
        raise ValueError("empty support")
    return math.log2(support_size)


def avg_min_entropy_matrix(probs) -> float:
    """Average min-entropy of X given Y from the joint probs[x][y]."""
    return -math.log2(guessing_weight(probs))


def statistical_distance(p: dict, q: dict) -> float:
    """Total variation distance (1/2) sum |p(x) - q(x)| over a shared support."""
    if set(p) != set(q):
        raise ValueError("SUPPORT_MISMATCH: distributions on different supports")
    return 0.5 * sum(abs(p[x] - q[x]) for x in p)


def histogram_distance(counts_a: dict, counts_b: dict) -> float:
    """Empirical statistical distance of two count histograms.

    Supports are unioned (a missing bin counts as zero), which is the
    right behavior for sampled data where a rare bin may appear on only
    one side.
    """
    total_a = sum(counts_a.values())
    total_b = sum(counts_b.values())
    if total_a == 0 or total_b == 0:
        raise ValueError("empty histogram")
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(
        abs(counts_a.get(k, 0) / total_a - counts_b.get(k, 0) / total_b) for k in keys
    )


# ---------------------------------------------------------------------------
# Inequality suite
# ---------------------------------------------------------------------------
#
# Each check draws fresh distributions and returns (lhs, rhs) pairs of
# integers, every one claiming lhs <= rhs.  An entropy bound H >= H'
# between two joints of totals T and T' reads G * T' <= G' * T.

_TOTAL_BITS = 32
_TOTAL = 1 << _TOTAL_BITS   # total weight of every drawn distribution


def _weights(rng: Random, size: int) -> list[int]:
    """size non-negative integer weights summing to _TOTAL: the gaps between
    sorted uniform cuts, the lattice form of a Dirichlet(1) draw."""
    cuts = sorted(rng.getrandbits(_TOTAL_BITS) for _ in range(size - 1))
    return [hi - lo for lo, hi in zip([0, *cuts], [*cuts, _TOTAL])]


def _joint(rng: Random, nx: int, ny: int) -> list[list[int]]:
    flat = _weights(rng, nx * ny)
    return [flat[i:i + ny] for i in range(0, nx * ny, ny)]


def _check_function(rng: Random, max_support: int):
    # Havg(X|Y) <= Havg(X|f(Y)) for any post-processing f of the condition.
    nx = rng.randint(2, max_support)
    ny = rng.randint(2, max_support)
    nz = rng.randint(1, ny)
    w = _joint(rng, nx, ny)
    f = [rng.randrange(nz) for _ in range(ny)]
    wf = [[0] * nz for _ in range(nx)]
    for row, out in zip(w, wf):
        for y, v in enumerate(row):
            out[f[y]] += v
    return [(guessing_weight(wf), guessing_weight(w))]


def _check_independent(rng: Random, max_support: int):
    # (X,Y) independent of Z: conditioning on Z changes nothing.
    nx = rng.randint(2, max_support)
    ny = rng.randint(2, max_support)
    nz = rng.randint(2, max_support)
    wxy = _joint(rng, nx, ny)
    wz = _weights(rng, nz)
    # flatten (Y, Z) as the condition
    g_xyz = guessing_weight([[a * b for a in row for b in wz] for row in wxy])
    g_xy = _TOTAL * guessing_weight(wxy)
    # X independent of Z: conditional equals plain min-entropy
    wx = [sum(row) for row in wxy]
    g_xz = guessing_weight([[a * b for b in wz] for a in wx])
    g_x = _TOTAL * max(wx)
    return [(g_xyz, g_xy), (g_xy, g_xyz), (g_xz, g_x), (g_x, g_xz)]


def _check_minentropy(rng: Random, max_support: int):
    # Family {X_a} sharing one Y, selected by an independent index A:
    #   Havg(X_A|Y) >= -log2( sum_a 2^(-Havg(X_a|Y)) ) >= min_a Havg(X_a|Y) - log2|D_A|
    na = rng.randint(2, min(4, max_support))
    nx = rng.randint(2, max_support)
    ny = rng.randint(2, max_support)
    qy = _weights(rng, ny)
    wa = _weights(rng, na)
    members = []
    for _ in range(na):
        # column y is Pr[X_a = . | Y = y] * Pr[Y = y]: a common Y marginal
        columns = [[q * v for v in _weights(rng, nx)] for q in qy]
        members.append(list(zip(*columns)))
    mix = [[sum(a * v for a, v in zip(wa, cells)) for cells in zip(*rows)]
           for rows in zip(*members)]
    g_mix = guessing_weight(mix)
    gs = [guessing_weight(m) for m in members]
    return [(g_mix, _TOTAL * sum(gs)), (g_mix, _TOTAL * na * max(gs))]


def _check_chain_rule(rng: Random, max_support: int):
    # Havg(X|Y,Z) >= Havg(X|Y) - H0(Z), and Havg(X|Z) >= Hinf(X) - H0(Z).
    nx = rng.randint(2, max_support)
    ny = rng.randint(2, max_support)
    nz = rng.randint(1, max_support)
    nyz = ny * nz
    flat = _weights(rng, nx * nyz)
    wxyz = [flat[i:i + nyz] for i in range(0, nx * nyz, nyz)]   # z varies fastest
    wxy = [[sum(row[j:j + nz]) for j in range(0, nyz, nz)] for row in wxyz]
    wxz = [[sum(row[z::nz]) for z in range(nz)] for row in wxyz]
    wx = [sum(row) for row in wxyz]
    return [(guessing_weight(wxyz), nz * guessing_weight(wxy)),
            (guessing_weight(wxz), nz * max(wx))]


def _check_equality(rng: Random, max_support: int):
    # X, Y on the same set: Pr[X = Y] <= 2^(-Havg(X|Y)).
    d = rng.randint(2, max_support)
    w = _joint(rng, d, d)
    return [(sum(w[i][i] for i in range(d)), guessing_weight(w))]


def _check_neighborhood(rng: Random, max_support: int):
    # Hamming balls A(d) of constant size covering D = {0,1}^b:
    #   Pr[X in A(Y)] <= |A| * 2^(-Havg(X|Y)).
    b = rng.randint(1, 3)
    if (1 << b) > max_support:
        b = max(1, max_support.bit_length() - 1)
    size = 1 << b
    radius = rng.randint(1, b + 1)
    w = _joint(rng, size, size)
    inside = sum(w[x][y] for x in range(size) for y in range(size)
                 if (x ^ y).bit_count() < radius)
    return [(inside, neighborhood_size(b, radius) * guessing_weight(w))]


_CHECKS = {
    "function": _check_function,
    "independent": _check_independent,
    "minentropy": _check_minentropy,
    "chain_rule": _check_chain_rule,
    "equality": _check_equality,
    "neighborhood": _check_neighborhood,
}


def lemma_violations(rng: Random, max_support: int = 8) -> dict:
    """One trial of the suite: draw fresh distributions with supports of
    size at most ``max_support`` from rng, compare both sides of every
    inequality exactly, and return {lemma: violated}.  A violation is
    reported, never raised; the caller counts trials."""
    return {name: any(lhs > rhs for lhs, rhs in check(rng, max_support))
            for name, check in _CHECKS.items()}
