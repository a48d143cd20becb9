from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from pufcommit import entropy
from pufcommit.entropy import (
    avg_min_entropy_matrix,
    guessing_weight,
    histogram_distance,
    lemma_violations,
    max_entropy,
    min_entropy,
    statistical_distance,
)

HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)


def direct_guessing_probability(w) -> Fraction:
    """Independent oracle: E_y max_x Pr[X = x | Y = y] from the defining
    formula, with explicit conditionals, in exact rationals."""
    total = sum(map(sum, w))
    guess = Fraction(0)
    for y in range(len(w[0])):
        w_y = sum(row[y] for row in w)
        if w_y == 0:
            continue  # zero-probability condition contributes nothing
        p_y = Fraction(w_y, total)
        guess += p_y * max(Fraction(row[y], w_y) for row in w)
    return guess


def random_weights(rng: Random, nx: int, ny: int) -> list[list[int]]:
    return [[rng.randrange(1000) for _ in range(ny)] for _ in range(nx)]


def test_uniform_bit_with_independent_condition():
    probs = [[HALF * Fraction(3, 10), HALF * Fraction(7, 10)]] * 2
    assert avg_min_entropy_matrix(probs) == 1.0
    assert min_entropy([sum(row) for row in probs]) == 1.0


def test_fully_revealed_bit():
    assert avg_min_entropy_matrix([[HALF, 0], [0, HALF]]) == 0.0


def test_avg_min_entropy_agrees_with_direct_formula():
    rng = Random(42)
    for _ in range(1000):
        w = random_weights(rng, rng.randint(1, 5), rng.randint(1, 5))
        total = sum(map(sum, w))
        if total == 0:
            continue
        assert Fraction(guessing_weight(w), total) == direct_guessing_probability(w)
        probs = [[Fraction(v, total) for v in row] for row in w]
        assert guessing_weight(probs) == direct_guessing_probability(w)


def test_zero_probability_rows_skipped():
    assert avg_min_entropy_matrix([[HALF, 0, HALF], [0, 0, 0]]) == 0.0


def test_draws_have_the_fixed_total():
    rng = Random(3)
    for size in (1, 2, 7, 64):
        w = entropy._weights(rng, size)
        assert len(w) == size and min(w) >= 0 and sum(w) == entropy._TOTAL


def test_statistical_distance_cases():
    p = {0: 0.5, 1: 0.5}
    assert statistical_distance(p, p) == 0.0
    assert statistical_distance({0: 1.0, 1: 0.0}, {0: 0.0, 1: 1.0}) == 1.0
    with pytest.raises(ValueError, match="SUPPORT_MISMATCH"):
        statistical_distance({0: 1.0}, {1: 1.0})


def test_empirical_histograms_of_same_process_are_close():
    # two runs of the same sampler, 1e5 samples: distance within noise
    rng = Random(7)
    a = Counter(rng.getrandbits(4) for _ in range(100_000))
    b = Counter(rng.getrandbits(4) for _ in range(100_000))
    assert histogram_distance(a, b) <= 0.02


def test_lemma_equality_tight_case():
    # X = Y uniform on a 4-element set: Pr[X=Y] = 1 and the bound is 2^0
    eye = [[QUARTER if i == j else 0 for j in range(4)] for i in range(4)]
    assert sum(eye[i][i] for i in range(4)) == 1
    assert guessing_weight(eye) == 1
    assert avg_min_entropy_matrix(eye) == 0.0


def test_chain_rule_constant_extra_is_tight():
    # appending a constant variable (support size 1, max-entropy 0) changes
    # nothing: the flattened (Y, Z) condition is the Y condition itself
    w = random_weights(Random(5), 4, 4)
    with_const = [[[v] for v in row] for row in w]
    flat = [[v for cell in row for v in cell] for row in with_const]
    assert guessing_weight(flat) == guessing_weight(w)
    assert max_entropy(1) == 0.0


def check_entropy_lemmas(trials: int, max_support: int = 8,
                         seed: int = 0) -> tuple[dict, int]:
    """The suite over one stream: (violations per lemma, trials with any
    violation)."""
    rng = Random(seed)
    violations = dict.fromkeys(entropy._CHECKS, 0)
    failed_trials = 0
    for _ in range(trials):
        violated = lemma_violations(rng, max_support)
        for name, bad in violated.items():
            violations[name] += bad
        failed_trials += any(violated.values())
    return violations, failed_trials


def test_lemma_suite_small_run():
    violations, failed = check_entropy_lemmas(500, max_support=6, seed=123)
    assert failed == 0
    assert all(v == 0 for v in violations.values())


def _chain_rule_without_h0(rng, max_support):
    # the weak chain rule with its -H0(Z) term dropped, which is false:
    # Havg(X|Y,Z) >= Havg(X|Y), i.e. G(w_xyz) <= G(w_xy)
    nx, ny, nz = (rng.randint(2, max_support) for _ in range(3))
    flat = entropy._weights(rng, nx * ny * nz)
    wxyz = [flat[i:i + ny * nz] for i in range(0, len(flat), ny * nz)]
    wxy = [[sum(row[j:j + nz]) for j in range(0, ny * nz, nz)] for row in wxyz]
    return [(guessing_weight(wxyz), guessing_weight(wxy))]


def test_suite_flags_a_false_inequality(monkeypatch):
    # negative control: the suite's comparison must see a wrong bound
    monkeypatch.setitem(entropy._CHECKS, "chain_rule", _chain_rule_without_h0)
    violations, failed = check_entropy_lemmas(200, seed=4)
    assert violations["chain_rule"] >= 150
    assert failed == violations["chain_rule"]
    assert sum(violations.values()) == violations["chain_rule"]
