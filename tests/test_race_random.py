"""The races' generator: its binomial and multinomial draws against their exact laws.

Each law check bins about 40 000 draws at a fixed seed, pools the cells whose
expected count is below 5 into one, and turns Pearson's chi-square into a
z-score by the Wilson-Hilferty cube root; a correct sampler stays below 4.
"""

import random
import sys
from collections import Counter
from math import exp, lgamma, log, log1p, sqrt

import pytest

from blowupforms.mcoracle import RaceRandom

DRAWS = 40_000
# (n, p): the geometric method (np < 10), BTRS (np >= 10), p > 0.5 by symmetry
CASES = [(20, 0.3), (1000, 0.02), (10 ** 6, 0.4), (50, 0.9), (10 ** 5, 1e-5), (200, 0.5),
         (10 ** 4, 0.07)]


def chi_square_z(observed: Counter, pmf: dict, draws: int) -> float:
    """The Wilson-Hilferty z of Pearson's chi-square of ``observed`` against ``pmf``.

    Cells with an expected count below 5 are pooled, with every outcome
    ``pmf`` leaves out, into one rest cell.
    """
    kept = {x: draws * q for x, q in pmf.items() if draws * q >= 5}
    for x in sorted(kept, key=kept.get):
        if draws - sum(kept.values()) >= 5 or len(kept) == 2:
            break
        del kept[x]
    cells = [(observed[x], e) for x, e in kept.items()]
    rest = (draws - sum(o for o, _ in cells), draws - sum(kept.values()))
    cells += [rest] if rest[1] > 0 else []
    chi2 = sum((o - e) ** 2 / e for o, e in cells)
    df = len(cells) - 1
    return ((chi2 / df) ** (1 / 3) - (1 - 2 / (9 * df))) / sqrt(2 / (9 * df))


def binomial_pmf(n: int, p: float) -> dict[int, float]:
    """Binomial(n, p) on the outcomes within 10 standard deviations of the mean."""
    sd = sqrt(n * p * (1 - p))
    lo, hi = max(0, int(n * p - 10 * sd) - 1), min(n, int(n * p + 10 * sd) + 1)
    return {k: exp(lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
                   + k * log(p) + (n - k) * log1p(-p)) for k in range(lo, hi + 1)}


@pytest.mark.parametrize("n, p", CASES)
def test_binomial_matches_its_pmf(n, p):
    rng = RaceRandom((n, int(p * 10 ** 6)))
    observed = Counter(rng.binomial(n, p) for _ in range(DRAWS))
    assert all(0 <= k <= n for k in observed)
    assert chi_square_z(observed, binomial_pmf(n, p), DRAWS) < 4


def test_binomial_edges():
    rng = RaceRandom(3)
    assert {rng.binomial(0, 0.3) for _ in range(100)} == {0}
    assert {rng.binomial(7, 0.0) for _ in range(100)} == {0}
    assert {rng.binomial(7, 1.0) for _ in range(100)} == {7}
    ones = Counter(rng.binomial(1, 0.3) for _ in range(DRAWS))
    assert set(ones) == {0, 1}
    assert chi_square_z(ones, {0: 0.7, 1: 0.3}, DRAWS) < 4
    for n, p in [(-1, 0.5), (5, -0.1), (5, 1.5)]:
        with pytest.raises(ValueError):
            rng.binomial(n, p)


def test_multinomial():
    rng = RaceRandom(5)
    for n, pvals in [(0, [0.2, 0.8]), (1, [1.0]), (17, [0.0, 0.3, 0.0, 0.7, 0.0]),
                     (10 ** 9, [0.1, 0.0, 0.6, 0.3]), (12, [0.5, 0.5, 0.0])]:
        for _ in range(200):
            counts = rng.multinomial(n, pvals)
            assert len(counts) == len(pvals) and sum(counts) == n
            assert all(c == 0 for c, p in zip(counts, pvals) if p == 0), (n, pvals, counts)
    # the law of three categories, on every outcome of 8 draws
    pvals = [0.2, 0.5, 0.3]
    pmf = {}
    for a in range(9):
        for b in range(9 - a):
            c = 8 - a - b
            pmf[a, b, c] = exp(lgamma(9) - lgamma(a + 1) - lgamma(b + 1) - lgamma(c + 1)) \
                * 0.2 ** a * 0.5 ** b * 0.3 ** c
    observed = Counter(tuple(rng.multinomial(8, pvals)) for _ in range(DRAWS))
    assert chi_square_z(observed, pmf, DRAWS) < 4


def test_seeds_are_read_as_int_tuples():
    # an int is its 1-tuple; distinct tuples, even of the same digits, seed distinct streams
    assert RaceRandom(12).random() == RaceRandom((12,)).random()
    streams = {RaceRandom(seed).random() for seed in [(1, 23), (12, 3), (123,), (1, 2, 3), ()]}
    assert len(streams) == 5
    # the seed is read as text, whose sha512 digest does not depend on the hash seed
    assert RaceRandom((4, 0, 48)).random() == random.Random("4,0,48").random()


@pytest.mark.skipif(sys.version_info < (3, 12), reason="binomialvariate is new in Python 3.12")
def test_binomial_is_binomialvariate_draw_for_draw():
    for n, p in CASES + [(0, 0.5), (1, 0.3), (1, 0.8), (9, 0.0), (9, 1.0), (30, 0.34)]:
        port, stdlib = RaceRandom((n, 7)), RaceRandom((n, 7))
        assert [port.binomial(n, p) for _ in range(2000)] == \
            [stdlib.binomialvariate(n, p) for _ in range(2000)], (n, p)
        assert port.random() == stdlib.random()
