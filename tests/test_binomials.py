import random
from math import comb

from delball.binomials import binomial


def test_examples():
    assert binomial(12, 7) == 792
    assert binomial(-1, 0) == 0
    assert binomial(5, 0) == 1


def test_out_of_range_convention():
    assert binomial(3, -1) == 0
    assert binomial(3, 4) == 0
    assert binomial(-2, -2) == 0


def test_matches_math_comb():
    for a in range(0, 80):
        for b in range(0, a + 1):
            assert binomial(a, b) == comb(a, b)


def test_pascal_rule():
    rng = random.Random(3)
    for _ in range(200):
        a = rng.randint(1, 200)
        b = rng.randint(0, a)
        assert binomial(a, b) == binomial(a - 1, b) + binomial(a - 1, b - 1)

