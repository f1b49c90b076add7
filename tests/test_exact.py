import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delball.exact import (
    EnumerationBudgetError,
    ball_size,
    ball_size_all,
    canonical_ball_size,
    enumerate_ball,
    enumeration_budget,
)
from delball.words import RunProfile, Word, canonical_profile, canonical_word, encode_runs, parse_word


def texts(ball):
    return sorted(word.text() for word in ball)


def test_enumerate_ball_examples():
    assert texts(enumerate_ball(parse_word("0101"), 1)) == ["001", "010", "011", "101"]
    assert texts(enumerate_ball(parse_word("0000"), 2)) == ["00"]
    word = parse_word("0123", 4)
    assert enumerate_ball(word, 4) == {Word((), 4)}
    assert enumerate_ball(word, -1) == set()
    assert enumerate_ball(word, 5) == set()


def test_enumerate_ball_budget():
    word = Word(tuple(i % 2 for i in range(16)), 2)
    with pytest.raises(EnumerationBudgetError):
        enumerate_ball(word, 8, budget=100)
    assert len(enumerate_ball(word, 8, budget=13000)) > 0


def test_budget_env_override(monkeypatch):
    monkeypatch.delenv("DELBALL_ENUM_BUDGET", raising=False)
    assert enumeration_budget() == 2_000_000
    monkeypatch.setenv("DELBALL_ENUM_BUDGET", "50")
    assert enumeration_budget() == 50
    word = Word(tuple(i % 2 for i in range(12)), 2)
    with pytest.raises(EnumerationBudgetError):
        enumerate_ball(word, 6)
    monkeypatch.setenv("DELBALL_ENUM_BUDGET", "zero")
    with pytest.raises(ValueError):
        enumeration_budget()


def test_ball_size_table_values():
    assert ball_size(parse_word("000000011022200000333333"), 7) == 326
    assert ball_size(parse_word("000000011233300000111111"), 7) == 378
    assert ball_size(parse_word("0011"), 1) == 2


def test_ball_size_conventions():
    word = parse_word("0102", 3)
    assert ball_size(word, -1) == 0
    assert ball_size(word, 5) == 0
    assert ball_size(word, 4) == 1
    assert ball_size(word, 0) == 1
    empty = Word((), 3)
    assert ball_size(empty, 0) == 1
    assert ball_size(empty, 1) == 0


def test_ball_size_all_matches_pointwise():
    rng = random.Random(5)
    for _ in range(50):
        q = rng.randint(1, 4)
        word = Word(tuple(rng.randrange(q) for _ in range(rng.randint(0, 12))), q)
        sizes = ball_size_all(word)
        assert len(sizes) == len(word) + 1
        for t in range(len(word) + 1):
            assert sizes[t] == ball_size(word, t)
        t_min = rng.randint(0, len(word))
        t_max = rng.randint(t_min, len(word))
        assert ball_size_all(word, t_min, t_max) == sizes[t_min : t_max + 1]
        assert ball_size_all(word, t_min) == sizes[t_min:]
    word = parse_word("0110")
    for t_min, t_max in ((-1, 2), (3, 2), (0, 5)):
        with pytest.raises(ValueError, match=r"need 0 <= t_min <= t_max <= n=4"):
            ball_size_all(word, t_min, t_max)


def test_dp_equals_enumeration_exhaustive_binary():
    for n in range(0, 8):
        for bits in product((0, 1), repeat=n):
            word = Word(bits, 2)
            sizes = ball_size_all(word)
            for t in range(n + 1):
                assert sizes[t] == len(enumerate_ball(word, t))


def test_dp_equals_enumeration_random():
    rng = random.Random(6)
    for _ in range(200):
        q = rng.randint(1, 4)
        n = rng.randint(0, 10)
        word = Word(tuple(rng.randrange(q) for _ in range(n)), q)
        t = rng.randint(-1, n + 1)
        assert ball_size(word, t) == len(enumerate_ball(word, t))


@st.composite
def run_words(draw):
    """Words of at most 12 symbols over q in 1..4, built from runs of length 1..6."""
    q = draw(st.integers(1, 4))
    runs = draw(st.lists(st.tuples(st.integers(0, q - 1), st.integers(1, 6)), max_size=12))
    symbols = [a for a, x in runs for _ in range(x)][:12]
    return Word(tuple(symbols), q)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(run_words())
@example(Word((), 1))
@example(Word((), 3))
@example(Word((0,) * 12, 1))
@example(Word((2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0), 3))
def test_dp_equals_enumeration_property(word):
    n = len(word)
    profile = encode_runs(word)
    sizes = ball_size_all(word)
    assert len(sizes) == n + 1
    assert ball_size_all(profile) == sizes
    for t in range(-1, n + 2):
        expected = len(enumerate_ball(word, t))
        assert ball_size(word, t) == ball_size(profile, t) == expected
        assert enumerate_ball(profile, t) == enumerate_ball(word, t)
        if 0 <= t <= n:
            assert sizes[t] == expected


def test_band_at_large_n():
    # One deletion leaves one distinct word per run, n - 1 deletions one per
    # symbol used.  A full-width row would take n * n cells here.
    rng = random.Random(8)
    n = 10**5
    symbols = []
    while len(symbols) < n:
        symbols += [rng.randrange(3)] * rng.randint(1, 6)
    word = Word(tuple(symbols[:n]), 5)
    assert ball_size(word, 1) == encode_runs(word).run_count
    assert ball_size(word, n - 1) == len(set(word.symbols)) == 3
    assert ball_size_all(word, 0, 1) == [1, encode_runs(word).run_count]
    assert ball_size_all(word, n - 1, n) == [3, 1]
    assert ball_size(Word((0,) * n, 1), 1) == 1


def test_runs_far_longer_than_the_band():
    # A run costs the width of the DP row, not its length: as words these
    # profiles would hold up to tens of millions of symbols.
    rng = random.Random(9)
    for _ in range(30):
        q = rng.randint(2, 4)
        lengths = tuple(
            rng.choice((1, 2, rng.randint(3, 10**7))) for _ in range(rng.randint(1, 7))
        )
        profile = canonical_profile(lengths, q)
        expected = [canonical_ball_size(lengths, q, t) for t in range(5)]
        assert [ball_size(profile, t) for t in range(5)] == expected
        if len(profile) >= 4:
            assert ball_size_all(profile, 0, 4) == expected

    # 0^a 1^b keeps 0^i 1^(s-i) for max(0, s - b) <= i <= min(a, s).
    for a, b in ((10**7, 3), (3, 10**7), (10**7, 10**7 + 1), (5, 9)):
        profile = RunProfile((a, b), (0, 1), 2)
        n = a + b
        ts = [*range(7), *range(n - 6, n + 1)]
        expected = [min(a, n - t) - max(0, n - t - b) + 1 for t in ts]
        assert [ball_size(profile, t) for t in ts] == expected
        assert ball_size_all(profile, 0, 6) + ball_size_all(profile, n - 6, n) == expected


def test_canonical_ball_size_table_rows():
    assert canonical_ball_size((6, 3, 1, 4, 4, 6), 3, 7) == 434
    assert canonical_ball_size((4, 3, 3, 4, 5, 5), 3, 7) == 625
    assert canonical_ball_size((7,), 4, 0) == 1
    assert canonical_ball_size((), 3, 0) == 1


def test_canonical_ball_size_validation():
    with pytest.raises(ValueError):
        canonical_ball_size((2, 2), 1, 1)
    with pytest.raises(ValueError):
        canonical_ball_size((2, 0), 3, 1)


def test_canonical_ball_size_matches_dp():
    rng = random.Random(7)
    for _ in range(150):
        q = rng.randint(2, 5)
        lengths = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 8)))
        sizes = ball_size_all(canonical_word(lengths, q))
        n = sum(lengths)
        for t in range(-1, n + 2):
            expected = sizes[t] if 0 <= t <= n else 0
            assert canonical_ball_size(lengths, q, t) == expected
