import copy
import os
import random
import sys
import threading
import time
import tracemalloc
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delball import exact, oracles, split
from delball.bounds import report_for_word, sweep_reports
from delball.exact import SPLIT_MIN_CELLS, _fold, _split_plan, ball_size, ball_size_all
from delball.ops import _ball_sizes, balance_step, balancing_chain, cyclicize
from delball.oracles import EnumerationBudgetError, canonical_ball_size, enumerate_ball, enumeration_budget
from delball.words import (
    RunProfile,
    Word,
    canonical_profile,
    canonical_word,
    encode_runs,
    parse_run_profile,
    parse_word,
)


def texts(ball):
    return sorted(word.text() for word in ball)


def test_enumerate_ball_examples():
    assert texts(enumerate_ball(parse_word("0101"), 1)) == ["001", "010", "011", "101"]
    assert texts(enumerate_ball(parse_word("0000"), 2)) == ["00"]
    word = parse_word("0123", 4)
    assert enumerate_ball(word, 4) == {Word((), 4)}
    assert enumerate_ball(word, -1) == set()
    assert enumerate_ball(word, 5) == set()


def test_enumerate_ball_budget(monkeypatch):
    word = Word(tuple(i % 2 for i in range(16)), 2)  # C(16, 8) = 12,870 candidates of 8 symbols
    monkeypatch.setenv("DELBALL_ENUM_BUDGET", "100")
    with pytest.raises(EnumerationBudgetError):
        enumerate_ball(word, 8)
    monkeypatch.setenv("DELBALL_ENUM_BUDGET", "102960")
    assert len(enumerate_ball(word, 8)) > 0


def test_enumerate_ball_budget_boundary(monkeypatch):
    word = parse_word("0101010101")  # C(10, 5) = 252 candidates of 5 symbols at t = 5
    monkeypatch.setenv("DELBALL_ENUM_BUDGET", "1260")
    assert len(enumerate_ball(word, 5)) == ball_size(word, 5)
    monkeypatch.setenv("DELBALL_ENUM_BUDGET", "1259")
    with pytest.raises(EnumerationBudgetError, match=r"^C\(10, 5\) .* exceed budget 1259$"):
        enumerate_ball(word, 5)
    # One candidate when k = min(t, n - t) = 0: the word itself at t = 0
    # (10 symbols) and the empty word at t = n (counted as one symbol).
    monkeypatch.setenv("DELBALL_ENUM_BUDGET", "10")
    assert enumerate_ball(Word((), 2), 0) == {Word((), 2)}
    assert enumerate_ball(RunProfile((), (), 2), 0) == {Word((), 2)}
    assert enumerate_ball(word, 0) == {word}
    assert enumerate_ball(word, 10) == {Word((), 2)}
    with pytest.raises(EnumerationBudgetError):
        enumerate_ball(word, 1)  # 10 candidates of 9 symbols
    monkeypatch.setenv("DELBALL_ENUM_BUDGET", "1")
    assert enumerate_ball(word, 10) == {Word((), 2)}
    with pytest.raises(EnumerationBudgetError):
        enumerate_ball(word, 0)


def test_enumerate_ball_budget_matches_binomial(monkeypatch):
    # The guard admits exactly the (n, t, budget) with C(n, t) candidates of
    # n - t symbols, C(n, t) * max(1, n - t), within the budget, budgets on
    # both sides of a power of two included.  Admitted requests generate no
    # candidate here, so large budgets stay cheap.
    monkeypatch.setattr(oracles, "combinations", lambda symbols, length: ())
    for budget in (1, 2, 3, 4, 7, 8, 9, 251, 252, 253, 2_000_000, 2**64 - 1, 2**64, 2**64 + 1):
        monkeypatch.setenv("DELBALL_ENUM_BUDGET", str(budget))
        for n in range(0, 90):
            word = Word((0,) * n, 1)
            for t in range(0, n + 1):
                try:
                    admitted = enumerate_ball(word, t) == set()
                except EnumerationBudgetError:
                    admitted = False
                assert admitted == (comb(n, t) * max(1, n - t) <= budget), (n, t, budget)


def test_enumerate_ball_refuses_huge_requests_at_once(monkeypatch):
    # The guard bounds C(n, t) from below by 2**min(t, n - t) and never
    # builds it: no digit-limit error, and no 600,000-digit number first.
    # The last request has few candidates, each one long.
    monkeypatch.delenv("DELBALL_ENUM_BUDGET", raising=False)
    for profile, t, message in (
        (RunProfile((10**6, 10**6), (0, 1), 2), 10**6, "C(2000000, 1000000) candidates of 1000000 symbols"),
        (RunProfile((10**4, 10**4), (0, 1), 2), 10**4, "C(20000, 10000) candidates of 10000 symbols"),
        (RunProfile((20_000,), (0,), 1), 1, "C(20000, 1) candidates of 19999 symbols"),
    ):
        started = time.perf_counter()
        with pytest.raises(EnumerationBudgetError) as refused:
            enumerate_ball(profile, t)
        assert time.perf_counter() - started < 1.0
        assert str(refused.value) == f"{message} exceed budget 2000000"


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


def test_ball_size_all_drops_dead_snapshots():
    # A symbol's snapshot is read only by its later runs, so a permutation
    # holds a few rows at once, not one per symbol read (37 MB at n = 1,200).
    word = Word(tuple(range(1200)), 1200)
    tracemalloc.start()
    try:
        assert ball_size_all(word, 600, 600) == [comb(1200, 600)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


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
def run_words(draw, min_q=1):
    """Words of at most 12 symbols over q in min_q..4, built from runs of length 1..6."""
    q = draw(st.integers(min_q, 4))
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(run_words(min_q=2).filter(len))
@example(Word((0,), 2))
@example(Word((0, 1) * 6, 2))
@example(Word((2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0), 3))
def test_bound_sandwich_property(word):
    n = len(word)
    for t in range(n + 1):
        report = report_for_word(word, t)  # raises AssertionError on a violated bound
        assert report.exact == len(enumerate_ball(word, t))
        assert report.new_lower <= report.exact <= report.new_upper


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

    # n distinct symbols: a snapshot map copied once per run would make
    # these take minutes instead of about a second.
    distinct = RunProfile((1,) * n, tuple(range(n)), n)
    started = time.perf_counter()
    assert ball_size(distinct, 1) == ball_size(distinct, n - 1) == n
    assert time.perf_counter() - started < 10


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


@st.composite
def split_words(draw):
    """Run-built words of at most 14 symbols over q in 1..5."""
    q = draw(st.integers(1, 5))
    runs = draw(st.lists(st.tuples(st.integers(0, q - 1), st.integers(1, 4)), max_size=10))
    symbols = [a for a, x in runs for _ in range(x)][:14]
    return Word(tuple(symbols), q)


def plain(profile, t):
    """The single-pass DP at one t, which never splits."""
    n = len(profile)
    return _fold(zip(profile.lengths, profile.symbols), n, n - t, n - t)[2][0]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(split_words())
@example(Word((), 2))
@example(Word((0, 0, 1, 1, 2, 2), 3))  # every cut leaves a symbol on one side only
@example(Word((4, 4, 4, 3, 0, 1, 2, 0, 1, 2), 5))
@example(Word((0,) * 9, 1))
def test_split_equals_plain_dp_property(word):
    profile = encode_runs(word)
    n = len(word)
    for t in range(n + 1):
        expected = plain(profile, t)
        for cut in range(profile.run_count + 1):
            assert split.split_count(profile, n - t, cut) == expected


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(split_words())
@example(Word((), 2))
@example(Word((0, 0, 1, 1, 2, 2), 3))
@example(Word((4, 4, 4, 3, 0, 1, 2, 0, 1, 2), 5))
def test_fold_from_a_start_state_property(word):
    # _ball_sizes extends states its stacks share, so a fold must leave its
    # start state as it found it.
    profile = encode_runs(word)
    runs = list(zip(profile.lengths, profile.symbols))
    n = len(word)
    for shortest, longest in [(0, n), *((length, length) for length in range(n + 1))]:
        whole = _fold(runs, n, shortest, longest)
        for cut in range(len(runs) + 1):
            start = _fold(runs[:cut], n, shortest, longest)
            kept = copy.deepcopy(start)
            assert _fold(runs[cut:], n, shortest, longest, start) == whole
            assert start == kept


def random_profile(seed, n=1100, q=3):
    rng = random.Random(seed)
    return encode_runs(Word(tuple(rng.randrange(q) for _ in range(n)), q))


@pytest.fixture
def forks(monkeypatch):
    """Record the pid of every child the DP forks."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the split forks on Linux only")
def test_large_count_takes_the_forked_split(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for seed, q in ((1, 2), (2, 3), (3, 8)):
        profile = random_profile(seed, q=q)
        t = len(profile) // 2
        assert _split_plan(profile, len(profile) - t)[0] >= SPLIT_MIN_CELLS
        before = len(forks)
        assert ball_size(profile, t) == plain(profile, t)
        assert len(forks) == before + 1
    assert_reaped(forks)

    # The 44-step chain of a 480-symbol word with 24 runs never forks.
    chain_profile = canonical_profile((20,) * 24, 4)
    assert _split_plan(chain_profile, 240)[0] < SPLIT_MIN_CELLS // 10
    ball_size(chain_profile, 240)
    # Nor does a permutation: its join would multiply about as often as its
    # DP adds, so one core is faster.  Its subsequences are all distinct.
    permutation = Word(tuple(range(1200)), 1200)
    assert _split_plan(encode_runs(permutation), 600)[0] >= SPLIT_MIN_CELLS
    assert ball_size(permutation, 600) == comb(1200, 600)
    assert len(forks) == 3


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the split forks on Linux only")
def test_one_length_report_takes_the_split_and_a_range_does_not(monkeypatch, forks):
    # Each witness DP of a one-t report (exact, new_lower, new_upper)
    # predicts about 151,500 cells, which _split_pays accepts; a range of t
    # runs one pass per witness on one core.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    report = sweep_reports(3, 1100, 550, [550], with_exact=True)[0]
    assert len(forks) == 3
    assert sweep_reports(3, 1100, 550, [549, 550], with_exact=True)[1] == report
    assert len(forks) == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert sweep_reports(3, 1100, 550, [550], with_exact=True)[0] == report
    assert len(forks) == 3
    assert_reaped(forks)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_split_fallbacks_give_the_same_value(monkeypatch, forks):
    profile = random_profile(4)
    t = len(profile) // 2
    expected = plain(profile, t)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sys, "platform", "linux")

    # A child that exits before writing anything.
    fork = os.fork

    def fork_and_die():
        pid = fork()
        if pid == 0:
            os._exit(3)
        return pid

    monkeypatch.setattr(os, "fork", fork_and_die)
    assert ball_size(profile, t) == expected
    assert len(forks) == 1

    # A child that dies after its first chunk, and one whose chunk is cut short.
    fork_rows = split._fork_rows

    def dies_after_first_chunk(make_rows):
        def rows():
            yield next(iter(make_rows()))
            os._exit(1)

        return fork_rows(rows)

    def truncated_chunk(make_rows):
        read_fd, write_fd = os.pipe()
        pid = fork()
        if pid == 0:
            try:
                os.write(write_fd, (10**6).to_bytes(8, "little") + bytes(100))
            finally:
                os._exit(0)
        os.close(write_fd)
        return pid, open(read_fd, "rb")

    monkeypatch.setattr(os, "fork", fork)
    for broken in (dies_after_first_chunk, truncated_chunk):
        monkeypatch.setattr(split, "_fork_rows", broken)
        assert ball_size(profile, t) == expected
    monkeypatch.setattr(split, "_fork_rows", fork_rows)
    assert len(forks) == 3
    assert_reaped(forks)

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    assert ball_size(profile, t) == expected

    def must_not_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", must_not_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert ball_size(profile, t) == expected

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert ball_size(profile, t) == expected
    finally:
        release.set()
        waiter.join()


def other_symbol(draw, q, previous):
    """A symbol in [0, q) other than ``previous`` (any symbol if it is None)."""
    if previous is None:
        return draw(st.integers(0, q - 1))
    a = draw(st.integers(0, q - 2))
    return a + (a >= previous)


@st.composite
def profile_walks(draw):
    """(profiles, t): a run profile and a walk from it by balance steps,
    single-unit moves to the left or right neighbour, long jumps of several
    units, relabelings, resizes and repeats; t may lie outside [0, n]."""
    q = draw(st.integers(1, 5))
    r = 1 if q == 1 else draw(st.integers(1, 8))
    lengths = draw(st.lists(st.integers(1, 6), min_size=r, max_size=r))
    symbols = []
    for _ in range(r):
        symbols.append(other_symbol(draw, q, symbols[-1] if symbols else None))
    profiles = [RunProfile(lengths, symbols, q)]
    moves = ("balance", "left", "right", "jump", "relabel", "resize", "repeat")
    for move in draw(st.lists(st.sampled_from(moves), max_size=14)):
        xs, syms = list(profiles[-1].lengths), list(profiles[-1].symbols)
        j = draw(st.integers(0, r - 1))
        if move == "balance":
            pairs = [
                (p, s)
                for p in range(1, r)
                for s in range(p + 1, r + 1)
                if abs(xs[p - 1] - xs[s - 1]) > 1 and xs[p : s - 1] == xs[p : s - 1][::-1]
            ]
            if pairs:
                profiles.append(balance_step(profiles[-1], *draw(st.sampled_from(pairs))))
                continue
        elif move in ("left", "right"):
            k = j - 1 if move == "left" else j + 1
            if 0 <= k < r and xs[j] > 1:
                xs[j], xs[k] = xs[j] - 1, xs[k] + 1
        elif move == "jump":
            k, units = draw(st.integers(0, r - 1)), min(draw(st.integers(1, 9)), xs[j] - 1)
            if k != j:
                xs[j], xs[k] = xs[j] - units, xs[k] + units
        elif move == "relabel":
            syms = []
            for _ in range(r):
                syms.append(other_symbol(draw, q, syms[-1] if syms else None))
        elif move == "resize":
            xs[j] = max(1, xs[j] + draw(st.sampled_from((-1, 1))))
        profiles.append(RunProfile(xs, syms, q))
    n = sum(lengths)
    return profiles, draw(st.integers(-1, n + 1))


@st.composite
def any_profiles(draw):
    """Run profiles over q in 1..40: up to 12 runs (one at most at q = 1) of
    length 1..6, adjacent run symbols distinct and otherwise arbitrary."""
    q = draw(st.integers(1, 40))
    r = draw(st.integers(0, 1 if q == 1 else 12))
    symbols = []
    for _ in range(r):
        symbols.append(other_symbol(draw, q, symbols[-1] if symbols else None))
    return RunProfile(draw(st.lists(st.integers(1, 6), min_size=r, max_size=r)), symbols, q)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(any_profiles())
@example(RunProfile((), (), 1))
@example(RunProfile((4,), (0,), 1))
@example(RunProfile((1, 2), (35, 0), 36))
@example(RunProfile((1, 2), (0, 36), 40))
def test_profile_and_word_text_round_trips(profile):
    q = profile.alphabet_size
    assert parse_run_profile(profile.text(), q) == profile
    word = profile.to_word()
    assert encode_runs(word) == profile
    if max(profile.symbols, default=0) < 36:  # always so for q <= 36
        assert parse_word(word.text(), q) == word
    else:
        with pytest.raises(ValueError, match=rf"^no text form for alphabet size {q} > 36$"):
            word.text()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(profile_walks())
@example(([RunProfile((5,), (0,), 1)] * 3, 0))  # r = 1, q = 1
@example(([RunProfile((5,), (0,), 1)] * 2, 5))  # t = n
@example(([RunProfile((2, 3), (0, 1), 2), RunProfile((3, 2), (0, 1), 2)], 6))  # t > n
@example(([RunProfile((2, 3), (0, 1), 2), RunProfile((4, 1), (0, 1), 2)], -1))  # t < 0
@example(([RunProfile((1, 6, 1), (0, 1, 2), 3), RunProfile((6, 1, 1), (0, 1, 2), 3)], 3))
@example(([RunProfile((2, 3), (0, 1), 2), RunProfile((1, 2), (0, 1), 2), RunProfile((2, 3), (0, 1), 2)], 4))
@example(([RunProfile((3, 3), (0, 1), 2), RunProfile((3, 3), (1, 0), 2), RunProfile((2, 4), (1, 0), 2)], 2))
def test_ball_sizes_equal_one_dp_per_profile(walk):
    profiles, t = walk
    assert _ball_sizes(profiles, t) == [ball_size(p, t) for p in profiles]
    start = profiles[0]
    if len(start) % start.run_count == 0:
        chain = balancing_chain(start, max(t, 0))
        assert [s.ball_size for s in chain] == [ball_size(s.profile, max(t, 0)) for s in chain]


# The 44-step chain of the seed-1 `count-runs` benchmark request
# (n = 480, q = 4, t = 240): 44 * 24 = 1,056 run updates done one DP per step.
CHAIN_LENGTHS = (
    20, 20, 20, 23, 19, 18, 23, 18, 17, 21, 18, 20, 24, 16, 21, 24, 15, 18, 23, 22, 18, 19, 18, 25
)
CHAIN_SYMBOLS = (2, 0, 2, 0, 1, 0, 3, 0, 3, 0, 2, 3, 2, 0, 3, 1, 2, 3, 2, 3, 0, 3, 0, 1)


def test_chain_reruns_only_changed_runs(monkeypatch):
    calls = []
    run_update = exact._run_update

    def counted(*args):
        calls.append(args)
        return run_update(*args)

    def must_not_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(exact, "_run_update", counted)
    monkeypatch.setattr(os, "fork", must_not_fork, raising=False)
    chain = balancing_chain(RunProfile(CHAIN_LENGTHS, CHAIN_SYMBOLS, 4), 240)
    assert len(chain) == 44
    # Each cut sits where the next step's changes begin: 181 run updates,
    # against 213 with the cut at the last changed run.
    assert len(calls) <= 181
    monkeypatch.setattr(exact, "_run_update", run_update)
    assert [step.ball_size for step in chain] == [plain(step.profile, 240) for step in chain]


def test_canonical_ball_size_table_rows():
    assert canonical_ball_size((7, 2, 1, 3, 5, 6), 4, 7) == 378
    assert ball_size(parse_word("000000011233300000111111"), 7) == 378
    assert canonical_ball_size((6, 3, 1, 4, 4, 6), 3, 7) == 434
    assert canonical_ball_size((4, 3, 3, 4, 5, 5), 3, 7) == 625
    assert canonical_ball_size((7,), 4, 0) == 1
    assert canonical_ball_size((), 3, 0) == 1
    # An alphabet past a C ssize_t: the table keeps min(r, q) - 1 columns.
    assert canonical_ball_size((1, 1, 1), 2**64, 1) == 3


def test_canonical_ball_size_at_3000_runs():
    # The canonical peel once recursed once per run and overflowed the stack.
    lengths = [1 + i % 2 for i in range(3000)]
    size = canonical_ball_size(lengths, 3, 2)
    assert size == ball_size(canonical_profile(lengths, 3), 2)
    assert size > 3000


def test_canonical_ball_size_validation():
    with pytest.raises(ValueError):
        canonical_ball_size((2, 0), 3, 1)
    # q = 1 with two runs, and q = 0 (a ZeroDivisionError from i % 0 is not a ValueError).
    for lengths, q in [((2, 2), 1), ((2, 2), 0), ((3,), 0), ((), 0)]:
        message = rf"^canonical words need q >= 1, and q >= 2 for two or more runs; got q={q}, r={len(lengths)}$"
        with pytest.raises(ValueError, match=message):
            canonical_word(lengths, q)
        with pytest.raises(ValueError, match=message):
            canonical_ball_size(lengths, q, 1)


def test_unary_alphabet_and_empty_word_routes_agree():
    # At q = 1 the words are 0^n, each canonical with one subsequence of
    # every length 0..n; the empty word (n = 0) is one of them.
    for n in range(13):
        word = Word((0,) * n, 1)
        profile = encode_runs(word)
        assert cyclicize(word) == word
        assert ball_size_all(word) == [1] * (n + 1)
        for t in range(-1, n + 2):
            size = ball_size(word, t)
            assert size == (0 <= t <= n)
            assert len(enumerate_ball(word, t)) == size
            assert canonical_ball_size(profile.lengths, 1, t) == size
            assert _ball_sizes([profile, profile], t) == [size, size]
            if n:
                chain = balancing_chain(word, t)
                assert [(step.profile, step.ball_size) for step in chain] == [(profile, size)] * 2


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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 5), st.lists(st.integers(1, 6), max_size=10))
@example(2, [])
@example(5, [6] * 10)
@example(2**63 + 1, [2, 1, 3])
@example(2**64 + 1, [1, 1, 1])
def test_canonical_ball_size_equals_dp_property(q, lengths):
    profile = canonical_profile(lengths, q)
    assert encode_runs(profile.to_word()) == profile
    for t in range(-1, len(profile) + 2):
        assert canonical_ball_size(lengths, q, t) == ball_size(profile, t)
