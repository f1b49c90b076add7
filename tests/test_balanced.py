from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delball.balanced import (
    BalancedBallCalculator,
    StepProfile,
    ball_closed,
    ball_recursive,
    composition_count,
    enumerate_step_profiles,
    sequence_count,
    step_alphabet,
)
from delball.exact import ball_size, ball_size_all
from delball.oracles import enumerate_ball
from delball.words import balanced_tail_word, balanced_word, canonical_profile, parse_word


# --- independent oracles -------------------------------------------------

def brute_compositions(parts: int, total: int, k: int) -> int:
    """Count (y_1..y_parts) with 0 <= y_i <= k-1 summing to total, by recursion."""
    if parts < 0 or total < 0:
        return 0
    if parts == 0:
        return 1 if total == 0 else 0
    return sum(brute_compositions(parts - 1, total - y, k) for y in range(min(k - 1, total) + 1))


def brute_sequences(q: int, k: int, run_drop: int, del_drop: int) -> int:
    """Count ordered step sequences by direct DP over the step alphabet."""
    steps = step_alphabet(q, k)

    @lru_cache(maxsize=None)
    def count(a: int, b: int) -> int:
        if a == 0 and b == 0:
            return 1
        if a < 0 or b < 0:
            return 0
        return sum(count(a - da, b - db) for da, db in steps)

    return count(run_drop, del_drop)


def brute_step_profiles(q: int, k: int, run_drop: int, del_drop: int) -> set:
    """Grid search over all (z, v) vectors satisfying the profile constraints."""
    m = q - 1
    found = set()
    for zs in product(range(run_drop + 1), repeat=m):
        if sum((i + 1) * z for i, z in enumerate(zs)) != run_drop:
            continue
        ranges = [range(i * k * z, ((i + 1) * k - 1) * z + 1) for i, z in enumerate(zs)]
        for vs in product(*ranges):
            if sum(vs) == del_drop:
                found.add(tuple(zip(zs, vs)))
    return found


# --- step alphabet and compositions --------------------------------------

def test_step_alphabet():
    assert sorted(step_alphabet(3, 2)) == [(1, 0), (1, 1), (2, 2), (2, 3), (3, 4)]
    for q in (2, 3, 4, 5):
        for k in (1, 2, 3):
            steps = step_alphabet(q, k)
            assert len(steps) == (q - 1) * k + 1
            assert len(set(steps)) == len(steps)
    with pytest.raises(ValueError):
        step_alphabet(1, 2)


def test_composition_count_examples():
    assert composition_count(2, 2, 2) == 1
    assert composition_count(1, 0, 3) == 1
    assert composition_count(3, 7, 2) == 0
    assert composition_count(0, 0, 2) == 1
    assert composition_count(0, 1, 2) == 0
    assert composition_count(-1, 0, 2) == 0


def test_composition_count_against_brute_force():
    for k in (1, 2, 3, 4):
        for parts in range(0, 9):
            for total in range(0, 33):
                assert composition_count(parts, total, k) == brute_compositions(parts, total, k)


# --- step profile enumeration --------------------------------------------

def test_enumerate_step_profiles_examples():
    assert enumerate_step_profiles(3, 2, 2, 1) == [StepProfile(((2, 1), (0, 0)))]
    only = enumerate_step_profiles(4, 3, 0, 0)
    assert only == [StepProfile(((0, 0), (0, 0), (0, 0)))]
    assert enumerate_step_profiles(4, 3, 0, 1) == []
    assert enumerate_step_profiles(3, 2, -1, 0) == []


def test_step_profiles_invariants_and_brute_force():
    for q in (2, 3, 4):
        for k in (1, 2, 3):
            for run_drop in range(0, 9):
                for del_drop in range(0, 21):
                    profiles = enumerate_step_profiles(q, k, run_drop, del_drop)
                    seen = set()
                    for profile in profiles:
                        pairs = profile.pairs
                        assert pairs not in seen
                        seen.add(pairs)
                        assert sum((i + 1) * z for i, (z, _) in enumerate(pairs)) == run_drop
                        assert sum(v for _, v in pairs) == del_drop
                        for i, (z, v) in enumerate(pairs, start=1):
                            assert (i - 1) * k * z <= v <= (i * k - 1) * z
                            if z == 0:
                                assert v == 0
                    assert seen == brute_step_profiles(q, k, run_drop, del_drop)


# --- sequence counting ----------------------------------------------------

def test_sequence_count_conventions():
    assert sequence_count(3, 2, 0, 0) == 1
    assert sequence_count(3, 2, -1, 0) == 0
    assert sequence_count(3, 2, 0, -1) == 0
    assert sequence_count(3, 2, 0, 3) == 0


def test_sequence_count_examples():
    # frozen from the brute-force DP oracle
    assert sequence_count(3, 2, 3, 4) == 3
    assert brute_sequences(3, 2, 3, 4) == 3


def test_sequence_count_against_brute_force():
    for q in (2, 3, 4):
        for k in (1, 2, 3):
            for run_drop in range(0, 7):
                for del_drop in range(0, 15):
                    assert sequence_count(q, k, run_drop, del_drop) == brute_sequences(
                        q, k, run_drop, del_drop
                    )


# --- ball values ----------------------------------------------------------

def test_single_run_balls():
    for q in (2, 3):
        for k in (1, 2, 4):
            for t in range(0, k + 1):
                assert ball_recursive(1, k, t, q) == 1
            calc = BalancedBallCalculator(k, q)
            for t in range(0, k):
                assert calc.tail_ball_recursive(1, t) == 1
            assert calc.tail_ball_recursive(1, k) == 0


def test_named_values():
    assert ball_recursive(6, 4, 7, 3) == 666
    assert ball_closed(6, 4, 7, 3) == 666
    assert ball_recursive(2, 2, 1, 3) == 2
    assert {w.text() for w in enumerate_ball(parse_word("0011"), 1)} == {"011", "001"}


def test_tail_ball_values():
    # 13 frozen from ball_size(parse_word("0112200", 3), 3)
    assert ball_size(parse_word("0112200", 3), 3) == 13
    assert BalancedBallCalculator(2, 3).tail_ball_recursive(4, 3) == 13
    assert BalancedBallCalculator(2, 3).tail_ball_closed(4, 3) == 13
    # 411 frozen from the DP on the 6x4 tail word
    assert ball_size(balanced_tail_word(6, 4, 3), 6) == 411
    assert BalancedBallCalculator(4, 3).tail_ball_closed(6, 6) == 411
    for q in (2, 3, 5):
        assert BalancedBallCalculator(2, q).tail_ball_recursive(3, 6) == 0
        assert BalancedBallCalculator(2, q).tail_ball_closed(3, 6) == 0


def test_boundary_conventions():
    for q in (2, 4):
        calc = BalancedBallCalculator(3, q)
        assert calc.ball_recursive(0, 0) == 1
        assert calc.ball_closed(0, 0) == 1
        assert calc.ball_recursive(0, 2) == 0
        assert calc.tail_ball_recursive(0, 0) == 0
        assert calc.tail_ball_recursive(-1, 0) == 0
        for r in (1, 3, 6):
            assert calc.ball_recursive(r, 3 * r) == 1
            assert calc.ball_closed(r, 3 * r) == 1
            assert calc.ball_recursive(r, 3 * r + 1) == 0
            assert calc.ball_recursive(r, -1) == 0


def test_triple_agreement_small_grid():
    for q in (2, 3, 5):
        for k in (1, 2, 3):
            calc = BalancedBallCalculator(k, q)
            for r in range(1, 6):
                full = ball_size_all(balanced_word(r, k, q))
                tail_word = balanced_tail_word(r, k, q)
                tail = ball_size_all(tail_word)
                for t in range(0, r * k + 1):
                    assert calc.ball_recursive(r, t) == calc.ball_closed(r, t) == full[t]
                    expected_tail = tail[t] if t <= len(tail_word) else 0
                    assert (
                        calc.tail_ball_recursive(r, t)
                        == calc.tail_ball_closed(r, t)
                        == expected_tail
                    )


def test_ball_monotone_in_run_count():
    for q in (2, 3, 4):
        for k in (1, 2, 3):
            calc = BalancedBallCalculator(k, q)
            for r in range(1, 8):
                for t in range(0, r * k + 1):
                    assert calc.ball_recursive(r, t) >= calc.ball_recursive(r - 1, t)


def test_large_comparison_point_routes_agree():
    calc = BalancedBallCalculator(5, 3)
    assert calc.ball_closed(24, 40) == calc.ball_recursive(24, 40)
    assert calc.ball_closed(24, 0) == 1


def test_calculator_validation_and_stats():
    with pytest.raises(ValueError):
        BalancedBallCalculator(0, 3)
    with pytest.raises(ValueError):
        BalancedBallCalculator(2, 1)
    calc = BalancedBallCalculator(2, 3)
    assert calc.hit_rate == 0.0
    calc.ball_closed(5, 4)
    calc.ball_closed(5, 4)
    assert calc.memo_hits > 0
    assert 0.0 < calc.hit_rate < 1.0


def test_recursion_depth_independent_of_run_count():
    # Both recursions once went one stack frame deeper per run.
    assert ball_recursive(1500, 2, 3, 3) == ball_size(balanced_word(1500, 2, 3), 3) == 563624000
    assert ball_recursive(1500, 1, 3, 1600) == ball_size(balanced_word(1500, 1, 1600), 3)
    assert ball_closed(1500, 1, 3, 1600) == 561375500
    tail = BalancedBallCalculator(2, 3).tail_ball_recursive(1500, 3)
    assert tail == ball_size(balanced_tail_word(1500, 2, 3), 3)


def test_profiles_at_a_large_alphabet():
    # Both profile enumerators once went one stack frame deeper per class.
    assert sequence_count(1500, 1, 3, 1) == 2 == brute_sequences(1500, 1, 3, 1)
    only = StepProfile(((1, 0), (1, 1)) + ((0, 0),) * 1497)
    assert enumerate_step_profiles(1500, 1, 3, 1) == [only]


ROUTES = ("ball_recursive", "ball_closed", "tail_ball_recursive", "tail_ball_closed")


@st.composite
def query_sequences(draw):
    """(q, k, queries): (route, r, t) triples with r <= 12 and t in [-1, rk + 1]."""
    q, k = draw(st.integers(2, 7)), draw(st.integers(1, 5))
    queries = []
    for _ in range(draw(st.integers(1, 10))):
        r = draw(st.integers(0, 12))
        queries.append((draw(st.sampled_from(ROUTES)), r, draw(st.integers(-1, r * k + 1))))
    return q, k, queries


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(query_sequences())
def test_answers_do_not_depend_on_query_order(case):
    # The routes share one calculator, whose tables each query fills in part:
    # every answer must equal the DP's and a fresh calculator's.
    q, k, queries = case
    shared = BalancedBallCalculator(k, q)
    for route, r, t in queries:
        if route.startswith("tail"):
            row = ball_size_all(balanced_tail_word(r, k, q)) if r else []
        else:
            row = ball_size_all(canonical_profile((k,) * r, q))
        expected = row[t] if 0 <= t < len(row) else 0
        fresh = getattr(BalancedBallCalculator(k, q), route)(r, t)
        assert getattr(shared, route)(r, t) == fresh == expected, (route, r, t)
