import json
import random
import time
from functools import lru_cache
from itertools import product
from math import comb

import pytest

from delball.balanced import BalancedBallCalculator, ball_closed, composition_count
from delball.binomials import binomial
from delball.bounds import (
    BoundReport,
    _calabi_hartnett_column,
    _hr_lower_column,
    balanced_upper_bound,
    calabi_hartnett_max,
    hirschberg_regnier_bounds,
    levenshtein_bounds,
    report_for_params,
    report_for_word,
    representative_word,
    sweep_reports,
    unbalanced_lower_bound,
)
from delball.exact import ball_size, ball_size_all, enumerate_ball
from delball.words import Word, cyclic_word, encode_runs, parse_word


def test_levenshtein_bounds_examples():
    assert levenshtein_bounds(2, 1) == (2, 2)
    assert levenshtein_bounds(6, 7) == (0, 792)
    for r in (1, 4, 9):
        assert levenshtein_bounds(r, 0) == (1, 1)


def test_calabi_hartnett_examples():
    assert calabi_hartnett_max(2, 2, 1) == 2
    for q, n in ((2, 5), (3, 0), (4, 7)):
        assert calabi_hartnett_max(q, n, 0) == 1
    assert calabi_hartnett_max(3, 6, 2) == ball_size(parse_word("012012"), 2)
    assert calabi_hartnett_max(2, 4, -1) == 0
    assert calabi_hartnett_max(2, 4, 5) == 0
    # n = 3000 is deeper than Python's default recursion limit; Hirschberg's
    # identity D(q, n, t) = sum_i C(n-t, i) * D(q-1, t, t-i) gives the value.
    want = sum(comb(2995, i) * calabi_hartnett_max(2, 5, 5 - i) for i in range(6))
    assert calabi_hartnett_max(3, 3000, 5) == want
    # D(3, n, 3) counts the words of length K = n - 3 over {0, 1, 2} with
    # digit sum <= 3; walking all n rows would not finish at n = 10**9.
    n = 10**9
    k = n - 3
    want = 1 + k + comb(k, 2) + k + comb(k, 3) + k * (k - 1)
    assert calabi_hartnett_max(3, n, 3) == want
    assert hirschberg_regnier_bounds(3, n, 2, 3)[1] == want
    with pytest.raises(ValueError):
        calabi_hartnett_max(0, 3, 1)


def test_calabi_hartnett_is_exhaustive_maximum():
    for q, max_n in ((2, 7), (3, 5)):
        for n in range(0, max_n + 1):
            for t in range(0, n + 1):
                best = max(
                    ball_size(Word(sym, q), t) for sym in product(range(q), repeat=n)
                )
                assert calabi_hartnett_max(q, n, t) == best


def test_calabi_hartnett_attained_by_cyclic_word():
    for q in range(1, 8):
        for n in range(0, 41):
            sizes = ball_size_all(cyclic_word(n, q))
            assert [calabi_hartnett_max(q, n, t) for t in range(n + 1)] == sizes
            # The column walks up t from its smallest t, in any request order.
            assert _calabi_hartnett_column(q, n, range(n + 1)) == sizes
            assert _calabi_hartnett_column(q, n, range(n, -1, -1)) == sizes[::-1]
            repeats = [n // 2, 0, n, n // 2, n // 3]
            assert _calabi_hartnett_column(q, n, repeats) == [sizes[t] for t in repeats]
            assert _calabi_hartnett_column(q, n, []) == []


def test_calabi_hartnett_column_matches_gap_count():
    # D(q, n, t) counts the n - t gaps in [0, q-1] summing to at most t
    # (and so to at most (n - t)(q - 1)).
    def gap_count(q, n, t):
        return sum(composition_count(n - t, e, q) for e in range(min(t, (n - t) * (q - 1)) + 1))

    for q in (3, 5, 7):
        for n in (300, 2000):
            ts = [0, 1, q - 1, q, 2 * q + 1, 97, 250, n - 2, n]
            want = [gap_count(q, n, t) for t in ts]
            assert _calabi_hartnett_column(q, n, ts) == want
            assert [calabi_hartnett_max(q, n, t) for t in ts[-3:]] == want[-3:]


def test_binary_calabi_hartnett_is_hr_lower_sum():
    # With q = 2 the gaps are 0 or 1, so D(2, r, t) = sum_{i<=t} C(r-t, i).
    for r in range(0, 60):
        ts = list(range(r + 1))
        column = _hr_lower_column(r, ts)
        assert column == [calabi_hartnett_max(2, r, t) for t in ts]
        assert column == [sum(composition_count(r - t, e, 2) for e in range(t + 1)) for t in ts]


def test_calabi_hartnett_max_is_fast_at_large_t():
    # The (q-1)-ary row recurrence this replaced took about 11 s on a 2-vCPU host.
    start = time.perf_counter()
    value = calabi_hartnett_max(5, 10**5, 5000)
    assert time.perf_counter() - start < 2
    assert value == _calabi_hartnett_column(5, 10**5, [4999, 5000])[1]


def test_hirschberg_regnier_examples():
    lower, _ = hirschberg_regnier_bounds(3, 10, 4, 1)
    assert lower == 4  # C(3,0) + C(3,1)
    _, upper = hirschberg_regnier_bounds(2, 4, 4, 1)
    assert upper == 4
    assert upper == len(enumerate_ball(parse_word("0101"), 1))
    assert hirschberg_regnier_bounds(3, 9, 2, 3)[0] == 0  # r < t zeroes every term
    assert hirschberg_regnier_bounds(3, 9, 3, 3)[0] == 1
    with pytest.raises(ValueError):
        hirschberg_regnier_bounds(1, 4, 2, 1)


def test_hr_lower_column_matches_binomial_sums():
    # The column walks Pascal's rule up t; its definition sums t + 1
    # binomials for each t.
    for r in range(1, 70):
        n = r + 5
        reports = sweep_reports(2, n, r, range(n + 1))
        for rep in reports:
            assert rep.hr_lower == sum(binomial(r - rep.t, i) for i in range(rep.t + 1))
    assert [hirschberg_regnier_bounds(2, 9, 4, t)[0] for t in (-1, 0, 2, 4, 5, 9)] == [0, 1, 4, 1, 0, 0]


def test_unbalanced_lower_bound():
    assert unbalanced_lower_bound(6, 4, 1) == 4
    for t in range(0, 6):
        assert unbalanced_lower_bound(5, 1, t) == 1
    # 5 frozen from the enumeration oracle on 010111
    assert len(enumerate_ball(parse_word("010111"), 2)) == 5
    assert unbalanced_lower_bound(6, 4, 2) == 5


def test_balanced_upper_bound():
    assert balanced_upper_bound(3, 24, 6, 7) == 666
    assert balanced_upper_bound(4, 24, 6, 0) == 1
    assert balanced_upper_bound(4, 24, 6, 7) == ball_size(
        parse_word("000011112222333300001111"), 7
    )
    # The padded witness word has 6 symbols, but t is counted against n = 5.
    assert balanced_upper_bound(2, 5, 2, 6) == 0
    assert balanced_upper_bound(2, 5, 2, -1) == 0
    with pytest.raises(ValueError):
        balanced_upper_bound(3, 4, 5, 1)


def test_report_for_word_table_row():
    word = parse_word("000000011022200000333333")
    report = report_for_word(word, 7)
    assert report.exact == 326
    assert report.lev_upper == 792
    assert report.new_upper == ball_closed(6, 4, 7, 4)
    assert (report.q, report.n, report.r, report.t) == (4, 24, 6, 7)


def test_report_for_single_run_word():
    word = parse_word("00000", 3)
    for t in range(0, 6):
        report = report_for_word(word, t)
        assert report.exact == 1
        for low in (report.lev_lower, report.hr_lower, report.new_lower):
            assert low <= 1
        for high in (report.lev_upper, report.hr_upper, report.ch_upper, report.new_upper):
            assert high >= 1


def test_report_for_params_large_comparison_point():
    report = report_for_params(3, 120, 24, 40)
    assert report.exact is None
    assert report.new_upper == ball_closed(24, 5, 40, 3)


def test_report_errors():
    with pytest.raises(ValueError):
        report_for_params(3, 4, 5, 1)
    with pytest.raises(ValueError):
        report_for_params(1, 4, 2, 1)
    with pytest.raises(ValueError):
        report_for_word(Word((), 2), 0)
    for call in (
        lambda: report_for_params(2, 5, 2, 6),
        lambda: report_for_params(2, 5, 2, -1, with_exact=True),
        lambda: sweep_reports(2, 5, 2, [0, 6]),
        lambda: sweep_reports(2, 5, 2, range(10**12)),
        lambda: report_for_word(parse_word("0101"), 5),
    ):
        with pytest.raises(ValueError, match=r"outside \[0, n=\d+\]"):
            call()


def test_representative_word():
    assert representative_word(2, 4, 4).text() == "0101"
    assert representative_word(2, 5, 1).text() == "00000"
    assert representative_word(3, 6, 3).text() == "012222"
    report = report_for_params(2, 4, 4, 1, with_exact=True)
    assert report.exact == 4
    report = report_for_params(2, 5, 1, 3, with_exact=True)
    assert report.exact == 1


def test_report_json_round_trip():
    report = report_for_params(3, 120, 24, 40, with_exact=False)
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["q"] == 3 and payload["t"] == 40
    assert "exact" not in payload
    assert payload["new_upper"] == str(report.new_upper)
    assert int(payload["lev_upper"]) == report.lev_upper

    with_exact = report_for_word(parse_word("0101"), 1)
    assert with_exact.to_json_dict()["exact"] == "4"
    with pytest.raises(ValueError):
        with_exact.value("nope")


def test_sweep_reports_share_exact_column():
    reports = sweep_reports(2, 12, 4, list(range(0, 13)), with_exact=True)
    assert [rep.t for rep in reports] == list(range(13))
    word = representative_word(2, 12, 4)
    for rep in reports:
        assert rep.exact == ball_size(word, rep.t)
        assert rep.exact <= rep.new_upper


def test_sandwich_random_words():
    rng = random.Random(31)
    for _ in range(60):
        q = rng.randint(2, 4)
        n = rng.randint(1, 12)
        word = Word(tuple(rng.randrange(q) for _ in range(n)), q)
        r = encode_runs(word).run_count
        exact = ball_size_all(word)
        for t in range(0, n + 1):
            report = report_for_word(word, t)  # raises if the sandwich fails
            assert report.exact == exact[t]
            assert report.lev_lower <= report.hr_lower
            assert (report.q, report.n, report.r) == (q, n, r)


def test_sweep_columns_match_oracles():
    @lru_cache(maxsize=None)
    def ch(q, n, t):
        if t < 0 or t > n:
            return 0
        if t == 0 or t == n:
            return 1
        return sum(ch(q, n - i - 1, t - i) for i in range(q))

    def hr_upper(q, n, t):
        return sum(comb(n - t, i) * ch(q - 1, t, t - i) for i in range(t + 1))

    for q in (2, 3, 4):
        for n in range(1, 15):
            for r in range(1, n + 1):
                calculator = BalancedBallCalculator(-(-n // r), q)
                word = representative_word(q, n, r)
                reports = sweep_reports(q, n, r, range(n + 1), with_exact=True)
                assert [rep.t for rep in reports] == list(range(n + 1))
                for rep in reports:
                    t = rep.t
                    assert rep.exact == ball_size(word, t)
                    assert rep.new_upper == calculator.ball_closed(r, t)
                    assert rep.new_upper == balanced_upper_bound(q, n, r, t)
                    assert rep.new_lower == unbalanced_lower_bound(n, r, t)
                    assert rep.ch_upper == ch(q, n, t) == calabi_hartnett_max(q, n, t)
                    assert rep.hr_upper == hr_upper(q, n, t)
                    assert (rep.hr_lower, rep.hr_upper) == hirschberg_regnier_bounds(q, n, r, t)
                    assert (rep.lev_lower, rep.lev_upper) == levenshtein_bounds(r, t)


def test_bound_report_value_contract():
    fields = dict(
        q=2, n=4, r=4, t=1, lev_lower=4, lev_upper=4, hr_lower=4,
        hr_upper=4, ch_upper=4, new_lower=4, new_upper=4,
    )
    report = BoundReport(**fields)
    assert report.exact is None
    assert report == BoundReport(2, 4, 4, 1, 4, 4, 4, 4, 4, 4, 4, None)
    assert report_for_params(2, 4, 4, 1) == report
    assert repr(report) == (
        "BoundReport(q=2, n=4, r=4, t=1, lev_lower=4, lev_upper=4, hr_lower=4, "
        "hr_upper=4, ch_upper=4, new_lower=4, new_upper=4, exact=None)"
    )
    with_exact = BoundReport(**fields, exact=4)
    assert with_exact == report_for_word(parse_word("0101"), 1)
    assert with_exact != report
    assert hash(report) == hash(BoundReport(**fields))
    assert len({report, BoundReport(**fields), with_exact}) == 2
    with pytest.raises(AttributeError):
        report.t = 2
    with pytest.raises(AttributeError):
        report.extra = 1
    with pytest.raises(ValueError) as info:
        report.value("nope")
    assert str(info.value) == "unknown column 'nope'"
