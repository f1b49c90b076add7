import json
import random
import sys
import time
from functools import lru_cache
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delball import COLUMN_ORDER, bounds
from delball.balanced import BalancedBallCalculator, ball_closed, composition_count
from delball.bounds import (
    BoundReport,
    _calabi_hartnett_column,
    _hr_lower_column,
    _levenshtein_columns,
    calabi_hartnett_max,
    json_chunks,
    levenshtein_bounds,
    report_for_word,
    sweep_reports,
)
from delball.exact import ball_size, ball_size_all
from delball.oracles import canonical_ball_size, enumerate_ball
from delball.words import Word, cyclic_word, decimal, encode_runs, parse_word, unbalanced_profile


def binomial(a: int, b: int) -> int:
    """C(a, b), with out-of-range arguments giving 0, as the bound formulas read."""
    return comb(a, b) if 0 <= b <= a else 0


def test_levenshtein_bounds_examples():
    assert levenshtein_bounds(2, 1) == (2, 2)
    assert levenshtein_bounds(6, 7) == (0, 792)
    for r in (1, 4, 9):
        assert levenshtein_bounds(r, 0) == (1, 1)
        assert levenshtein_bounds(r, -1) == (0, 0)
    # No word has fewer than one run: (1, 0) at r = 0 had its lower bound
    # above its upper one.
    for r, t in ((0, 0), (0, 3), (-2, 1), (0, -1)):
        with pytest.raises(ValueError, match=rf"^need 1 <= r, got r={r}$"):
            levenshtein_bounds(r, t)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 80), st.integers(0, 170), st.integers(0, 170))
def test_levenshtein_columns_match_binomials(r, t_lo, span):
    # The walk against C(r-t+1, t) and C(r+t-1, t) written out per t, over
    # ranges that run past t = r + 1 and may start past it.
    t_hi = t_lo + span
    lower, upper = _levenshtein_columns(r, t_lo, t_hi)
    ts = range(t_lo, t_hi + 1)
    assert lower == [binomial(r - t + 1, t) for t in ts]
    assert upper == [binomial(r + t - 1, t) for t in ts]
    assert levenshtein_bounds(r, t_lo) == (lower[0], upper[0])


def test_levenshtein_columns_edges():
    for r in range(1, 81):
        for t in (0, r // 2, r, r + 1, r + 2, 2 * r + 3):  # t_lo == t_hi
            assert _levenshtein_columns(r, t, t) == ([binomial(r - t + 1, t)], [binomial(r + t - 1, t)])
    assert _levenshtein_columns(4, 0, 7) == ([1, 4, 3, 0, 0, 0, 0, 0], [1, 4, 10, 20, 35, 56, 84, 120])
    assert _levenshtein_columns(1, 3, 5) == ([0, 0, 0], [1, 1, 1])


def test_levenshtein_columns_are_fast_at_large_r():
    # Per t, with math.comb, r = 4000 alone took 3.5 s on a 2-vCPU host.
    start = time.perf_counter()
    lower, upper = _levenshtein_columns(10_000, 0, 10_000)
    assert time.perf_counter() - start < 5
    assert (lower[5000], lower[5001]) == (5001, 0)  # C(5001, 5000), then t > r - t + 1
    assert upper[-1] == comb(19_999, 10_000)


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
    assert sweep_reports(3, n, 2, [3])[0].hr_upper == want
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
            # The column walks up t from t_lo, so any range is a slice.
            assert _calabi_hartnett_column(q, n, 0, n) == sizes
            for t_lo, t_hi in ((n // 3, n), (n // 4, 3 * n // 4), (n // 2, n // 2), (n, n)):
                assert _calabi_hartnett_column(q, n, t_lo, t_hi) == sizes[t_lo : t_hi + 1]


def test_calabi_hartnett_column_matches_gap_count():
    # D(q, n, t) counts the n - t gaps in [0, q-1] summing to at most t
    # (and so to at most (n - t)(q - 1)).
    def gap_count(q, n, t):
        return sum(composition_count(n - t, e, q) for e in range(min(t, (n - t) * (q - 1)) + 1))

    for q in (3, 5, 7):
        for n in (300, 2000):
            ts = [0, 1, q - 1, q, 2 * q + 1, 97, 250, n - 2, n]
            want = [gap_count(q, n, t) for t in ts]
            column = _calabi_hartnett_column(q, n, 0, n)
            assert [column[t] for t in ts] == want
            for t_lo, t_hi in ((97, 250), (250, 250), (n - 2, n)):
                assert _calabi_hartnett_column(q, n, t_lo, t_hi) == column[t_lo : t_hi + 1]
            assert [calabi_hartnett_max(q, n, t) for t in ts[-3:]] == want[-3:]


def test_binary_calabi_hartnett_is_hr_lower_sum():
    # With q = 2 the gaps are 0 or 1, so D(2, r, t) = sum_{i<=t} C(r-t, i).
    for r in range(0, 60):
        ts = list(range(r + 1))
        column = _hr_lower_column(r, 0, r)
        assert column == [calabi_hartnett_max(2, r, t) for t in ts]
        assert column == [sum(composition_count(r - t, e, 2) for e in range(t + 1)) for t in ts]
        for t_lo in ts:
            assert _hr_lower_column(r, t_lo, r) == column[t_lo:]
            assert _hr_lower_column(r, t_lo, t_lo) == [column[t_lo]]


def test_calabi_hartnett_max_is_fast_at_large_t():
    # The (q-1)-ary row recurrence this replaced took about 11 s on a 2-vCPU host.
    start = time.perf_counter()
    value = calabi_hartnett_max(5, 10**5, 5000)
    assert time.perf_counter() - start < 2
    assert _calabi_hartnett_column(5, 10**5, 4999, 5000) == [
        calabi_hartnett_max(5, 10**5, 4999),
        value,
    ]


def test_hirschberg_regnier_examples():
    assert sweep_reports(3, 10, 4, [1])[0].hr_lower == 4  # C(3,0) + C(3,1)
    upper = sweep_reports(2, 4, 4, [1])[0].hr_upper
    assert upper == 4
    assert upper == len(enumerate_ball(parse_word("0101"), 1))
    assert sweep_reports(3, 9, 2, [3])[0].hr_lower == 0  # r < t zeroes every term
    assert sweep_reports(3, 9, 3, [3])[0].hr_lower == 1
    with pytest.raises(ValueError, match=r"^need q >= 2$"):
        sweep_reports(1, 4, 2, [1])
    for r in (0, 5):  # no 3-symbol word has r runs
        with pytest.raises(ValueError, match=rf"^need 1 <= r <= n, got r={r}, n=3$"):
            sweep_reports(2, 3, r, [1])


def test_hr_lower_column_matches_binomial_sums():
    # The column walks Pascal's rule up t; its definition sums t + 1
    # binomials for each t.
    for r in range(1, 70):
        n = r + 5
        reports = sweep_reports(2, n, r, range(n + 1))
        for rep in reports:
            assert rep.hr_lower == sum(binomial(r - rep.t, i) for i in range(rep.t + 1))
    assert [rep.hr_lower for rep in sweep_reports(2, 9, 4, (0, 2, 4, 5, 9))] == [1, 4, 1, 0, 0]
    # The walk ends at t = r and the column pads zeros past it.
    assert _hr_lower_column(4, 0, 9) == [1, 4, 4, 2, 1, 0, 0, 0, 0, 0]
    assert _hr_lower_column(4, 2, 6) == [4, 2, 1, 0, 0]
    assert _hr_lower_column(4, 5, 5) == [0]


def test_sweep_reports_take_t_in_any_order(monkeypatch):
    # Every column is one walk over [min t, max t]; reports read it in the
    # requested order, repeats included.
    for q in (2, 3, 5):
        for n in range(1, 16):
            for r in (1, (n + 1) // 2, n):
                ordered = sweep_reports(q, n, r, range(n + 1), with_exact=True)
                ts = list(range(n, -1, -1)) + [n // 2, n // 3, n // 2, n]
                assert sweep_reports(q, n, r, ts, with_exact=True) == [ordered[t] for t in ts]
                ts = [n // 2, n // 3, n // 2]
                assert sweep_reports(q, n, r, ts) == [ordered[t]._replace(exact=None) for t in ts]
    # An empty request is checked, then answered without any DP.
    def no_dp(*args):
        raise AssertionError("DP ran for an empty request")

    monkeypatch.setattr(bounds, "ball_size_all", no_dp)
    for ts in ([], range(0), ()):
        assert sweep_reports(3, 5, 2, ts) == []
        assert sweep_reports(3, 5, 2, ts, with_exact=True) == []
    with pytest.raises(ValueError, match=r"^need 1 <= r <= n, got r=6, n=5$"):
        sweep_reports(3, 5, 6, [])


def test_sweep_reports_read_one_shot_iterables_once():
    # A generator or a set of t gives the reports of the equal list.
    for ts in ([0, 1, 2], [4, 0, 4, 7]):
        want = sweep_reports(3, 10, 4, ts, with_exact=True)
        assert sweep_reports(3, 10, 4, (t for t in ts), with_exact=True) == want
        as_set = set(ts)
        assert sweep_reports(3, 10, 4, as_set) == sweep_reports(3, 10, 4, list(as_set))
    assert sweep_reports(3, 10, 4, iter(())) == []
    with pytest.raises(ValueError, match=r"^t=11 outside \[0, n=10\]$"):
        sweep_reports(3, 10, 4, (t for t in (2, 11)))


def test_report_raises_on_a_contradicted_bound(monkeypatch):
    # A lower bound above the exact value, or an upper bound below it, is
    # an AssertionError naming the bound.  q = 3: at q = 2 the CH column
    # comes from the HR walk.
    word = parse_word("012012")
    report_for_word(word, 2)  # the true columns pass
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_hr_lower_column", lambda r, t_lo, t_hi: [10**9] * (t_hi - t_lo + 1))
        lower = r"^lower bound 1000000000 exceeds exact \d+: .*hr_lower=1000000000,"
        with pytest.raises(AssertionError, match=lower):
            report_for_word(word, 2)
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_calabi_hartnett_column", lambda q, n, t_lo, t_hi: [0] * (t_hi - t_lo + 1))
        with pytest.raises(AssertionError, match=r"^upper bound 0 below exact \d+: .*ch_upper=0,"):
            report_for_word(word, 2)


def test_unbalanced_lower_bound():
    # The new_lower column is the ball of 010111 whatever q is.
    for q in (2, 3, 4):
        assert [rep.new_lower for rep in sweep_reports(q, 6, 4, [1, 2])] == [4, 5]
        assert [rep.new_lower for rep in sweep_reports(q, 5, 1, range(6))] == [1] * 6
    # 5 frozen from the enumeration oracle on 010111
    assert len(enumerate_ball(parse_word("010111"), 2)) == 5


def test_balanced_upper_bound():
    assert sweep_reports(3, 24, 6, [7])[0].new_upper == 666
    assert [rep.new_upper for rep in sweep_reports(4, 24, 6, [0, 7])] == [
        1,
        ball_size(parse_word("000011112222333300001111"), 7),
    ]
    # The padded witness word 000111 has 6 symbols, but t is counted
    # against n = 5: t = 5 reads its two 1-symbol subsequences, t = 6 is refused.
    assert sweep_reports(2, 5, 2, [5])[0].new_upper == 2
    with pytest.raises(ValueError, match=r"^t=6 outside \[0, n=5\]$"):
        sweep_reports(2, 5, 2, [6])
    with pytest.raises(ValueError, match=r"^need 1 <= r <= n, got r=5, n=4$"):
        sweep_reports(3, 4, 5, [1])


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


def test_sweep_report_large_comparison_point():
    report = sweep_reports(3, 120, 24, [40])[0]
    assert report.exact is None
    assert report.new_upper == ball_closed(24, 5, 40, 3)


def test_report_errors():
    with pytest.raises(ValueError, match=r"^need 1 <= r <= n, got r=5, n=4$"):
        sweep_reports(3, 4, 5, [1])
    with pytest.raises(ValueError, match=r"^need q >= 2$"):
        sweep_reports(1, 4, 2, [1], with_exact=True)
    with pytest.raises(ValueError, match=r"^need 1 <= r <= n, got r=0, n=0$"):
        report_for_word(Word((), 2), 0)
    for call in (
        lambda: sweep_reports(2, 5, 2, [6]),
        lambda: sweep_reports(2, 5, 2, [-1], with_exact=True),
        lambda: sweep_reports(2, 5, 2, [0, 6]),
        lambda: sweep_reports(2, 5, 2, range(10**12)),
        lambda: report_for_word(parse_word("0101"), 5),
    ):
        with pytest.raises(ValueError, match=r"outside \[0, n=\d+\]"):
            call()


def test_exact_column_witness():
    # A parameter report's exact column is the ball of the canonical word
    # with r - 1 unit runs then one long run.
    cases = ((2, 4, 4, "0101", 1, 4), (2, 5, 1, "00000", 3, 1), (3, 6, 3, "012222", 2, 4))
    for q, n, r, text, t, want in cases:
        assert unbalanced_profile(n, r, q).to_word().text() == text
        assert len(enumerate_ball(parse_word(text, q), t)) == want
        assert sweep_reports(q, n, r, [t], with_exact=True)[0].exact == want


def test_report_json_round_trip():
    report = sweep_reports(3, 120, 24, [40], with_exact=False)[0]
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["q"] == 3 and payload["t"] == 40
    assert "exact" not in payload
    assert payload["new_upper"] == str(report.new_upper)
    assert int(payload["lev_upper"]) == report.lev_upper

    with_exact = report_for_word(parse_word("0101"), 1)
    assert with_exact.to_json_dict()["exact"] == "4"
    with pytest.raises(ValueError):
        with_exact.value("nope")


def test_report_formats_counts_past_the_digit_limit():
    # Python 3.11 (and 3.10.7+) refuses str() of an int over 4,300 digits by
    # default.  Reports format such counts anyway and leave that limit alone.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert limit in (None, 4300)
    nines, big = 10**5000 - 1, 7 * 10**12001 + 10**6000 + 42
    report = BoundReport(3, 9, 3, 2, 1, nines, 1, big, big, 1, nines, exact=-big)
    payload = report.to_json_dict()
    assert payload["lev_upper"] == payload["new_upper"] == "9" * 5000
    text = "7" + "0" * 6000 + "1" + "0" * 5998 + "42"
    assert payload["hr_upper"] == text and payload["exact"] == "-" + text
    assert report.csv_row(["exact", "lev_lower", "ch_upper"]) == f"2,-{text},1,{text}"
    rng = random.Random(11)
    for _ in range(20):
        value = rng.getrandbits(rng.randint(1, 60000))
        digits = decimal(value)
        assert digits == "0" or not digits.startswith("0")
        chunks = [digits[i : i + 1000] for i in range(0, len(digits), 1000)]
        rebuilt = 0
        for chunk in chunks:
            rebuilt = rebuilt * 10 ** len(chunk) + int(chunk)
        assert rebuilt == value
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


COUNTS = st.integers(min_value=-(10**40), max_value=10**40)  # negative too, as reports allow
REPORTS = st.builds(BoundReport, *[st.integers(0, 10**6)] * 4, *[COUNTS] * 7, exact=st.none() | COUNTS)


@st.composite
def sweep_payloads(draw):
    """A sweep's JSON payload: random columns, t range and decimal counts."""
    columns = draw(st.lists(st.sampled_from(COLUMN_ORDER), min_size=1, unique=True))
    t_lo = draw(st.integers(0, 50))
    t_hi = draw(st.integers(t_lo, t_lo + 4))
    rows = [{"t": t, **{c: decimal(draw(COUNTS)) for c in columns}} for t in range(t_lo, t_hi + 1)]
    q, n, r = draw(st.integers(2, 9)), draw(st.integers(t_hi, 99)), draw(st.integers(1, 99))
    return {"q": q, "n": n, "r": r, "t_range": [t_lo, t_hi], "columns": columns, "rows": rows}


JSON_VALUES = st.one_of(
    REPORTS.map(BoundReport.to_json_dict),
    sweep_payloads(),
    st.lists(st.integers() | st.sampled_from(COLUMN_ORDER) | COUNTS.map(decimal)),
    st.just({}),
    st.just({"t_range": [], "columns": [], "rows": []}),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES)
def test_json_chunks_match_json_dumps(value):
    want = json.dumps(value, indent=2)
    assert "".join(json_chunks(value)) == want
    # Lists may be iterators, read as they are written.
    if isinstance(value, list):
        assert "".join(json_chunks(iter(value))) == want
    if isinstance(value, dict) and "rows" in value:
        assert "".join(json_chunks({**value, "rows": iter(value["rows"])})) == want


def test_sweep_reports_share_exact_column():
    reports = sweep_reports(2, 12, 4, list(range(0, 13)), with_exact=True)
    assert [rep.t for rep in reports] == list(range(13))
    word = unbalanced_profile(12, 4, 2)
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
    # Each column against a route that shares no code with it: canonical
    # peeling for the two witness words, the balanced closed form, the
    # Calabi-Hartnett recurrence, and the binomial sums written out.
    def c(a, b):
        return comb(a, b) if a >= 0 else 0

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
                lower_runs = (1,) * (r - 1) + (n - r + 1,)
                reports = sweep_reports(q, n, r, range(n + 1), with_exact=True)
                assert [rep.t for rep in reports] == list(range(n + 1))
                for rep in reports:
                    t = rep.t
                    assert rep.exact == canonical_ball_size(lower_runs, q, t)
                    assert rep.new_upper == calculator.ball_closed(r, t)
                    assert rep.new_lower == canonical_ball_size(lower_runs, 2, t)
                    assert rep.ch_upper == ch(q, n, t)
                    assert rep.hr_upper == hr_upper(q, n, t)
                    assert rep.hr_lower == sum(c(r - t, i) for i in range(t + 1))
                    assert (rep.lev_lower, rep.lev_upper) == (c(r - t + 1, t), c(r + t - 1, t))


def test_bound_report_value_contract():
    fields = dict(
        q=2, n=4, r=4, t=1, lev_lower=4, lev_upper=4, hr_lower=4,
        hr_upper=4, ch_upper=4, new_lower=4, new_upper=4,
    )
    report = BoundReport(**fields)
    assert report.exact is None
    assert report == BoundReport(2, 4, 4, 1, 4, 4, 4, 4, 4, 4, 4, None)
    assert sweep_reports(2, 4, 4, [1]) == [report]
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
