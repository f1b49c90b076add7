"""Published bounds on deletion-ball sizes, gathered into one report.

For a word with n symbols, r runs and alphabet q under t deletions:

* Levenshtein run bounds:   C(r-t+1, t) <= |ball| <= C(r+t-1, t).
* Calabi-Hartnett maximum:  |ball| <= D(q, n, t), the ball size of the
  length-n word cycling through all q symbols, which maximizes |ball|
  over the whole of the length-n alphabet-q space.  A subsequence of that
  word is fixed by the n - t gaps of its leftmost embedding, each in
  [0, q-1], summing to at most t, which gives D in closed form.
* Hirschberg-Regnier:       sum C(r-t, i) <= |ball|
                            <= sum C(n-t, i) * D(q-1, t, t-i).
  By Hirschberg's identity (Hirschberg and Regnier, CPM 2000) the upper
  sum equals D(q, n, t), so it is read off the Calabi-Hartnett column.
* Balanced upper bound:     |ball| <= ball of the balanced word with r
  runs of length ceil(n/r) (pad the last run, then balance); attained
  when r divides n.
* Reduced-binary lower bound: |ball| >= ball of the binary word with r-1
  unit runs and one long run (relabel runs to binary, then unbalance).

The last two are computed exactly, not from further closed forms: one
``exact.ball_size_all`` count per witness's run profile over the band of
lengths n - t_hi to n - t_lo (split across two cores at one t, as ``exact``
says), at a cost that depends on r and t, not on n (the balanced word's
closed form stays in ``balanced`` as an oracle).  The
Levenshtein pair and the Calabi-Hartnett and Hirschberg-Regnier lower
columns are each one walk up t, at a cost that depends on t, not on n.

Every column producer takes (..., t_lo, t_hi) and returns the
t_hi - t_lo + 1 values for t = t_lo..t_hi, as ``exact.ball_size_all``
does.  A report maps its requested t, in any order and with repeats, onto
[min t, max t] once, so each column is one walk.  Reports and sweeps raise
ValueError for any t outside [0, n].  A ``BoundReport`` is an immutable
named tuple of the columns; ``format_sweep`` writes a sweep's reports as
CSV or JSON, and ``json_chunks`` (which it and ``delball bounds`` use)
writes JSON, piece by piece.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from math import comb

from . import COLUMN_ORDER
from .exact import ball_size_all
from .words import (
    RunProfile,
    Word,
    canonical_profile,
    check_deletions,
    decimal,
    encode_runs,
    unbalanced_profile,
)


def _check_params(q: int, n: int, r: int, t_values: Iterable[int] = ()) -> None:
    if q < 2:
        raise ValueError("need q >= 2")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    check_deletions(n, t_values)


def _levenshtein_columns(r: int, t_lo: int, t_hi: int) -> tuple[list[int], list[int]]:
    """C(r-t+1, t) and C(r+t-1, t) for t = t_lo..t_hi (r >= 1, t_lo >= 0),
    in one walk up t.

    From t to t + 1 the upper bound gains the factor (r + t) / (t + 1) and,
    with m = r - t + 1, the lower one (m - t)(m - t - 1) / ((t + 1) m); it
    vanishes once t > m and stays 0.  Each step costs O(1) big-integer
    operations.
    """
    m = r - t_lo + 1
    low, high = comb(m, t_lo) if t_lo <= m else 0, comb(r + t_lo - 1, t_lo)
    lower, upper = [low], [high]
    for t in range(t_lo, t_hi):
        if low:
            low = low * (m - t) * (m - t - 1) // ((t + 1) * m)
        high = high * (r + t) // (t + 1)
        m -= 1
        lower.append(low)
        upper.append(high)
    return lower, upper


def levenshtein_bounds(r: int, t: int) -> tuple[int, int]:
    """(C(r-t+1, t), C(r+t-1, t)), with out-of-range binomials 0; (0, 0) for t < 0."""
    if r < 1:
        raise ValueError(f"need 1 <= r, got r={r}")
    if t < 0:
        return 0, 0
    lower, upper = _levenshtein_columns(r, t, t)
    return lower[0], upper[0]


def _calabi_hartnett_column(q: int, n: int, t_lo: int, t_hi: int) -> list[int]:
    """D(q, n, t) for t = t_lo..t_hi (within [0, n]), in one walk up t.

    A length-m subsequence of the word cycling through all q symbols is
    fixed by the m gaps of its leftmost embedding (the first one before the
    first kept symbol), each in [0, q-1], summing to at most t = n - m.
    Inclusion-exclusion over the j gaps that overflow gives
    D(q, n, t) = sum_{j <= t/q} (-1)^j * C(m, j) * C(n - jq, m).  From t to
    t + 1, term j gains the exact factor (m - j) / (t + 1 - jq), and when q
    divides t + 1 the term j = (t + 1) / q joins as (-1)^j * C(m - 1, j).
    The terms at t_lo are built directly, so a column costs O(t^2 / q)
    big-integer operations, whatever n is.  For q = 2 the sum is
    sum_{i <= t} C(n - t, i), walked at O(1) per t.  By Hirschberg's
    identity the column is also the Hirschberg-Regnier upper sum, so it
    serves hr_upper as well as ch_upper.
    """
    if q == 1:
        return [1] * (t_hi - t_lo + 1)
    if q == 2:
        return _hr_lower_column(n, t_lo, t_hi)
    m = n - t_lo
    b, c = comb(n, m), 1  # C(n - jq, m) and C(m, j), from j = 0
    terms = [b]
    for j in range(1, t_lo // q + 1):
        c = c * (m - j + 1) // j
        for top in range(n - (j - 1) * q, n - j * q, -1):
            b = b * (top - m) // top
        terms.append(-c * b if j % 2 else c * b)
    column = [sum(terms)]
    for t in range(t_lo + 1, t_hi + 1):
        terms = [x * (m - j) // (t - j * q) for j, x in enumerate(terms)]
        m -= 1
        if t % q == 0:
            j = t // q
            terms.append(-comb(m, j) if j % 2 else comb(m, j))
        column.append(sum(terms))
    return column


def calabi_hartnett_max(q: int, n: int, t: int) -> int:
    """Largest ball size over all length-n words with alphabet q.

    Attained by any word cycling through all q symbols; 0 outside
    0 <= t <= n.
    """
    if q < 1:
        raise ValueError("need q >= 1")
    if t < 0 or t > n:
        return 0
    return _calabi_hartnett_column(q, n, t, t)[0]


def _hr_lower_column(r: int, t_lo: int, t_hi: int) -> list[int]:
    """sum_{i<=t} C(r-t, i) for t = t_lo..t_hi (t_lo >= 0), in one walk up t.

    With m = r - t and S(m, t) = sum_{i<=t} C(m, i), Pascal's rule gives
    S(m-1, t) = (S(m, t) + C(m-1, t)) / 2 and S(m-1, t+1) = S(m-1, t) +
    C(m-1, t+1), so each step costs O(1) big-integer operations.  The walk
    starts at t = 0 and ends at t = r; S vanishes past it.
    """
    s, c = 1, 1  # S(m, t) and C(m, t), starting at t = 0
    column = [s]
    for t in range(min(r, t_hi)):
        m = r - t
        c = c * (m - t) // m  # C(m-1, t)
        s = (s + c) // 2
        c = c * (m - 1 - t) // (t + 1)  # C(m-1, t+1)
        s += c
        column.append(s)
    return (column + [0] * (t_hi - r))[t_lo:]


class BoundReport(
    namedtuple(
        "BoundReport",
        "q n r t lev_lower lev_upper hr_lower hr_upper ch_upper new_lower new_upper exact",
        defaults=(None,),
    )
):
    """Every bound (and optionally the exact value) for one word or parameter set.

    An immutable named tuple of ints; ``exact`` defaults to None.
    """

    __slots__ = ()

    def value(self, column: str) -> int | None:
        if column not in COLUMN_ORDER:
            raise ValueError(f"unknown column {column!r}")
        return getattr(self, column)

    def to_json_dict(self) -> dict[str, object]:
        """Plain dict with ball counts as decimal strings (they overflow ints elsewhere)."""
        out: dict[str, object] = {"q": self.q, "n": self.n, "r": self.r, "t": self.t}
        for column in COLUMN_ORDER:
            v = self.value(column)
            if v is not None:
                out[column] = decimal(v)
        return out

    def csv_row(self, columns: Sequence[str]) -> str:
        """t plus the requested columns, comma-separated, counts in decimal."""
        return ",".join([str(self.t)] + [decimal(self.value(c)) for c in columns])


def json_chunks(value: object, pad: str = "\n") -> Iterator[str]:
    """``json.dumps(value, indent=2)`` in pieces, for what reports and sweeps
    print: ints, strings that need no escaping (column names and decimal
    counts), and dicts and lists of these.  A list may be an iterator, read
    one item at a time, so a sweep's rows are formatted as they are written."""
    if isinstance(value, (int, str)):
        yield f'"{value}"' if isinstance(value, str) else str(value)
        return
    keyed, inner = isinstance(value, dict), pad + "  "
    brackets = "{}" if keyed else "[]"
    items = ((f'"{k}": ', v) for k, v in value.items()) if keyed else (("", v) for v in value)
    sep = brackets[0] + inner
    for key, item in items:
        yield sep + key
        yield from json_chunks(item, inner)
        sep = "," + inner
    yield pad + brackets[1] if sep[0] == "," else brackets


def format_sweep(
    q: int, n: int, r: int, t_lo: int, t_hi: int, columns: Sequence[str], fmt: str,
    reports: Iterable[BoundReport],
) -> Iterator[str]:
    """The CSV or JSON text of a sweep's reports, in pieces: each row is
    formatted when it is read, so the text is never held whole."""
    if fmt == "csv":
        yield "t," + ",".join(columns) + "\n"
        for report in reports:
            yield report.csv_row(columns) + "\n"
        return
    rows = ({"t": rep.t, **{c: decimal(rep.value(c)) for c in columns}} for rep in reports)
    yield from json_chunks(
        {"q": q, "n": n, "r": r, "t_range": [t_lo, t_hi], "columns": columns, "rows": rows}
    )
    yield "\n"


def _reports(
    q: int, n: int, r: int, t_values: Iterable[int], exact_word: Word | RunProfile | None
) -> list[BoundReport]:
    """Reports for each t in order; the exact column, if any, is exact_word's.

    t_values is read more than once, so an iterable that is not a sequence
    is listed first.  The request is checked before any DP.  Each column is
    computed once over [t_lo, t_hi] = [min t, max t] and read at t - t_lo;
    the Calabi-Hartnett column also gives hr_upper by Hirschberg's
    identity.  Raises AssertionError if a bound contradicts the exact value.
    """
    if not isinstance(t_values, Sequence):
        t_values = list(t_values)
    _check_params(q, n, r, t_values)
    if not t_values:
        return []
    t_lo, t_hi = min(t_values), max(t_values)
    exact = None if exact_word is None else ball_size_all(exact_word, t_lo, t_hi)
    new_lower = ball_size_all(unbalanced_profile(n, r, 2), t_lo, t_hi)
    new_upper = ball_size_all(canonical_profile((-(-n // r),) * r, q), t_lo, t_hi)
    ch_upper = _calabi_hartnett_column(q, n, t_lo, t_hi)
    hr_lower = _hr_lower_column(r, t_lo, t_hi)
    # BoundReport's fields from lev_lower to new_upper, in order.
    columns = (*_levenshtein_columns(r, t_lo, t_hi), hr_lower, ch_upper, ch_upper, new_lower, new_upper)
    reports = []
    for t in t_values:
        i = t - t_lo
        exact_t = None if exact is None else exact[i]
        report = BoundReport(q, n, r, t, *(column[i] for column in columns), exact_t)
        if exact_t is not None:
            for low in (report.lev_lower, report.hr_lower, report.new_lower):
                if low > exact_t:
                    raise AssertionError(f"lower bound {low} exceeds exact {exact_t}: {report}")
            for high in (report.lev_upper, report.ch_upper, report.new_upper):
                if high < exact_t:
                    raise AssertionError(f"upper bound {high} below exact {exact_t}: {report}")
        reports.append(report)
    return reports


def report_for_word(word: Word, t: int) -> BoundReport:
    """BoundReport for a concrete word, with its exact ball size; n, r, q
    are read off the word."""
    profile = encode_runs(word)
    return _reports(word.alphabet_size, len(word), profile.run_count, [t], profile)[0]


def sweep_reports(
    q: int, n: int, r: int, t_values: Iterable[int], with_exact: bool = False
) -> list[BoundReport]:
    """Reports for each t in order, every column computed once for all t.

    The exact column, when requested, is that of the canonical word with
    r - 1 unit runs then one long run over alphabet q (for r = 1 and for
    r = n the only run shape available), counted like the witnesses.  For
    one t, take ``sweep_reports(q, n, r, [t])[0]``.
    """
    _check_params(q, n, r)  # before the exact witness is built
    return _reports(q, n, r, t_values, unbalanced_profile(n, r, q) if with_exact else None)
