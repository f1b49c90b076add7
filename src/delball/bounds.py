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

One table, ``_COLUMNS``, maps each column to its side of the sandwich
check and its walk: a lambda of (q, n, r) giving (function, *arguments),
where function(*arguments, t_lo, t_hi) returns the values for t = t_lo..t_hi
(the Levenshtein walk returns both its columns; an index picks one).  A
report runs each walk that its ``columns`` name once, over [min t, max t]
of its t (in any order, with repeats); a column not named is None and is
not checked.  Reports and sweeps raise ValueError for any t outside
[0, n].  A ``BoundReport`` is an immutable named tuple of the columns;
its ``row`` (t, then each column it holds as a decimal string) is a CSV
line, a sweep's JSON row and, after q, n and r, ``to_json_dict``.
``format_sweep`` writes a sweep read off its reports alone, and
``json_chunks`` (which it and ``delball bounds`` use) writes JSON.
"""

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from math import comb

from . import BOUND_COLUMNS, COLUMN_ORDER
from .exact import ball_size_all
from .words import (
    Word,
    canonical_profile,
    check_deletions,
    decimal,
    encode_runs,
    unbalanced_profile,
)


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
    0 <= t <= n.  Kept beside the reports for ``selftest``, and because
    ``perfbench/traced_cli.py`` reads it with no guard on every traced run.
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


_COLUMNS = {  # column: (side, walk[, index]); walks look their function up when run
    "exact": ("exact", lambda q, n, r: (ball_size_all, unbalanced_profile(n, r, q))),
    "lev_lower": ("lower", lambda q, n, r: (_levenshtein_columns, r), 0),
    "lev_upper": ("upper", lambda q, n, r: (_levenshtein_columns, r), 1),
    "hr_lower": ("lower", lambda q, n, r: (_hr_lower_column, r)),
    "hr_upper": ("upper", lambda q, n, r: (_calabi_hartnett_column, q, n)),
    "ch_upper": ("upper", lambda q, n, r: (_calabi_hartnett_column, q, n)),
    "new_lower": ("lower", lambda q, n, r: (ball_size_all, unbalanced_profile(n, r, 2))),
    "new_upper": ("upper", lambda q, n, r: (ball_size_all, canonical_profile((-(-n // r),) * r, q))),
}


class BoundReport(
    namedtuple(
        "BoundReport", ("q", "n", "r", "t", *BOUND_COLUMNS, "exact"),
        defaults=(None,) * len(COLUMN_ORDER),
    )
):
    """The requested bounds (and optionally the exact value) for one word or parameter
    set: an immutable named tuple of ints, where a column not requested is None."""

    __slots__ = ()

    def value(self, column: str) -> int | None:
        if column not in COLUMN_ORDER:
            raise ValueError(f"unknown column {column!r}")
        return getattr(self, column)

    def row(self) -> dict[str, int | str]:
        """t, then each requested column in COLUMN_ORDER as a decimal string
        (counts overflow ints elsewhere): the report's row in every format."""
        values = ((column, getattr(self, column)) for column in COLUMN_ORDER)
        return {"t": self.t, **{column: decimal(v) for column, v in values if v is not None}}

    def to_json_dict(self) -> dict[str, int | str]:
        """q, n and r, then the report's row."""
        return {"q": self.q, "n": self.n, "r": self.r, **self.row()}


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


def format_sweep(reports: Sequence[BoundReport], fmt: str) -> Iterator[str]:
    """A sweep's CSV or JSON text in pieces, read off its reports: q, n, r and the
    columns (the row's) from the first, the t range from the first and last.
    Each row is formatted when it is read, so the text is never held whole.
    An empty sweep raises ValueError at the call."""
    if not reports:
        raise ValueError("no t requested")
    first, rows = reports[0], map(BoundReport.row, reports)
    columns = list(first.row())[1:]
    if fmt == "csv":
        lines = (",".join(map(str, row.values())) + "\n" for row in rows)
        return chain(["t," + ",".join(columns) + "\n"], lines)
    t_range = [first.t, reports[-1].t]
    payload = {"q": first.q, "n": first.n, "r": first.r, "t_range": t_range, "columns": columns}
    return chain(json_chunks({**payload, "rows": rows}), ["\n"])


def _reports(q: int, n: int, r: int, t_values: Iterable[int], table: dict) -> list[BoundReport]:
    """Reports for each t in order, holding the columns of ``table``, a part of _COLUMNS.

    t_values is read more than once, so an iterable that is not a sequence
    is listed first.  The request is checked before any DP.  Raises
    AssertionError if a requested bound contradicts the exact value.
    """
    if not isinstance(t_values, Sequence):
        t_values = list(t_values)
    if q < 2:
        raise ValueError("need q >= 2")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    check_deletions(n, t_values)
    if not t_values:
        return []
    t_lo, t_hi = min(t_values), max(t_values)
    walks, values = {}, {}
    for column, (_, walk_of, *part) in table.items():
        walk = walk_of(q, n, r)
        if walk not in walks:
            walks[walk] = walk[0](*walk[1:], t_lo, t_hi)
        values[column] = walks[walk][part[0]] if part else walks[walk]
    reports = []
    for t in t_values:
        report = BoundReport(q, n, r, t, **{column: v[t - t_lo] for column, v in values.items()})
        exact = report.exact
        if exact is not None:
            for column in values:
                bound, side = getattr(report, column), table[column][0]
                if side == "lower" and bound > exact:
                    raise AssertionError(f"lower bound {bound} exceeds exact {exact}: {report}")
                if side == "upper" and bound < exact:
                    raise AssertionError(f"upper bound {bound} below exact {exact}: {report}")
        reports.append(report)
    return reports


def report_for_word(word: Word, t: int) -> BoundReport:
    """BoundReport for a concrete word, with every bound and its exact ball
    size; n, r, q are read off the word."""
    profile = encode_runs(word)
    table = {**_COLUMNS, "exact": ("exact", lambda q, n, r: (ball_size_all, profile))}
    return _reports(word.alphabet_size, len(word), profile.run_count, [t], table)[0]


def sweep_reports(
    q: int, n: int, r: int, t_values: Iterable[int], columns: Iterable[str] = BOUND_COLUMNS
) -> list[BoundReport]:
    """Reports for each t in order, each requested column computed once for all t.

    ``columns`` names the columns to compute, in any order (by default
    BOUND_COLUMNS, every column but ``exact``); the others are None.  An
    unknown name, or no name at all, raises ValueError before any DP.  The
    exact column is that of the canonical word with r - 1 unit runs then
    one long run over alphabet q (for r = 1 and for r = n the only run
    shape available), counted like the witnesses.  For one t, take
    ``sweep_reports(q, n, r, [t])[0]``.
    """
    columns = tuple(columns)  # read once, so that an iterator of names is checked as a whole
    unknown = [c for c in columns if c not in COLUMN_ORDER]
    if unknown:
        raise ValueError(f"unknown columns {unknown}; choose from {list(COLUMN_ORDER)}")
    if not columns:
        raise ValueError("no columns requested")
    return _reports(q, n, r, t_values, {column: _COLUMNS[column] for column in columns})
