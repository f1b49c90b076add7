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
  By Hirschberg's identity the upper sum equals D(q, n, t), so it is
  read off the Calabi-Hartnett column.
* Balanced upper bound:     |ball| <= ball of the balanced word with r
  runs of length ceil(n/r) (pad the last run, then balance).
* Reduced-binary lower bound: |ball| >= ball of the binary word with r-1
  unit runs and one long run (relabel runs to binary, then unbalance).

The last two are computed exactly, not from further closed forms: one DP
pass on each witness's run profile gives its column over the requested t,
keeping only the band of lengths from n - max(t) to n - min(t), at a cost
that depends on r and t, not on n (the balanced word's closed form stays
in ``balanced`` as an oracle).  The Calabi-Hartnett and Hirschberg-Regnier
lower columns are each one walk up t, at a cost that depends on t, not on
n.  A report computes every column once.  Reports and sweeps raise
ValueError for any t outside [0, n].  A ``BoundReport`` is an immutable
named tuple of the columns.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .binomials import binomial
from .exact import ball_size, ball_size_all
from .words import RunProfile, Word, canonical_profile, encode_runs, unbalanced_profile

COLUMN_ORDER = (
    "exact",
    "lev_lower",
    "lev_upper",
    "hr_lower",
    "hr_upper",
    "ch_upper",
    "new_lower",
    "new_upper",
)


def _check_params(q: int, n: int, r: int, t_values: Iterable[int] = ()) -> None:
    if q < 2:
        raise ValueError("need q >= 2")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    for t in t_values:
        if not 0 <= t <= n:
            raise ValueError(f"t={t} outside [0, n={n}]")


def levenshtein_bounds(r: int, t: int) -> tuple[int, int]:
    """(C(r-t+1, t), C(r+t-1, t)); out-of-range binomials vanish."""
    return binomial(r - t + 1, t), binomial(r + t - 1, t)


def _calabi_hartnett_column(q: int, n: int, t_values: Sequence[int]) -> list[int]:
    """D(q, n, t) for each t in t_values (all in [0, n]), in one walk up t.

    A length-m subsequence of the word cycling through all q symbols is
    fixed by the m gaps of its leftmost embedding (the first one before the
    first kept symbol), each in [0, q-1], summing to at most t = n - m.
    Inclusion-exclusion over the j gaps that overflow gives
    D(q, n, t) = sum_{j <= t/q} (-1)^j * C(m, j) * C(n - jq, m).  From t to
    t + 1, term j gains the exact factor (m - j) / (t + 1 - jq), and when q
    divides t + 1 the term j = (t + 1) / q joins as (-1)^j * C(m - 1, j).
    So a column costs O(t^2 / q) big-integer operations, whatever n is.
    For q = 2 the sum is sum_{i <= t} C(n - t, i), walked at O(1) per t.
    By Hirschberg's identity the column is also the Hirschberg-Regnier
    upper sum, so it serves hr_upper as well as ch_upper.
    """
    if q == 1:
        return [1] * len(t_values)
    if q == 2:
        return _hr_lower_column(n, t_values)
    wanted = set(t_values)
    if not wanted:
        return []
    t, t_max = min(wanted), max(wanted)
    m = n - t
    b, c = binomial(n, m), 1  # C(n - jq, m) and C(m, j), from j = 0
    terms = [b]
    for j in range(1, t // q + 1):
        c = c * (m - j + 1) // j
        for top in range(n - (j - 1) * q, n - j * q, -1):
            b = b * (top - m) // top
        terms.append(-c * b if j % 2 else c * b)
    found = {}
    while True:
        if t in wanted:
            found[t] = sum(terms)
        if t == t_max:
            return [found[t] for t in t_values]
        t += 1
        terms = [x * (m - j) // (t - j * q) for j, x in enumerate(terms)]
        m -= 1
        if t % q == 0:
            j = t // q
            terms.append(-binomial(m, j) if j % 2 else binomial(m, j))


def calabi_hartnett_max(q: int, n: int, t: int) -> int:
    """Largest ball size over all length-n words with alphabet q.

    Attained by any word cycling through all q symbols; 0 outside
    0 <= t <= n.
    """
    if q < 1:
        raise ValueError("need q >= 1")
    if t < 0 or t > n:
        return 0
    return _calabi_hartnett_column(q, n, [t])[0]


def _hr_lower_column(r: int, t_values: Sequence[int]) -> list[int]:
    """sum_{i<=t} C(r-t, i) for each t in t_values, in one walk up t.

    With m = r - t and S(m, t) = sum_{i<=t} C(m, i), Pascal's rule gives
    S(m-1, t) = (S(m, t) + C(m-1, t)) / 2 and S(m-1, t+1) = S(m-1, t) +
    C(m-1, t+1), so each step costs O(1) big-integer operations.  S vanishes
    once m < 0, which ends the walk after at most r + 1 steps.
    """
    width = max(t_values, default=-1) + 1
    column = []
    s, c = 1, 1  # S(m, t) and C(m, t), starting at t = 0
    for t in range(width):
        m = r - t
        if m < 0:
            break
        column.append(s)
        if m == 0:
            break
        c = c * (m - t) // m  # C(m-1, t)
        s = (s + c) // 2
        c = c * (m - 1 - t) // (t + 1)  # C(m-1, t+1)
        s += c
    return [column[t] if 0 <= t < len(column) else 0 for t in t_values]


def hirschberg_regnier_bounds(q: int, n: int, r: int, t: int) -> tuple[int, int]:
    """(sum_i C(r-t, i), sum_i C(n-t, i) * D(q-1, t, t-i)) for i in [0, t].

    The upper sum equals D(q, n, t) by Hirschberg's identity (Hirschberg and
    Regnier, CPM 2000), so it is returned as calabi_hartnett_max(q, n, t),
    which counts the gap vectors of the cycling word's subsequences in
    closed form.
    """
    if q < 2:
        raise ValueError("need q >= 2")
    return _hr_lower_column(r, [t])[0], calabi_hartnett_max(q, n, t)


def unbalanced_lower_bound(n: int, r: int, t: int) -> int:
    """Ball size of unbalanced_binary_word(n, r): a floor for every r-run word."""
    return ball_size(unbalanced_profile(n, r, 2), t)


def balanced_upper_bound(q: int, n: int, r: int, t: int) -> int:
    """Ball size of the balanced word with k = ceil(n / r): a cap for every r-run word.

    Exact (not just a bound) when r divides n; 0 outside 0 <= t <= n.
    """
    _check_params(q, n, r)
    if not 0 <= t <= n:
        return 0
    return ball_size(canonical_profile((-(-n // r),) * r, q), t)


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
                out[column] = str(v)
        return out

    def csv_row(self, columns: Sequence[str]) -> str:
        """t plus the requested columns, comma-separated, counts in decimal."""
        return ",".join([str(self.t)] + [str(self.value(c)) for c in columns])


def _ball_column(word: Word | RunProfile, t_values: Sequence[int]) -> list[int]:
    """Ball sizes of ``word`` for each t in t_values, in order.

    One DP pass keeps only the band of lengths between n - max(t) and
    n - min(t): O(n) for a narrow range of t near 0 or n.
    """
    t_min = min(t_values, default=0)
    sizes = ball_size_all(word, t_min, max(t_values, default=0))
    return [sizes[t - t_min] for t in t_values]


def _reports(
    q: int, n: int, r: int, t_values: Sequence[int], exact_word: Word | RunProfile | None
) -> list[BoundReport]:
    """Reports for each t in order; the exact column, if any, is exact_word's.

    The request is checked before any DP.  Each column is computed once
    for all t: one DP pass per witness profile, one Calabi-Hartnett column,
    which by Hirschberg's identity also gives hr_upper, and one walk for
    hr_lower.  Raises AssertionError if a bound contradicts the exact value.
    """
    _check_params(q, n, r, t_values)
    exact = None if exact_word is None else _ball_column(exact_word, t_values)
    new_lower = _ball_column(unbalanced_profile(n, r, 2), t_values)
    new_upper = _ball_column(canonical_profile((-(-n // r),) * r, q), t_values)
    ch_upper = _calabi_hartnett_column(q, n, t_values)
    hr_lower = _hr_lower_column(r, t_values)
    reports = []
    for i, t in enumerate(t_values):
        lev_lower, lev_upper = levenshtein_bounds(r, t)
        exact_t = None if exact is None else exact[i]
        report = BoundReport(
            q=q,
            n=n,
            r=r,
            t=t,
            lev_lower=lev_lower,
            lev_upper=lev_upper,
            hr_lower=hr_lower[i],
            hr_upper=ch_upper[i],
            ch_upper=ch_upper[i],
            new_lower=new_lower[i],
            new_upper=new_upper[i],
            exact=exact_t,
        )
        if exact_t is not None:
            for low in (report.lev_lower, report.hr_lower, report.new_lower):
                if low > exact_t:
                    raise AssertionError(f"lower bound {low} exceeds exact {exact_t}: {report}")
            for high in (report.lev_upper, report.ch_upper, report.new_upper):
                if high < exact_t:
                    raise AssertionError(f"upper bound {high} below exact {exact_t}: {report}")
        reports.append(report)
    return reports


def report_for_word(word: Word, t: int, with_exact: bool = True) -> BoundReport:
    """BoundReport for a concrete word; n, r, q are read off the word."""
    profile = encode_runs(word)
    r = profile.run_count
    if r == 0:
        raise ValueError("no bounds for the empty word")
    return _reports(word.alphabet_size, len(word), r, [t], profile if with_exact else None)[0]


def representative_word(q: int, n: int, r: int) -> Word:
    """Canonical word with r - 1 unit runs then one long run, over alphabet q.

    Used as the witness whose exact ball size parameter-form reports carry:
    for r = 1 and for r = n it is the only run shape available.
    """
    _check_params(q, n, r)
    return unbalanced_profile(n, r, q).to_word()


def report_for_params(q: int, n: int, r: int, t: int, with_exact: bool = False) -> BoundReport:
    """BoundReport for (q, n, r); exact, if requested, is for representative_word."""
    return sweep_reports(q, n, r, [t], with_exact)[0]


def sweep_reports(
    q: int, n: int, r: int, t_values: Sequence[int], with_exact: bool = False
) -> list[BoundReport]:
    """Reports for each t in order, every column computed once for all t.

    The exact column, when requested, comes from a single DP pass over
    the run profile of representative_word.
    """
    _check_params(q, n, r)  # before the exact witness is built
    return _reports(q, n, r, t_values, unbalanced_profile(n, r, q) if with_exact else None)
