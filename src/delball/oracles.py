"""Deletion-ball oracles: routes independent of the DP in ``exact``, run
by the tests and ``selftest`` against it; no command counts with them.

* ``enumerate_ball`` materializes the ball.  Every candidate, a tuple of
  n - t symbols, is generated, so it refuses (budget guard) once the
  C(n, t) candidates hold more symbols than DELBALL_ENUM_BUDGET.
* ``canonical_ball_size`` peels the runs of a word whose run symbols
  increase cyclically, from the run lengths alone.
"""

import os
from collections import deque
from itertools import accumulate, combinations
from math import comb

from .words import RunProfile, Word, canonical_profile

DEFAULT_ENUM_BUDGET = 2_000_000
ENUM_BUDGET_ENV = "DELBALL_ENUM_BUDGET"


class EnumerationBudgetError(RuntimeError):
    """enumerate_ball would generate more candidate symbols than the budget allows."""


def enumeration_budget() -> int:
    """Active candidate budget: DELBALL_ENUM_BUDGET if set, else the default."""
    raw = os.environ.get(ENUM_BUDGET_ENV)
    if raw is None:
        return DEFAULT_ENUM_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENUM_BUDGET_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{ENUM_BUDGET_ENV} must be positive, got {value}")
    return value


def enumerate_ball(word: Word | RunProfile, t: int) -> set[Word]:
    """The set of distinct words reachable from ``word`` by exactly t deletions.

    Raises EnumerationBudgetError when the C(n, t) candidates of n - t
    symbols, C(n, t) * max(1, n - t), exceed enumeration_budget(), without
    building a large C(n, t): C(n, t) = C(n, k) >= 2**k for
    k = min(t, n - t), so C(n, k) is computed only for k below the budget's
    bit length.  A RunProfile is decoded only once the budget admits it.
    """
    n = len(word)
    if t < 0 or t > n:
        return set()
    budget = enumeration_budget()
    k = min(t, n - t)
    if k >= budget.bit_length() or comb(n, k) * max(1, n - t) > budget:
        message = f"C({n}, {t}) candidates of {n - t} symbols exceed budget {budget}"
        raise EnumerationBudgetError(message)
    if isinstance(word, RunProfile):
        word = word.to_word()
    q = word.alphabet_size
    return {Word(kept, q) for kept in combinations(word.symbols, n - t)}


def canonical_ball_size(lengths: tuple[int, ...] | list[int], q: int, t: int) -> int:
    """Ball size of canonical_word(lengths, q), by peeling the first run.

    Splits the ball by how many leading runs a subsequence skips before its
    first kept symbol: skipping the first j runs (plus i extra symbols of
    run j+1, 0 <= i < x_1 choices of where the peeling stopped) leaves the
    suffix profile with run j+1 shortened by one.  A trailing +1 accounts
    for subsequences erased entirely out of the first run when t > n - x_1.
    Equals ball_size on the decoded word for every t; only run lengths and
    the alphabet size enter, and ``canonical_profile`` refuses them where
    no canonical word exists (raising ValueError).

    Peeling only ever reaches suffixes of the run vector, whole or with
    their first run shortened by one, at t no larger than the one asked
    for.  So the table is filled from the last run backwards, one column
    over 0..t per suffix, keeping the shortened columns of the at most
    min(r, q) - 1 suffixes after the current one that it reads (a bound
    by q alone would overflow a C ssize_t past q = 2**63).  Columns are
    prefix sums, so the i-sum above is one difference.  Costs
    O(runs * min(runs, q) * t) operations, with no recursion.
    """
    lengths = canonical_profile(lengths, q).lengths
    if not 0 <= t <= sum(lengths):
        return 0
    r = len(lengths)

    def column(s: int, x1: int, n: int, rest: list[int]) -> list[int]:
        """Prefix sums over u = 0..t of the ball sizes of the n-symbol suffix
        from run s, run s cut to x1; ``rest`` is the column of the suffix after
        run s, ``cut[j - 1]`` that of the suffix from run s + j, shortened."""
        sizes = []
        for u in range(t + 1):
            if u > n:
                size = 0
            elif u == 0 or u == n:
                size = 1
            else:
                size = rest[u + 1] - rest[u] + (u > n - x1)
                skipped = x1
                for j in range(1, min(r - s, q)):
                    low = u - skipped
                    if low + x1 > 0:
                        size += cut[j - 1][low + x1] - cut[j - 1][max(low, 0)]
                    skipped += lengths[s + j]
            sizes.append(size)
        return list(accumulate(sizes, initial=0))

    rest = [0] + [1] * (t + 1)  # the empty suffix
    cut: deque[list[int]] = deque(maxlen=min(r, q - 1))
    n = 0
    for s in range(r - 1, -1, -1):
        x = lengths[s]
        n += x
        shortened = column(s, x - 1, n - 1, rest) if x > 1 else rest
        rest = column(s, x, n, rest)
        cut.appendleft(shortened)
    return rest[t + 1] - rest[t]
