"""Ground-truth deletion-ball sizes.

The ball of a word X under t deletions is the set of distinct strings
reachable by deleting exactly t symbols.  Conventions used throughout:
the ball is empty for t < 0 or t > n, and is the singleton {empty word}
for t = n.

Two independent routes compute the ball size:

* ``enumerate_ball`` materializes the set itself.  It refuses (budget
  guard) once the number of candidate subsequences C(n, t) grows past
  DELBALL_ENUM_BUDGET, because every candidate is generated.
* ``ball_size`` runs a distinct-subsequence dynamic program and is the
  workhorse.  It takes a Word or its RunProfile, and ``_fold``, the one
  loop over runs, applies ``_run_update`` to each: one pass over the row
  per run of any length.  The row keeps only the lengths that can still
  reach n - t, a band at most min(t, n - t) + 1 wide, so one value costs
  about runs * min(t, n - t) big-integer operations whatever the run
  lengths (plus O(n) to group a Word).  ``ball_size_all`` keeps the
  lengths of a range of t in one row, every length by default (about
  runs * n / 2 operations); ``ball_size`` is its one-t case.

A prefix P = runs[:c] of h symbols and the rest S join at h (``_join``):
every distinct subsequence factors uniquely there through its leftmost
embedding, so with L = n - t

    count(L) = row_P[L] + sum over a, k of g_a[k] * s'_a[L - k - 1],

with g_a = row_P - (P's row before its last a), or row_P if a is not in P,
and s'_a the row of reversed S before its last a, which counts the
subsequences of S that start with a (0 if a is not in S).  Two routes use
it.  One ``ball_size`` predicted to visit at least SPLIT_MIN_CELLS DP
cells runs on two cores, cut at the run that halves the prediction: the
module ``split`` folds P in this process and reversed S in a forked child
at the same time.  The split is taken only on Linux with os.fork, two CPUs
in the affinity mask and no second live thread; otherwise, and below the
cell threshold, the plain single-pass DP runs.  ``ball_size_all`` never
splits.  ``_ball_sizes`` counts a sequence of profiles that differ in a
few runs, such as a balancing chain: it keeps the states of P and of
reversed S at every run boundary and reruns only the runs that change,
folding each from the state before it.

``canonical_ball_size`` is a third route, valid only for words whose run
symbols increase cyclically; it fills a table over the suffixes of the
run-length vector alone, from the last run backwards.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import deque
from itertools import accumulate, chain, combinations, repeat, zip_longest
from math import comb
from operator import mul, sub

from .words import RunProfile, Word, canonical_profile, encode_runs

DEFAULT_ENUM_BUDGET = 2_000_000
ENUM_BUDGET_ENV = "DELBALL_ENUM_BUDGET"
# A fork and the pipe cost a few ms, which the split wins back from about
# 50,000 cells (15 ms of DP) on a 2-vCPU host; a step of the 44-step chain
# of a 480-symbol word predicts under 3,000.
SPLIT_MIN_CELLS = 100_000


class EnumerationBudgetError(RuntimeError):
    """enumerate_ball would generate more candidates than the budget allows."""


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

    Raises EnumerationBudgetError when C(n, t) exceeds enumeration_budget(),
    without building a large C(n, t): C(n, t) = C(n, k) >= 2**k for
    k = min(t, n - t), so C(n, k) is computed only for k below the budget's
    bit length.  A RunProfile is decoded only once the budget admits it.
    """
    n = len(word)
    if t < 0 or t > n:
        return set()
    budget = enumeration_budget()
    k = min(t, n - t)
    if k >= budget.bit_length() or comb(n, k) > budget:
        raise EnumerationBudgetError(f"C({n}, {t}) candidate subsequences exceed budget {budget}")
    if isinstance(word, RunProfile):
        word = word.to_word()
    q = word.alphabet_size
    return {Word(kept, q) for kept in combinations(word.symbols, n - t)}


_State = tuple[int, int, list[int], dict[int, tuple[int, list[int]]]]
_START: _State = (0, 0, [1], {})  # no symbol read; never mutated


def _run_update(
    state: _State, x: int, a: int, n: int, shortest: int, longest: int
) -> tuple[int, list[int], tuple[int, list[int]]]:
    """(lo, row, snapshot) of the DP state after appending a run of x copies
    of symbol a; ``snapshot`` is the new row before its last a.

    A state (i, lo, row, snapshots) describes a prefix of i symbols of an
    n-symbol word: row[j] counts its distinct subsequences of length lo + j,
    and snapshots[a] = (lo, row) is the row before its last a.  The lengths
    shortest..longest (0 <= shortest <= longest <= n) are the ones wanted
    at the end.  Reads ``state`` and changes nothing in it.

    Appending symbol a extends every length-(m-1) subsequence by a; those
    extensions that already existed when a was last appended are the ones
    counted by the row snapshot taken just before that occurrence.  So with
    g = row - snapshot (g = row if a is new), one a adds g[m-1] to row[m],
    and a run of x copies of a adds the window sum g[m-x] + ... + g[m-1],
    read off one prefix sum of g.  The row before the run's last a, the
    next snapshot for a, is the new row minus g[m-x].

    Updates only move counts to longer lengths, so the row is cut at
    ``longest``.  After i symbols a length below shortest - (n - i) cannot
    reach ``shortest`` with the symbols left, so the row starts there
    (``lo``) and entries below it are dropped.  A row or snapshot list ends
    at its prefix length (or ``longest``); lengths past its end count 0.
    So g and its prefix sums are 0 below ``lo`` and constant past the row's
    end; both are read lazily, so a run costs the row's width, not x.
    """
    i, lo, row, before_last = state
    i += x
    new_lo = max(0, shortest - (n - i))
    top = min(i, longest)  # the new row covers lengths new_lo..top
    p_lo, p_row = before_last.get(a, (0, []))  # a new symbol has an empty snapshot
    if x == 1:
        # new[m] = row[m] + row[m-1] - snapshot[m-1], for m >= new_lo
        if new_lo:  # then lo = new_lo - 1
            cur, down = row[1:], row[: top - lo]
        else:
            cur, down = row, [0, *row[:top]]
        old = p_row[new_lo - 1 - p_lo : top - p_lo] if new_lo else [0, *p_row[:top]]
        new = [c + d - b for c, d, b in zip_longest(cur, down, old, fillvalue=0)]
        snapshot = (lo, row)
    else:
        pad = lo - (new_lo - x)  # the windows start at length new_lo - x <= lo
        old = p_row[lo - p_lo : top - p_lo]
        gain = [c - b for c, b in zip_longest(row[: top - lo], old, fillvalue=0)]  # g from lo up
        g = chain(repeat(0, pad), gain, repeat(0))  # g[m - x] for m = new_lo..top
        sums = list(accumulate(gain, initial=0))  # sums[j] = g summed below lo + j
        cur = row[new_lo - lo :]
        cur += [0] * (top - new_lo + 1 - len(cur))  # row[m]
        above = chain(sums[new_lo - lo :], repeat(sums[-1]))  # g summed below m
        below = chain(repeat(0, pad), sums, repeat(sums[-1]))  # g summed below m - x
        new = [c + s - e for c, s, e in zip(cur, above, below)]
        snapshot = (new_lo, [v - d for v, d in zip(new, g)])
    return new_lo, new, snapshot


def _fold(runs, n: int, shortest: int, longest: int, state: _State = _START) -> _State:
    """The state after the (length, symbol) pairs ``runs``, read from ``state``
    (the empty prefix by default); one ``_run_update`` per run.

    ``state`` is left intact: its snapshot map is copied once (O(distinct
    symbols)) and the copy is updated in place, and the new state shares
    older rows with it.  A copy per run would make a word over many
    distinct symbols quadratic.
    """
    i, lo, row, snapshots = state
    snapshots = dict(snapshots)
    for x, a in runs:
        lo, row, snapshots[a] = _run_update((i, lo, row, snapshots), x, a, n, shortest, longest)
        i += x
    return i, lo, row, snapshots


def _window(snapshot: tuple[int, list[int]], first: int, last: int) -> list[int]:
    """A snapshot's counts for the lengths first..last (first >= its lo)."""
    lo, row = snapshot
    part = row[first - lo : last + 1 - lo]
    return part + [0] * (last + 1 - first - len(part))


def _join(prefix_state: _State, suffix_snapshots, n: int, length: int) -> int:
    """Distinct length-``length`` subsequences of the n-symbol word P.S.

    ``prefix_state`` is P's state from ``_fold`` with shortest = longest
    = length.  ``suffix_snapshots`` are the (symbol, snapshot) pairs of the
    state of reversed S with shortest = longest = length - 1 (0 if length
    is 0), also for an n-symbol word; they are read once, so ``split`` can
    stream them from a child process.

    The leftmost embedding of a subsequence w puts in P the longest prefix
    u of w that is a subsequence of P; the rest is empty or a.v with a.v a
    subsequence of S and u.a not one of P.  Of P's length-k subsequences,
    g_a[k] = row_P[k] - (P's row before its last a)[k] are not followed by
    a in P (g_a = row_P if a is not in P); the row of reversed S before its
    last a, s'_a, counts the v (0 if a is not in S).  So the count is
    row_P[length] + sum over a and k of g_a[k] * s'_a[length - k - 1].
    """
    h, k_lo, row, before_last = prefix_state  # k_lo = max(0, length - (n - h))
    k_hi = min(h, length)  # u's length
    j_lo, j_hi = max(0, length - 1 - k_hi), length - 1 - k_lo  # v's length
    total = row[-1] if k_hi == length else 0
    gain = row[: j_hi - j_lo + 1]  # k = k_lo..min(k_hi, length - 1)
    for a, snapshot in suffix_snapshots:
        own = before_last.get(a)
        g = gain if own is None else list(map(sub, gain, _window(own, k_lo, k_hi)))
        total += sum(map(mul, g, reversed(_window(snapshot, j_lo, j_hi))))
    return total


def _changed_runs(old: RunProfile | None, new: RunProfile | None) -> list[int] | None:
    """The indices of the runs whose length differs from ``old`` to ``new``,
    or None when either is None or the two differ in run symbols or length."""
    if old is None or new is None or (old.symbols, len(old)) != (new.symbols, len(new)):
        return None
    return [j for j, (x, y) in enumerate(zip(old.lengths, new.lengths)) if x != y]


def _ball_sizes(profiles: list[RunProfile], t: int) -> list[int]:
    """[ball_size(p, t) for p in profiles], rerunning only the runs that change.

    Made for chains of profiles that differ in a few run lengths, like the
    steps of ``ops.balancing_chain``.  One stack holds the forward DP state
    after each of the first runs, another the state of the reversed word
    after each of the last runs.  For each profile the states that read a
    run changed since the previous profile are popped; the two stacks are
    extended through the changed runs to meet at a cut, and their tops are
    joined by ``_join``.  Any cut from the first changed run to just past
    the last costs the same; it is placed as near as it can be to the runs
    the next profile changes, so that the next profile pops the fewest
    states.  A profile whose run symbols or length differ from the previous
    one starts both stacks over, so the first profile costs one full DP and
    a later one its changed runs plus one join.  The stacks hold at most
    r + 2 states, each one band row of at most min(t, n - t) + 1 counts
    plus one new snapshot row for a run longer than 1: at most about twice
    the cells ``_split_plan`` predicts for one DP.  Never forks.
    """
    sizes: list[int] = []
    for before, profile, after in zip([None, *profiles], profiles, [*profiles[1:], None]):
        lengths, symbols, _ = profile
        n, r = len(profile), len(lengths)
        if not 0 <= t <= n:  # so is a next profile of length n; a longer one starts over
            sizes.append(0)
            continue
        changed = _changed_runs(before, profile)
        if changed is None:
            forward, backward = [_START], [_START]
            first, last = 0, r - 1
        elif not changed:
            sizes.append(sizes[-1])
            continue
        else:
            first, last = changed[0], changed[-1]
            del forward[first + 1 :], backward[r - last :]
        ahead = _changed_runs(profile, after)
        cut = min(max(ahead[0] if ahead else last, first), last + 1)
        length = n - t
        below = max(0, length - 1)
        while len(backward) <= r - cut:  # backward[j] has read the last j runs
            j = r - len(backward)
            backward.append(_fold([(lengths[j], symbols[j])], n, below, below, backward[-1]))
        while len(forward) <= cut:  # forward[j] has read the first j runs
            j = len(forward) - 1
            forward.append(_fold([(lengths[j], symbols[j])], n, length, length, forward[-1]))
        sizes.append(_join(forward[cut], backward[r - cut][3].items(), n, length))
    return sizes


def ball_size(word: Word | RunProfile, t: int) -> int:
    """|ball(word, t)| by dynamic programming; 0 outside 0 <= t <= n.

    A DP predicted to visit at least SPLIT_MIN_CELLS cells is split at the
    run that halves the prediction, and its second half runs in a child
    process when a second core is free (see ``split.split_count``).
    """
    n = len(word)
    if t < 0 or t > n:
        return 0
    profile = encode_runs(word)
    cells, cut = _split_plan(profile, n - t)
    if cells >= SPLIT_MIN_CELLS:
        from . import split  # loaded only by counts this large

        if split.second_core_free():
            return split.split_count(profile, n - t, cut, fork=True)
    return ball_size_all(profile, t, t)[0]


def _split_plan(profile: RunProfile, length: int) -> tuple[int, int]:
    """(cells, cut): the predicted cells of the DP for one length (the sum of
    its row widths after each run) and the number of leading runs whose
    rows take half of them."""
    n, i, cells = len(profile), 0, [0]
    for x in profile.lengths:
        i += x
        cells.append(cells[-1] + min(i, length) - max(0, length - (n - i)) + 1)
    return cells[-1], bisect_left(cells, cells[-1] // 2)


def ball_size_all(word: Word | RunProfile, t_min: int = 0, t_max: int | None = None) -> list[int]:
    """Ball sizes for t = t_min..t_max (default every t in [0, n]), in one DP pass.

    Entry i is the size at t = t_min + i.  Only the lengths n - t_max to
    n - t_min are kept in the DP row.  Raises ValueError unless
    0 <= t_min <= t_max <= n.
    """
    n = len(word)
    t_max = n if t_max is None else t_max
    if not 0 <= t_min <= t_max <= n:
        raise ValueError(f"need 0 <= t_min <= t_max <= n={n}, got t_min={t_min}, t_max={t_max}")
    lengths, symbols, _ = encode_runs(word)
    return _fold(zip(lengths, symbols), n, n - t_max, n - t_min)[2][::-1]


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
