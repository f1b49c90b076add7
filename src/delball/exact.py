"""The production deletion-ball count: a banded distinct-subsequence DP.

The ball of a word X under t deletions is the set of distinct strings
reachable by deleting exactly t symbols.  Conventions used throughout:
the ball is empty for t < 0 or t > n, and is the singleton {empty word}
for t = n.  The oracles that check this DP are in ``oracles``.

``ball_size`` takes a Word or its RunProfile, and ``_fold``, the one loop
over runs, applies ``_run_update`` to each: one pass over the row per run
of any length.  The row keeps only the lengths that can still reach
n - t, a band at most min(t, n - t) + 1 wide, so one value costs about
runs * min(t, n - t) big-integer operations whatever the run lengths
(plus O(n) to group a Word).  ``ball_size_all`` keeps the lengths of a
range of t in one row, every length by default (about runs * n / 2
operations); ``ball_size`` is its one-t case.

A prefix P = runs[:c] of h symbols and the rest S join at h (``_join``):
every distinct subsequence factors uniquely there through its leftmost
embedding, so with L = n - t

    count(L) = row_P[L] + sum over a, k of g_a[k] * s'_a[L - k - 1],

with g_a = row_P - (P's row before its last a), or row_P if a is not in P,
and s'_a the row of reversed S before its last a, which counts the
subsequences of S that start with a (0 if a is not in S).  Two routes use
it.  A count at one t (``ball_size``, or ``ball_size_all`` with t_min =
t_max) whose predicted DP cells, cut at the run that halves them, leave
the child more work than the fork and the join cost (``_split_pays``)
runs on two cores: the module ``split`` folds P in this process and
reversed S in a forked child at the same time.  The split is taken only
on Linux with os.fork, two CPUs in the affinity mask and no second live
thread; otherwise, where it does not pay, and for a range of t, the
single-pass DP runs, which holds snapshots only of the symbols still to
come.  The other route is the balancing chain, ``ops._ball_sizes``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, repeat, zip_longest
from operator import mul, sub

from .words import RunProfile, Word, encode_runs

# A fork and the pipe cost a few ms, which the split wins back from about
# 50,000 cells (15 ms of DP) on a 2-vCPU host; a step of the 44-step chain
# of a 480-symbol word predicts under 3,000.
SPLIT_MIN_CELLS = 100_000
# One product of _join, its factor piped from the child, costs 2 to 7 DP
# cells at n = 2,048 on that host (about 1 us against 0.25) and 12 at
# n = 4,000.  3 keeps every count-random and count-runs-m8 benchmark word
# split; a permutation, with about as many products as cells, never is.
JOIN_PRODUCT_CELLS = 3


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


def _fold(runs, n: int, shortest: int, longest: int, state: _State = _START, last=None) -> _State:
    """The state after the (length, symbol) pairs ``runs``, read from ``state``
    (the empty prefix by default); one ``_run_update`` per run.

    ``state`` is left intact: its snapshot map is copied once (O(distinct
    symbols)) and the copy is updated in place, and the new state shares
    older rows with it.  A copy per run would make a word over many
    distinct symbols quadratic.  ``last`` maps each symbol to the index of
    its last run in ``runs``, where its snapshot is dropped; only
    ``ball_size_all``, which reads just the row and never ``_join``s,
    passes it.
    """
    i, lo, row, snapshots = state
    snapshots = dict(snapshots)
    for j, (x, a) in enumerate(runs):
        lo, row, snapshots[a] = _run_update((i, lo, row, snapshots), x, a, n, shortest, longest)
        if last is not None and last[a] == j:
            del snapshots[a]
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


def ball_size(word: Word | RunProfile, t: int) -> int:
    """|ball(word, t)| by dynamic programming; 0 outside 0 <= t <= n."""
    return ball_size_all(word, t, t)[0] if 0 <= t <= len(word) else 0


def _split_plan(profile: RunProfile, length: int) -> tuple[int, int]:
    """(cells, cut): the predicted cells of the DP for one length (the sum of
    its row widths after each run) and the number of leading runs whose
    rows take half of them."""
    n, i, cells = len(profile), 0, [0]
    for x in profile.lengths:
        i += x
        cells.append(cells[-1] + min(i, length) - max(0, length - (n - i)) + 1)
    return cells[-1], bisect_left(cells, cells[-1] // 2)


def _split_pays(profile: RunProfile, length: int, cells: int, cut: int) -> bool:
    """Whether the half of ``cells`` the child folds outweighs the fork and
    ``_join``'s products: band width at the cut times the symbols after it."""
    n, h = len(profile), sum(profile.lengths[:cut])
    products = (min(h, length) - max(0, length - (n - h)) + 1) * len(set(profile.symbols[cut:]))
    return cells // 2 >= SPLIT_MIN_CELLS // 2 + JOIN_PRODUCT_CELLS * products


def ball_size_all(word: Word | RunProfile, t_min: int = 0, t_max: int | None = None) -> list[int]:
    """Ball sizes for t = t_min..t_max (default every t in [0, n]), in one DP pass.

    Entry i is the size at t = t_min + i.  Only the lengths n - t_max to
    n - t_min are kept in the DP row; one t may split, as the module
    docstring says.  Raises ValueError unless 0 <= t_min <= t_max <= n.
    """
    n = len(word)
    t_max = n if t_max is None else t_max
    if not 0 <= t_min <= t_max <= n:
        raise ValueError(f"need 0 <= t_min <= t_max <= n={n}, got t_min={t_min}, t_max={t_max}")
    profile = encode_runs(word)
    if t_min == t_max:
        cells, cut = _split_plan(profile, n - t_min)
        if _split_pays(profile, n - t_min, cells, cut):
            from . import split  # loaded only by counts this large

            if split.second_core_free():
                return [split.split_count(profile, n - t_min, cut, fork=True)]
    lengths, symbols, _ = profile
    last = {a: j for j, a in enumerate(symbols)}
    return _fold(zip(lengths, symbols), n, n - t_max, n - t_min, last=last)[2][::-1]


def __getattr__(name: str) -> object:
    """The oracles that ``perfbench/test_perfbench.py`` imports from here, loaded on first use."""
    if name not in ("canonical_ball_size", "enumerate_ball"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracles

    return getattr(oracles, name)
