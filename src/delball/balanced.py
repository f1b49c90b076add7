"""Ball sizes of balanced words: recursion and closed form.

``balanced_word(r, k, q)`` has r runs of length k whose symbols cycle
through min(r, q) values; over all words with r runs and length rk its
deletion ball is largest, which is what makes its size usable as an upper
bound.  This module computes that size two independent ways.

``BalancedBallCalculator`` fixes (k, q) and memoizes on (r, t):

* ``ball_recursive`` / ``tail_ball_recursive`` evaluate run-peeling
  recursions.  The tail word (the balanced word minus its first symbol)
  is the natural recursion variable: peeling the first run of a tail word
  yields shorter tail words again.
* ``ball_closed`` / ``tail_ball_closed`` evaluate the closed form.  One
  expansion step of the tail recursion removes j runs and a block of
  deletions; the possible (runs-removed, deletions-removed) pairs form
  ``step_alphabet(q, k)``, and the closed form counts ordered sequences
  of such steps that consume exactly the remaining (run, deletion)
  budget.  ``sequence_count`` performs that count through per-class
  profiles (``enumerate_step_profiles``) and bounded-composition counts
  (``composition_count``), with interleavings supplied by multinomials.

Both routes run one ball routine, differing only in the tail function it
sums, and store their tables through one bottom-up memo fill.

Boundary conventions, each pinned to the exact DP by the test grid:
ball(0, t) = 1 iff t = 0; ball(r, rk) = 1 (only the empty subsequence
survives); tail_ball(r, t) = 0 for r <= 0 and for t outside [0, rk - 1];
composition_count(0, 0, k) = 1.
"""

from collections import namedtuple
from collections.abc import Callable
from itertools import accumulate
from math import comb, factorial

_Memo = dict[tuple[int, int], int]  # (runs, deletions) -> ball size


def step_alphabet(q: int, k: int) -> list[tuple[int, int]]:
    """All (runs removed, deletions removed) expansion steps; (q-1)k + 1 of them.

    Class i (1 <= i <= q - 1) contributes steps (i, (i-1)k + j) for
    0 <= j <= k - 1, and one full-cycle step (q, (q-1)k) removes a whole
    alphabet cycle of runs.
    """
    if q < 2 or k < 1:
        raise ValueError("need q >= 2 and k >= 1")
    steps = [(q, (q - 1) * k)]
    for i in range(1, q):
        steps.extend((i, (i - 1) * k + j) for j in range(k))
    return steps


def composition_count(parts: int, total: int, k: int) -> int:
    """Ordered compositions of ``total`` into ``parts`` parts, each in [0, k-1].

    Inclusion-exclusion over how many parts overflow:
    sum over i of (-1)^i * C(parts, i) * C(parts + total - i*k - 1, parts - 1).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if parts < 0 or total < 0:
        return 0
    if parts == 0:
        return 1 if total == 0 else 0
    acc = 0
    for i in range(total // k + 1):
        term = comb(parts, i) * comb(parts + total - i * k - 1, parts - 1)
        acc += -term if i % 2 else term
    return acc


class StepProfile(namedtuple("StepProfile", "pairs")):
    """Per-class step usage: pairs[i-1] = (z_i, v_i) for classes 1..q-1.

    z_i counts the steps taken from class i and v_i their total deletion
    removal, so sum(i * z_i) is the total run removal and each v_i lies in
    [(i-1)k z_i, (ik-1) z_i].
    """

    __slots__ = ()


def _class_count_vectors(m: int, weighted: int, plain: int) -> list[tuple[int, ...]]:
    """Vectors (z_1..z_m) >= 0 with sum(i * z_i) = weighted and sum(z_i) = plain."""
    # Set z_m, ..., z_2 one class per pass, carrying what is left of each sum;
    # z_1 takes both rests, so they must be equal.
    partial = [((), weighted, plain)]
    for i in range(m, 1, -1):
        partial = [
            ((z,) + zs, w - i * z, p - z)
            for zs, w, p in partial
            for z in range(min(w // i, p) + 1)
        ]
    return [(w,) + zs for zs, w, p in partial if w == p]


def enumerate_step_profiles(q: int, k: int, run_drop: int, del_drop: int) -> list[StepProfile]:
    """All step profiles over classes 1..q-1 consuming exactly (run_drop, del_drop).

    Stage one fixes the plain count x = sum(z_i), which the per-class
    deletion bands confine to k*run_drop - del_drop <= k*x and
    x <= k*run_drop - del_drop; stage two distributes the deletion total
    across classes within those bands.
    """
    if q < 2 or k < 1:
        raise ValueError("need q >= 2 and k >= 1")
    if run_drop < 0 or del_drop < 0:
        return []
    m = q - 1
    lo = max(0, run_drop - del_drop // k)
    hi = min(run_drop, k * run_drop - del_drop)
    profiles: list[StepProfile] = []
    for x in range(lo, hi + 1):
        for zs in _class_count_vectors(m, run_drop, x):
            lows = [i * k * z for i, z in enumerate(zs)]
            highs = [((i + 1) * k - 1) * z for i, z in enumerate(zs)]
            for vs in _banded_sums(lows, highs, del_drop):
                profiles.append(StepProfile(tuple(zip(zs, vs))))
    return profiles


def _banded_sums(lows: list[int], highs: list[int], total: int) -> list[tuple[int, ...]]:
    """Vectors v with lows[i] <= v[i] <= highs[i] and sum(v) = total."""
    # Set v[i] one band per pass, leaving a rest that the later bands, which
    # sum to between rest_lo[i] and rest_hi[i], can still reach.
    rest_lo = list(accumulate(reversed(lows), initial=0))[-2::-1]
    rest_hi = list(accumulate(reversed(highs), initial=0))[-2::-1]
    partial = [((), total)]
    for lo, hi, below, above in zip(lows, highs, rest_lo, rest_hi):
        partial = [
            (vs + (v,), left - v)
            for vs, left in partial
            for v in range(max(lo, left - above), min(hi, left - below) + 1)
        ]
    return [vs for vs, _ in partial]


def _profile_sequence_count(k: int, profile: StepProfile, cycles: int) -> int:
    """Ordered step sequences realizing ``profile`` plus ``cycles`` full-cycle steps.

    Multinomial interleaving of the classes, a bounded-composition count of
    the deletion offsets within each class, and a choice of slots for the
    identical full-cycle steps.
    """
    zs = [z for z, _ in profile.pairs]
    x = sum(zs)
    count = comb(cycles + x, cycles) * factorial(x)
    for z in zs:
        count //= factorial(z)
    for i, (z, v) in enumerate(profile.pairs, start=1):
        count *= composition_count(z, v - (i - 1) * k * z, k)
    return count


def sequence_count(q: int, k: int, run_drop: int, del_drop: int) -> int:
    """Ordered step sequences over step_alphabet(q, k) consuming (run_drop, del_drop)."""
    if run_drop < 0 or del_drop < 0:
        return 0
    cycle_del = (q - 1) * k
    total = 0
    for cycles in range(del_drop // cycle_del + 1):
        rd = run_drop - q * cycles
        dd = del_drop - cycle_del * cycles
        if rd < 0:
            break
        for profile in enumerate_step_profiles(q, k, rd, dd):
            total += _profile_sequence_count(k, profile, cycles)
    return total


class BalancedBallCalculator:
    """Ball sizes for balanced words with runs of length ``k`` over alphabet ``q``.

    Carries private memo tables keyed on (r, t); create one calculator per
    thread.  ``_ball`` is the body of both ball routes and ``_fill`` fills
    every (r, t) table.  ``memo_hits`` / ``memo_misses`` count lookups
    across all four entry points; the acceptance gate's criterion 9 reports
    their hit rate over its closed-form sweep.
    """

    def __init__(self, k: int, q: int) -> None:
        if k < 1 or q < 2:
            raise ValueError("need k >= 1 and q >= 2")
        self.k = k
        self.q = q
        self._ball_rec: _Memo = {}
        self._tail_rec: _Memo = {}
        self._ball_closed: _Memo = {}
        self._seq: _Memo = {}
        self.memo_hits = 0
        self.memo_misses = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.memo_hits + self.memo_misses
        return self.memo_hits / lookups if lookups else 0.0

    def ball_recursive(self, r: int, t: int) -> int:
        """|ball(balanced_word(r, k, q), t)| by run-peeling recursion."""
        return self._ball(r, t, self.tail_ball_recursive, self._ball_rec)

    def ball_closed(self, r: int, t: int) -> int:
        """|ball(balanced_word(r, k, q), t)| via the closed form when q < r."""
        return self._ball(r, t, self.tail_ball_closed, self._ball_closed)

    def _ball(self, r: int, t: int, tail: Callable[[int, int], int], memo: _Memo) -> int:
        """The one ball routine: from ``tail`` balls when q < r, else window sums in ``memo``."""
        k, q = self.k, self.q
        if t < 0 or t > k * r or r < 0:
            return 0
        if r == 0:
            return 1
        if q < r:
            if t == k * r:
                return 1
            return tail(r, t) + sum(tail(r - i, t - i * k) for i in range(1, q))
        return self._fill(memo, r, t, 0, self._window, tail, memo)

    def _window(self, r: int, t: int, tail: Callable[[int, int], int], memo: _Memo) -> int:
        """ball(r, t) = sum_{i<=k} ball(r-1, t-i) for r <= q (distinct run symbols)."""
        return sum(self._ball(r - 1, t - i, tail, memo) for i in range(self.k + 1))

    def tail_ball_recursive(self, r: int, t: int) -> int:
        """|ball(balanced_tail_word(r, k, q), t)| by run-peeling recursion.

        Three cases on t: outside [0, kr - 1] the ball is empty; in the top
        band [k(r-1), kr - 1] peeling consumes everything but one constant
        survivor; below the band the first run peels into shorter tails.
        """
        if r <= 0 or t < 0 or t >= self.k * r:
            return 0
        return self._fill(self._tail_rec, r, t, -1, self._tail_peel)

    def _tail_peel(self, r: int, t: int) -> int:
        """The tail ball at (r, t), 0 <= t < kr, from the tails it peels into."""
        k, q = self.k, self.q
        if t >= k * (r - 1):
            value = 1
        else:
            value = sum(self.tail_ball_recursive(r - 1 - j, t - j * k) for j in range(q))
        return value + sum(
            self.tail_ball_recursive(r - j, t - j * k + i)
            for i in range(1, k)
            for j in range(1, q)
        )

    def _fill(self, memo: _Memo, r: int, t: int, top: int, value: Callable[..., int], *args) -> int:
        """memo[r, t], storing value(r', t', *args) for r' <= r, t' <= min(t, kr' + top) first.

        Every value at (r', t') reads only entries with fewer runs and at
        most t' deletions, so filling fewest runs first means each of those
        reads is a stored entry, and the stack depth stays the same whatever
        r is.  One hit or miss is counted per entry looked up.
        """
        cached = memo.get((r, t))
        if cached is not None:
            self.memo_hits += 1
            return cached
        for r2 in range(1, r + 1):
            for t2 in range(min(t, self.k * r2 + top) + 1):
                if (r2, t2) not in memo:
                    self.memo_misses += 1
                    memo[r2, t2] = value(r2, t2, *args)
        return memo[r, t]

    def tail_ball_closed(self, r: int, t: int) -> int:
        """Closed form for tail_ball_recursive: sum the expansion's survivors.

        Expansion of (r, t) bottoms out at the pairs (j // k + 1, j) for
        0 <= j <= t, each reached sequence_count(r - j//k - 1, t - j) times.
        """
        k = self.k
        if r <= 0 or t < 0 or t >= k * r:
            return 0
        return sum(self.sequence_count(r - j // k - 1, t - j) for j in range(t + 1))

    def sequence_count(self, run_drop: int, del_drop: int) -> int:
        """Memoized sequence_count(q, k, run_drop, del_drop)."""
        key = (run_drop, del_drop)
        cached = self._seq.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        value = sequence_count(self.q, self.k, run_drop, del_drop)
        self._seq[key] = value
        return value


def ball_recursive(r: int, k: int, t: int, q: int) -> int:
    return BalancedBallCalculator(k, q).ball_recursive(r, t)


def ball_closed(r: int, k: int, t: int, q: int) -> int:
    return BalancedBallCalculator(k, q).ball_closed(r, t)
