"""Counts factored at a run boundary: one t on two cores, and a chain of profiles.

A prefix P = runs[:c] of h symbols and the rest S join at h (``_join``):
the leftmost embedding of a subsequence w puts in P the longest prefix u
of w that is a subsequence of P; the rest is empty or a.v with a.v a
subsequence of S and u.a not one of P.  Of P's length-k subsequences,
g_a[k] = row_P[k] - (P's row before its last a)[k] are not followed by a
in P (g_a = row_P if a is not in P); the row of reversed S before its
last a, s'_a, counts the v (0 if a is not in S).  So with L = n - t

    count(L) = row_P[L] + sum over a, k of g_a[k] * s'_a[L - k - 1].

P folds forward with the band L (``exact._fold``), reversed S with the
band max(0, L - 1) (``_fold_reversed``).  Two routes use the join.  For a
count at one t that ``exact._split_pays`` prices as worth the fork and the
join, ``exact.ball_size_all`` calls ``split_count``, which folds P here and
reversed S in a forked child where ``second_core_free`` holds.
``_ball_sizes``, behind ``ops.balancing_chain``, keeps both folds as stacks
over a chain of profiles and reruns only the runs a step changes.
"""

import marshal
import os
import sys
from io import BufferedReader
from operator import mul, sub

from .exact import _START, _State, _fold
from .words import RunProfile


def _fold_reversed(runs, n: int, length: int, state: _State = _START) -> _State:
    """``state`` (the empty suffix by default) extended by ``runs``, the
    (length, symbol) pairs of the reversed suffix, with the band of v's
    length max(0, ``length`` - 1) whose snapshots ``_join`` reads."""
    below = max(0, length - 1)
    return _fold(runs, n, below, below, state)


def _window(snapshot: tuple[int, list[int]], first: int, last: int) -> list[int]:
    """A snapshot's counts for the lengths first..last (first >= its lo)."""
    lo, row = snapshot
    part = row[first - lo : last + 1 - lo]
    return part + [0] * (last + 1 - first - len(part))


def _join(prefix_state: _State, suffix_snapshots, n: int, length: int) -> int:
    """Distinct length-``length`` subsequences of the n-symbol word P.S, by
    the identity of the module docstring.

    ``prefix_state`` is P's state from ``_fold`` with shortest = longest
    = length.  ``suffix_snapshots`` are the (symbol, snapshot) pairs of
    reversed S's state from ``_fold_reversed``; they are read once, so
    ``split_count`` can stream them from a child process.
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


def split_count(profile: RunProfile, length: int, cut: int, fork: bool = False) -> int:
    """Distinct length-``length`` subsequences of ``profile``, factored after run ``cut``.

    ``_join`` combines the forward state of the first ``cut`` runs with the
    snapshots of the reversed rest.  With ``fork`` the DP of the reversed
    rest runs in a child process while this one runs the prefix, and the
    child streams its snapshots to it over a pipe, one length-prefixed
    marshal chunk per symbol.  A symbol whose chunk does not arrive whole
    (failed fork, child died, short read) is computed here.
    """
    lengths, symbols, _ = profile
    n = len(profile)
    missing = set(symbols[cut:]) if length else set()  # no v when length is 0

    def suffix_snapshots():
        return _fold_reversed(zip(lengths[cut:][::-1], symbols[cut:][::-1]), n, length)[3].items()

    child = _fork_rows(suffix_snapshots) if fork and missing else None

    def streamed():
        if child is not None:
            for a, snapshot in _received(child[1]):
                missing.discard(a)
                yield a, snapshot
        if missing:
            yield from ((a, s) for a, s in suffix_snapshots() if a in missing)

    try:
        prefix = _fold(zip(lengths[:cut], symbols[:cut]), n, length, length)
        return _join(prefix, streamed(), n, length)
    finally:
        if child is not None:
            _reap(*child)


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
    r + 2 states, each one band row of at most min(t, n - t) + 1 counts plus
    one new snapshot row for a run longer than 1: at most about twice the
    cells ``exact._split_plan`` predicts for one DP.  Never forks.
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
        while len(backward) <= r - cut:  # backward[j] has read the last j runs
            j = r - len(backward)
            backward.append(_fold_reversed([(lengths[j], symbols[j])], n, length, backward[-1]))
        while len(forward) <= cut:  # forward[j] has read the first j runs
            j = len(forward) - 1
            forward.append(_fold([(lengths[j], symbols[j])], n, length, length, forward[-1]))
        sizes.append(_join(forward[cut], backward[r - cut][3].items(), n, length))
    return sizes


def _fork_rows(rows) -> tuple[int, BufferedReader] | None:
    """A child process writing ``rows()`` to a pipe: (pid, read end), or None.

    The child never returns: it leaves through os._exit, so it flushes no
    stdio buffer and runs no exit handler of its parent.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                for item in rows():
                    chunk = marshal.dumps(item)
                    pipe.write(len(chunk).to_bytes(8, "little"))
                    pipe.write(chunk)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _received(pipe: BufferedReader):
    """The (symbol, snapshot) chunks on ``pipe``, up to its end or a short read."""
    while len(head := pipe.read(8)) == 8:
        size = int.from_bytes(head, "little")
        chunk = pipe.read(size)
        if len(chunk) < size:
            return
        yield marshal.loads(chunk)


def _reap(pid: int, pipe: BufferedReader) -> None:
    """Close the read end, stop the child and wait for it.

    The child is killed, not waited out: once the count is done (or
    interrupted) nothing it still writes is read.
    """
    import signal  # here, not at the top: a chain launch never forks
    pipe.close()
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # already reaped
        pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:  # already reaped, e.g. with SIGCHLD ignored
        pass


def second_core_free() -> bool:
    """Linux with fork, two CPUs to run on, and no other thread a fork could strand."""
    threading = sys.modules.get("threading")  # never imported here: without it, one thread
    return (
        sys.platform == "linux"
        and hasattr(os, "fork")
        and len(os.sched_getaffinity(0)) >= 2
        and (threading is None or threading.active_count() == 1)
    )
