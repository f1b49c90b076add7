"""One ball size on two cores: the subsequence DP split at a run boundary.

``exact.ball_size`` loads this module only for a count whose DP it
predicts to visit at least ``exact.SPLIT_MIN_CELLS`` cells, and splits it
only where ``second_core_free`` holds.  ``split_count`` joins a forward DP
over the prefix and a DP over the reversed suffix, which runs in a forked
child and streams its rows back over a pipe; the identity is in its
docstring and in the ``exact`` module docstring.
"""

from __future__ import annotations

import marshal
import os
import sys
from io import BufferedReader
from operator import mul, sub

from .exact import _distinct_subsequence_counts
from .words import RunProfile


def _window(snapshot: tuple[int, list[int]], first: int, last: int) -> list[int]:
    """A snapshot's counts for the lengths first..last (first >= its lo)."""
    lo, row = snapshot
    part = row[first - lo : last + 1 - lo]
    return part + [0] * (last + 1 - first - len(part))


def split_count(profile: RunProfile, length: int, cut: int, fork: bool = False) -> int:
    """Distinct length-``length`` subsequences of ``profile``, factored after run ``cut``.

    P = the first ``cut`` runs and S = the rest.  The leftmost embedding of
    a subsequence w puts in P the longest prefix u of w that is a
    subsequence of P; the rest is empty or a.v with a.v a subsequence of S
    and u.a not one of P.  Of P's length-k subsequences, g_a[k] = row_P[k]
    - (P's row before its last a)[k] are not followed by a in P (g_a = row_P
    if a is not in P); the row of reversed S before its last a, s'_a,
    counts the v (0 if a is not in S).  So the count is
    row_P[length] + sum over a and k of g_a[k] * s'_a[length - k - 1].

    With ``fork`` the DP of reversed S runs in a child process while this
    one runs P's, and the child streams s'_a to it over a pipe, one
    length-prefixed marshal chunk per symbol.  A symbol whose chunk does not
    arrive whole (failed fork, child died, short read) is computed here.
    """
    lengths, symbols, q = profile
    prefix = RunProfile(lengths[:cut], symbols[:cut], q)
    suffix = RunProfile(lengths[cut:][::-1], symbols[cut:][::-1], q)
    k_lo, k_hi = max(0, length - len(suffix)), min(len(prefix), length)  # u's length
    j_lo, j_hi = max(0, length - 1 - k_hi), length - 1 - k_lo  # v's length
    missing = set(suffix.symbols) if j_hi >= 0 else set()

    def suffix_rows():
        snapshots = _distinct_subsequence_counts(suffix, j_lo, j_hi)[1]
        return ((a, _window(s, j_lo, j_hi)) for a, s in snapshots.items())

    child = _fork_rows(suffix_rows) if fork and missing else None
    try:
        row, before_last = _distinct_subsequence_counts(prefix, k_lo, k_hi)
        total = row[-1] if k_hi == length else 0
        gain = row[: j_hi - j_lo + 1]  # k = k_lo..min(k_hi, length - 1)

        def term(a: int, window: list[int]) -> int:
            snapshot = before_last.pop(a, None)
            g = gain if snapshot is None else list(map(sub, gain, _window(snapshot, k_lo, k_hi)))
            return sum(map(mul, g, reversed(window)))

        if child is not None:
            for a, window in _received(child[1]):
                total += term(a, window)
                missing.discard(a)
    finally:
        if child is not None:
            _reap(*child)
    if missing:
        total += sum(term(a, window) for a, window in suffix_rows() if a in missing)
    return total


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
    """The (symbol, window) chunks on ``pipe``, up to its end or a short read."""
    while len(head := pipe.read(8)) == 8:
        size = int.from_bytes(head, "little")
        chunk = pipe.read(size)
        if len(chunk) < size:
            return
        yield marshal.loads(chunk)


def _reap(pid: int, pipe: BufferedReader) -> None:
    """Close the read end (a child still writing then fails) and wait for the child."""
    pipe.close()
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
