"""One ball size on two cores: the subsequence DP split at a run boundary.

``exact.ball_size_all`` loads this module only for a count at one t whose
split ``exact._split_pays`` prices as worth the fork and the join, and
splits it only where ``second_core_free`` holds.  ``split_count`` runs
``exact._fold`` over the prefix here and over the reversed suffix in a
forked child, which streams its snapshots back over a pipe, and joins the
two with ``exact._join``, whose docstring gives the identity.  This module
holds only the fork plumbing.
"""

from __future__ import annotations

import marshal
import os
import sys
from io import BufferedReader

from .exact import _fold, _join
from .words import RunProfile


def split_count(profile: RunProfile, length: int, cut: int, fork: bool = False) -> int:
    """Distinct length-``length`` subsequences of ``profile``, factored after run ``cut``.

    ``exact._join`` combines the forward state of the first ``cut`` runs
    with the snapshots of the reversed rest.  With ``fork`` the DP of the
    reversed rest runs in a child process while this one runs the prefix,
    and the child streams its snapshots to it over a pipe, one
    length-prefixed marshal chunk per symbol.  A symbol whose chunk does
    not arrive whole (failed fork, child died, short read) is computed here.
    """
    lengths, symbols, _ = profile
    n, below = len(profile), max(0, length - 1)
    missing = set(symbols[cut:]) if length else set()  # no v when length is 0

    def suffix_snapshots():
        return _fold(zip(lengths[cut:][::-1], symbols[cut:][::-1]), n, below, below)[3].items()

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
