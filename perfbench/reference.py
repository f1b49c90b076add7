"""Expected CLI output for the seeded count and chain requests, computed
without the delball package.

The benchmark accepts a pass only if every request's stdout hashes to the
expected digest.  Sweep digests are recorded in ``expected.json``; count and
chain outputs depend on the seed, so for any seed they are rebuilt here from
a second route:

* ``subsequence_counts`` runs the distinct-subsequence recurrence on word
  suffixes (the package runs it on prefixes): a subsequence of X[i:] either
  skips X[i], or starts with X[i] and continues in X[i+1:]; the ones that
  also arise by skipping are exactly those continuing past the next
  occurrence of X[i].
* ``chain_lengths`` replays the balancing rule on run lengths alone.
"""

from __future__ import annotations

SYMBOL_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def subsequence_counts(symbols: tuple[int, ...] | list[int]) -> list[int]:
    """counts[m] = number of distinct length-m subsequences of ``symbols``."""
    row = [1]  # suffix X[i:], indexed by subsequence length
    after_next: dict[int, list[int]] = {}  # symbol -> row of the suffix past its next occurrence
    for s in reversed(symbols):
        shifted = [0] + row
        seen = after_next.get(s)
        if seen is not None:
            for m, v in enumerate(seen, start=1):
                shifted[m] -= v
        after_next[s] = row
        row = [a + b for a, b in zip(row + [0], shifted)]
    return row


def ball(symbols: tuple[int, ...] | list[int], t: int) -> int:
    """Number of distinct words left after deleting exactly t symbols."""
    n = len(symbols)
    if not 0 <= t <= n:
        return 0
    return subsequence_counts(symbols)[n - t]


def runs_to_symbols(lengths: list[int], run_symbols: list[int]) -> list[int]:
    out: list[int] = []
    for x, a in zip(lengths, run_symbols):
        out.extend([a] * x)
    return out


def chain_lengths(lengths: list[int]) -> list[list[int]]:
    """Run lengths after each balance step, the starting lengths first.

    Each step takes the closest pair of runs whose lengths differ by more
    than one (leftmost on ties) and moves one unit from the longer run to
    the shorter, until all runs are equal.
    """
    xs = list(lengths)
    r = len(xs)
    k, rem = divmod(sum(xs), r)
    if rem:
        raise ValueError("run count must divide the length")
    out = [xs[:]]
    while any(x != k for x in xs):
        p, s = next(
            (p, p + gap) for gap in range(1, r) for p in range(r - gap) if abs(xs[p] - xs[p + gap]) > 1
        )
        if xs[p] > xs[s]:
            xs[p] -= 1
            xs[s] += 1
        else:
            xs[p] += 1
            xs[s] -= 1
        out.append(xs[:])
    return out


def count_stdout(symbols: tuple[int, ...] | list[int], t: int) -> str:
    return f"{ball(symbols, t)}\n"


def chain_stdout(lengths: list[int], run_symbols: list[int], q: int, t: int) -> str:
    """The table ``delball chain`` prints: input, its cyclic relabeling, then each step."""
    r = len(lengths)
    cyclic = [i % min(r, q) for i in range(r)]
    steps = [(lengths, run_symbols)] + [(xs, cyclic) for xs in chain_lengths(lengths)]
    rows = []
    for i, (xs, syms) in enumerate(steps):
        word = runs_to_symbols(xs, syms)
        rows.append(
            (
                str(i),
                "".join(SYMBOL_CHARS[s] for s in word),
                ",".join(map(str, xs)),
                str(sum(x * x for x in xs)),
                str(ball(word, t)),
            )
        )
    headers = ("i", "word", "runs", "sum_sq", f"ball_t{t}")
    widths = [max(len(h), *(len(row[c]) for row in rows)) for c, h in enumerate(headers)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in [headers, *rows]]
    return "\n".join(lines) + "\n"
