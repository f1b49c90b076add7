"""Ball-size-monotone word transformations.

Each operation carries a contract on |ball(word, t)| that holds for every
t: insertion and the cyclic relabeling never decrease it, reduction to a
binary alphabet never increases it, permutations preserve it, and a
balancing step (shifting one unit of length from a longer run to a
shorter one across a symmetric inner segment) never decreases it.  The
contracts are exercised by the test suite; the operations themselves only
transform words.  A balancing chain is a list of ``ChainStep`` rows,
immutable named tuples; ``balancing_chain`` builds every step's profile
first and counts them all in one ``exact._ball_sizes`` call, which reruns
the DP only over the runs each step changes.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .exact import _ball_sizes
from .words import RunProfile, Word, canonical_profile, canonical_word, encode_runs


def insert_symbol(word: Word, position: int, symbol: int) -> Word:
    """Insert ``symbol`` before index ``position`` (0 <= position <= len)."""
    if not 0 <= position <= len(word):
        raise ValueError(f"position {position} outside [0, {len(word)}]")
    if not 0 <= symbol < word.alphabet_size:
        raise ValueError(f"symbol {symbol} outside [0, {word.alphabet_size})")
    symbols = word.symbols[:position] + (symbol,) + word.symbols[position:]
    return Word(symbols, word.alphabet_size)


def apply_permutation(word: Word, permutation: Sequence[int]) -> Word:
    """Relabel symbols through a bijection on [0, q)."""
    q = word.alphabet_size
    if len(permutation) != q or sorted(permutation) != list(range(q)):
        raise ValueError(f"not a bijection on [0, {q})")
    return Word(tuple(permutation[s] for s in word.symbols), q)


def reduce_to_binary(word: Word) -> Word:
    """Keep the run lengths, relabel run symbols to alternate 0, 1."""
    return canonical_word(encode_runs(word).lengths, 2)


def cyclicize(word: Word) -> Word:
    """Keep the run lengths, relabel run symbols to cycle 0, 1, ..., mod min(r, q)."""
    if word.alphabet_size < 2 or not word.symbols:
        return word
    return canonical_word(encode_runs(word).lengths, word.alphabet_size)


def balance_step(profile: RunProfile, p: int, s: int) -> RunProfile:
    """Move one unit of length from the longer of runs p, s to the shorter.

    Runs are indexed from 1.  Requires p < s, a length gap of at least 2,
    and a symmetric segment of runs strictly between them; under those
    conditions the ball size of the decoded canonical word cannot drop.
    """
    r = profile.run_count
    if not 1 <= p < s <= r:
        raise ValueError(f"need 1 <= p < s <= {r}, got p={p}, s={s}")
    xs = list(profile.lengths)
    xp, xq = xs[p - 1], xs[s - 1]
    if abs(xp - xq) <= 1:
        raise ValueError(f"runs {p} and {s} differ by at most one ({xp} vs {xq})")
    inner = xs[p : s - 1]
    if inner != inner[::-1]:
        raise ValueError(f"runs strictly between {p} and {s} are not symmetric: {inner}")
    if xp > xq:
        xs[p - 1] -= 1
        xs[s - 1] += 1
    else:
        xs[p - 1] += 1
        xs[s - 1] -= 1
    return RunProfile(tuple(xs), profile.symbols, profile.alphabet_size)


class ChainStep(namedtuple("ChainStep", "index profile ball_size sum_of_squares")):
    """One row of a balancing chain: profile plus its ball size at the chain's t.

    An immutable named tuple of ints and a RunProfile; its ``index`` field
    replaces ``tuple.index``.
    """

    __slots__ = ()


def _select_pair(lengths: tuple[int, ...]) -> tuple[int, int]:
    """Closest pair of runs whose lengths differ by more than one; ties to the left."""
    r = len(lengths)
    for gap in range(1, r):
        for p in range(1, r - gap + 1):
            if abs(lengths[p - 1] - lengths[p + gap - 1]) > 1:
                return p, p + gap
    raise AssertionError("no unbalanced pair in an unbalanced profile")


def balancing_chain(word: Word | RunProfile, t: int) -> list[ChainStep]:
    """Transform ``word`` or its run profile into the balanced word with the same run count.

    Step 0 is the input, step 1 its cyclic relabeling; each later step
    applies one balance_step to the closest unbalanced pair until every
    run has length n / r.  Requires the run count to divide the length.
    Along the chain the ball size never decreases and the sum of squared
    run lengths strictly decreases at every balance step.
    """
    n = len(word)
    start = encode_runs(word)
    r = start.run_count
    if r == 0:
        raise ValueError("empty word has no balancing chain")
    if n % r != 0:
        raise ValueError(f"run count {r} does not divide length {n}")
    k = n // r
    current = start if word.alphabet_size < 2 else canonical_profile(start.lengths, word.alphabet_size)
    profiles = [start, current]
    while any(x != k for x in current.lengths):
        current = balance_step(current, *_select_pair(current.lengths))
        profiles.append(current)
    sizes = _ball_sizes(profiles, t)
    return [
        ChainStep(i, profile, size, sum(x * x for x in profile.lengths))
        for i, (profile, size) in enumerate(zip(profiles, sizes))
    ]
