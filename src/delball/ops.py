"""Ball-size-monotone word transformations.

Each operation carries a contract on |ball(word, t)| that holds for every
t: insertion and the cyclic relabeling never decrease it, reduction to a
binary alphabet never increases it, permutations preserve it, and a
balancing step (shifting one unit of length from a longer run to a
shorter one across a symmetric inner segment) never decreases it.  The
contracts are exercised by the test suite; the operations themselves only
transform words.  A balancing chain leads any non-empty word to a
near-balanced one (every run floor(n/r) or ceil(n/r) long) as a list of
``ChainStep`` rows, immutable named tuples; ``balancing_chain`` builds every
step's profile first and counts them all in one ``split._ball_sizes`` call,
and ``format_chain`` renders a chain as the table ``delball chain`` prints.
"""

from collections import namedtuple
from collections.abc import Sequence

from .split import _ball_sizes
from .words import (
    SYMBOL_CHARS, RunProfile, Word, canonical_profile, canonical_word, check_deletions, decimal, encode_runs,
)


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
    """The canonical word with the run lengths and alphabet of ``word``: run
    symbols cycle 0, 1, ..., mod min(r, q).  The empty word and a word of one
    run (the only words at q = 1) map to an equal word."""
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
    """Transform ``word`` or its run profile into a near-balanced word with the same run count.

    Step 0 is the input, step 1 its cyclic relabeling; each later step
    applies one balance_step to the closest unbalanced pair until every
    run has length floor(n / r) or ceil(n / r), so exactly n / r when r
    divides n.  The closest pair of runs whose lengths differ by more than
    one always has a symmetric segment between them, for any n.  Requires
    0 <= t <= n, as ``delball chain`` does, and a non-empty word.
    Along the chain the ball size never decreases and the sum of squared
    run lengths strictly decreases at every balance step.
    """
    check_deletions(len(word), (t,))
    start = encode_runs(word)
    if start.run_count == 0:
        raise ValueError("empty word has no balancing chain")
    current = canonical_profile(start.lengths, word.alphabet_size)
    profiles = [start, current]
    while max(current.lengths) - min(current.lengths) > 1:
        current = balance_step(current, *_select_pair(current.lengths))
        profiles.append(current)
    sizes = _ball_sizes(profiles, t)
    return [
        ChainStep(i, profile, size, sum(x * x for x in profile.lengths))
        for i, (profile, size) in enumerate(zip(profiles, sizes))
    ]


def format_chain(chain: Sequence[ChainStep], t: int) -> str:
    """The table ``delball chain`` prints: a header, then per step its index, word,
    run lengths, sum of squares and ball, each column padded to its widest cell and
    trailing spaces stripped.  The word is built run by run; past 36 symbols
    ``Word.text`` raises its ValueError."""
    rows = [("i", "word", "runs", "sum_sq", f"ball_t{t}")]
    for index, profile, size, squares in chain:
        try:
            text = "".join(SYMBOL_CHARS[a] * x for x, a in zip(profile.lengths, profile.symbols))
        except IndexError:
            text = profile.to_word().text()  # raises: no text form past 36 symbols
        runs = ",".join(map(str, profile.lengths))
        rows.append((str(index), text, runs, str(squares), decimal(size)))
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join("  ".join(map(str.ljust, row, widths)).rstrip() + "\n" for row in rows)
