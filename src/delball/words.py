"""q-ary words and their run-length structure.

Symbols are small integers in [0, q).  Text round-tripping uses the
characters 0-9 then a-z, so words print unambiguously for q <= 36; the
programmatic API has no alphabet limit.

``Word`` and ``RunProfile`` are immutable named tuples that validate on
construction (sequences of symbols or lengths are stored as tuples of
ints): equal fields give equal, hashable values.  Plain named tuples load
faster than dataclasses, which keeps the command line's start-up short.

The DP and the bound witnesses work on run profiles, whatever the run
lengths; ``to_word`` decodes n symbols only where a Word is the result or
is printed (enumeration, the chain table, the word builders).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby

SYMBOL_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"
_CHAR_VALUES = {c: i for i, c in enumerate(SYMBOL_CHARS)}


class Word(namedtuple("Word", "symbols alphabet_size")):
    """An ordered tuple of symbols over the alphabet {0, ..., alphabet_size - 1}."""

    __slots__ = ()

    def __new__(cls, symbols: tuple[int, ...], alphabet_size: int) -> Word:
        self = super().__new__(cls, tuple(symbols), alphabet_size)
        if self.alphabet_size < 1:
            raise ValueError("alphabet size must be at least 1")
        for s in self.symbols:
            if not 0 <= s < self.alphabet_size:
                raise ValueError(f"symbol {s!r} outside [0, {self.alphabet_size})")
        return self

    def __len__(self) -> int:
        """The number of symbols (not the number of tuple fields)."""
        return len(self.symbols)

    def text(self) -> str:
        """Render as one character per symbol (alphabet at most 36)."""
        try:
            return "".join(SYMBOL_CHARS[s] for s in self.symbols)
        except IndexError:
            raise ValueError(
                f"no text form for alphabet size {self.alphabet_size} > {len(SYMBOL_CHARS)}"
            ) from None


class RunProfile(namedtuple("RunProfile", "lengths symbols alphabet_size")):
    """Run lengths and run symbols of a word; adjacent run symbols differ.

    Decodes back to the word whose i-th maximal constant block repeats
    symbols[i] exactly lengths[i] times.
    """

    __slots__ = ()

    def __new__(
        cls, lengths: tuple[int, ...], symbols: tuple[int, ...], alphabet_size: int
    ) -> RunProfile:
        self = super().__new__(cls, tuple(lengths), tuple(symbols), alphabet_size)
        if self.alphabet_size < 1:
            raise ValueError("alphabet size must be at least 1")
        if len(self.lengths) != len(self.symbols):
            raise ValueError("lengths and symbols must have equal count")
        for x in self.lengths:
            if x < 1:
                raise ValueError(f"run length {x} is not positive")
        for a in self.symbols:
            if not 0 <= a < self.alphabet_size:
                raise ValueError(f"run symbol {a!r} outside [0, {self.alphabet_size})")
        for a, b in zip(self.symbols, self.symbols[1:]):
            if a == b:
                raise ValueError("adjacent runs carry the same symbol")
        return self

    def __len__(self) -> int:
        """The number of symbols of the decoded word, like ``len(Word)``."""
        return sum(self.lengths)

    @property
    def run_count(self) -> int:
        return len(self.lengths)

    @property
    def total_length(self) -> int:
        return sum(self.lengths)

    def to_word(self) -> Word:
        out: list[int] = []
        for x, a in zip(self.lengths, self.symbols):
            out.extend([a] * x)
        return Word(tuple(out), self.alphabet_size)

    def text(self) -> str:
        """Render as "x1,x2,...;a1,a2,..."."""
        return (
            ",".join(str(x) for x in self.lengths)
            + ";"
            + ",".join(str(a) for a in self.symbols)
        )


def encode_runs(word: Word | RunProfile) -> RunProfile:
    """Split a word into maximal constant blocks; a RunProfile is returned as it is."""
    if isinstance(word, RunProfile):
        return word
    lengths = tuple(len(list(run)) for _, run in groupby(word.symbols))
    return RunProfile(lengths, tuple(a for a, _ in groupby(word.symbols)), word.alphabet_size)


def canonical_symbols(run_count: int, q: int) -> tuple[int, ...]:
    """Run symbols 0, 1, ..., cycling through min(run_count, q) values."""
    q1 = min(run_count, q)
    return tuple(i % q1 for i in range(run_count)) if run_count else ()


def canonical_profile(lengths: tuple[int, ...] | list[int], q: int) -> RunProfile:
    """Profile with the given run lengths and cyclically increasing symbols."""
    lengths = tuple(lengths)
    if q < 2:
        raise ValueError("canonical words need an alphabet of at least 2")
    return RunProfile(lengths, canonical_symbols(len(lengths), q), q)


def canonical_word(lengths: tuple[int, ...] | list[int], q: int) -> Word:
    """Word whose i-th run has the i-th given length and symbol i mod min(r, q)."""
    return canonical_profile(lengths, q).to_word()


def balanced_word(r: int, k: int, q: int) -> Word:
    """Canonical word with r runs, all of length k."""
    if r < 1 or k < 1:
        raise ValueError("need r >= 1 runs of length k >= 1")
    return canonical_word((k,) * r, q)


def balanced_tail_word(r: int, k: int, q: int) -> Word:
    """balanced_word(r, k, q) with its first symbol removed."""
    full = balanced_word(r, k, q)
    return Word(full.symbols[1:], q)


def unbalanced_profile(n: int, r: int, q: int) -> RunProfile:
    """Canonical profile with r - 1 runs of length 1, then one run of n - r + 1."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    return canonical_profile((1,) * (r - 1) + (n - r + 1,), q)


def unbalanced_binary_word(n: int, r: int) -> Word:
    """Binary word with r runs: r - 1 runs of length 1, then one run of n - r + 1.

    Among all words with n symbols and r runs this one attains the smallest
    deletion ball, which is what makes it usable as a lower-bound witness.
    """
    return unbalanced_profile(n, r, 2).to_word()


def cyclic_word(n: int, q: int) -> Word:
    """Word 0 1 ... (q-1) 0 1 ... of length n: every run has length 1."""
    if q < 1 or n < 0:
        raise ValueError("need q >= 1 and n >= 0")
    return Word(tuple(i % q for i in range(n)), q)


def parse_word(text: str, alphabet_size: int | None = None) -> Word:
    """Parse a character-per-symbol word; infer q = max symbol + 1 if not given."""
    symbols = []
    for c in text:
        if c not in _CHAR_VALUES:
            raise ValueError(f"invalid symbol character {c!r}")
        symbols.append(_CHAR_VALUES[c])
    if alphabet_size is None:
        alphabet_size = max(symbols, default=0) + 1
    return Word(tuple(symbols), alphabet_size)


def parse_run_profile(text: str, alphabet_size: int | None = None) -> RunProfile:
    """Parse "x1,x2,...;a1,a2,..."; infer q = max symbol + 1 if not given."""
    if ";" not in text:
        raise ValueError('run profile text must look like "x1,x2,...;a1,a2,..."')
    length_part, _, symbol_part = text.partition(";")

    def ints(part: str) -> list[int]:
        part = part.strip()
        if not part:
            return []
        try:
            return [int(p) for p in part.split(",")]
        except ValueError:
            raise ValueError(f"invalid integer list {part!r}") from None

    lengths = ints(length_part)
    symbols = ints(symbol_part)
    if alphabet_size is None:
        alphabet_size = max(symbols, default=0) + 1
    return RunProfile(tuple(lengths), tuple(symbols), alphabet_size)
