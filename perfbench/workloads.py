"""Seeded request lists for the benchmark workloads.

A workload is the fixed list of CLI requests one pass sends, in order.  The
benchmark derives every word from ``--seed``; the program sees only argv.
Sizes are parameters so the tests can replay each generator at n <= 12.

* ``sweep-n120``: the acceptance sweep as CSV, then t = 0..n as JSON with
  all eight columns.  The request is the same for every seed.
* ``count-random``: one uniformly random word per q in {2, 3, 4, 8}
  (mean run length q / (q - 1) <= 2), counted at t = n / 2.
* ``count-runs``: three words given by run profile with mean run lengths 8,
  16 and 32, counted at t = n / 2, then one balancing chain on a word whose
  chain has a fixed number of steps, so every seed costs the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import SYMBOL_CHARS, chain_lengths, runs_to_symbols

WORKLOADS = ("sweep-n120", "count-random", "count-runs")
DEFAULT_SEED = 1
HELD_OUT_SEED = 97

ALL_COLUMNS = "exact,lev_lower,lev_upper,hr_lower,hr_upper,ch_upper,new_lower,new_upper"


@dataclass(frozen=True)
class Request:
    """One CLI call: ``python -m delball *argv``.

    ``lengths``/``run_symbols``/``q``/``t`` describe the input word of count
    and chain requests so the reference can rebuild the expected output;
    sweep requests leave them empty.
    """

    kind: str
    argv: tuple[str, ...]
    lengths: tuple[int, ...] = ()
    run_symbols: tuple[int, ...] = ()
    q: int = 0
    t: int = 0


def _runs_of(symbols: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    lengths: list[int] = []
    run_symbols: list[int] = []
    for s in symbols:
        if run_symbols and run_symbols[-1] == s:
            lengths[-1] += 1
        else:
            run_symbols.append(s)
            lengths.append(1)
    return tuple(lengths), tuple(run_symbols)


def _text(symbols: list[int] | tuple[int, ...]) -> str:
    return "".join(SYMBOL_CHARS[s] for s in symbols)


def _run_symbols(rng: random.Random, r: int, q: int) -> list[int]:
    """r symbols over [0, q), adjacent ones distinct."""
    out = [rng.randrange(q)]
    for _ in range(r - 1):
        out.append(rng.choice([a for a in range(q) if a != out[-1]]))
    return out


def _composition(rng: random.Random, n: int, r: int) -> list[int]:
    """A uniformly random split of n into r positive parts."""
    cuts = sorted(rng.sample(range(1, n), r - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, n])]


def _chain_runs(rng: random.Random, r: int, k: int, steps: int | None) -> list[int]:
    """Run lengths near k whose balancing chain takes exactly ``steps`` steps.

    Starts from r runs of length k and moves units between random runs; a
    draw is kept only when its chain (input, relabeling, balance steps) has
    ``steps`` rows, or any draw when ``steps`` is None.
    """
    for _ in range(100_000):
        xs = [k] * r
        for _ in range(3 * r):
            i, j = rng.sample(range(r), 2)
            if xs[j] > 1:
                xs[i] += 1
                xs[j] -= 1
        if steps is None or len(chain_lengths(xs)) + 1 == steps:
            return xs
    raise ValueError(f"no {r}-run draw has a {steps}-step chain")


def sweep_requests(q: int = 3, n: int = 120, r: int = 24) -> list[Request]:
    return [
        Request("sweep-csv", ("sweep", "--q", str(q), "--n", str(n), "--r", str(r), "--t", f"1..{n - 1}")),
        Request(
            "sweep-json",
            ("sweep", "--q", str(q), "--n", str(n), "--r", str(r), "--t", f"0..{n}",
             "--format", "json", "--cols", ALL_COLUMNS),
        ),
    ]


def count_random_requests(
    seed: int, n: int = 2048, alphabets: tuple[int, ...] = (2, 3, 4, 8)
) -> list[Request]:
    rng = random.Random(f"count-random/{seed}")
    out = []
    for q in alphabets:
        symbols = [rng.randrange(q) for _ in range(n)]
        lengths, run_symbols = _runs_of(symbols)
        t = n // 2
        out.append(
            Request(f"count-q{q}", ("count", "--word", _text(symbols), "--q", str(q), "-t", str(t)),
                    lengths, run_symbols, q, t)
        )
    return out


def count_runs_requests(
    seed: int,
    n: int = 2048,
    shapes: tuple[tuple[int, int], ...] = ((8, 4), (16, 3), (32, 4)),
    chain: tuple[int, int, int, int | None] = (24, 20, 4, 44),
) -> list[Request]:
    """``shapes`` holds (mean run length, q); ``chain`` is (runs, k, q, steps)."""
    rng = random.Random(f"count-runs/{seed}")
    out = []
    t = n // 2
    for mean, q in shapes:
        r = n // mean
        lengths = _composition(rng, n, r)
        run_symbols = _run_symbols(rng, r, q)
        profile = ",".join(map(str, lengths)) + ";" + ",".join(map(str, run_symbols))
        out.append(
            Request(f"count-runs-m{mean}", ("count", "--runs", profile, "--q", str(q), "-t", str(t)),
                    tuple(lengths), tuple(run_symbols), q, t)
        )
    r, k, q, steps = chain
    lengths = _chain_runs(rng, r, k, steps)
    run_symbols = _run_symbols(rng, r, q)
    t = r * k // 2
    word = _text(runs_to_symbols(lengths, run_symbols))
    out.append(
        Request("chain", ("chain", "--word", word, "--q", str(q), "-t", str(t)),
                tuple(lengths), tuple(run_symbols), q, t)
    )
    return out


def build(name: str, seed: int) -> list[Request]:
    """The full-size request list of workload ``name`` for ``seed``."""
    if name == "sweep-n120":
        return sweep_requests()
    if name == "count-random":
        return count_random_requests(seed)
    if name == "count-runs":
        return count_runs_requests(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
