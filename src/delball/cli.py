"""Command-line front end.

Subcommands: ``count`` (exact ball sizes), ``bounds`` (one JSON report),
``sweep`` (CSV/JSON over a range of t), ``chain`` (balancing chain table),
``selftest`` (verification suites).  Ball counts are printed as decimal
strings everywhere, whatever their number of digits; they overflow 64-bit
integers long before the interesting parameter ranges.

Exit codes: 0 success, 2 input error, 3 enumeration budget refusal or a
request too large for this machine (out of memory, or a size past its
index range), 4 output I/O error (stdout, also when closed at launch, or
``--out``).  Subcommands only parse, compute and print; ``main`` maps every
failure to its code and one line on stderr (argparse's usage text for a
usage error), which an unwritable stderr loses without changing the code.
``--help`` writes to stdout under the same table.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Sequence

from .bounds import COLUMN_ORDER, report_for_params, sweep_reports
from .exact import EnumerationBudgetError, ball_size, canonical_ball_size, enumerate_ball
from .ops import balancing_chain
from .words import (
    SYMBOL_CHARS,
    RunProfile,
    Word,
    canonical_symbols,
    check_deletions,
    decimal,
    encode_runs,
    parse_run_profile,
    parse_word,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_IO = 4


def _drop_pending(stream) -> None:
    """Send what a standard stream still holds to the null device, where the exit flush succeeds."""
    if stream is not None and stream in (sys.__stdout__, sys.__stderr__):
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


class _UsageError(Exception):
    """A usage error, carrying argparse's usage text and error line."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose output and exits go through ``main``'s table."""

    def error(self, message: str):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")

    def print_help(self, file=None) -> None:
        file = sys.stdout if file is None else file
        if file is None:
            raise OSError("stdout is closed")
        file.write(self.format_help())  # a failed write raises, and main exits 4


def _fail(message: str, code: int, prefix: str = "delball: ") -> int:
    try:  # a closed (None) or unwritable stderr loses the line, not the exit code
        if sys.stderr is not None:
            print(f"{prefix}{message}", file=sys.stderr)
    except OSError:
        _drop_pending(sys.stderr)
    return code


def _word_from_args(args: argparse.Namespace) -> Word | RunProfile:
    if args.word is not None:
        return parse_word(args.word, args.q)
    return parse_run_profile(args.runs, args.q)


def _parse_t_range(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"\s*([+-]?\d+)\s*\.\.\s*([+-]?\d+)\s*", text)
    if match is None or int(match[1]) > int(match[2]):
        raise ValueError(f't range must look like "a..b" with integers a <= b, got {text!r}')
    return int(match[1]), int(match[2])


def cmd_count(args: argparse.Namespace) -> int:
    t = args.deletions
    word = _word_from_args(args)
    check_deletions(len(word), (t,))
    if args.method == "enumerate":
        value = len(enumerate_ball(word, t))
    elif args.method == "canonical":
        profile = encode_runs(word)
        if profile.symbols != canonical_symbols(profile.run_count, word.alphabet_size):
            raise ValueError(
                "canonical method needs run symbols 0, 1, ... cycling mod min(r, q); "
                "use --method dp for arbitrary words"
            )
        value = canonical_ball_size(profile.lengths, word.alphabet_size, t)
    else:  # auto and dp both run the DP
        value = ball_size(word, t)
    print(decimal(value))
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    report = report_for_params(args.q, args.n, args.r, args.deletions, with_exact=args.exact)
    import json

    print(json.dumps(report.to_json_dict(), indent=2))
    return EXIT_OK


def sweep_text(
    q: int, n: int, r: int, t_lo: int, t_hi: int, columns: Sequence[str], fmt: str
) -> str:
    """Deterministic CSV or JSON text for one sweep (rows in ascending t)."""
    ordered = [c for c in COLUMN_ORDER if c in columns]
    reports = sweep_reports(q, n, r, range(t_lo, t_hi + 1), with_exact="exact" in ordered)
    if fmt == "csv":
        lines = ["t," + ",".join(ordered)]
        lines.extend(rep.csv_row(ordered) for rep in reports)
        return "\n".join(lines) + "\n"
    import json

    payload = {
        "q": q,
        "n": n,
        "r": r,
        "t_range": [t_lo, t_hi],
        "columns": ordered,
        "rows": [
            {"t": rep.t, **{c: decimal(rep.value(c)) for c in ordered}} for rep in reports
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    t_lo, t_hi = _parse_t_range(args.t_range)
    columns = [c.strip() for c in args.cols.split(",") if c.strip()]
    if not columns:
        raise ValueError("no columns requested")
    unknown = [c for c in columns if c not in COLUMN_ORDER]
    if unknown:
        raise ValueError(f"unknown columns {unknown}; choose from {list(COLUMN_ORDER)}")
    text = sweep_text(args.q, args.n, args.r, t_lo, t_hi, columns, args.format)
    if args.out == "-":
        print(text, end="")
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return EXIT_OK


def cmd_chain(args: argparse.Namespace) -> int:
    word = parse_word(args.word, args.q)
    profile = encode_runs(word)
    r, n = profile.run_count, len(word)
    check_deletions(n, (args.deletions,))
    if r and n % r:  # balancing_chain rejects r = 0 itself
        raise ValueError(
            f"run count {r} does not divide length {n}; no balancing chain exists. "
            f"The padded balanced bound (k = ceil(n/r)) is still available via "
            f"`delball bounds --q {word.alphabet_size} --n {n} --r {r} -t {args.deletions}`."
        )
    chain = balancing_chain(profile, args.deletions)
    rows = [
        (
            str(step.index),
            _word_text(step.profile),
            ",".join(str(x) for x in step.profile.lengths),
            str(step.sum_of_squares),
            decimal(step.ball_size),
        )
        for step in chain
    ]
    headers = ("i", "word", "runs", "sum_sq", f"ball_t{args.deletions}")
    widths = [max(len(h), *(len(row[col]) for row in rows)) for col, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return EXIT_OK


def _word_text(profile: RunProfile) -> str:
    """``profile.to_word().text()``, built run by run."""
    try:
        return "".join(SYMBOL_CHARS[a] * x for x, a in zip(profile.lengths, profile.symbols))
    except IndexError:
        return profile.to_word().text()  # raises its ValueError: no text form past 36 symbols


def cmd_selftest(args: argparse.Namespace) -> int:
    from . import selftest

    return selftest.run(args.scale)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="delball",
        description="Deletion-ball sizes of q-ary words: exact values, bounds, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact ball size of one word")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--word", help='symbols as characters, e.g. "011222"')
    src.add_argument("--runs", help='run profile "x1,x2,...;a1,a2,..."')
    p.add_argument("--q", type=int, default=None, help="alphabet size (default: max symbol + 1)")
    p.add_argument("-t", "--deletions", type=int, required=True)
    p.add_argument(
        "--method",
        choices=("auto", "enumerate", "dp", "canonical"),
        default="auto",
        help="auto/dp: dynamic program; enumerate: materialize the ball; "
        "canonical: run-peeling recurrence (canonical words only)",
    )
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("bounds", help="JSON bound report for (q, n, r, t)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("-t", "--deletions", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="include the exact DP value")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="bounds for a range of t, as CSV or JSON")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", dest="t_range", required=True, help='inclusive range "a..b"')
    p.add_argument(
        "--cols",
        default="lev_lower,lev_upper,hr_lower,hr_upper,ch_upper,new_lower,new_upper",
        help=f"comma-separated subset of {','.join(COLUMN_ORDER)}",
    )
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("chain", help="balancing chain table for one word")
    p.add_argument("--word", required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("-t", "--deletions", type=int, required=True)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("selftest", help="run the verification suites")
    p.add_argument("scale", nargs="?", choices=("small", "full"), default="small")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as done:  # after --help; usage errors raise _UsageError
            code = done.code
        else:
            if sys.stdout is None and getattr(args, "out", "-") == "-":
                raise OSError("stdout is closed")  # launched with >&-: print would drop the output
            code = args.func(args)
        if sys.stdout is not None:  # None only when the output goes to --out
            sys.stdout.flush()  # so a failed write ends here, not in Python's exit flush
        return code
    except _UsageError as exc:
        return _fail(str(exc), EXIT_INPUT, prefix="")
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    except EnumerationBudgetError as exc:
        return _fail(str(exc), EXIT_BUDGET)
    except MemoryError:
        return _fail("out of memory: the request is too large for this machine", EXIT_BUDGET)
    except OverflowError as exc:
        return _fail(f"the request is too large for this machine: {exc}", EXIT_BUDGET)
    except OSError as exc:
        _drop_pending(sys.stdout)
        return _fail(f"cannot write output: {exc}", EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
