"""Command-line front end.

Subcommands: ``count`` (exact ball sizes), ``bounds`` (one JSON report),
``sweep`` (CSV/JSON over a range of t), ``chain`` (balancing chain table),
``selftest`` (verification suites).  Ball counts are printed as decimal
strings everywhere, whatever their number of digits; they overflow 64-bit
integers long before the interesting parameter ranges.

Exit codes: 0 success, 2 input error, 3 enumeration budget refusal or
out of memory, 4 output I/O error.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .bounds import COLUMN_ORDER, report_for_params, sweep_reports
from .exact import EnumerationBudgetError, ball_size, canonical_ball_size, enumerate_ball
from .ops import balancing_chain
from .words import (
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


class InputError(Exception):
    pass


def _fail(message: str, code: int) -> int:
    print(f"delball: {message}", file=sys.stderr)
    return code


def _word_from_args(args: argparse.Namespace) -> Word | RunProfile:
    if args.word is not None:
        return parse_word(args.word, args.q)
    return parse_run_profile(args.runs, args.q)


def _parse_t_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise InputError(f't range must look like "a..b", got {text!r}')
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise InputError(f"invalid t range {text!r}") from None
    if a > b:
        raise InputError(f"empty t range {text!r}")
    return a, b


def cmd_count(args: argparse.Namespace) -> int:
    t = args.deletions
    try:
        word = _word_from_args(args)
        check_deletions(len(word), (t,))
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    if args.method == "enumerate":
        try:
            value = len(enumerate_ball(word, t))
        except EnumerationBudgetError as exc:
            return _fail(str(exc), EXIT_BUDGET)
        except ValueError as exc:  # malformed DELBALL_ENUM_BUDGET
            return _fail(str(exc), EXIT_INPUT)
    elif args.method == "canonical":
        profile = encode_runs(word)
        if word.alphabet_size < 2:
            return _fail("canonical method needs an alphabet of at least 2", EXIT_INPUT)
        if profile.symbols != canonical_symbols(profile.run_count, word.alphabet_size):
            return _fail(
                "canonical method needs run symbols 0, 1, ... cycling mod min(r, q); "
                "use --method dp for arbitrary words",
                EXIT_INPUT,
            )
        value = canonical_ball_size(profile.lengths, word.alphabet_size, t)
    else:  # auto and dp both run the DP
        value = ball_size(word, t)
    print(decimal(value))
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    try:
        report = report_for_params(args.q, args.n, args.r, args.deletions, with_exact=args.exact)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
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
    try:
        t_lo, t_hi = _parse_t_range(args.t_range)
        columns = [c.strip() for c in args.cols.split(",") if c.strip()]
        if not columns:
            raise InputError("no columns requested")
        unknown = [c for c in columns if c not in COLUMN_ORDER]
        if unknown:
            raise InputError(f"unknown columns {unknown}; choose from {list(COLUMN_ORDER)}")
        text = sweep_text(args.q, args.n, args.r, t_lo, t_hi, columns, args.format)
    except (InputError, ValueError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    try:
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}", EXIT_IO)
    return EXIT_OK


def cmd_chain(args: argparse.Namespace) -> int:
    try:
        word = parse_word(args.word, args.q)
        profile = encode_runs(word)
        r, n = profile.run_count, len(word)
        if r == 0:
            raise InputError("empty word has no balancing chain")
        if n % r != 0:
            raise InputError(
                f"run count {r} does not divide length {n}; no balancing chain exists. "
                f"The padded balanced bound (k = ceil(n/r)) is still available via "
                f"`delball bounds --q {word.alphabet_size} --n {n} --r {r} -t {args.deletions}`."
            )
        chain = balancing_chain(profile, args.deletions)
    except (InputError, ValueError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    rows = [
        (
            str(step.index),
            step.profile.to_word().text(),
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


def cmd_selftest(args: argparse.Namespace) -> int:
    from . import selftest

    return selftest.run(args.scale)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError:
        return _fail("out of memory: the request is too large for this machine", EXIT_BUDGET)


if __name__ == "__main__":
    sys.exit(main())
