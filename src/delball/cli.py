"""Command-line front end.

Subcommands: ``count`` (exact ball sizes), ``bounds`` (one JSON report),
``sweep`` (CSV/JSON over a range of t), ``chain`` (balancing chain table),
``selftest`` (verification suites).  Ball counts are printed as decimal
strings everywhere, whatever their number of digits; they overflow 64-bit
integers long before the interesting parameter ranges.

Exit codes: 0 success, 2 input error, 3 a request too large for this
machine (out of memory, or a size past its index range) or a ``selftest``
refused by the enumeration budget, 4 output I/O error (stdout, also when
closed at launch, or ``--out``), 130 interrupted (SIGINT, as by Ctrl-C).
Each command parses, calls its layer and prints its result, and
``selftest`` maps its own refusal; ``main`` maps every other failure to
its code and one line on stderr (argparse's usage text for a usage
error), which an unwritable stderr loses without changing the code.  ``main``
returns the code and never ends the process; ``__main__.run``, behind
``python -m delball`` and the ``delball`` script, owns the exit.
``--help`` writes to stdout under the same table.  ``bounds`` and
``sweep`` compute all their reports before writing, then stream the text.

Every launch is a fresh interpreter, so this module imports no layer at
its top: each command loads the modules it runs on first use.  ``--help``
and a usage error load no delball module but this one and the package;
``count`` adds ``words`` and ``exact`` (``split`` when the split pays);
``chain`` adds ``words``, ``exact``, ``ops`` and ``split``; ``bounds`` and
``sweep`` add ``words``, ``exact`` and ``bounds`` (``split`` when a one-t
request's split pays).  The commands
call the package exports they use (such as ``ball_size``) as attributes
of this module, which the module ``__getattr__`` resolves through the
package's lazy table, so a ``setattr`` on the module replaces what a
command calls.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Iterator, Sequence

from . import BOUND_COLUMNS, COLUMN_ORDER, _EXPORTS

_cli = sys.modules[__name__]  # the commands look their layer calls up here, when they run

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_IO = 4
EXIT_INTERRUPTED = 130


def __getattr__(name: str) -> object:
    """The package export ``name`` (``cli.ball_size`` and so on), imported on first use."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


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
        pass
    return code


def _parse_t_range(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"\s*([+-]?\d+)\s*\.\.\s*([+-]?\d+)\s*", text)
    if match is None or int(match[1]) > int(match[2]):
        raise ValueError(f't range must look like "a..b" with integers a <= b, got {text!r}')
    return int(match[1]), int(match[2])


def cmd_count(args: argparse.Namespace) -> int:
    from .words import check_deletions, decimal

    if args.word is not None:
        word = _cli.parse_word(args.word, args.q)
    else:
        word = _cli.parse_run_profile(args.runs, args.q)
    check_deletions(len(word), (args.deletions,))
    print(decimal(_cli.ball_size(word, args.deletions)))
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    columns = COLUMN_ORDER if args.exact else BOUND_COLUMNS
    report = _cli.sweep_reports(args.q, args.n, args.r, [args.deletions], columns)[0]
    from .bounds import json_chunks

    print("".join(json_chunks(report.to_json_dict())))
    return EXIT_OK


def sweep_chunks(
    q: int, n: int, r: int, t_lo: int, t_hi: int, columns: Sequence[str], fmt: str
) -> Iterator[str]:
    """One sweep's CSV or JSON text in pieces, from reports computed before it returns."""
    reports = _cli.sweep_reports(q, n, r, range(t_lo, t_hi + 1), columns)
    from .bounds import format_sweep

    return format_sweep(reports, fmt)


def sweep_text(
    q: int, n: int, r: int, t_lo: int, t_hi: int, columns: Sequence[str], fmt: str
) -> str:
    """Deterministic CSV or JSON text for one sweep (rows in ascending t)."""
    return "".join(sweep_chunks(q, n, r, t_lo, t_hi, columns, fmt))


def cmd_sweep(args: argparse.Namespace) -> int:
    t_lo, t_hi = _parse_t_range(args.t_range)
    columns = [c.strip() for c in args.cols.split(",") if c.strip()]
    chunks = sweep_chunks(args.q, args.n, args.r, t_lo, t_hi, columns, args.format)
    if args.out == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
    return EXIT_OK


def cmd_chain(args: argparse.Namespace) -> int:
    word = _cli.parse_word(args.word, args.q)
    chain = _cli.balancing_chain(_cli.encode_runs(word), args.deletions)
    from .ops import format_chain

    sys.stdout.write(format_chain(chain, args.deletions))
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    from . import selftest
    from .oracles import EnumerationBudgetError

    try:
        return selftest.run(args.scale)
    except EnumerationBudgetError as exc:  # only selftest enumerates here
        return _fail(str(exc), EXIT_BUDGET)


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
        default=",".join(BOUND_COLUMNS),
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
            sys.stdout.flush()  # so a failed write ends here, under the table below
        return code
    except _UsageError as exc:
        return _fail(str(exc), EXIT_INPUT, prefix="")
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    except MemoryError:
        return _fail("out of memory: the request is too large for this machine", EXIT_BUDGET)
    except OverflowError as exc:
        return _fail(f"the request is too large for this machine: {exc}", EXIT_BUDGET)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", EXIT_IO)
    except KeyboardInterrupt:
        return _fail("interrupted", EXIT_INTERRUPTED)
