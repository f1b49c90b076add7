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
its code and one line on stderr (a usage error: the command's usage line,
then its error line), which an unwritable stderr loses without changing
the code.  ``main`` returns the code and never ends the process;
``__main__.run``, behind ``python -m delball`` and the ``delball``
script, owns the exit.  ``--help`` writes to stdout under the same table.
``bounds`` and ``sweep`` compute all their reports before writing, then
stream the text.

The options are one table, ``COMMANDS``.  One small parser reads argv
against it and writes each ``--help`` from it, with argparse's forms and
error messages but without argparse, whose import and first parser cost
about 5 ms of every launch.  Every launch is a fresh interpreter, so this
module imports no layer at its top: each command loads the modules it
runs on first use.  ``--help`` and a usage error load no delball module
but this one and the package; ``count`` adds ``words`` and ``exact``
(``split`` when the split pays); ``chain`` adds ``words``, ``exact``,
``ops`` and ``split``; ``bounds`` and ``sweep`` add ``words``, ``exact``
and ``bounds`` (``split`` when a one-t request's split pays).  The
commands call the package exports they use (such as ``ball_size``) as
attributes of this module, which the module ``__getattr__`` resolves
through the package's lazy table, so a ``setattr`` on the module replaces
what a command calls.
"""

# No ``from __future__ import annotations``: nothing else that a --help
# launch loads imports ``__future__``, a 0.5 ms import, and these
# annotations evaluate on every supported Python.
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
    """A usage error: the command's name ("" for the top level) and the message."""


def _fail(message: str, code: int, prefix: str = "delball: ") -> int:
    try:  # a closed (None) or unwritable stderr loses the line, not the exit code
        if sys.stderr is not None:
            print(f"{prefix}{message}", file=sys.stderr)
    except OSError:
        pass
    return code


def _is_int(text: str) -> bool:
    return (text[1:] if text[:1] in "+-" else text).isdecimal()


def _parse_t_range(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    lo, hi = lo.strip(), hi.strip()
    if not (dots and _is_int(lo) and _is_int(hi)) or int(lo) > int(hi):
        raise ValueError(f't range must look like "a..b" with integers a <= b, got {text!r}')
    return int(lo), int(hi)


def cmd_count(args: dict) -> int:
    from .words import check_deletions, decimal

    if args["word"] is not None:
        word = _cli.parse_word(args["word"], args["q"])
    else:
        word = _cli.parse_run_profile(args["runs"], args["q"])
    check_deletions(len(word), (args["deletions"],))
    print(decimal(_cli.ball_size(word, args["deletions"])))
    return EXIT_OK


def cmd_bounds(args: dict) -> int:
    columns = COLUMN_ORDER if args["exact"] else BOUND_COLUMNS
    report = _cli.sweep_reports(args["q"], args["n"], args["r"], [args["deletions"]], columns)[0]
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


def cmd_sweep(args: dict) -> int:
    t_lo, t_hi = _parse_t_range(args["t"])
    columns = [c.strip() for c in args["cols"].split(",") if c.strip()]
    chunks = sweep_chunks(args["q"], args["n"], args["r"], t_lo, t_hi, columns, args["format"])
    if args["out"] == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(args["out"], "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
    return EXIT_OK


def cmd_chain(args: dict) -> int:
    word = _cli.parse_word(args["word"], args["q"])
    chain = _cli.balancing_chain(_cli.encode_runs(word), args["deletions"])
    from .ops import format_chain

    sys.stdout.write(format_chain(chain, args["deletions"]))
    return EXIT_OK


def cmd_selftest(args: dict) -> int:
    from . import selftest
    from .oracles import EnumerationBudgetError

    try:
        return selftest.run(args["scale"])
    except EnumerationBudgetError as exc:  # only selftest enumerates here
        return _fail(str(exc), EXIT_BUDGET)


# The grammar: each command's function, help line and arguments.  An
# argument is (flags, kind, need, default, help).  Its flags are named as
# errors name them, "-t/--deletions"; a bare name is a positional.  Its
# value's key is the last flag without dashes.  Kind is int, str, a tuple
# of choices, or None for a flag.  Need is REQUIRED, ONE_OF (exactly one
# of the command's ONE_OF arguments is required) or "".
REQUIRED, ONE_OF = "required", "one of"
_T = ("-t/--deletions", int, REQUIRED, None, "")
_QNR = (("--q", int, REQUIRED, None, ""), ("--n", int, REQUIRED, None, ""), ("--r", int, REQUIRED, None, ""))
COMMANDS = {
    "count": (cmd_count, "exact ball size of one word", (
        ("--word", str, ONE_OF, None, 'symbols as characters, e.g. "011222"'),
        ("--runs", str, ONE_OF, None, 'run profile "x1,x2,...;a1,a2,..."'),
        ("--q", int, "", None, "alphabet size (default: max symbol + 1)"),
        _T,
    )),
    "bounds": (cmd_bounds, "JSON bound report for (q, n, r, t)", (
        *_QNR, _T, ("--exact", None, "", False, "include the exact DP value"),
    )),
    "sweep": (cmd_sweep, "bounds for a range of t, as CSV or JSON", (
        *_QNR,
        ("--t", str, REQUIRED, None, 'inclusive range "a..b"'),
        ("--cols", str, "", ",".join(BOUND_COLUMNS), "comma-separated subset of " + ",".join(COLUMN_ORDER)),
        ("--out", str, "", "-", "output path ('-' for stdout)"),
        ("--format", ("csv", "json"), "", "csv", ""),
    )),
    "chain": (cmd_chain, "balancing chain table for one word", (
        ("--word", str, REQUIRED, None, ""), ("--q", int, "", None, ""), _T,
    )),
    "selftest": (cmd_selftest, "run the verification suites", (("scale", ("small", "full"), "", "small", ""),)),
}
# The top level: its one argument is the command, which reads the rest.
_TOP = (None, "Deletion-ball sizes of q-ary words: exact values, bounds, sweeps.", (
    ("command", tuple(COMMANDS), REQUIRED, None, ""),
))
_HELP = ("-h/--help", None, "", None, "show this help message and exit")


def _arguments(name: str) -> tuple:
    return (_HELP, *(COMMANDS[name] if name else _TOP)[2])


def _key(flags: str) -> str:
    return flags.rpartition("/")[2].lstrip("-")


def _spelling(flags: str, kind, every: bool = False) -> str:
    """``-t DELETIONS`` (``-t, --deletions DELETIONS`` with ``every``), ``{small,full}``."""
    metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind and _key(flags).upper()
    if flags[0] != "-":
        return metavar
    names = flags.replace("/", ", ") if every else flags.partition("/")[0]
    return names + " " + metavar if metavar else names


def _usage(name: str) -> str:
    words = ["usage: delball " + name if name else "usage: delball"]
    for flags, kind, need, _, _ in _arguments(name):
        word = _spelling(flags, kind)
        if need == ONE_OF:  # adjacent in the table: "(--word WORD | --runs RUNS)"
            word = words.pop()[:-1] + " | " + word + ")" if words[-1][0] == "(" else "(" + word + ")"
        elif need != REQUIRED:
            word = "[" + word + "]"
        words.append(word)
    return " ".join(words) + ("" if name else " ...")


def _help(args: dict) -> int:
    name = args["command"]
    lines = [_usage(name), "", (COMMANDS[name] if name else _TOP)[1], "", "arguments:"]
    for flags, kind, _, _, text in _arguments(name):
        lines.append(f"  {_spelling(flags, kind, every=True):<26} {text}".rstrip())
    if not name:
        lines += [f"    {command:<24} {spec[1]}" for command, spec in COMMANDS.items()]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _is_option(arg: str) -> bool:
    """Whether ``arg`` reads as an option, as argparse reads it: it starts
    with "-" and is neither "-", a negative number nor a text with a space."""
    number = arg[1:].replace(".", "", 1)
    return arg[:1] == "-" and arg != "-" and " " not in arg and not (number.isdecimal() and arg[-1] != ".")


def _match(arguments: tuple, arg: str) -> tuple:
    """The argument that option ``arg`` names, exactly or (a long flag) by a
    unique prefix, and the value attached ("--q=3", "-t3", "-t=3"), or None."""
    if arg[1] == "-":
        name, attached, value = arg.partition("=")
        key = "/" + name if name != "--" else "//"  # "--" alone names no option
    else:
        attached, value = arg[2:], arg[2:].removeprefix("=")
        key = "/" + arg[:2] + "/"
    found = [a for a in arguments if key in "/" + a[0] + "/"]
    return (found[0], value if attached else None) if len(found) == 1 else (None, None)


def _parse(args: Iterator[str], name: str = "", extras: tuple = ()) -> tuple:
    """The function that serves ``args`` and its arguments by key: the
    command's, or ``_help``'s.  Arguments are read left to right, so the
    first bad one is the one refused; a repeated option keeps its last value."""
    arguments = _arguments(name)
    positionals = [a for a in arguments if a[0][0] != "-"]
    values, extras, chosen = {}, list(extras), None
    for arg in args:
        if not _is_option(arg):
            if not positionals:
                extras.append(arg)
                continue
            argument, value = positionals.pop(0), arg
        else:
            argument, value = _match(arguments, arg)
            if argument is None:
                extras.append(arg)
                continue
        flags, kind, need = argument[:3]
        if kind is None:  # a flag, -h among them
            if value is not None:
                raise _UsageError(name, f"argument {flags}: ignored explicit argument {value!r}")
            if argument is _HELP:
                return _help, {"command": name}
            value = True
        elif value is None:
            value = next(args, None)
            if value is None or _is_option(value):
                raise _UsageError(name, f"argument {flags}: expected one argument")
        if isinstance(kind, tuple) and value not in kind:
            choices = ", ".join(map(repr, kind))
            raise _UsageError(name, f"argument {flags}: invalid choice: {value!r} (choose from {choices})")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(name, f"argument {flags}: invalid int value: {value!r}") from None
        if flags == "command":
            return _parse(args, value, extras)
        if need == ONE_OF:
            if chosen not in (None, argument):
                raise _UsageError(name, f"argument {flags}: not allowed with argument {chosen[0]}")
            chosen = argument
        values[_key(flags)] = value
    missing, group = [], []
    for flags, _, need, default, _ in arguments:
        if need == REQUIRED and _key(flags) not in values:
            missing.append(flags)
        if need == ONE_OF:
            group.append(flags)
        values.setdefault(_key(flags), default)
    if missing:
        raise _UsageError(name, "the following arguments are required: " + ", ".join(missing))
    if group and chosen is None:
        raise _UsageError(name, "one of the arguments " + " ".join(group) + " is required")
    if extras:
        raise _UsageError(name, "unrecognized arguments: " + " ".join(extras))
    return COMMANDS[name][0], values


def main(argv: Sequence[str] | None = None) -> int:
    try:
        command, args = _parse(iter(sys.argv[1:] if argv is None else argv))
        if sys.stdout is None and args.get("out", "-") == "-":
            raise OSError("stdout is closed")  # launched with >&-: print would drop the output
        code = command(args)
        if sys.stdout is not None:  # None only when the output goes to --out
            sys.stdout.flush()  # so a failed write ends here, under the table below
        return code
    except _UsageError as exc:
        name, message = exc.args
        return _fail(f"{_usage(name)}\ndelball{' ' * bool(name)}{name}: error: {message}", EXIT_INPUT, prefix="")
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
