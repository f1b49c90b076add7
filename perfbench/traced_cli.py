"""Run one delball CLI request with timers around each layer's entry points.

Usage: python perfbench/traced_cli.py <delball arguments...>

Stdout, stderr and the exit code are the CLI's own.  When the request ends,
one JSON object of per-layer totals is written to the file descriptor named
by the PERFBENCH_TRACE_FD environment variable.

Only calls that cross into a layer are wrapped, and each wrapper is bound in
the namespace of the module that makes the call, so no recursion inside a
layer passes through a wrapper.  ``calabi_hartnett_max`` recurses through
its own module-global name and is never wrapped: ``_assemble`` calls it
right after ``hirschberg_regnier_bounds`` returns and right before
``unbalanced_lower_bound`` starts, so that gap is its time.  The balanced
engine is entered through a proxy calculator whose ``ball_closed`` is timed
while the real calculator recurses on itself.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

LAYERS = ("cli", "words", "exact", "balanced", "binomials", "bounds", "ops")


class Tracer:
    """Span totals for one request: time per span name, self time per layer."""

    def __init__(self) -> None:
        self.span_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counters = dict.fromkeys(
            ("words.symbols", "exact.dp_cells", "exact.max_bits", "balanced.max_bits", "ops.steps"), 0
        )
        self.stack = [0.0]  # child time accumulated by each open span; [0] is the root
        self.last_top_end = None  # when the last direct child of the root span returned
        self.hr_end = None  # when hirschberg_regnier_bounds last returned
        self.ch_s = 0.0
        self.calculators: list[object] = []

    def _close(self, name: str, layer: str, start: float, end: float, children: float) -> None:
        elapsed = end - start
        self.stack[-1] += elapsed
        self.self_s[layer] += elapsed - children
        self.span_s[name] = self.span_s.get(name, 0.0) + elapsed
        self.calls[name] = self.calls.get(name, 0) + 1
        if len(self.stack) == 1:
            self.last_top_end = end

    def wrap(self, name: str, fn, observe=None):
        """``fn`` timed as span ``name``; ``observe(args, result)`` runs after the clock stops."""
        layer = name.split(".")[0]
        stack = self.stack

        def timed(*args, **kwargs):
            if name == "bounds.new_lower" and self.hr_end is not None:
                self.ch_s += perf_counter() - self.hr_end
                self.hr_end = None
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._close(name, layer, start, end, stack.pop())
            if name == "bounds.hr":
                self.hr_end = perf_counter()
            if observe is not None:
                observe(args, result)
            return result

        return timed

    def wrap_leaf(self, name: str, fn):
        """Cheaper timer for a function that calls no other wrapped function."""
        layer = name.split(".")[0]
        stack = self.stack
        totals = [0.0, 0]

        def timed(*args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            stack[-1] += elapsed
            totals[0] += elapsed
            totals[1] += 1
            return result

        def flush() -> None:
            self.self_s[layer] += totals[0]
            self.span_s[name] = self.span_s.get(name, 0.0) + totals[0]
            self.calls[name] = self.calls.get(name, 0) + totals[1]

        return timed, flush


def _bits(result) -> int:
    if isinstance(result, list):
        return max((v.bit_length() for v in result), default=0)
    return result.bit_length()


def install(tracer: Tracer):
    """Bind the wrappers; returns a function that folds leaf totals into the tracer."""
    from delball import balanced, bounds, cli, ops

    counters = tracer.counters

    def parsed(args, result) -> None:
        counters["words.symbols"] += len(result) if hasattr(result, "__len__") else result.total_length

    def dp(args, result) -> None:
        counters["exact.dp_cells"] += len(args[0]) ** 2
        counters["exact.max_bits"] = max(counters["exact.max_bits"], _bits(result))

    def closed(args, result) -> None:
        counters["balanced.max_bits"] = max(counters["balanced.max_bits"], result.bit_length())

    def chain(args, result) -> None:
        counters["ops.steps"] += len(result)

    sites = [
        (cli, "parse_word", "words.parse", parsed),
        (cli, "parse_run_profile", "words.parse", parsed),
        (cli, "encode_runs", "words.encode", None),
        (ops, "encode_runs", "words.encode", None),
        (cli, "ball_size", "exact.dp", dp),
        (bounds, "ball_size", "exact.dp", dp),
        (bounds, "ball_size_all", "exact.dp", dp),
        (ops, "ball_size", "exact.dp", dp),
        (cli, "sweep_reports", "bounds.sweep", None),
        (bounds, "levenshtein_bounds", "bounds.lev", None),
        (bounds, "hirschberg_regnier_bounds", "bounds.hr", None),
        (bounds, "unbalanced_lower_bound", "bounds.new_lower", None),
        (bounds, "balanced_upper_bound", "bounds.new_upper", None),
        (cli, "balancing_chain", "ops.chain", chain),
    ]
    for module, attr, name, observe in sites:
        if hasattr(module, attr):
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), observe))

    flushes = []
    for module in (balanced, bounds):
        if hasattr(module, "binomial"):
            timed, flush = tracer.wrap_leaf("binomials.binomial", module.binomial)
            module.binomial = timed
            flushes.append(flush)

    if hasattr(bounds, "BalancedBallCalculator"):
        real_class = bounds.BalancedBallCalculator
        ball_closed = tracer.wrap("balanced.ball_closed", real_class.ball_closed, closed)

        class Calculator:
            """Stands in for BalancedBallCalculator where ``bounds`` creates one."""

            def __init__(self, k: int, q: int) -> None:
                self.real = real_class(k, q)
                tracer.calculators.append(self.real)

            def __getattr__(self, attr: str):
                return getattr(self.real, attr)

            def ball_closed(self, r: int, t: int) -> int:
                return ball_closed(self.real, r, t)

        bounds.BalancedBallCalculator = Calculator

    def finish() -> None:
        for flush in flushes:
            flush()

    return finish


def summary(tracer: Tracer, import_s: float, main_s: float, main_end: float) -> dict:
    from delball import bounds

    cache_info = getattr(bounds.calabi_hartnett_max, "cache_info", None)
    tracer.self_s["cli"] += main_s - tracer.stack[0]
    return {
        "import_s": import_s,
        "main_s": main_s,
        "format_s": main_end - tracer.last_top_end if tracer.last_top_end is not None else 0.0,
        "self_s": tracer.self_s,
        "span_s": tracer.span_s,
        "calls": tracer.calls,
        "ch_s": tracer.ch_s,
        "counters": {
            **tracer.counters,
            "balanced.memo_hits": sum(c.memo_hits for c in tracer.calculators),
            "balanced.memo_misses": sum(c.memo_misses for c in tracer.calculators),
            "bounds.ch_cache_size": cache_info().currsize if cache_info else 0,
        },
    }


def main() -> int:
    start = perf_counter()
    from delball import cli

    import_s = perf_counter() - start
    tracer = Tracer()
    finish = install(tracer)
    start = perf_counter()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        end = perf_counter()
        finish()
        report = summary(tracer, import_s, end - start, end)
        with os.fdopen(int(os.environ["PERFBENCH_TRACE_FD"]), "w") as out:
            json.dump(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
