"""Cold-process benchmark of the delball command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload count-random --seed 1 --seconds 10 --trace 0

One closed-loop client sends each workload's request list (see
``workloads.py``) pass after pass; every request is a fresh
``python -m delball`` interpreter and the next starts only after it exits,
so process-wide caches start cold as they do for users.  Every request's
stdout must hash to the expected SHA-256: recorded in ``expected.json`` for
the sweep and the recorded seeds, rebuilt by ``reference.py`` otherwise.

One untimed warm-up pass comes first, so that .pyc compilation and the
file cache are not timed.  Passes then run until the next one would end
after ``--seconds``.

The host's speed drifts by tens of percent within seconds, so a fixed
calibration task (``calibrate.py``) runs in a fresh interpreter before the
first request of a pass and after every request, and times are reported
calibrated.  A request's time is scaled by CAL_WORK_REF_S over the mean
time of the calibration work just before and just after it; a ``--help``
launch is scaled by CAL_REF_S over the time of the whole calibration
process just before it.  Raw medians are printed beside them.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median calibrated time of one pass over the request list;
* ``setup_s``: median calibrated time of ``python -m delball --help``,
  launched once per pass;
* ``peak_rss_mb``: largest max-RSS of any request in the timed passes.

Failed timed launches (nonzero exit, a traceback on stderr, a digest
mismatch) are counted in ``failed``; the table shows them as ``error_rate``.

``--trace 1`` alternates plain passes with passes run through
``traced_cli.py`` and reports per-layer metrics, each the median over
traced passes of a per-pass total (maxima for ``max_bits`` and
``ch_cache_size``), plus ``trace_overhead_s``, the calibrated difference
between traced and plain passes.  Both check the same digests.

``--workload all`` runs every workload in turn.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import reference
import workloads
from traced_cli import LAYERS

HERE = Path(__file__).resolve().parent
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 150.0
# Reported times are scaled to the speed at which calibrate.py's work takes
# CAL_WORK_REF_S (requests) and its whole process CAL_REF_S (--help launches).
CAL_WORK_REF_S = 0.05
CAL_REF_S = 0.1


@dataclass
class Outcome:
    """One finished CLI request."""

    seconds: float
    ok: bool
    maxrss_mb: float
    out_bytes: int
    digest: str
    trace: dict | None = None
    problem: str = ""


@dataclass
class Pass:
    """One pass over a request list.  A calibration task runs before the first
    request and after each one; a sampled ``--help`` launch follows the
    calibration after the first request."""

    outcomes: list[Outcome]
    calibrations: list[tuple[float, float]]  # (process seconds, work seconds)
    setup: list[Outcome]
    elapsed: float = 0.0  # the whole pass, calibrations included

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    def calibrated(self, i: int) -> float:
        """Calibrated time of request i: scaled by the calibration work around it."""
        work = self.calibrations[i][1] + self.calibrations[i + 1][1]
        return self.outcomes[i].seconds * 2 * CAL_WORK_REF_S / work

    @property
    def calibrated_s(self) -> float:
        return sum(self.calibrated(i) for i in range(len(self.outcomes)))

    @property
    def calibrated_setup(self) -> list[float]:
        return [h.seconds * CAL_REF_S / self.calibrations[1][0] for h in self.setup]

    @property
    def launched(self) -> list[Outcome]:
        return self.outcomes + self.setup


class Client:
    """Launches requests from one checkout, one process at a time, and checks them.

    Every launch goes through one ``spawn.py`` process, so that the max-RSS
    of a request does not count this process's memory.  Close the client to
    stop it.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        env.pop("PERFBENCH_TRACE_FD", None)
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawn.py")], cwd=root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def __enter__(self) -> Client:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _spawn(self, argv: list[str], traced: bool = False):
        """Run ``argv`` to completion: (seconds, exit code, max-RSS KiB, stdout, stderr, trace bytes)."""
        request = {"argv": argv, "traced": traced, "timeout": CHILD_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request).encode() + b"\n")
        self.spawner.stdin.flush()
        header = self.spawner.stdout.readline().split()
        if len(header) != 6:
            raise RuntimeError(f"spawn.py stopped answering (exit code {self.spawner.poll()})")
        seconds, code, maxrss = float(header[0]), int(header[1]), int(header[2])
        stdout, stderr, trace = (self.spawner.stdout.read(int(n)) for n in header[3:])
        return seconds, code, maxrss, stdout, stderr, trace

    def launch(self, args: tuple[str, ...], digest: str | None, traced: bool = False) -> Outcome:
        """One CLI request; ``digest`` None accepts any output."""
        script = [str(HERE / "traced_cli.py")] if traced else ["-m", "delball"]
        seconds, code, maxrss, stdout, stderr, raw = self._spawn([sys.executable, *script, *args], traced)
        got = hashlib.sha256(stdout).hexdigest()
        trace = json.loads(raw) if raw else None
        problem = ""
        if code != 0:
            problem = f"exit code {code}"
        elif b"Traceback" in stderr:
            problem = "traceback on stderr"
        elif digest is not None and got != digest:
            problem = "stdout digest mismatch"
        elif traced and trace is None:
            problem = "no trace written"
        return Outcome(seconds, not problem, maxrss / 1024, len(stdout), got, trace, problem)

    def calibrate(self) -> tuple[float, float]:
        """Seconds the calibration process takes now, and seconds its work takes."""
        seconds, code, _, stdout, _, _ = self._spawn([sys.executable, str(HERE / "calibrate.py")])
        if code != 0:
            raise RuntimeError(f"calibration task failed with exit code {code}")
        return seconds, float(stdout)

    def run_pass(self, requests, digests, traced: bool = False, sample_setup: bool = False) -> Pass:
        start = time.perf_counter()
        p = Pass([], [self.calibrate()], [])
        for req, digest in zip(requests, digests):
            p.outcomes.append(self.launch(req.argv, digest, traced))
            p.calibrations.append(self.calibrate())
            if sample_setup and not p.setup:
                p.setup.append(self.launch(("--help",), None))
        p.elapsed = time.perf_counter() - start
        return p

    def warm_up(self, name: str, seed: int, requests) -> list[str]:
        """One unchecked pass, so that .pyc compilation and the file cache are
        not timed, while this process works out the expected digests."""
        with ThreadPoolExecutor(max_workers=1) as pool:
            digests = pool.submit(expected_digests, name, seed, requests)
            self.run_pass(requests, [None] * len(requests))
            return digests.result()


@dataclass
class PassPair:
    plain: Pass
    traced: Pass

    @property
    def elapsed(self) -> float:
        return self.plain.elapsed + self.traced.elapsed


def until(deadline: float, run_once) -> list:
    """Call ``run_once`` at least once, and again while the last call would still fit."""
    results = [run_once()]
    while time.perf_counter() + results[-1].elapsed < deadline:
        results.append(run_once())
    return results


def reference_digests(requests) -> list[str]:
    """Digests of the stdout ``reference.py`` expects for count and chain requests."""
    out = []
    for req in requests:
        if req.kind == "chain":
            text = reference.chain_stdout(list(req.lengths), list(req.run_symbols), req.q, req.t)
        elif req.kind.startswith("count"):
            text = reference.count_stdout(reference.runs_to_symbols(req.lengths, req.run_symbols), req.t)
        else:
            raise ValueError(f"no reference output for a {req.kind} request")
        out.append(hashlib.sha256(text.encode()).hexdigest())
    return out


def expected_digests(name: str, seed: int, requests) -> list[str]:
    """Recorded digests for this workload and seed, else the reference's."""
    recorded = json.loads((HERE / "expected.json").read_text())["digests"].get(name, {})
    digests = recorded.get("any-seed") or recorded.get(str(seed))
    return digests if digests is not None else reference_digests(requests)


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest percentile above the median with at least ten samples beyond it."""
    n = len(values)
    if n < 21:
        return None
    k = n - 10  # k-th smallest (1-based) has n - k = 10 samples above it
    return f"p{100 * k / n:.0f}", sorted(values)[k - 1]


def environment(root: Path) -> str:
    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        ).stdout.strip() or sha
    return f"python {platform.python_version()}  nproc {os.cpu_count()}  git {sha}"


def measure(client: Client, name: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    """End-to-end metrics of one workload: untraced passes until ``seconds`` elapse."""
    requests = workloads.build(name, seed)
    digests = client.warm_up(name, seed, requests)
    deadline = time.perf_counter() + seconds
    passes = until(deadline, lambda: client.run_pass(requests, digests, sample_setup=True))
    launched = [o for p in passes for o in p.launched]
    failed = sum(not o.ok for o in launched)
    walls = [p.calibrated_s for p in passes]
    setup = [s for p in passes for s in p.calibrated_setup]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(o.maxrss_mb for p in passes for o in p.outcomes),
    }
    raw = {
        "wall_s": statistics.median(p.seconds for p in passes),
        "setup_s": statistics.median(h.seconds for p in passes for h in p.setup),
    }
    work = statistics.median(c[1] for p in passes for c in p.calibrations)
    whole = statistics.median(c[0] for p in passes for c in p.calibrations)
    print(f"workload {name}  seed {seed}  {environment(client.root)}")
    print(f"  times are calibrated to calibrate.py's work taking {CAL_WORK_REF_S} s (here {work:.4f} s), "
          f"--help to its process taking {CAL_REF_S} s (here {whole:.4f} s)")
    print(f"  {'metric':<12}{'value':>10}  {'unit':<6}{'n':>4}  {'raw':>8}  detail")
    wall_tail = tail(walls)
    print(f"  {'wall_s':<12}{metrics['wall_s']:>10.4f}  {'s':<6}{len(walls):>4}  {raw['wall_s']:>8.4f}  "
          + (f"median pass; {wall_tail[0]} {wall_tail[1]:.4f} s" if wall_tail
             else "median pass; no percentile above it has 10 passes beyond"))
    print(f"  {'setup_s':<12}{metrics['setup_s']:>10.4f}  {'s':<6}{len(setup):>4}  {raw['setup_s']:>8.4f}  "
          "median `python -m delball --help`")
    print(f"  {'peak_rss_mb':<12}{metrics['peak_rss_mb']:>10.2f}  {'MB':<6}{len(walls) * len(requests):>4}  "
          f"{'':>8}  largest max-RSS of a request")
    print(f"  {'error_rate':<12}{failed / len(launched):>10.4f}  {'ratio':<6}{len(launched):>4}  {'':>8}  "
          f"{failed} of {len(launched)} timed launches failed (--help included)")
    for i, (req, digest) in enumerate(zip(requests, digests)):
        times = [p.calibrated(i) for p in passes]
        print(f"  request {req.kind:<16} {statistics.median(times):.4f} s  sha256 {digest[:16]}")
    report_failure(launched)
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, len(launched), failed


def report_failure(launched: list[Outcome]) -> None:
    problem = next((o.problem for o in launched if not o.ok), None)
    if problem:
        print(f"  first failure: {problem}")


def layer_totals(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    traces = [o.trace for o in p.outcomes if o.trace is not None]

    def span(name: str) -> float:
        return sum(t["span_s"].get(name, 0.0) for t in traces)

    def calls(name: str) -> int:
        return sum(t["calls"].get(name, 0) for t in traces)

    def counter(name: str) -> int:
        return sum(t["counters"].get(name, 0) for t in traces)

    def most(name: str) -> int:
        return max((t["counters"].get(name, 0) for t in traces), default=0)

    hits, misses = counter("balanced.memo_hits"), counter("balanced.memo_misses")
    dp_s, dp_cells = span("exact.dp"), counter("exact.dp_cells")
    out = {
        "cli.import_s": sum(t["import_s"] for t in traces),
        "cli.format_s": sum(t["format_s"] for t in traces),
        "cli.out_bytes": sum(o.out_bytes for o in p.outcomes),
        "words.parse_s": span("words.parse"),
        "words.symbols": counter("words.symbols"),
        "exact.dp_calls": calls("exact.dp"),
        "exact.dp_s": dp_s,
        "exact.dp_cells": dp_cells,
        "exact.cells_per_s": dp_cells / dp_s if dp_s else 0.0,
        "exact.max_bits": most("exact.max_bits"),
        "balanced.s": span("balanced.ball_closed"),
        "balanced.memo_hits": hits,
        "balanced.memo_misses": misses,
        "balanced.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "balanced.max_bits": most("balanced.max_bits"),
        "binomials.calls": calls("binomials.binomial"),
        "binomials.s": span("binomials.binomial"),
        "bounds.lev_s": span("bounds.lev"),
        "bounds.hr_s": span("bounds.hr"),
        "bounds.ch_s": sum(t["ch_s"] for t in traces),
        "bounds.new_lower_s": span("bounds.new_lower"),
        "bounds.new_upper_s": span("bounds.new_upper"),
        "bounds.ch_cache_size": most("bounds.ch_cache_size"),
        "ops.chain_s": span("ops.chain"),
        "ops.steps": counter("ops.steps"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t["self_s"][layer] for t in traces)
    return out


def trace(client: Client, name: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    """Per-layer metrics of one workload from traced passes, alternated with plain ones."""
    spec = {m["name"]: m["unit"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    requests = workloads.build(name, seed)
    digests = client.warm_up(name, seed, requests)
    deadline = time.perf_counter() + seconds
    pairs = until(deadline, lambda: PassPair(client.run_pass(requests, digests),
                                             client.run_pass(requests, digests, traced=True)))
    plain = [pair.plain for pair in pairs]
    traced = [pair.traced for pair in pairs]
    launched = [o for p in plain + traced for o in p.launched]
    failed = sum(not o.ok for o in launched)
    per_pass = [layer_totals(p) for p in traced]
    metrics = {k: statistics.median(t[k] for t in per_pass) for k in per_pass[0]}
    metrics["trace_overhead_s"] = statistics.median(p.calibrated_s for p in traced) - statistics.median(
        p.calibrated_s for p in plain
    )
    print(f"workload {name}  seed {seed}  traced passes {len(traced)}  plain passes {len(plain)}  "
          f"{environment(client.root)}")
    for key, value in metrics.items():
        label = "  (computed: sum of n^2 over DP calls)" if key == "exact.dp_cells" else ""
        print(f"  {key:<22}{value:>16.6g}  {spec.get(key, '')}{label}")
    total_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    print("  self-time share:  " + "  ".join(
        f"{layer} {100 * metrics[f'{layer}.self_s'] / total_self:.1f}%" for layer in LAYERS
    ))
    report_failure(launched)
    missing = set(spec) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
    return {k: {"value": v, "unit": spec[k]} for k, v in metrics.items()}, len(launched), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "delball" / "__main__.py").is_file():
        print(f"perfbench: no delball sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    run = trace if args.trace else measure
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    with Client(root) as client:
        results = {name: run(client, name, args.seed, args.seconds) for name in names}
    attempted = sum(r[1] for r in results.values())
    failed = sum(r[2] for r in results.values())
    if args.workload == "all":
        metrics = {f"{name}/{k}": v for name, r in results.items() for k, v in r[0].items()}
    else:
        metrics = results[args.workload][0]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
