"""Tests of the benchmark itself.

Run from the root of a checkout:  PYTHONPATH=src python -m pytest -q perfbench

Each workload generator is replayed at n <= 12 and the CLI's answers are
checked against the package's oracle routes (``enumerate_ball``,
``canonical_ball_size``, ``ball_recursive``), which backs the digests that
``run.py`` accepts at full size by a second route.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import workloads
from delball.balanced import ball_recursive
from delball.cli import main as cli_main
from delball.exact import canonical_ball_size, enumerate_ball
from delball.words import Word, cyclic_word

ROOT = Path(__file__).resolve().parent.parent
SMALL_RUNS = dict(n=12, shapes=((2, 3), (3, 4), (4, 3)), chain=(4, 3, 3, None))


def cli_stdout(capsys, argv) -> str:
    assert cli_main(list(argv)) == 0
    return capsys.readouterr().out


def enumerated(symbols, q: int, t: int) -> int:
    return len(enumerate_ball(Word(tuple(symbols), q), t))


def word_of(req: workloads.Request) -> list[int]:
    return reference.runs_to_symbols(req.lengths, req.run_symbols)


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    for name in ("count-random", "count-runs"):
        assert workloads.build(name, 5) == workloads.build(name, 5)
        assert workloads.build(name, 5) != workloads.build(name, 6)
    assert workloads.build("sweep-n120", 5) == workloads.build("sweep-n120", 6)
    with pytest.raises(ValueError):
        workloads.build("nope", 1)


def test_full_size_shapes():
    for q, req in zip((2, 3, 4, 8), workloads.build("count-random", 3)):
        assert (len(word_of(req)), req.q, req.t) == (2048, q, 1024)
    *counts, chain = workloads.build("count-runs", 3)
    for mean, req in zip((8, 16, 32), counts):
        assert sum(req.lengths) == 2048 and len(req.lengths) == 2048 // mean
        assert all(a != b for a, b in zip(req.run_symbols, req.run_symbols[1:]))
    assert sum(chain.lengths) == 480 and len(chain.lengths) == 24 and chain.t == 240
    assert len(reference.chain_lengths(list(chain.lengths))) + 1 == 44


def test_reference_ball_matches_enumeration():
    rng = random.Random(0)
    for _ in range(40):
        q = rng.randint(1, 4)
        symbols = [rng.randrange(q) for _ in range(rng.randint(0, 10))]
        for t in range(-1, len(symbols) + 2):
            assert reference.ball(symbols, t) == enumerated(symbols, q, t)


@pytest.mark.parametrize("seed", range(4))
def test_small_count_random_against_enumeration(capsys, seed):
    for req in workloads.count_random_requests(seed, n=12):
        expected = enumerated(word_of(req), req.q, req.t)
        assert cli_stdout(capsys, req.argv) == f"{expected}\n" == reference.count_stdout(word_of(req), req.t)


@pytest.mark.parametrize("seed", range(4))
def test_small_count_runs_against_oracles(capsys, seed):
    *counts, chain = workloads.count_runs_requests(seed, **SMALL_RUNS)
    for req in counts:
        expected = enumerated(word_of(req), req.q, req.t)
        assert cli_stdout(capsys, req.argv) == f"{expected}\n" == reference.count_stdout(word_of(req), req.t)

    out = cli_stdout(capsys, chain.argv)
    assert out == reference.chain_stdout(list(chain.lengths), list(chain.run_symbols), chain.q, chain.t)
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [int(x) for x in rows[0][2].split(",")] == list(chain.lengths)
    for i, (_, text, runs, _, value) in enumerate(rows):
        symbols = [int(c) for c in text]
        assert int(value) == enumerated(symbols, chain.q, chain.t)
        if i >= 1:  # from the relabeling on, every row is a canonical word
            lengths = tuple(int(x) for x in runs.split(","))
            assert int(value) == canonical_ball_size(lengths, chain.q, chain.t)


def test_small_sweep_against_oracles(capsys):
    q, n, r = 3, 12, 4
    csv_req, json_req = workloads.sweep_requests(q, n, r)
    payload = json.loads(cli_stdout(capsys, json_req.argv))
    representative = (1,) * (r - 1) + (n - r + 1,)
    by_t = {}
    for row in payload["rows"]:
        t = row["t"]
        exact = int(row["exact"])
        assert exact == canonical_ball_size(representative, q, t)
        assert exact == enumerated(reference.runs_to_symbols(list(representative), [i % q for i in range(r)]), q, t)
        assert int(row["new_upper"]) == ball_recursive(r, n // r, t, q)
        assert int(row["ch_upper"]) == len(enumerate_ball(cyclic_word(n, q), t))
        for low in ("lev_lower", "hr_lower", "new_lower"):
            assert int(row[low]) <= exact
        for high in ("lev_upper", "hr_upper", "ch_upper", "new_upper"):
            assert int(row[high]) >= exact
        by_t[t] = row
    lines = cli_stdout(capsys, csv_req.argv).splitlines()
    columns = lines[0].split(",")[1:]
    for line in lines[1:]:
        t, *values = line.split(",")
        assert values == [by_t[int(t)][c] for c in columns]


def test_recorded_digests_match_the_reference():
    recorded = json.loads((run.HERE / "expected.json").read_text())["digests"]
    for name in ("count-random", "count-runs"):
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            assert recorded[name][str(seed)] == run.reference_digests(workloads.build(name, seed))


def test_traced_and_plain_runs_agree(monkeypatch):
    """Plain and traced passes print the same bytes, and every layer is measured."""
    requests = workloads.sweep_requests(3, 12, 4) + workloads.count_runs_requests(2, **SMALL_RUNS)
    monkeypatch.setattr(run.workloads, "build", lambda name, seed: requests)
    with run.Client(ROOT) as client:
        digests = [client.launch(req.argv, None).digest for req in requests]
        monkeypatch.setattr(run, "expected_digests", lambda name, seed, reqs: digests)
        metrics, attempted, failed = run.trace(client, "mixed", 2, 0.0)
        assert failed == 0 and attempted == 2 * len(requests)
        values = {k: v["value"] for k, v in metrics.items()}
        for positive in ("balanced.s", "balanced.memo_misses", "binomials.calls", "bounds.hr_s",
                         "bounds.ch_s", "bounds.ch_cache_size", "exact.dp_calls", "ops.steps",
                         "words.symbols", "cli.out_bytes"):
            assert values[positive] > 0, positive

        metrics, attempted, failed = run.measure(client, "mixed", 2, 0.0)
        assert failed == 0 and set(metrics) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_count_workloads_touch_no_bounds_layer(monkeypatch):
    requests = workloads.count_random_requests(3, n=12)
    monkeypatch.setattr(run.workloads, "build", lambda name, seed: requests)
    with run.Client(ROOT) as client:
        metrics, _, failed = run.trace(client, "count-random", 3, 0.0)
    assert failed == 0
    for zero in ("balanced.s", "balanced.memo_hits", "balanced.memo_misses", "binomials.calls", "bounds.hr_s"):
        assert metrics[zero]["value"] == 0, zero


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
