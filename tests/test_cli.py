import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delball
from delball import COLUMN_ORDER, cli, exact, oracles
from delball.bounds import calabi_hartnett_max, sweep_reports
from delball.cli import main
from delball.exact import ball_size
from delball.ops import balancing_chain, format_chain
from delball.oracles import canonical_ball_size, enumerate_ball
from delball.words import encode_runs, parse_word


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_word(capsys):
    code, out, _ = run_cli(capsys, "count", "--word", "000000011022200000333333", "--q", "4", "-t", "7")
    assert code == 0
    assert out.strip() == "326"


def test_count_runs_profile(capsys):
    code, out, _ = run_cli(capsys, "count", "--runs", "4;0", "-t", "2")
    assert code == 0
    assert out.strip() == "1"


def test_count_methods_agree(capsys):
    # count runs the DP alone; the oracles answer through the library.  q =
    # 2**63 + 1 and up are past a C ssize_t, which the canonical table must not size by.
    for text, q, t in (("011222", 3, 2), ("012", 2**63 + 1, 1), ("012", 2**64 + 1, 1)):
        code, out, _ = run_cli(capsys, "count", "--word", text, "--q", str(q), "-t", str(t))
        word = parse_word(text, q)
        assert code == 0
        assert out.strip() == str(ball_size(word, t)) == str(len(enumerate_ball(word, t)))
        assert out.strip() == str(canonical_ball_size(encode_runs(word).lengths, q, t))


def test_count_t_outside_range_exit_2(capsys):
    for source in (("--word", "012"), ("--runs", "1,1,1;0,1,2")):
        for t in (-1, 4, 5):
            code, out, err = run_cli(capsys, "count", *source, "-t", str(t))
            assert (code, out) == (2, "")
            assert err == f"delball: t={t} outside [0, n=3]\n"
        for t, want in ((0, "1"), (3, "1"), (1, "3")):
            assert run_cli(capsys, "count", *source, "-t", str(t))[:2] == (0, want + "\n")


def test_count_parse_failure_exit_2(capsys):
    code, _, err = run_cli(capsys, "count", "--word", "01!", "-t", "1")
    assert code == 2
    assert "symbol" in err


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--q", "3", "--n", "120", "--r", "24", "-t", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 3
    assert isinstance(payload["new_upper"], str)
    assert "exact" not in payload


def test_bounds_exact_flag(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--q", "2", "--n", "4", "--r", "4", "-t", "1", "--exact")
    assert code == 0
    assert json.loads(out)["exact"] == "4"

    code, out, _ = run_cli(capsys, "bounds", "--q", "2", "--n", "5", "--r", "1", "-t", "3", "--exact")
    assert code == 0
    assert json.loads(out)["exact"] == "1"


def test_bounds_input_errors(capsys):
    code, _, err = run_cli(capsys, "bounds", "--q", "3", "--n", "4", "--r", "5", "-t", "1")
    assert code == 2
    # --exact has no size cap: its witness runs like the new_lower one.
    code, out, _ = run_cli(
        capsys, "bounds", "--q", "2", "--n", "1000", "--r", "10", "-t", "1", "--exact"
    )
    assert code == 0
    assert json.loads(out)["exact"] == str(canonical_ball_size((1,) * 9 + (991,), 2, 1))
    for t in ("6", "-1"):
        code, out, err = run_cli(capsys, "bounds", "--q", "2", "--n", "5", "--r", "2", "-t", t)
        assert code == 2
        assert out == ""
        assert "outside [0, n=5]" in err


def test_sweep_csv_deterministic(capsys, tmp_path):
    argv = ["sweep", "--q", "2", "--n", "12", "--r", "4", "--t", "0..12", "--cols", "exact,new_upper"]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, *argv)
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == "t,exact,new_upper"
    assert len(lines) == 14
    for line in lines[1:]:
        t, exact, upper = line.split(",")
        assert int(exact) <= int(upper)

    out_file = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 0
    assert out_file.read_text(encoding="utf-8") == first


def test_sweep_columns_use_canonical_order(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--q", "2", "--n", "6", "--r", "2", "--t", "0..0",
        "--cols", "new_upper,lev_upper",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,lev_upper,new_upper"
    assert lines[1] == "0,1,1"


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--q", "3", "--n", "9", "--r", "3", "--t", "1..3",
        "--cols", "lev_upper,new_upper", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["lev_upper", "new_upper"]
    assert [row["t"] for row in payload["rows"]] == [1, 2, 3]
    assert all(isinstance(row["new_upper"], str) for row in payload["rows"])


def test_sweep_input_errors(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--q", "2", "--n", "6", "--r", "2", "--t", "oops")
    assert code == 2
    code, _, _ = run_cli(capsys, "sweep", "--q", "2", "--n", "6", "--r", "2", "--t", "3..1")
    assert code == 2
    code, _, err = run_cli(
        capsys, "sweep", "--q", "2", "--n", "6", "--r", "2", "--t", "0..7"
    )
    assert code == 2
    assert "outside [0, n=6]" in err
    # The range is checked lazily, so a huge one fails at once instead of filling memory.
    for huge in ("0..1000000000000", "-1000000000000..3"):
        code, _, err = run_cli(capsys, "sweep", "--q", "2", "--n", "6", "--r", "2", f"--t={huge}")
        assert code == 2
        assert "outside [0, n=6]" in err
    # bounds and sweep share the library's checks, so they fail alike.
    bounds_code, _, bounds_err = run_cli(
        capsys, "bounds", "--q", "2", "--n", "6", "--r", "7", "-t", "1"
    )
    code, _, err = run_cli(capsys, "sweep", "--q", "2", "--n", "6", "--r", "7", "--t", "0..1")
    assert code == bounds_code == 2
    assert err == bounds_err == "delball: need 1 <= r <= n, got r=7, n=6\n"
    code, _, _ = run_cli(
        capsys, "sweep", "--q", "2", "--n", "6", "--r", "2", "--t", "0..6", "--cols", "bogus"
    )
    assert code == 2
    # The exact column has no size cap either.
    code, out, _ = run_cli(
        capsys, "sweep", "--q", "2", "--n", "600", "--r", "2", "--t", "0..1", "--cols", "exact"
    )
    assert code == 0
    assert out == "t,exact\n0,1\n1,2\n"


def test_sweep_bad_request_leaves_out_path_uncreated(capsys, tmp_path):
    # The reports are computed before --out is opened, so no request error
    # leaves an empty or partial file behind.
    target = tmp_path / "rows.csv"
    base = ["sweep", "--q", "2", "--n", "6", "--r", "2", "--out", str(target)]
    for extra, message in (
        (["--t", "0..7"], "outside [0, n=6]"),
        (["--t", "0..3", "--cols", "new_upper,bogus"], "unknown columns ['bogus']"),
        (["--t", "0..3", "--cols", ","], "no columns requested"),
        (["--t", "0-3"], 't range must look like "a..b"'),
    ):
        code, out, err = run_cli(capsys, *base, *extra)
        assert (code, out) == (2, "")
        assert message in err
        assert not target.exists()


@st.composite
def sweep_requests(draw):
    n = draw(st.integers(1, 24))
    r = draw(st.integers(1, n))
    t_lo = draw(st.integers(0, n))
    columns = draw(st.lists(st.sampled_from(COLUMN_ORDER), min_size=1, unique=True))
    return draw(st.integers(2, 5)), n, r, t_lo, draw(st.integers(t_lo, n)), columns


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sweep_requests(), st.sampled_from(("csv", "json")))
def test_sweep_json_is_json_dumps_of_its_payload(request, fmt):
    # The text is rebuilt from the report fields, not by the row renderer:
    # as JSON, json.dumps of the payload; as CSV, a header and one line per t.
    q, n, r, t_lo, t_hi, columns = request
    ordered = [c for c in COLUMN_ORDER if c in columns]
    reports = sweep_reports(q, n, r, list(range(t_lo, t_hi + 1)), columns)
    if fmt == "csv":
        lines = [",".join(["t", *ordered])]
        lines += [",".join([str(rep.t)] + [str(getattr(rep, c)) for c in ordered]) for rep in reports]
        want = "".join(line + "\n" for line in lines)
    else:
        rows = [{"t": rep.t, **{c: str(getattr(rep, c)) for c in ordered}} for rep in reports]
        payload = {"q": q, "n": n, "r": r, "t_range": [t_lo, t_hi], "columns": ordered, "rows": rows}
        want = json.dumps(payload, indent=2) + "\n"
    assert cli.sweep_text(*request, fmt) == want


def test_sweep_n120_outputs_pinned(capsys):
    """Byte-exact output of the q=3, n=120, r=24 comparison sweep, as CSV and as JSON."""
    base = ["sweep", "--q", "3", "--n", "120", "--r", "24"]
    requests = (
        (["--t", "1..119"], "14ed386936cb27a3c305a3332a7f58b3ea9e1e706f3198952b31f6f36163bf1c"),
        (
            ["--t", "0..120", "--format", "json", "--cols",
             "exact,lev_lower,lev_upper,hr_lower,hr_upper,ch_upper,new_lower,new_upper"],
            "bec053e871f0deec8f1c7c23136b11c48cb62c5d17a3017e20b0d4faf01c81fc",
        ),
    )
    for extra, digest in requests:
        code, out, _ = run_cli(capsys, *base, *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_every_column_outputs_pinned(capsys):
    """Byte-exact sweeps of every column: the q = 2 Calabi-Hartnett column
    (walked as the Hirschberg-Regnier sum), JSON at q = 5, and a t range
    that starts past 0, so the Calabi-Hartnett terms are built at t = 250."""
    cols = ["--cols", "exact,lev_lower,lev_upper,hr_lower,hr_upper,ch_upper,new_lower,new_upper"]
    requests = (
        (
            ["--q", "2", "--n", "600", "--r", "600", "--t", "0..600"],
            "656f811e1757f919483c3f63626c0f9bf9f77b1578c5d7b11bffbe801458ec5a",
        ),
        (
            ["--q", "5", "--n", "600", "--r", "37", "--t", "0..600", "--format", "json"],
            "737dd26bd5bbdd09e487e45520f9de5c9e609d037c6dc137ba16098984761692",
        ),
        (
            ["--q", "4", "--n", "900", "--r", "50", "--t", "250..400"],
            "7c0166be9b856dd770fdf1d72d363487d2f0a4b94d6d4eaf7cd46d4c4f72825a",
        ),
    )
    for extra, digest in requests:
        code, out, _ = run_cli(capsys, "sweep", *extra, *cols)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bounds_and_sweep_at_large_n(capsys):
    # With r = n the balanced word cycles through the alphabet, so it attains
    # the Calabi-Hartnett maximum, which HR's upper bound equals by Hirschberg's
    # identity; at q = 2 that word is also the unbalanced witness.
    code, out, _ = run_cli(capsys, "bounds", "--q", "3", "--n", "1200", "--r", "1200", "-t", "5")
    assert code == 0
    report = json.loads(out)
    assert report["new_upper"] == report["ch_upper"] == report["hr_upper"]

    code, out, _ = run_cli(capsys, "sweep", "--q", "2", "--n", "400", "--r", "400", "--t", "0..400")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 402
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert row["new_lower"] == row["new_upper"] == row["ch_upper"] == row["hr_upper"]


def test_count_and_bounds_at_n3000(capsys):
    # A full-width DP row costs n * n big-integer cells; these requests must
    # only touch the lengths that reach n - t.
    rng = random.Random(4)
    word = "".join(rng.choice("012") for _ in range(3000))
    code, out, _ = run_cli(capsys, "count", "--word", word, "-t", "1")
    assert code == 0
    assert out.strip() == str(encode_runs(parse_word(word)).run_count)

    code, out, _ = run_cli(capsys, "bounds", "--q", "3", "--n", "3000", "--r", "3", "-t", "2")
    assert code == 0
    report = json.loads(out)
    assert report["new_lower"] == str(canonical_ball_size((1, 1, 2998), 2, 2)) == "3"
    assert report["new_upper"] == str(canonical_ball_size((1000,) * 3, 3, 2)) == "6"

    # With r = n both witnesses cycle through their alphabets.
    code, out, _ = run_cli(capsys, "bounds", "--q", "3", "--n", "3000", "--r", "3000", "-t", "2")
    assert code == 0
    report = json.loads(out)
    assert report["new_upper"] == report["ch_upper"] == str(calabi_hartnett_max(3, 3000, 2))
    assert report["new_lower"] == str(calabi_hartnett_max(2, 3000, 2))


def test_exact_column_at_large_n(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--q", "3", "--n", "100000", "--r", "5", "-t", "2", "--exact"
    )
    assert code == 0
    report = json.loads(out)
    assert report["exact"] == str(canonical_ball_size((1, 1, 1, 1, 99996), 3, 2)) == "11"


def digits_value(text):
    """int(text) for a decimal string of any length, under any int <- str digit limit."""
    assert text.isdigit() and (text == "0" or not text.startswith("0"))
    value = 0
    for i in range(0, len(text), 1000):
        value = value * 10 ** len(text[i : i + 1000]) + int(text[i : i + 1000])
    return value


def test_counts_of_any_size_print(capsys):
    # lev_upper = C(15999, 8000) has about 4,800 digits, past the int -> str
    # limit that Python 3.11 sets by default, which the CLI leaves in force.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(capsys, "bounds", "--q", "2", "--n", "8000", "--r", "8000", "-t", "8000")
    assert (code, err) == (0, "")
    assert digits_value(json.loads(out)["lev_upper"]) == comb(15999, 8000)
    code, out, err = run_cli(
        capsys, "sweep", "--q", "2", "--n", "8000", "--r", "8000", "--t", "7999..8000"
    )
    assert (code, err) == (0, "")
    last = out.splitlines()[-1].split(",")
    assert last[:2] == ["8000", "0"] and digits_value(last[2]) == comb(15999, 8000)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_narrow_sweep_at_n4000(capsys):
    # Two t near 0 need only the DP lengths n - 1 and n of each witness word.
    code, out, _ = run_cli(capsys, "sweep", "--q", "2", "--n", "4000", "--r", "2000", "--t", "0..1")
    assert code == 0
    assert out == (
        "t,lev_lower,lev_upper,hr_lower,hr_upper,ch_upper,new_lower,new_upper\n"
        "0,1,1,1,1,1,1,1\n"
        "1,2000,2000,2000,4000,4000,2000,2000\n"
    )


def test_run_profiles_at_huge_n(capsys):
    # As words these requests hold 10^8 or 3 * 10^7 symbols; as runs each is
    # a few hundred DP operations.  canonical_ball_size costs O(runs * q * t)
    # whatever the run lengths.
    n = 10**8

    def timed(*argv):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert time.perf_counter() - started < 2.0
        return out

    out = timed("count", "--runs", "50000000,50000000;0,1", "-t", "1")
    assert out == f"{canonical_ball_size((n // 2, n // 2), 2, 1)}\n" == "2\n"

    report = json.loads(timed("bounds", "--q", "3", "--n", str(n), "--r", "5", "-t", "2"))
    assert report["new_lower"] == str(canonical_ball_size((1, 1, 1, 1, n - 4), 2, 2)) == "8"
    assert report["new_upper"] == str(canonical_ball_size((n // 5,) * 5, 3, 2)) == "15"
    assert report["ch_upper"] == report["hr_upper"] == "4999999950000000"
    assert (report["lev_lower"], report["lev_upper"], report["hr_lower"]) == ("6", "15", "7")

    n = 3 * 10**7
    lines = timed("sweep", "--q", "2", "--n", str(n), "--r", "2", "--t", "0..1").split()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [row["new_lower"] for row in rows] == [str(canonical_ball_size((1, n - 1), 2, t)) for t in (0, 1)]
    assert [row["new_upper"] for row in rows] == [str(canonical_ball_size((n // 2,) * 2, 2, t)) for t in (0, 1)]
    assert [row["new_upper"] for row in rows] == ["1", "2"]


def test_memory_error_exit_3(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "ball_size", exhausted)
    code, out, err = run_cli(capsys, "count", "--word", "0101", "-t", "1")
    assert (code, out) == (3, "")
    assert err.startswith("delball: out of memory") and err.count("\n") == 1


def test_sweep_unwritable_path_exit_4(capsys, tmp_path):
    target = tmp_path / "missing" / "rows.csv"
    code, _, err = run_cli(
        capsys, "sweep", "--q", "2", "--n", "6", "--r", "2", "--t", "0..1", "--out", str(target)
    )
    assert code == 4
    assert "cannot write" in err


def test_chain_table(capsys):
    # README's example, pinned whole: a padding or rstrip slip changes the digest.
    word = "000000011022200000333333"
    code, out, _ = run_cli(capsys, "chain", "--word", word, "--q", "4", "-t", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1b0d47123438b8a02cf291d1ef58b620d49fde6b49ac75efa831f94e495562c5"
    )
    assert format_chain(balancing_chain(parse_word(word, 4), 7), 7) == out
    lines = out.strip().split("\n")
    assert len(lines) == 12
    assert lines[0].split()[:4] == ["i", "word", "runs", "sum_sq"]
    first = lines[1].split()
    assert first[0] == "0" and first[-1] == "326"
    balls = [int(line.split()[-1]) for line in lines[1:]]
    assert balls == sorted(balls)
    assert lines[-1].split()[1] == "000011112222333300001111"


def test_chain_balls_equal_fresh_counts(capsys):
    # The chain reuses DP states across its steps; each row's word, counted
    # on its own, must give the same ball.  The word: 24 runs of 20 symbols
    # after 72 random unit moves, over q = 4.
    rng = random.Random(24)
    lengths = [20] * 24
    for _ in range(72):
        j, k = rng.randrange(24), rng.randrange(24)
        if lengths[j] > 1:
            lengths[j] -= 1
            lengths[k] += 1
    symbols = [rng.randrange(4)]
    while len(symbols) < 24:
        symbols.append((symbols[-1] + rng.randrange(1, 4)) % 4)
    word = "".join(str(a) * x for x, a in zip(lengths, symbols))
    code, out, _ = run_cli(capsys, "chain", "--word", word, "--q", "4", "-t", "240")
    rows = [line.split() for line in out.strip().split("\n")[1:]]
    assert code == 0 and len(rows) == 47
    for row in rows:
        assert int(row[-1]) == ball_size(parse_word(row[1], 4), 240), row[0]


def test_chain_balances_indivisible_runs(capsys):
    # 3 runs, length 5: already near-balanced, so the chain is the input
    # and its relabeling.
    code, out, err = run_cli(capsys, "chain", "--word", "00100", "-t", "1")
    assert (code, err) == (0, "")
    assert out.split("\n")[1:] == ["0  00100  2,1,2  9       3", "1  00100  2,1,2  9       3", ""]
    # README's r ∤ n example ends near-balanced: every run 2 or 3 long.
    code, out, _ = run_cli(capsys, "chain", "--word", "01000000110", "-t", "5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3de3d2aa239e445a7acb8be18dd8d9b7ae4e621f7610cc65ffb7d222f1630b57"
    )
    rows = [line.split() for line in out.strip().split("\n")[1:]]
    assert [row[2] for row in (rows[0], rows[-1])] == ["1,1,6,2,1", "2,3,2,2,2"]
    assert len(rows) == 7


def test_selftest_small(capsys):
    code, out, _ = run_cli(capsys, "selftest", "small")
    assert code == 0
    assert "PASS  golden-chain-vectors" in out
    assert "FAIL" not in out


# Each command's usage line, the first line of its help and of its refusals.
USAGE = {
    "": "usage: delball [-h] {count,bounds,sweep,chain,selftest} ...\n",
    "count": "usage: delball count [-h] (--word WORD | --runs RUNS) [--q Q] -t DELETIONS\n",
    "bounds": "usage: delball bounds [-h] --q Q --n N --r R -t DELETIONS [--exact]\n",
    "sweep": "usage: delball sweep [-h] --q Q --n N --r R --t T [--cols COLS] [--out OUT] [--format {csv,json}]\n",
    "chain": "usage: delball chain [-h] --word WORD [--q Q] -t DELETIONS\n",
    "selftest": "usage: delball selftest [-h] [{small,full}]\n",
}


def refusal(command, message):
    return USAGE[command] + f"delball{' ' + command if command else ''}: error: {message}\n"


SWEEP = ("sweep", "--q", "2", "--n", "4", "--r", "2", "--cols", "exact")
SWEEP_CSV = "t,exact\n0,1\n1,2\n2,2\n3,2\n"
BOUNDS = ("bounds", "--q", "2", "--n", "4", "--r", "2", "-t", "1", "--exact")
T_RANGE_ERROR = 'delball: t range must look like "a..b" with integers a <= b, got {!r}\n'
# argv -> (exit code, stdout, stderr).  A stdout given as an argv is the
# stdout of that canonical spelling.
GRAMMAR = (
    (("count", "--word", "01", "-t", "1"), 0, "2\n", ""),
    (("count", "--word=01", "-t1"), 0, "2\n", ""),
    (("count", "--word", "01", "-t=1"), 0, "2\n", ""),
    (("count", "--word", "01", "--deletions", "1"), 0, "2\n", ""),
    (("count", "--word", "01", "--deletions=1"), 0, "2\n", ""),
    (("count", "--wo", "01", "--del", "1"), 0, "2\n", ""),
    (("count", "--wo=01", "--d=1"), 0, "2\n", ""),
    (("count", "-t", "1", "--word", "01"), 0, "2\n", ""),
    (("count", "--word", "00", "--word", "01", "-t", "0", "-t", "1"), 0, "2\n", ""),
    (("count", "--runs=1,1;0,1", "--q", "2", "-t", "1"), 0, "2\n", ""),
    (("count", "--word", "01", "-t", "-1"), 2, "", "delball: t=-1 outside [0, n=2]\n"),
    ((*SWEEP, "--t", "0..3"), 0, SWEEP_CSV, ""),
    ((*SWEEP, "--t=0..3"), 0, SWEEP_CSV, ""),
    ((*SWEEP, "--t", " 0 .. 3 "), 0, SWEEP_CSV, ""),
    ((*SWEEP, "--t", "٠..٣"), 0, SWEEP_CSV, ""),  # Arabic-Indic digits 0..3
    ((*SWEEP, "--t", "0..3", "--out", "-"), 0, SWEEP_CSV, ""),
    ((*SWEEP, "--t", "0..3", "--format=json"), 0, (*SWEEP, "--t", "0..3", "--format", "json"), ""),
    ((*SWEEP, "--fo", "json", "--t", "0..3"), 0, (*SWEEP, "--t", "0..3", "--format", "json"), ""),
    (("sweep", "--c", "exact", "--q=2", "--n=4", "--r=2", "--t=0..3"), 0, SWEEP_CSV, ""),
    ((*BOUNDS[:-1], "--ex"), 0, BOUNDS, ""),
    (("bounds", "--exact", "-t1", "--r", "2", "--n", "4", "--q", "2"), 0, BOUNDS, ""),
    (("selftest",), 0, "small\n", ""),
    (("selftest", "small"), 0, "small\n", ""),
    (("selftest", "full"), 0, "full\n", ""),
    (("count", "--word", "01"), 2, "", refusal("count", "the following arguments are required: -t/--deletions")),
    (("bounds", "--q", "3"), 2, "",
     refusal("bounds", "the following arguments are required: --n, --r, -t/--deletions")),
    ((), 2, "", refusal("", "the following arguments are required: command")),
    (("count", "-t", "1"), 2, "", refusal("count", "one of the arguments --word --runs is required")),
    (("count", "--word", "01", "--runs", "1,1;0,1", "-t", "1"), 2, "",
     refusal("count", "argument --runs: not allowed with argument --word")),
    (("count", "--word", "01", "-t", "x"), 2, "",
     refusal("count", "argument -t/--deletions: invalid int value: 'x'")),
    (("count", "--word"), 2, "", refusal("count", "argument --word: expected one argument")),
    (("count", "--word", "--runs", "1;0", "-t", "1"), 2, "",
     refusal("count", "argument --word: expected one argument")),
    ((*SWEEP, "--t", "0..3", "--format", "xml"), 2, "",
     refusal("sweep", "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')")),
    ((*SWEEP, "--t", "-1..3"), 2, "", refusal("sweep", "argument --t: expected one argument")),
    (("selftest", "bogus"), 2, "",
     refusal("selftest", "argument scale: invalid choice: 'bogus' (choose from 'small', 'full')")),
    (("bogus",), 2, "", refusal(
        "", "argument command: invalid choice: 'bogus' (choose from 'count', 'bounds', 'sweep', 'chain', 'selftest')"
    )),
    (("count", "--word", "01", "-t", "1", "--method", "dp"), 2, "",
     refusal("count", "unrecognized arguments: --method dp")),
    ((*BOUNDS, "--exact=1"), 2, "", refusal("bounds", "argument --exact: ignored explicit argument '1'")),
    ((*SWEEP, "--t", "1_0..12"), 2, "", T_RANGE_ERROR.format("1_0..12")),
    ((*SWEEP, "--t", "0..3..4"), 2, "", T_RANGE_ERROR.format("0..3..4")),
    ((*SWEEP, "--t", "3..1"), 2, "", T_RANGE_ERROR.format("3..1")),
)


def test_command_line_grammar(capsys, monkeypatch):
    # Every accepted spelling prints what its canonical spelling prints, and
    # every refusal is the command's usage line and one error line.
    from delball import selftest

    monkeypatch.setattr(selftest, "run", lambda scale: print(scale) or 0)
    for argv, code, out, err in GRAMMAR:
        if isinstance(out, tuple):
            out = run_cli(capsys, *out)[1]
            assert out, argv
        assert run_cli(capsys, *argv) == (code, out, err), argv


def test_help_names_every_argument(capsys):
    for command in USAGE:
        arguments = cli.COMMANDS[command][2] if command else ()
        for spelling in ("-h", "--help"):
            code, out, err = run_cli(capsys, *filter(None, [command, spelling]))
            assert (code, err) == (0, "") and out.startswith(USAGE[command] + "\n"), (command, spelling)
            for name in ("-h", "--help", *(cli.COMMANDS if not command else ())):
                assert name in out, (command, name)
            for flags, kind, *_ in arguments:
                names = flags.split("/") if flags[0] == "-" else ["{" + ",".join(kind) + "}"]
                assert all(name in out for name in names), (command, flags)


# Launches, their exit codes and the delball modules past the package and
# cli that each loads.
# A 2,048-symbol binary count at t = 1024, whose split pays.
PAYING_COUNT = ("count", "--word", "".join(random.Random(1).choices("01", k=2048)), "-t", "1024")
LAUNCH_MODULES = (
    (("--help",), 0, ()),
    (("count", "--help"), 0, ()),
    (("count", "--word", "0101"), 2, ()),  # a usage error: -t is missing
    (("count", "--word", "0101", "-t", "1"), 0, ("exact", "words")),
    (PAYING_COUNT, 0, ("exact", "split", "words")),
    (("chain", "--word", "0011", "-t", "1"), 0, ("exact", "ops", "split", "words")),
    (("bounds", "--q", "3", "--n", "12", "--r", "4", "-t", "2"), 0, ("bounds", "exact", "words")),
    (("sweep", "--q", "3", "--n", "12", "--r", "4", "--t", "0..2"), 0, ("bounds", "exact", "words")),
)


def src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(delball.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def launched_modules(*argv, package="delball", **options):
    """Exit code of `python -m delball argv`, run by runpy, and the sorted
    modules of ``package`` (several names split by spaces) loaded when it
    exits (its last stderr line).
    The launch ends in ``os._exit``, which runs no ``atexit`` handler, so
    the script wraps ``os._exit`` to print them first."""
    script = (
        "import os, runpy, sys; "
        "os._exit = lambda code, _exit=os._exit: ("
        f"print(*sorted(m for m in sys.modules if m.split('.')[0] in {package.split()!r}), "
        "file=sys.stderr, flush=True), "
        "_exit(code)); "
        "runpy.run_module('delball', run_name='__main__', alter_sys=True)"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], env=src_env(), capture_output=True, text=True, timeout=60,
        **options,
    )
    return result.returncode, result.stderr.splitlines()[-1].split()


def test_cli_import_footprint():
    # A command-line launch should not load the oracles, the test suites or
    # dataclasses (which pulls in inspect, ast and dis) before it needs them.
    script = (
        "import sys, delball.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'delball.balanced', 'delball.selftest') "
        "if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""

    # Each launch loads only the layers its command runs.
    for argv, code, layers in LAUNCH_MODULES:
        modules = sorted(["delball", "delball.cli", *(f"delball.{m}" for m in layers)])
        assert launched_modules(*argv) == (code, modules), argv
    # No launch loads argparse, gettext or textwrap: cli reads its own option
    # table.  It loads re only where a bare interpreter's start-up does (here
    # `site` may import it for a .pth file), and then the same modules of it.
    # Nor __future__: every module evaluates its annotations.
    bare = subprocess.run(
        [sys.executable, "-c", "import sys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 're'))"],
        env=src_env(), capture_output=True, text=True, timeout=60,
    )
    for argv, code, _ in LAUNCH_MODULES:
        assert launched_modules(*argv, package="__future__ argparse gettext re textwrap") == (code, bare.stdout.split()), argv
    # main's except clauses, down to OSError, load no layer either.
    assert launched_modules("--help", preexec_fn=lambda: os.close(1)) == (4, ["delball", "delball.cli"])
    # A chain loads split but never forks, so it loads no signal for split._reap.
    assert launched_modules("chain", "--word", "0011", "-t", "1", package="signal") == (0, [])
    # A count whose split pays loads split before it asks for a second core,
    # so it loads the same modules on one CPU, where it does not fork.
    profile = encode_runs(parse_word(PAYING_COUNT[2]))
    assert exact._split_pays(profile, 1024, *exact._split_plan(profile, 1024))
    if sys.platform.startswith("linux"):
        cpu = min(os.sched_getaffinity(0))
        one_cpu = launched_modules(*PAYING_COUNT, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        assert one_cpu == (0, ["delball", "delball.cli", "delball.exact", "delball.split", "delball.words"])


def test_bounds_and_sweep_launches_load_no_json():
    # Reports and sweeps are written by bounds.json_chunks, not the json module.
    for argv in (
        ("bounds", "--q", "3", "--n", "12", "--r", "4", "-t", "2"),
        ("bounds", "--q", "3", "--n", "12", "--r", "4", "-t", "2", "--exact"),
        ("sweep", "--q", "3", "--n", "12", "--r", "4", "--t", "0..2", "--format", "json"),
    ):
        assert launched_modules(*argv, package="json") == (0, []), argv


# Each layer entry point that callers (the traced benchmark runner among
# them) replace on the cli module, and a command that calls it once.
PATCHED_ENTRY_POINTS = (
    ("parse_word", ("count", "--word", "0101", "-t", "1")),
    ("parse_run_profile", ("count", "--runs", "2,2;0,1", "-t", "1")),
    ("encode_runs", ("chain", "--word", "0011", "-t", "1")),
    ("ball_size", ("count", "--word", "0101", "-t", "1")),
    ("sweep_reports", ("sweep", "--q", "3", "--n", "12", "--r", "4", "--t", "0..2")),
    ("balancing_chain", ("chain", "--word", "0011", "-t", "1")),
    ("sweep_reports", ("bounds", "--q", "3", "--n", "12", "--r", "4", "-t", "2", "--exact")),
)


@pytest.mark.parametrize("name, argv", PATCHED_ENTRY_POINTS)
def test_setattr_on_cli_intercepts_command(capsys, monkeypatch, name, argv):
    real = getattr(cli, name)
    assert real is getattr(delball, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    code, out, _ = run_cli(capsys, *argv)
    assert (code, len(calls)) == (0, 1)
    monkeypatch.undo()
    assert getattr(cli, name) is real
    assert run_cli(capsys, *argv)[:2] == (0, out)


def test_oracles_import_without_dataclasses():
    # The value classes of the oracles and the suites are named tuples too.
    script = (
        "import sys, delball.balanced, delball.selftest; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_package_exports_resolve_to_submodule_objects():
    namespace = {}
    exec("from delball import *", namespace)
    assert sorted(delball.__all__) == delball.__all__ and len(delball.__all__) == 34
    for name in delball.__all__:
        value = namespace[name]
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("delball.")
        assert getattr(module, name) is value is getattr(delball, name)
    assert delball.bounds is sys.modules["delball.bounds"]


def test_exact_resolves_only_the_two_oracles_it_held():
    from delball.exact import canonical_ball_size, enumerate_ball

    assert canonical_ball_size is oracles.canonical_ball_size
    assert enumerate_ball is oracles.enumerate_ball
    with pytest.raises(AttributeError):
        exact.enumeration_budget


def launch(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, unbuffered=False, closed_fd=None,
           budget=None):
    """Run ``python -m delball`` as its own process; stdout is block-buffered
    (as whenever it is a file or a pipe) unless ``unbuffered``.  ``closed_fd``
    is closed in the child before it starts, as a shell's ``n>&-`` does."""
    src = str(Path(delball.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if budget is not None:
        env["DELBALL_ENUM_BUDGET"] = str(budget)
    return subprocess.run(
        [sys.executable, "-m", "delball", *argv],
        stdout=stdout, stderr=stderr, env=env, text=True, timeout=120,
        preexec_fn=None if closed_fd is None else (lambda: os.close(closed_fd)),
    )


def assert_one_line(result, code, start):
    assert result.returncode == code, result.stderr
    assert result.stderr.startswith(f"delball: {start}") and result.stderr.count("\n") == 1


WRITING_COMMANDS = (
    ("count", "--word", "0101", "-t", "1"),
    ("bounds", "--q", "3", "--n", "12", "--r", "4", "-t", "2"),
    ("sweep", "--q", "3", "--n", "120", "--r", "24", "--t", "0..120"),
    ("chain", "--word", "0011", "-t", "1"),
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/dev/full is Linux-only")
@pytest.mark.parametrize("unbuffered", (False, True))
def test_stdout_on_full_device_exit_4(unbuffered):
    for argv in WRITING_COMMANDS:
        with open("/dev/full", "wb") as full:
            result = launch(*argv, stdout=full, unbuffered=unbuffered)
        assert_one_line(result, 4, "cannot write output")


def test_stdout_pipe_closed_before_launch_exit_4():
    for argv in WRITING_COMMANDS:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = launch(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert_one_line(result, 4, "cannot write output")


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_reader_closing_mid_stream_exit_4(fmt):
    # 387 kB of CSV or 492 kB of JSON, far past a pipe's buffer: the reader
    # takes one line and closes its end while the sweep is still writing.
    argv = ["sweep", "--q", "2", "--n", "600", "--r", "600", "--t", "0..600", "--format", fmt]
    env = {k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen(
        [sys.executable, "-m", "delball", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    ) as child:
        assert child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    assert_one_line(subprocess.CompletedProcess(argv, code, None, err), 4, "cannot write output")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/dev/full is Linux-only")
@pytest.mark.parametrize("unbuffered", (False, True))
def test_unwritable_stderr_keeps_exit_code(unbuffered):
    # stderr on a full device, closed, or open for reading only: the line is
    # lost, but the exit code is the one a writable stderr gets, and nothing
    # reaches stdout in its place.
    for stderr_mode in ("full", "closed", "read-only"):
        with open("/dev/full", "wb") as full, open(os.devnull, "rb") as read_only:
            stderr = {"full": full, "closed": subprocess.PIPE, "read-only": read_only}[stderr_mode]
            closed_fd = 2 if stderr_mode == "closed" else None
            how = {"stderr": stderr, "closed_fd": closed_fd, "unbuffered": unbuffered}
            bad_symbol = launch("count", "--word", "01!", "-t", "1", **how)
            refused = launch("selftest", "small", budget=10, **how)
            unwritable = launch("count", "--word", "0101", "-t", "1", stdout=full, **how)
        assert (bad_symbol.returncode, bad_symbol.stdout) == (2, ""), stderr_mode
        assert (refused.returncode, refused.stdout) == (3, ""), stderr_mode
        assert unwritable.returncode == 4, stderr_mode


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="closes a descriptor in the child")
def test_closed_stdout_exit_4_unless_output_goes_to_file(tmp_path):
    result = launch("count", "--word", "0101", "-t", "1", closed_fd=1)
    assert_one_line(result, 4, "cannot write output: stdout is closed")

    target = tmp_path / "rows.csv"
    argv = ("sweep", "--q", "3", "--n", "12", "--r", "4", "--t", "0..3")
    result = launch(*argv, "--out", str(target), closed_fd=1)
    assert (result.returncode, result.stderr) == (0, "")
    assert target.read_text() == launch(*argv).stdout


def test_sizes_past_index_range_exit_3():
    n = str(10**20)
    for argv in (
        ("count", "--runs", f"{n};0", "-t", "1"),
        ("bounds", "--q", "3", "--n", n, "--r", "5", "-t", "2"),
        ("sweep", "--q", "3", "--n", n, "--r", "5", "--t", "0..2"),
    ):
        result = launch(*argv)
        assert result.stdout == ""
        assert_one_line(result, 3, "the request is too large for this machine")


def test_chain_t_outside_range_exit_2():
    for t in ("9", "-1"):
        result = launch("chain", "--word", "0011", "-t", t)
        assert result.stdout == ""
        assert_one_line(result, 2, f"t={t} outside [0, n=4]")


def test_count_empty_word_as_processes():
    # The empty word's one subsequence, also at its inferred one-symbol alphabet.
    for source in (("--word", ""), ("--runs", ";")):
        for q in (("--q", "2"), ()):
            result = launch("count", *source, *q, "-t", "0")
            assert (result.returncode, result.stdout, result.stderr) == (0, "1\n", ""), q


def test_count_runs_with_only_negative_symbols_exit_2():
    # The inferred alphabet keeps one symbol, so the refusal names the symbol.
    result = launch("count", "--runs", "2,1;-1,-2", "-t", "0")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "delball: run symbol -1 outside [0, 1)\n"


def test_selftest_budget_exhausted_exit_3():
    # Only selftest enumerates on the command line: a budget it exceeds is
    # exit 3, a budget that is not a positive integer exit 2, each one line.
    started = time.perf_counter()
    refused = launch("selftest", "small", budget=10)
    assert time.perf_counter() - started < 10
    assert refused.stdout == ""
    assert_one_line(refused, 3, "C(8, 2) candidates of 6 symbols exceed budget 10\n")
    for bad in ("abc", "0"):
        result = launch("selftest", "small", budget=bad)
        assert result.stdout == ""
        assert_one_line(result, 2, "DELBALL_ENUM_BUDGET")


INTERRUPTED = "delball: interrupted\n"


def interrupted(*argv, after, group=False):
    """``python -m delball argv``, sent SIGINT ``after`` seconds in: to its
    process alone, or to its whole process group as a terminal's Ctrl-C
    does.  Its result, and the seconds from the signal until its output
    closed and it exited; no process of its group may outlive it."""
    with subprocess.Popen(
        [sys.executable, "-m", "delball", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=src_env(), text=True, start_new_session=True,
    ) as process:
        time.sleep(after)
        signalled = time.perf_counter()
        (os.killpg if group else os.kill)(process.pid, signal.SIGINT)
        out, err = process.communicate(timeout=60)
        waited = time.perf_counter() - signalled
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    else:
        pytest.fail(f"a process of the interrupted launch {argv[0]} outlived it")
    return subprocess.CompletedProcess(argv, process.returncode, out, err), waited


def test_interrupted_sweep_prints_one_line(tmp_path):
    # SIGINT 1.5 s into the n = 4000 sweep, while its reports are computed:
    # one line and exit 130.  With --out, no file exists yet to leave behind.
    argv = ("sweep", "--q", "3", "--n", "4000", "--r", "4000", "--t", "0..4000")
    target = tmp_path / "rows.csv"
    for out in ((), ("--out", str(target))):
        result, _ = interrupted(*argv, *out, after=1.5)
        assert (result.returncode, result.stdout, result.stderr) == (130, "", INTERRUPTED), out
        assert "Traceback" not in result.stderr
    assert not target.exists()


def test_interrupted_chain_and_selftest_print_one_line():
    # SIGINT while the table or the suites are computed, before anything is
    # printed: 1.5 s into a 100-run, 2,000-symbol chain at t = 1000 (about
    # 4 s on a 2-vCPU host), signalled alone, and 0.75 s into selftest full
    # (about 2 s, with no size to raise), signalled with its group as
    # Ctrl-C would.  Start-up reaches main in under 0.1 s.
    rng = random.Random(1)
    cuts = sorted(rng.sample(range(1, 2000), 99))
    lengths = [b - a for a, b in zip([0, *cuts], [*cuts, 2000])]
    text = "".join("0123"[i % 4] * x for i, x in enumerate(lengths))
    cases = ((("chain", "--word", text, "-t", "1000"), False, 1.5), (("selftest", "full"), True, 0.75))
    for argv, group, after in cases:
        result, _ = interrupted(*argv, after=after, group=group)
        assert (result.returncode, result.stdout, result.stderr) == (130, "", INTERRUPTED), argv[0]
        assert "Traceback" not in result.stderr


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.mark.skipif(not hasattr(os, "fork") or CPUS < 2, reason="needs os.fork and two CPUs")
def test_interrupted_forking_count_stops_its_child():
    # A count of 12,000 random symbols over 4 at t = 6000 forks its DP, and
    # takes about 5 s on a 2-vCPU host.  SIGINT 1 s in, to the parent alone
    # or to the whole group: the parent kills its child rather than waiting
    # for it, so the launch ends at once (a live child would hold stderr open).
    rng = random.Random(1)
    text = "".join(rng.choice("0123") for _ in range(12000))
    profile = encode_runs(parse_word(text))
    assert exact._split_pays(profile, 6000, *exact._split_plan(profile, 6000))
    for group in (False, True):
        result, waited = interrupted("count", "--word", text, "-t", "6000", after=1.0, group=group)
        assert (result.returncode, result.stdout, result.stderr) == (130, "", INTERRUPTED), group
        assert waited < 1.0, group


def test_count_method_option_is_a_usage_error():
    # count has one route, the DP: --method is gone from its help and its parser.
    assert "--method" not in launch("count", "--help").stdout
    result = launch("count", "--word", "0101", "-t", "1", "--method", "dp")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("usage: delball ")
    assert result.stderr.endswith(": error: unrecognized arguments: --method dp\n")
    assert "Traceback" not in result.stderr and result.stderr.count("\n") == 2


def test_help_and_usage_errors_as_processes():
    helped = launch("--help")
    assert (helped.returncode, helped.stderr) == (0, "")
    assert helped.stdout.startswith("usage: delball")
    usage = launch("count", "--word", "01")
    assert (usage.returncode, usage.stdout) == (2, "")
    assert usage.stderr.startswith("usage: delball count")
    required = "delball count: error: the following arguments are required: -t/--deletions\n"
    assert usage.stderr.endswith(required)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/dev/full is Linux-only")
@pytest.mark.parametrize("unbuffered", (False, True))
def test_help_and_usage_exits_follow_the_exit_code_table(unbuffered):
    with open("/dev/full", "wb") as full:
        for argv in (("--help",), ("count", "--help")):
            assert_one_line(launch(*argv, stdout=full, unbuffered=unbuffered), 4, "cannot write output")
        usage = launch("count", "--word", "01", stderr=full, unbuffered=unbuffered)
        bad_choice = launch("bogus", stderr=full, unbuffered=unbuffered)
    assert (usage.returncode, usage.stdout) == (2, "")
    assert (bad_choice.returncode, bad_choice.stdout) == (2, "")
    # stderr closed: the usage text is lost, and none of it reaches stdout.
    closed = launch("count", "--word", "01", closed_fd=2, unbuffered=unbuffered)
    assert (closed.returncode, closed.stdout) == (2, "")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="closes a descriptor in the child")
def test_help_with_stdout_closed_exit_4():
    assert_one_line(launch("--help", closed_fd=1), 4, "cannot write output: stdout is closed")


class _Stream:
    """A standard stream that holds what is written until it is flushed."""

    def __init__(self, full=False):
        self.pending, self.flushed, self.full = "", "", full

    def write(self, text):
        self.pending += text
        return len(text)

    def flush(self):
        if self.full:
            raise OSError("No space left on device")
        self.flushed, self.pending = self.flushed + self.pending, ""


class _Exited(Exception):
    """What the patched ``os._exit`` saw: the code and both streams' flushed text."""


@pytest.mark.parametrize("full", (False, True))
def test_run_flushes_both_streams_then_exits_with_mains_code(monkeypatch, full):
    # run() ends the process with os._exit, which flushes nothing: it must
    # flush first.  A stdout whose flush fails (main has already mapped the
    # failed write) keeps main's code and still lets stderr's line out.
    import delball.__main__ as entry

    out, err = _Stream(full), _Stream()

    def fake_main():
        print("line", file=sys.stdout)
        print("note", file=sys.stderr)
        return 2

    def fake_exit(code):
        raise _Exited(code, out.flushed, err.flushed)

    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    monkeypatch.setattr(entry, "main", fake_main)
    monkeypatch.setattr(os, "_exit", fake_exit)
    with pytest.raises(_Exited) as exited:
        entry.run()
    assert exited.value.args == (2, "" if full else "line\n", "note\n")


def test_launch_output_equals_in_process_output(capsys, tmp_path):
    # 537 kB of JSON, far past any stream buffer: every byte a launch writes,
    # through a pipe or to --out, is there when it exits.
    argv = ("sweep", "--q", "3", "--n", "600", "--r", "600", "--t", "0..600", "--format", "json")
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0 and len(expected) > 500_000
    target = tmp_path / "sweep.json"
    for out in ((), ("--out", str(target))):
        result = subprocess.run(
            [sys.executable, "-m", "delball", *argv, *out], env=src_env(), capture_output=True, timeout=120
        )
        assert (result.returncode, result.stderr) == (0, b""), out
        assert (target.read_bytes() if out else result.stdout) == expected.encode(), out


def test_chain_word_column_from_runs(capsys):
    # The word column is built run by run; past 36 symbols it has no text form.
    code, out, _ = run_cli(capsys, "chain", "--word", "220001122222", "--q", "5", "-t", "4")
    rows = [line.split() for line in out.strip().split("\n")[1:]]
    assert code == 0
    assert [row[1] for row in rows] == ["220001122222", "001112233333", "001112223333", "000111222333"]
    for row in rows:
        lengths = [int(x) for x in row[2].split(",")]
        assert encode_runs(parse_word(row[1], 5)).lengths == tuple(lengths)
    word = "0123456789abcdefghijklmnopqrstuvwxyz0123"
    code, out, err = run_cli(capsys, "chain", "--word", word, "--q", "40", "-t", "3")
    assert (code, out) == (2, "")
    assert err == "delball: no text form for alphabet size 40 > 36\n"
