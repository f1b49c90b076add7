import hashlib
import json
import os
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import delball
from delball import cli
from delball.bounds import calabi_hartnett_max
from delball.cli import main
from delball.exact import ball_size, canonical_ball_size
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
    for method in ("auto", "dp", "enumerate", "canonical"):
        code, out, _ = run_cli(
            capsys, "count", "--word", "011222", "--q", "3", "-t", "2", "--method", method
        )
        assert code == 0
        assert out.strip() == str(ball_size(parse_word("011222"), 2))


def test_count_t_outside_range_exit_2(capsys):
    for source in (("--word", "012"), ("--runs", "1,1,1;0,1,2")):
        for t in (-1, 4, 5):
            code, out, err = run_cli(capsys, "count", *source, "-t", str(t))
            assert (code, out) == (2, "")
            assert err == f"delball: t={t} outside [0, n=3]\n"
        for t, want in ((0, "1"), (3, "1"), (1, "3")):
            assert run_cli(capsys, "count", *source, "-t", str(t))[:2] == (0, want + "\n")
    code, _, err = run_cli(capsys, "count", "--word", "0101", "-t", "9", "--method", "enumerate")
    assert (code, err) == (2, "delball: t=9 outside [0, n=4]\n")


def test_count_parse_failure_exit_2(capsys):
    code, _, err = run_cli(capsys, "count", "--word", "01!", "-t", "1")
    assert code == 2
    assert "symbol" in err


def test_count_budget_exhausted_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("DELBALL_ENUM_BUDGET", "10")
    code, _, err = run_cli(
        capsys, "count", "--word", "0101010101", "-t", "5", "--method", "enumerate"
    )
    assert code == 3
    assert "budget" in err

    for bad in ("abc", "0"):
        monkeypatch.setenv("DELBALL_ENUM_BUDGET", bad)
        code, out, err = run_cli(
            capsys, "count", "--word", "0101", "-t", "1", "--method", "enumerate"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("delball: DELBALL_ENUM_BUDGET") and err.count("\n") == 1


def test_count_canonical_method(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--word", "000000011233300000111111", "--q", "4", "-t", "7",
        "--method", "canonical",
    )
    assert code == 0
    assert out.strip() == str(canonical_ball_size((7, 2, 1, 3, 5, 6), 4, 7))

    code, _, err = run_cli(
        capsys, "count", "--word", "010", "--q", "3", "-t", "1", "--method", "canonical"
    )
    assert code == 2
    assert "canonical" in err


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


def test_count_canonical_at_3000_runs(capsys):
    # The canonical peel once recursed once per run and overflowed the stack.
    lengths = [1 + i % 2 for i in range(3000)]
    runs = ",".join(map(str, lengths)) + ";" + ",".join(str(i % 3) for i in range(3000))
    answers = []
    for method in ("canonical", "dp"):
        code, out, err = run_cli(capsys, "count", "--runs", runs, "--q", "3", "-t", "2", "--method", method)
        assert (code, err) == (0, "")
        answers.append(out)
    assert answers[0] == answers[1]
    assert int(answers[0]) > 3000


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
    code, out, _ = run_cli(
        capsys, "chain", "--word", "000000011022200000333333", "--q", "4", "-t", "7"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split()[:4] == ["i", "word", "runs", "sum_sq"]
    first = lines[1].split()
    assert first[0] == "0" and first[-1] == "326"
    balls = [int(line.split()[-1]) for line in lines[1:]]
    assert balls == sorted(balls)
    assert lines[-1].split()[1] == "000011112222333300001111"


def test_chain_rejects_indivisible_runs(capsys):
    code, _, err = run_cli(capsys, "chain", "--word", "00100", "-t", "1")
    assert code == 2
    assert "does not divide" in err
    assert "bounds" in err


def test_selftest_small(capsys):
    code, out, _ = run_cli(capsys, "selftest", "small")
    assert code == 0
    assert "PASS  golden-chain-vectors" in out
    assert "FAIL" not in out


def test_cli_import_footprint():
    # A command-line launch should not load the oracles, the test suites or
    # dataclasses (which pulls in inspect, ast and dis) before it needs them.
    src = str(Path(delball.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import sys, delball.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'delball.balanced', 'delball.selftest') "
        "if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""

    # Layer entry points that callers patch on the cli module.
    for name in (
        "parse_word", "parse_run_profile", "encode_runs", "ball_size", "sweep_reports", "balancing_chain",
    ):
        assert callable(getattr(cli, name))


def test_oracles_import_without_dataclasses():
    # The value classes of the oracles and the suites are named tuples too.
    src = str(Path(delball.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import sys, delball.balanced, delball.selftest; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_package_exports_resolve_to_submodule_objects():
    namespace = {}
    exec("from delball import *", namespace)
    assert sorted(delball.__all__) == delball.__all__ and len(delball.__all__) == 44
    for name in delball.__all__:
        value = namespace[name]
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("delball.")
        assert getattr(module, name) is value is getattr(delball, name)
    assert delball.bounds is sys.modules["delball.bounds"]


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
            refused = launch(
                "count", "--word", "0101010101", "-t", "5", "--method", "enumerate", budget=10, **how
            )
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


def test_count_canonical_unary_alphabet_exit_2():
    result = launch("count", "--word", "000", "--q", "1", "-t", "1", "--method", "canonical")
    assert result.stdout == ""
    assert_one_line(result, 2, "canonical words need an alphabet of at least 2")


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
def test_argparse_exits_follow_the_exit_code_table(unbuffered):
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
