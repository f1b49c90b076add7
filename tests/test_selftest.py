import pytest

from delball import selftest


def test_check_result_passed():
    assert selftest.CheckResult("x", []).passed
    assert not selftest.CheckResult("x", ["bad"]).passed
    assert selftest.CheckResult("x", []).seconds == 0.0


def test_run_reports_failures_nonzero(monkeypatch, capsys):
    def fake_suites(scale):
        return [
            selftest.CheckResult("good", [], seconds=1.25),
            selftest.CheckResult("bad", ["seeded arithmetic bug"], "3 trials", 0.5),
        ]

    monkeypatch.setattr(selftest, "suites_for_scale", fake_suites)
    code = selftest.run("small")
    out = capsys.readouterr().out
    assert code == 1
    assert "PASS  good  1.25s\n" in out
    assert "FAIL  bad (3 trials)  0.50s\n" in out
    assert out.splitlines()[-1].startswith("FAILED: scale=small, ")
    assert "seeded arithmetic bug" in out


def test_suite_table_lists_each_check_once():
    # Read the table only; no suite runs.
    listed = sorted(check.__name__ for check, _, _ in selftest.SUITES)
    assert listed == sorted(name for name in dir(selftest) if name.startswith("check_"))
    full_only = [check for check, small, _ in selftest.SUITES if small is None]
    assert full_only == [selftest.check_dp_split, selftest.check_bound_comparison_ordering]
    assert all(full is not None for _, _, full in selftest.SUITES)


def test_unknown_scale_rejected():
    with pytest.raises(ValueError):
        selftest.suites_for_scale("huge")


def test_tiny_scale_checks_pass():
    assert selftest.check_golden_chain_vectors().passed
    assert selftest.check_named_balanced_value().passed
    assert selftest.check_oracle_equivalence(trials=20, seed=1, exhaustive_n=4).passed
    assert selftest.check_monotone_ops(trials=10, seed=2).passed
    assert selftest.check_reversal(trials=10, seed=3).passed
    assert selftest.check_run_removal_identity(trials=10, seed=4).passed
    assert selftest.check_balance_step(trials=10, seed=5).passed
    assert selftest.check_chain_contract(trials=5, seed=6, max_n=12).passed
    assert selftest.check_sandwich(trials=10, seed=7).passed
    assert selftest.check_cyclic_maximum(max_n=6, qs=(2,)).passed
    assert selftest.check_dp_split(trials=8, seed=8, max_n=40).passed
    assert selftest.check_chain_states(trials=8, seed=9).passed
    assert selftest.check_triple_agreement(qs=(2,), rs=range(1, 4), ks=(1, 2)).passed
    assert selftest.check_balanced_peel_identities(qs=(2, 3), ks=(1, 2), rs=range(1, 5)).passed
    assert selftest.check_bound_comparison_ordering().passed
