"""Built-in verification suites behind ``delball selftest``.

Every contract the library advertises is re-checked here against the
exact DP / enumeration oracles: monotonicity of the word operations,
the run-peeling identities, agreement of the balanced recursion, closed
form and DP, the bound sandwich, and the balancing-chain contract.
``SUITES`` lists each suite once, with its arguments at both scales.  The
``small`` scale finishes in well under a minute; ``full`` runs the same
suites at acceptance scale and adds the split DP and the large
bound-comparison sweep.  Each suite's PASS/FAIL line ends with its time.
"""

import os
import random
import time
from collections import namedtuple

from .balanced import BalancedBallCalculator
from .bounds import calabi_hartnett_max, sweep_reports
from .exact import _split_plan, ball_size, ball_size_all
from .ops import apply_permutation, balance_step, balancing_chain, cyclicize, insert_symbol, reduce_to_binary
from .oracles import enumerate_ball
from .split import _ball_sizes, split_count
from .words import (
    RunProfile,
    Word,
    balanced_tail_word,
    canonical_profile,
    cyclic_word,
    encode_runs,
    parse_word,
)

GOLDEN_CHAIN_ROWS: list[tuple[str, int]] = [
    ("000000011022200000333333", 326),
    ("000000011233300000111111", 378),
    ("000000011233330000111111", 394),
    ("000000111200001111222222", 434),
    ("000001111200001111222222", 465),
    ("000001112200001111222222", 557),
    ("000011112200001111222222", 579),
    ("000011122200001111222222", 615),
    ("000011122200001111122222", 625),
    ("000011122220000111122222", 646),
    ("000011112222000011112222", 666),
]
GOLDEN_CHAIN_DELETIONS = 7


class CheckResult(namedtuple("CheckResult", "name violations detail seconds", defaults=("", 0.0))):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.violations


def random_word(rng: random.Random, max_n: int = 12, max_q: int = 4, min_n: int = 1) -> Word:
    q = rng.randint(2, max_q)
    n = rng.randint(min_n, max_n)
    return Word(tuple(rng.randrange(q) for _ in range(n)), q)


def random_lengths(rng: random.Random, max_r: int = 8, max_len: int = 4) -> tuple[int, ...]:
    r = rng.randint(1, max_r)
    return tuple(rng.randint(1, max_len) for _ in range(r))


def random_run_word(rng: random.Random, lengths: tuple[int, ...], q: int) -> Word:
    """Word with the given run lengths and random (adjacent-distinct) symbols."""
    symbols = [rng.randrange(q)]
    for _ in range(len(lengths) - 1):
        s = rng.randrange(q)
        while s == symbols[-1]:
            s = rng.randrange(q)
        symbols.append(s)
    return RunProfile(lengths, tuple(symbols), q).to_word()


def check_golden_chain_vectors() -> CheckResult:
    """The eleven published balancing-chain rows at t = 7, exact integer match."""
    violations = []
    for text, want in GOLDEN_CHAIN_ROWS:
        word = parse_word(text)
        got = ball_size(word, GOLDEN_CHAIN_DELETIONS)
        if got != want:
            violations.append(f"{text}: ball={got}, expected {want}")
    return CheckResult("golden-chain-vectors", violations, f"{len(GOLDEN_CHAIN_ROWS)} rows")


def check_named_balanced_value() -> CheckResult:
    """ball(6 runs of 4, t=7, q=3) = 666 by both routes."""
    violations = []
    for name, got in (
        ("recursive", BalancedBallCalculator(4, 3).ball_recursive(6, 7)),
        ("closed", BalancedBallCalculator(4, 3).ball_closed(6, 7)),
    ):
        if got != 666:
            violations.append(f"{name} route gave {got}, expected 666")
    return CheckResult("named-balanced-value", violations)


def check_triple_agreement(qs=(2, 3, 4, 5), rs=range(1, 9), ks=range(1, 5)) -> CheckResult:
    """Recursion == closed form == DP for balanced words and their tails."""
    violations = []
    points = 0
    for q in qs:
        for k in ks:
            calc = BalancedBallCalculator(k, q)
            for r in rs:
                full = ball_size_all(canonical_profile((k,) * r, q))
                tail_word = balanced_tail_word(r, k, q)
                tail = ball_size_all(tail_word)
                for t in range(0, r * k + 1):
                    points += 1
                    trio = (calc.ball_recursive(r, t), calc.ball_closed(r, t), full[t])
                    if len(set(trio)) != 1:
                        violations.append(f"ball q={q} r={r} k={k} t={t}: {trio}")
                    dp_tail = tail[t] if t <= len(tail_word) else 0
                    trio = (calc.tail_ball_recursive(r, t), calc.tail_ball_closed(r, t), dp_tail)
                    if len(set(trio)) != 1:
                        violations.append(f"tail q={q} r={r} k={k} t={t}: {trio}")
    return CheckResult("balanced-triple-agreement", violations, f"{points} grid points")


def check_oracle_equivalence(trials: int, seed: int, exhaustive_n: int = 0) -> CheckResult:
    """DP ball size equals the enumerated ball, randomly and (binary) exhaustively."""
    rng = random.Random(seed)
    violations = []
    pairs = 0
    for _ in range(trials):
        word = random_word(rng, max_n=10, max_q=4, min_n=0)
        t = rng.randint(-1, len(word) + 1)
        pairs += 1
        if ball_size(word, t) != len(enumerate_ball(word, t)):
            violations.append(f"{word.text()} t={t}")
    for n in range(0, exhaustive_n + 1):
        for bits in range(2**n):
            word = Word(tuple((bits >> i) & 1 for i in range(n)), 2)
            sizes = ball_size_all(word)
            for t in range(0, n + 1):
                pairs += 1
                if sizes[t] != len(enumerate_ball(word, t)):
                    violations.append(f"{word.text()} t={t}")
    return CheckResult("oracle-equivalence", violations, f"{pairs} (word, t) pairs")


def check_monotone_ops(trials: int, seed: int) -> CheckResult:
    """Insertion/cyclic never shrink the ball; reduction never grows it;
    permutations leave it unchanged; and the tiny-scale deletion chain rule."""
    rng = random.Random(seed)
    violations = []
    for _ in range(trials):
        word = random_word(rng)
        n, q = len(word), word.alphabet_size
        base = ball_size_all(word)

        grown = insert_symbol(word, rng.randint(0, n), rng.randrange(q))
        after = ball_size_all(grown)
        if any(base[t] > after[t] for t in range(n + 1)):
            violations.append(f"insertion shrank ball: {word.text()}")

        perm = list(range(q))
        rng.shuffle(perm)
        if ball_size_all(apply_permutation(word, perm)) != base:
            violations.append(f"permutation changed ball: {word.text()} perm={perm}")

        reduced = ball_size_all(reduce_to_binary(word))
        if any(reduced[t] > base[t] for t in range(n + 1)):
            violations.append(f"reduction grew ball: {word.text()}")

        cycled = ball_size_all(cyclicize(word))
        if any(cycled[t] < base[t] for t in range(n + 1)):
            violations.append(f"cyclic shrank ball: {word.text()}")

        if n <= 8:
            t = rng.randint(0, n)
            ball = enumerate_ball(word, t)
            if ball:
                inner = rng.choice(sorted(ball, key=lambda w: w.symbols))
                t2 = rng.randint(0, len(inner))
                outer = enumerate_ball(word, t + t2)
                if not enumerate_ball(inner, t2) <= outer:
                    violations.append(f"chain rule: {word.text()} t={t} t'={t2}")
    return CheckResult("monotone-operations", violations, f"{trials} trials")


def check_reversal(trials: int, seed: int) -> CheckResult:
    """Reversing a canonical run-length vector preserves every ball size."""
    rng = random.Random(seed)
    violations = []
    for _ in range(trials):
        q = rng.randint(2, 5)
        xs = random_lengths(rng)
        fwd = ball_size_all(canonical_profile(xs, q))
        rev = ball_size_all(canonical_profile(xs[::-1], q))
        if fwd != rev:
            violations.append(f"lengths={xs} q={q}")
    return CheckResult("canonical-reversal", violations, f"{trials} trials")


def _canonical_lengths_ball(xs: tuple[int, ...], q: int, t: int) -> int:
    """Ball size of the canonical word for xs, tolerating one trailing zero run."""
    if xs and xs[-1] == 0:
        xs = xs[:-1]
    return ball_size(canonical_profile(xs, q), t)


def check_run_removal_identity(trials: int, seed: int) -> CheckResult:
    """Last-run peeling: ball(xs) = ball(xs with last run shorter)
    + ball(xs minus last run, t - x_r) - ball(prefix correction)."""
    rng = random.Random(seed)
    violations = []
    for _ in range(trials):
        q = rng.randint(2, 5)
        xs = random_lengths(rng)
        r = len(xs)
        q1 = min(r, q)
        t1 = sum(xs[r - q1 :])
        for t in range(1, sum(xs) + 2):
            lhs = _canonical_lengths_ball(xs, q, t)
            shorter = _canonical_lengths_ball(xs[:-1] + (xs[-1] - 1,), q, t)
            dropped = _canonical_lengths_ball(xs[:-1], q, t - xs[-1])
            if r - q1 >= 1:
                corr = _canonical_lengths_ball(
                    xs[: r - q1 - 1] + (xs[r - q1 - 1] - 1,), q, t - t1
                )
            else:
                corr = 0
            if lhs != shorter + dropped - corr:
                violations.append(f"xs={xs} q={q} t={t}: {lhs} != {shorter}+{dropped}-{corr}")
    return CheckResult("run-removal-identity", violations, f"{trials} profiles")


def check_balanced_peel_identities(qs=(2, 3, 4, 5), ks=(1, 2, 3), rs=range(1, 8)) -> CheckResult:
    """Peeling identities among exact DP values of balanced words.

    For q >= r the ball of r balanced runs is a k+1-window sum over r-1
    runs (all t).  For q < r it splits through tail words; that split
    misses the empty subsequence, so it is asserted for t < rk and the
    t = rk ball is pinned to 1 separately.
    """
    violations = []

    def dp_ball(r: int, t: int, k: int, q: int) -> int:
        return ball_size(canonical_profile((k,) * r, q), t)

    def dp_tail(r: int, t: int, k: int, q: int) -> int:
        if r <= 0:
            return 0
        return ball_size(balanced_tail_word(r, k, q), t)

    for q in qs:
        for k in ks:
            for r in rs:
                for t in range(0, r * k + 1):
                    lhs = dp_ball(r, t, k, q)
                    if q >= r:
                        rhs = sum(dp_ball(r - 1, t - k + i, k, q) for i in range(k + 1))
                        if lhs != rhs:
                            violations.append(f"q>=r q={q} k={k} r={r} t={t}: {lhs} != {rhs}")
                    elif t < r * k:
                        rhs = dp_tail(r, t, k, q) + sum(
                            dp_tail(r - i, t - i * k, k, q) for i in range(1, q)
                        )
                        if lhs != rhs:
                            violations.append(f"q<r q={q} k={k} r={r} t={t}: {lhs} != {rhs}")
                    elif lhs != 1:
                        violations.append(f"q<r q={q} k={k} r={r} t=rk: ball {lhs} != 1")
    return CheckResult("balanced-peel-identities", violations)


def check_balance_step(trials: int, seed: int) -> CheckResult:
    """A balance step never shrinks the ball, in all four context shapes
    (bare pair, leading run, trailing run, both)."""
    rng = random.Random(seed)
    violations = []
    for trial in range(trials):
        q = rng.randint(2, 4)
        inner_len = rng.randint(0, 3)
        half = [rng.randint(1, 3) for _ in range(inner_len // 2)]
        inner = half + ([rng.randint(1, 3)] if inner_len % 2 else []) + half[::-1]
        shorter = rng.randint(1, 2)
        longer = shorter + rng.randint(2, 3)
        pair = [longer, shorter] if rng.random() < 0.5 else [shorter, longer]
        shape = trial % 4
        lead = [rng.randint(1, 3)] if shape in (1, 3) else []
        trail = [rng.randint(1, 3)] if shape in (2, 3) else []
        xs = tuple(lead + [pair[0]] + inner + [pair[1]] + trail)
        p = len(lead) + 1
        s = p + len(inner) + 1
        profile = canonical_profile(xs, q)
        stepped = balance_step(profile, p, s)
        before = ball_size_all(profile)
        after = ball_size_all(stepped)
        if any(b > a for b, a in zip(before, after)):
            violations.append(f"xs={xs} q={q} p={p} s={s}")
    return CheckResult("balance-step-monotone", violations, f"{trials} trials")


def check_chain_contract(trials: int, seed: int, max_n: int = 24) -> CheckResult:
    """Chains are ball-monotone, strictly sum-of-squares decreasing, and end
    at the balanced value given by the recursion."""
    rng = random.Random(seed)
    violations = []
    for _ in range(trials):
        q = rng.randint(2, 4)
        r = rng.randint(1, 6)
        k = rng.randint(1, max(1, max_n // r))
        n = r * k
        cuts = sorted(rng.sample(range(1, n), r - 1)) if r > 1 else []
        xs = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
        word = random_run_word(rng, xs, q)
        t = rng.randint(0, n)
        chain = balancing_chain(word, t)
        sizes = [step.ball_size for step in chain]
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            violations.append(f"ball not monotone: {word.text()} t={t} {sizes}")
        squares = [step.sum_of_squares for step in chain]
        if any(a <= b for a, b in zip(squares[1:], squares[2:])):
            violations.append(f"sum of squares not strictly decreasing: {word.text()} {squares}")
        if set(chain[-1].profile.lengths) != {k}:
            violations.append(f"chain did not balance: {word.text()}")
        expected = BalancedBallCalculator(k, q).ball_recursive(r, t)
        if chain[-1].ball_size != expected:
            violations.append(f"endpoint {chain[-1].ball_size} != recursion {expected}")
    return CheckResult("balancing-chain-contract", violations, f"{trials} chains")


def check_chain_states(trials: int, seed: int, max_r: int = 8, max_k: int = 4) -> CheckResult:
    """The ball sizes of a sequence of profiles from reused DP states
    (``_ball_sizes``, behind ``balancing_chain``) equal one ``ball_size`` per
    profile: on the balancing chains of seeded words, r dividing n or not, and
    on random walks that move one unit between two runs and now and then
    relabel the runs."""
    rng = random.Random(seed)
    violations = []
    checked = 0
    for _ in range(trials):
        q = rng.randint(2, 4)
        r = rng.randint(1, max_r)
        n = rng.randint(r, r * max_k)
        cuts = sorted(rng.sample(range(1, n), r - 1)) if r > 1 else []
        start = encode_runs(random_run_word(rng, tuple(b - a for a, b in zip([0] + cuts, cuts + [n])), q))
        t = rng.randint(0, n)
        chain = balancing_chain(start, t)
        walk = [start]
        for _ in range(2 * r):
            lengths, symbols = list(walk[-1].lengths), walk[-1].symbols
            j, k = rng.randrange(r), rng.randrange(r)
            if rng.random() < 0.1:
                symbols = encode_runs(random_run_word(rng, walk[-1].lengths, q)).symbols
            elif j != k and lengths[j] > 1:
                lengths[j] -= 1
                lengths[k] += 1
            walk.append(RunProfile(lengths, symbols, q))
        for name, profiles, sizes in (
            ("chain", [step.profile for step in chain], [step.ball_size for step in chain]),
            ("walk", walk, _ball_sizes(walk, t)),
        ):
            checked += len(profiles)
            expected = [ball_size(profile, t) for profile in profiles]
            if sizes != expected:
                violations.append(f"{name} from {start.text()} q={q} t={t}: {sizes} != {expected}")
    return CheckResult("chain-states", violations, f"{checked} profiles")


def check_sandwich(trials: int, seed: int) -> CheckResult:
    """Every lower bound <= exact <= every upper bound, for all t of each word."""
    rng = random.Random(seed)
    violations = []
    for _ in range(trials):
        word = random_word(rng)
        n, q = len(word), word.alphabet_size
        r = encode_runs(word).run_count
        exact = ball_size_all(word)
        for rep in sweep_reports(q, n, r, range(n + 1)):
            e = exact[rep.t]
            for label, ok in (
                ("lev", rep.lev_lower <= e <= rep.lev_upper),
                ("hr", rep.hr_lower <= e <= rep.hr_upper),
                ("new", rep.new_lower <= e <= rep.new_upper),
                ("ch", e <= rep.ch_upper),
                ("lev<=hr lower", rep.lev_lower <= rep.hr_lower),
            ):
                if not ok:
                    violations.append(f"{label}: {word.text()} q={q} t={rep.t}")
    return CheckResult("bound-sandwich", violations, f"{trials} words, all t")


def check_cyclic_maximum(max_n: int = 12, qs=(2, 3, 4)) -> CheckResult:
    """The alphabet-cycling word attains calabi_hartnett_max at every (n, t)."""
    violations = []
    for q in qs:
        for n in range(0, max_n + 1):
            sizes = ball_size_all(cyclic_word(n, q))
            for t in range(0, n + 1):
                if sizes[t] != calabi_hartnett_max(q, n, t):
                    violations.append(f"q={q} n={n} t={t}")
    return CheckResult("cyclic-word-maximum", violations)


def check_dp_split(trials: int, seed: int, max_n: int = 300) -> CheckResult:
    """The count split into a prefix DP and a reversed-suffix DP equals the
    plain DP row, at the cut ``ball_size`` picks and at a random cut; one t
    per word also runs the suffix in a forked child where fork exists."""
    rng = random.Random(seed)
    violations = []
    checked = 0
    for trial in range(trials):
        q = (2, 3, 4, 8)[trial % 4]
        n = rng.randint(0, max_n)
        profile = encode_runs(Word(tuple(rng.randrange(q) for _ in range(n)), q))
        sizes = ball_size_all(profile)
        for t in {0, n, n // 2, *(rng.randint(0, n) for _ in range(5))}:
            for cut in (_split_plan(profile, n - t)[1], rng.randint(0, profile.run_count)):
                checked += 1
                got = split_count(profile, n - t, cut)
                if got != sizes[t]:
                    violations.append(f"q={q} n={n} t={t} cut={cut}: {got} != {sizes[t]}")
        if hasattr(os, "fork"):
            checked += 1
            t, cut = n // 2, profile.run_count // 2
            got = split_count(profile, n - t, cut, fork=True)
            if got != sizes[t]:
                violations.append(f"forked q={q} n={n} t={t} cut={cut}: {got} != {sizes[t]}")
    return CheckResult("dp-split", violations, f"{checked} (word, t, cut) triples")


def check_bound_comparison_ordering(q: int = 3, n: int = 120, r: int = 24) -> CheckResult:
    """At the large comparison point the balanced bound never exceeds the others."""
    reports = sweep_reports(q, n, r, list(range(1, n)))
    violations = [
        f"t={rep.t}: new={rep.new_upper} lev={rep.lev_upper} hr={rep.hr_upper}"
        for rep in reports
        if rep.new_upper > rep.lev_upper or rep.new_upper > rep.hr_upper
    ]
    return CheckResult("bound-comparison-ordering", violations, f"q={q} n={n} r={r}")


# One row per suite, in the order ``run`` prints them: the check, its
# keyword arguments at the small scale (None: the suite runs only at full
# scale) and at the full scale.
SUITES = (
    (check_golden_chain_vectors, {}, {}),
    (check_named_balanced_value, {}, {}),
    (check_triple_agreement, dict(qs=(2, 3), rs=range(1, 6), ks=(1, 2, 3)), {}),
    (
        check_oracle_equivalence,
        dict(trials=120, seed=101, exhaustive_n=6),
        dict(trials=1000, seed=101, exhaustive_n=8),
    ),
    (check_monotone_ops, dict(trials=60, seed=102), dict(trials=300, seed=102)),
    (check_reversal, dict(trials=60, seed=103), dict(trials=300, seed=103)),
    (check_run_removal_identity, dict(trials=60, seed=104), dict(trials=300, seed=104)),
    (check_balanced_peel_identities, dict(qs=(2, 3), ks=(1, 2), rs=range(1, 6)), {}),
    (check_balance_step, dict(trials=60, seed=105), dict(trials=300, seed=105)),
    (check_chain_contract, dict(trials=25, seed=106, max_n=18), dict(trials=100, seed=106)),
    (check_chain_states, dict(trials=20, seed=109), dict(trials=12, seed=109, max_r=24, max_k=20)),
    (check_sandwich, dict(trials=60, seed=107), dict(trials=300, seed=107)),
    (check_cyclic_maximum, dict(max_n=9, qs=(2, 3)), {}),
    (check_dp_split, None, dict(trials=40, seed=108)),
    (check_bound_comparison_ordering, None, {}),
)


def suites_for_scale(scale: str) -> list[CheckResult]:
    """Every suite of ``scale``, each result carrying its time, computed
    before any is printed."""
    if scale not in ("small", "full"):
        raise ValueError(f"unknown scale {scale!r}")
    results = []
    for check, small, full in SUITES:
        kwargs = small if scale == "small" else full
        if kwargs is not None:
            started = time.perf_counter()
            result = check(**kwargs)
            results.append(result._replace(seconds=time.perf_counter() - started))
    return results


def run(scale: str = "small") -> int:
    """Run the suites, print one PASS/FAIL line each, return a process exit code."""
    failures = 0
    started = time.perf_counter()
    for result in suites_for_scale(scale):
        tag = "PASS" if result.passed else "FAIL"
        if not result.passed:
            failures += 1
        detail = f" ({result.detail})" if result.detail else ""
        print(f"{tag}  {result.name}{detail}  {result.seconds:.2f}s")
        for line in result.violations[:5]:
            print(f"      {line}")
        if len(result.violations) > 5:
            print(f"      ... {len(result.violations) - 5} more")
    print(f"{'OK' if not failures else 'FAILED'}: scale={scale}, {time.perf_counter() - started:.1f}s")
    return 0 if failures == 0 else 1
