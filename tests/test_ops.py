import random

import pytest

from delball.exact import ball_size, ball_size_all, enumerate_ball
from delball.ops import (
    ChainStep,
    apply_permutation,
    balance_step,
    balancing_chain,
    cyclicize,
    insert_symbol,
    reduce_to_binary,
)
from delball.words import RunProfile, Word, canonical_profile, encode_runs, parse_word


def test_insert_symbol():
    assert insert_symbol(parse_word("01"), 1, 0).text() == "001"
    assert insert_symbol(Word((), 3), 0, 2).text() == "2"
    assert insert_symbol(parse_word("0011", 3), 2, 2).text() == "00211"
    with pytest.raises(ValueError):
        insert_symbol(parse_word("01"), 3, 0)
    with pytest.raises(ValueError):
        insert_symbol(parse_word("01"), 0, 2)


def test_apply_permutation():
    assert apply_permutation(parse_word("0102"), (1, 0, 2)).text() == "1012"
    word = parse_word("0123", 4)
    assert apply_permutation(word, (0, 1, 2, 3)) == word
    assert apply_permutation(parse_word("012"), (1, 2, 0)).text() == "120"
    with pytest.raises(ValueError):
        apply_permutation(parse_word("01"), (0, 0))
    with pytest.raises(ValueError):
        apply_permutation(parse_word("01"), (0, 1, 2))


def test_reduce_to_binary():
    assert reduce_to_binary(parse_word("011222")).text() == "011000"
    assert reduce_to_binary(parse_word("0101")).text() == "0101"
    reduced = reduce_to_binary(parse_word("000000011022200000333333"))
    profile = encode_runs(reduced)
    assert profile.lengths == (7, 2, 1, 3, 5, 6)
    assert profile.symbols == (0, 1, 0, 1, 0, 1)
    assert reduced.alphabet_size == 2
    assert reduce_to_binary(Word((), 5)).alphabet_size == 2


def test_reduce_monotone_contract():
    rng = random.Random(21)
    for _ in range(50):
        q = rng.randint(2, 4)
        word = Word(tuple(rng.randrange(q) for _ in range(rng.randint(1, 10))), q)
        reduced = ball_size_all(reduce_to_binary(word))
        base = ball_size_all(word)
        assert all(rv <= bv for rv, bv in zip(reduced, base))


def test_cyclicize():
    word = RunProfile((7, 2, 1, 3, 5, 6), (0, 1, 0, 2, 0, 3), 4).to_word()
    assert cyclicize(word).text() == "000000011233300000111111"
    assert cyclicize(parse_word("000", 2)).text() == "000"
    assert cyclicize(parse_word("0101")).text() == "0101"
    assert cyclicize(Word((), 3)) == Word((), 3)


def test_cyclicize_monotone_contract():
    rng = random.Random(22)
    for _ in range(50):
        q = rng.randint(2, 4)
        word = Word(tuple(rng.randrange(q) for _ in range(rng.randint(1, 10))), q)
        cycled = ball_size_all(cyclicize(word))
        base = ball_size_all(word)
        assert all(cv >= bv for cv, bv in zip(cycled, base))


def test_balance_step_examples():
    profile = canonical_profile((7, 2, 1, 3, 5, 6), 4)
    assert balance_step(profile, 4, 5).lengths == (7, 2, 1, 4, 4, 6)
    profile = canonical_profile((7, 2, 1, 4, 4, 6), 4)
    assert balance_step(profile, 1, 2).lengths == (6, 3, 1, 4, 4, 6)
    profile = canonical_profile((3, 1), 2)
    assert balance_step(profile, 1, 2).lengths == (2, 2)


def test_balance_step_preconditions():
    profile = canonical_profile((3, 2, 5), 3)
    with pytest.raises(ValueError):
        balance_step(profile, 2, 2)
    with pytest.raises(ValueError):
        balance_step(profile, 0, 1)
    with pytest.raises(ValueError):
        balance_step(profile, 1, 2)  # lengths differ by only one
    asym = canonical_profile((5, 1, 2, 1), 4)
    with pytest.raises(ValueError):
        balance_step(asym, 1, 4)  # inner segment (1, 2) not symmetric


def test_balancing_chain_table_word():
    word = parse_word("000000011022200000333333")
    chain = balancing_chain(word, 7)
    assert chain[0].ball_size == 326
    assert chain[1].profile.to_word().text() == "000000011233300000111111"
    assert chain[1].ball_size == 378
    sizes = [step.ball_size for step in chain]
    assert sizes == sorted(sizes)
    squares = [step.sum_of_squares for step in chain]
    assert all(a > b for a, b in zip(squares[1:], squares[2:]))
    assert chain[-1].profile.lengths == (4,) * 6
    assert chain[-1].ball_size == 666
    assert [step.index for step in chain] == list(range(len(chain)))


def test_balancing_chain_already_balanced():
    chain = balancing_chain(parse_word("00110011"), 2)
    assert len(chain) == 2
    assert chain[0].profile.lengths == chain[1].profile.lengths == (2, 2, 2, 2)

    chain = balancing_chain(parse_word("0011"), 1)
    assert [step.ball_size for step in chain] == [2, 2]
    assert len(enumerate_ball(parse_word("0011"), 1)) == 2

    chain = balancing_chain(parse_word("000111222"), 3)
    assert len(chain) == 2
    assert chain[-1].ball_size == ball_size(parse_word("000111222"), 3)


def test_balancing_chain_errors():
    with pytest.raises(ValueError):
        balancing_chain(parse_word("00100", 2), 1)  # 3 runs, length 5
    with pytest.raises(ValueError):
        balancing_chain(Word((), 2), 0)


def test_balancing_chain_single_symbol_alphabet():
    chain = balancing_chain(Word((0, 0, 0), 1), 1)
    assert [step.ball_size for step in chain] == [1, 1]


def test_chain_step_value_contract():
    profile = RunProfile((1, 1), (0, 1), 2)
    step = ChainStep(index=3, profile=profile, ball_size=2, sum_of_squares=2)
    assert step == ChainStep(3, profile, 2, 2)
    assert step.index == 3  # the field, not a method
    assert (step.profile, step.ball_size, step.sum_of_squares) == (profile, 2, 2)
    assert repr(step) == (
        "ChainStep(index=3, profile=RunProfile(lengths=(1, 1), symbols=(0, 1), "
        "alphabet_size=2), ball_size=2, sum_of_squares=2)"
    )
    assert hash(step) == hash(ChainStep(3, profile, 2, 2))
    assert step != ChainStep(4, profile, 2, 2)
    assert len({step, ChainStep(3, profile, 2, 2), ChainStep(4, profile, 2, 2)}) == 2
    with pytest.raises(AttributeError):
        step.index = 0
    with pytest.raises(AttributeError):
        step.extra = 1
