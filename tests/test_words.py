import random

import pytest

from delball.words import (
    RunProfile,
    Word,
    balanced_tail_word,
    balanced_word,
    canonical_word,
    cyclic_word,
    encode_runs,
    parse_run_profile,
    parse_word,
    unbalanced_binary_word,
)


def test_encode_runs_examples():
    assert encode_runs(parse_word("011222", 3)) == RunProfile((1, 2, 3), (0, 1, 2), 3)
    assert encode_runs(parse_word("0000", 2)) == RunProfile((4,), (0,), 2)
    assert encode_runs(parse_word("0101", 2)) == RunProfile((1, 1, 1, 1), (0, 1, 0, 1), 2)
    assert encode_runs(Word((), 2)) == RunProfile((), (), 2)


def test_run_round_trip_random():
    rng = random.Random(4)
    for _ in range(200):
        q = rng.randint(1, 5)
        word = Word(tuple(rng.randrange(q) for _ in range(rng.randint(0, 15))), q)
        profile = encode_runs(word)
        assert profile.to_word() == word
        assert encode_runs(profile.to_word()) == profile


def test_word_validation():
    with pytest.raises(ValueError):
        Word((0, 3), 3)
    with pytest.raises(ValueError):
        Word((-1,), 2)
    with pytest.raises(ValueError):
        Word((), 0)


def test_profile_validation():
    with pytest.raises(ValueError):
        RunProfile((1, 1), (0, 0), 2)  # adjacent runs share a symbol
    with pytest.raises(ValueError):
        RunProfile((0,), (0,), 2)
    with pytest.raises(ValueError):
        RunProfile((1, 1), (0,), 2)
    with pytest.raises(ValueError):
        RunProfile((1,), (2,), 2)


def test_canonical_word_examples():
    assert canonical_word((4,) * 6, 3).text() == "000011112222000011112222"
    assert canonical_word((5,), 3).text() == "00000"
    assert canonical_word((2, 2), 4).text() == "0011"


def test_canonical_word_rejects_bad_input():
    with pytest.raises(ValueError):
        canonical_word((2, 2), 1)
    with pytest.raises(ValueError):
        canonical_word((2, 0), 3)


def test_canonical_word_run_count():
    rng = random.Random(11)
    for _ in range(100):
        q = rng.randint(2, 6)
        lengths = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 9)))
        assert encode_runs(canonical_word(lengths, q)).lengths == lengths


def test_balanced_words():
    assert balanced_tail_word(4, 2, 3).text() == "0112200"
    assert balanced_word(1, 5, 3).text() == "00000"
    assert balanced_word(6, 4, 3).text() == "000011112222000011112222"
    assert len(balanced_word(5, 3, 2)) == 15
    assert len(balanced_tail_word(5, 3, 2)) == 14
    with pytest.raises(ValueError):
        balanced_word(0, 2, 3)
    with pytest.raises(ValueError):
        balanced_word(2, 0, 3)


def test_balanced_tail_word_unit_runs():
    # k = 1 drops the whole first run
    assert balanced_tail_word(3, 1, 2).text() == "10"


def test_unbalanced_binary_word():
    assert unbalanced_binary_word(6, 4).text() == "010111"
    assert unbalanced_binary_word(5, 1).text() == "00000"
    assert unbalanced_binary_word(4, 4).text() == "0101"
    with pytest.raises(ValueError):
        unbalanced_binary_word(4, 5)
    with pytest.raises(ValueError):
        unbalanced_binary_word(4, 0)


def test_cyclic_word():
    assert cyclic_word(6, 3).text() == "012012"
    assert cyclic_word(0, 2).text() == ""
    assert cyclic_word(3, 1).text() == "000"


def test_word_text_round_trip():
    rng = random.Random(17)
    for _ in range(100):
        q = rng.randint(1, 36)
        word = Word(tuple(rng.randrange(q) for _ in range(rng.randint(0, 10))), q)
        assert parse_word(word.text(), q) == word


def test_word_text_rejects_big_alphabets():
    with pytest.raises(ValueError):
        Word((36,), 37).text()


def test_parse_word_inference_and_errors():
    assert parse_word("011222").alphabet_size == 3
    assert parse_word("").alphabet_size == 1
    with pytest.raises(ValueError):
        parse_word("01!", 2)
    with pytest.raises(ValueError):
        parse_word("012", 2)  # symbol 2 outside the declared alphabet


def test_run_profile_text_round_trip():
    profile = parse_run_profile("1,2,3;0,1,2")
    assert profile == RunProfile((1, 2, 3), (0, 1, 2), 3)
    assert profile.text() == "1,2,3;0,1,2"
    assert parse_run_profile(profile.text(), 3) == profile
    assert parse_run_profile(";").run_count == 0
    with pytest.raises(ValueError):
        parse_run_profile("1,2,3")
    with pytest.raises(ValueError):
        parse_run_profile("1,x;0,1")


def _message(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def test_word_value_contract():
    word = Word(symbols=[0, 1, 1], alphabet_size=2)
    assert word == Word((0, 1, 1), 2)
    assert word.symbols == (0, 1, 1) and type(word.symbols) is tuple
    assert word.alphabet_size == 2 and len(word) == 3
    assert repr(word) == "Word(symbols=(0, 1, 1), alphabet_size=2)"
    assert hash(word) == hash(Word((0, 1, 1), 2))
    assert word != Word((0, 1, 1), 3)
    assert {word, Word((0, 1, 1), 2), Word((1,), 2)} == {word, Word((1,), 2)}
    with pytest.raises(AttributeError):
        word.symbols = (1,)
    with pytest.raises(AttributeError):
        word.extra = 1
    assert _message(lambda: Word((), 0)) == "alphabet size must be at least 1"
    assert _message(lambda: Word((0, 3), 3)) == "symbol 3 outside [0, 3)"
    assert _message(lambda: Word((-1,), 2)) == "symbol -1 outside [0, 2)"


def test_run_profile_value_contract():
    profile = RunProfile(lengths=[1, 2], symbols=[0, 1], alphabet_size=2)
    assert profile == RunProfile((1, 2), (0, 1), 2)
    assert type(profile.lengths) is tuple and type(profile.symbols) is tuple
    assert profile.alphabet_size == 2 and profile.run_count == 2 and profile.total_length == 3
    assert len(profile) == 3 == len(profile.to_word())  # symbols, not tuple fields
    assert repr(profile) == "RunProfile(lengths=(1, 2), symbols=(0, 1), alphabet_size=2)"
    assert hash(profile) == hash(RunProfile((1, 2), (0, 1), 2))
    assert profile != RunProfile((2, 1), (0, 1), 2)
    assert len({profile, RunProfile((1, 2), (0, 1), 2)}) == 1
    with pytest.raises(AttributeError):
        profile.lengths = (3,)
    with pytest.raises(AttributeError):
        profile.extra = 1
    assert _message(lambda: RunProfile((), (), 0)) == "alphabet size must be at least 1"
    assert _message(lambda: RunProfile((1, 1), (0,), 2)) == "lengths and symbols must have equal count"
    assert _message(lambda: RunProfile((0,), (0,), 2)) == "run length 0 is not positive"
    assert _message(lambda: RunProfile((1,), (2,), 2)) == "run symbol 2 outside [0, 2)"
    assert _message(lambda: RunProfile((1, 1), (0, 0), 2)) == "adjacent runs carry the same symbol"
