import random

import pytest

from ramseylift import words
from ramseylift.errors import BudgetError, DomainError, WordError
from ramseylift.harness import random_word
from ramseylift.words import (
    Alphabet,
    compose,
    count_words,
    enumerate_words,
    identity,
    parse,
    variable_positions,
)

from util import brute_force_words

A0 = Alphabet(["0"])
A01 = Alphabet(["0", "1"])

U16_TEXT = "0 x1 0 0 x2 0 x1 x3 x3 x4 x2 x5 x6 0 x7 x1"


def test_alphabet_rejects_variable_shaped_letters():
    with pytest.raises(DomainError):
        Alphabet(["0", "x2"])
    with pytest.raises(DomainError):
        Alphabet(["0", "0"])


def test_validate_the_long_word():
    u = parse(U16_TEXT, A0, 7)
    assert (u.n, u.m) == (16, 7)


def test_validate_first_occurrence_violation():
    with pytest.raises(WordError) as err:
        parse("x2 x1", A0, 2)
    assert err.value.position == 1
    assert "x2" in str(err.value)


def test_validate_missing_variable():
    with pytest.raises(WordError) as err:
        parse("x1 0", A0, 2)
    assert "x2" in str(err.value)


def test_validate_variable_beyond_m():
    with pytest.raises(WordError) as err:
        parse("x1 x2", A0, 1)
    assert err.value.position == 2


def test_unknown_token():
    with pytest.raises(WordError):
        parse("x1 ?", A0)


def test_variable_positions_examples():
    u = parse(U16_TEXT, A0)
    assert variable_positions(u, 1) == {2, 7, 16}
    assert variable_positions(u, 4) == {10}
    assert variable_positions(parse("x1", A0), 1) == {1}
    with pytest.raises(DomainError):
        variable_positions(u, 8)


def test_compose_worked_example():
    u = parse(U16_TEXT, A0)
    h = parse("0 x1 x2 x3 x1 x4 x5", A0)
    assert compose(u, h).text() == "0 0 0 0 x1 0 0 x2 x2 x3 x1 x1 x4 0 x5 0"


def test_compose_identity_laws():
    u = parse(U16_TEXT, A0)
    assert compose(u, identity(A0, u.m)) == u
    assert compose(identity(A0, u.n), u) == u


def test_compose_merging_variables():
    u = parse("x1 0 x2", A0, 2)
    v = parse("x1 x1", A0, 1)
    out = compose(u, v)
    assert out.text() == "x1 0 x1"
    assert (out.n, out.m) == (3, 1)


def test_compose_mismatches():
    with pytest.raises(WordError):
        compose(parse("x1 x2", A0), parse("x1", A0))
    with pytest.raises(WordError):
        compose(parse("x1", A0), parse("x1", A01))


def test_identity_shape():
    assert identity(A0, 3).text() == "x1 x2 x3"
    assert identity(A0, 1).text() == "x1"
    with pytest.raises(DomainError):
        identity(A0, 0)


def test_enumerate_small_cases():
    assert [w.text() for w in enumerate_words(A0, 2, 1, 10)] == ["x1 x1", "x1 0", "0 x1"]
    assert [w.text() for w in enumerate_words(A0, 1, 1, 10)] == ["x1"]
    assert list(enumerate_words(A0, 1, 2, 10)) == []


def test_enumerate_budget():
    with pytest.raises(BudgetError) as err:
        list(enumerate_words(A0, 4, 1, 3))
    assert "at least 4" in str(err.value)


def test_enumerate_empty_stream_ignores_the_limit():
    assert list(enumerate_words(A0, 0, 0, 0)) == []
    assert list(enumerate_words(A0, 2, 3, 0)) == []


def test_enumerate_refuses_before_building_a_word(monkeypatch):
    """The budget compares the exact count with the limit, so a refusal
    builds no word, however long the words are."""
    built = []
    monkeypatch.setattr(words, "ParameterWord", lambda *args: built.append(args))
    with pytest.raises(BudgetError) as err:
        next(enumerate_words(A0, 3000, 1, 10_000))
    assert str(err.value) == (
        "enumeration of W^3000_1 exceeded limit 10000: at least 10001 words exist")
    assert built == []


def _recurrence_count(alphabet, n, m):
    """|W^n_m| by f(p, t) = f(p-1, t) (|A| + t) + f(p-1, t-1): a position
    reuses a letter or an introduced variable, or introduces the next one."""
    row = [1] + [0] * m
    for _ in range(n):
        row = [row[t] * (len(alphabet) + t) + (row[t - 1] if t else 0) for t in range(m + 1)]
    return row[m]


def _refuses(alphabet, n, m, limit):
    try:
        next(enumerate_words(alphabet, n, m, limit), None)
    except BudgetError:
        return True
    return False


def test_enumerate_refuses_exactly_when_the_count_passes_the_limit():
    """The lower bound that refuses long enumerations early refuses none
    that the exact count allows, also at its own bit-length edges."""
    for size in range(4):
        alphabet = Alphabet([str(j) for j in range(size)])
        for n in range(1, 10):
            for m in range(n + 1):
                count, bound = count_words(alphabet, n, m), (size + m) ** (n - m)
                limits = {0, 1, count - 1, count, count + 1, bound - 1, bound,
                          2 ** bound.bit_length() - 1, 2 ** bound.bit_length()}
                for limit in sorted(x for x in limits if x >= 0):
                    assert _refuses(alphabet, n, m, limit) == (count > limit), (size, n, m, limit)


def test_count_words_closed_form_matches_the_recurrence():
    for size in range(4):
        alphabet = Alphabet([str(j) for j in range(size)])
        for n in range(13):
            for m in range(9):
                assert count_words(alphabet, n, m) == _recurrence_count(alphabet, n, m)


@pytest.mark.parametrize("alphabet", [A0, A01])
@pytest.mark.parametrize("n", range(1, 5))
def test_enumeration_matches_brute_force(alphabet, n):
    for m in range(0, n + 1):
        enumerated = list(enumerate_words(alphabet, n, m, 100_000))
        brute = brute_force_words(alphabet, n, m)
        assert len(enumerated) == len(brute) == count_words(alphabet, n, m)
        assert set(w.symbols for w in enumerated) == set(w.symbols for w in brute)


def test_text_round_trip_random():
    rng = random.Random("words:roundtrip")
    for _ in range(200):
        alphabet = rng.choice([A0, A01])
        n = rng.randint(1, 12)
        m = rng.randint(0, n)
        w = random_word(rng, alphabet, n, m)
        assert parse(w.text(), alphabet, m) == w


def test_closure_random_pairs():
    rng = random.Random("words:closure")
    for _ in range(200):
        alphabet = rng.choice([A0, A01])
        n = rng.randint(1, 12)
        m = rng.randint(1, n)
        k = rng.randint(0, m)
        u = random_word(rng, alphabet, n, m)
        v = random_word(rng, alphabet, m, k)
        out = compose(u, v)  # re-validated inside
        assert (out.n, out.m) == (n, k)


def test_associativity_random_triples():
    rng = random.Random("words:assoc")
    for _ in range(200):
        alphabet = rng.choice([A0, A01])
        n = rng.randint(3, 12)
        m = rng.randint(2, n)
        k = rng.randint(1, m)
        l = rng.randint(0, k)
        u = random_word(rng, alphabet, n, m)
        v = random_word(rng, alphabet, m, k)
        w = random_word(rng, alphabet, k, l)
        assert compose(compose(u, v), w) == compose(u, compose(v, w))
