from itertools import product

import pytest

from polyconduche.errors import (
    BadOccurrence,
    LexError,
    NotComposite,
    NotWellParenthesized,
)
from polyconduche.words import (
    LPAREN,
    RPAREN,
    InsideLeft,
    InsideRight,
    Whole,
    Word,
    comp,
    gen,
    is_atom,
    is_well_parenthesized,
    paren_profile,
    parenthesized_subword_trichotomy,
    serialize,
    split_parenthesized,
    tokenize,
)

EH = "((c:a)*0(c:b))"


def test_tokenize_round_trip():
    word = tokenize(EH)
    assert serialize(word) == EH
    assert len(word) == 9


def test_tokenize_ignores_whitespace():
    assert tokenize(" ( (c:a) *0\n(c:b) ) ") == tokenize(EH)


def test_tokenize_identity_atom():
    word = tokenize("(i:id_star)")
    assert word[1].kind == "i"
    assert word[1].value == "id_star"


@pytest.mark.parametrize("bad", ["(c:a)*", "(q:a)", "(c:)", "c?", "*"])
def test_lex_errors_carry_positions(bad):
    with pytest.raises(LexError) as err:
        tokenize(bad)
    assert isinstance(err.value.position, int)


def test_paren_profile():
    assert paren_profile(tokenize(EH)).values == (1, 2, 2, 1, 1, 2, 2, 1, 0)


def test_well_parenthesized():
    assert is_well_parenthesized(tokenize(EH))
    assert is_well_parenthesized(tokenize("(c:a)"))
    assert not is_well_parenthesized(tokenize("(c:a)(c:b)"))
    assert not is_well_parenthesized(tokenize("((c:a)"))


def _well_parenthesized_by_profile(word):
    """Non-empty, profile never negative, and zero at the last token only."""
    values = paren_profile(word).values
    return 0 in values and min(values) >= 0 and values.index(0) == len(values) - 1


def test_well_parenthesized_matches_the_profile_on_every_short_word():
    alphabet = [LPAREN, RPAREN, gen("a"), comp(0)]
    accepted = 0
    for length in range(7):
        for tokens in product(alphabet, repeat=length):
            word = Word(tokens)
            expected = _well_parenthesized_by_profile(word)
            assert is_well_parenthesized(word) == expected, serialize(word)
            accepted += expected
    assert accepted > 4
    # The edge cases: a one-token word without parentheses is balanced, and
    # a word that returns to depth 0 before its last token is not.
    assert is_well_parenthesized(Word((gen("a"),)))
    assert not is_well_parenthesized(Word((gen("a"), gen("a"))))
    assert not is_well_parenthesized(Word((LPAREN, RPAREN, comp(0))))


def test_atoms():
    assert is_atom(tokenize("(c:a)"))
    assert is_atom(tokenize("(i:id_star)"))
    assert not is_atom(tokenize(EH))


def test_split():
    left, k, right = split_parenthesized(tokenize(EH))
    assert serialize(left) == "(c:a)"
    assert k == 0
    assert serialize(right) == "(c:b)"


def test_split_nested():
    left, k, right = split_parenthesized(tokenize("(((c:a)*1(c:b))*0(c:d))"))
    assert serialize(left) == "((c:a)*1(c:b))"
    assert k == 0
    assert serialize(right) == "(c:d)"


def test_split_rejects_atom():
    with pytest.raises(NotComposite):
        split_parenthesized(tokenize("(c:a)"))


@pytest.mark.parametrize("bad", ["((c:a)", "((c:a)(c:b))"])
def test_split_rejects_malformed(bad):
    with pytest.raises(NotWellParenthesized):
        split_parenthesized(tokenize(bad))


def test_trichotomy():
    word = tokenize(EH)
    assert isinstance(parenthesized_subword_trichotomy(word, (0, 9)), Whole)
    assert parenthesized_subword_trichotomy(word, (1, 4)) == InsideLeft(0)
    assert parenthesized_subword_trichotomy(word, (5, 8)) == InsideRight(0)


def test_trichotomy_rejects_unbalanced_span():
    word = tokenize(EH)
    with pytest.raises(BadOccurrence):
        parenthesized_subword_trichotomy(word, (3, 6))
    with pytest.raises(BadOccurrence):
        parenthesized_subword_trichotomy(word, (0, 12))
