from random import Random

import pytest

from polyconduche.conduche import full_extension
from polyconduche.errors import BoundaryMismatch, NotWellFormed
from polyconduche.fixtures import (
    chain3_extension,
    eh_extension,
    idem_category,
    parallel_pair_category,
    path2_category,
)
from polyconduche.movements import apply_movement, enumerate_movements
from polyconduche.terms import (
    GENERATOR,
    _enumerate,
    _pair,
    all_atoms,
    check_term,
    compose_terms,
    enumerate_terms,
    evaluate,
    generator_multiset,
    random_term,
    restriction_extension,
    subterm_at,
    substitute,
)
from polyconduche.words import (
    GEN_KIND,
    LPAREN,
    RPAREN,
    Word,
    comp,
    gen,
    ident_of,
    serialize,
    tokenize,
)


def term(extension, text):
    return check_term(extension, tokenize(text))


def test_atom_shape():
    t = term(eh_extension(), "(c:a)")
    assert (t.src, t.tgt, t.size) == ("id_star", "id_star", 0)
    assert len(t.word) == 3


def test_composite_boundaries_and_size():
    ext = chain3_extension()
    t = term(ext, "(((c:a)*0(c:b))*0(c:d))")
    assert (t.src, t.tgt) == ("p0", "p3")
    assert t.size == 2
    assert len(t.word) == 6 * 2 + 3


def test_low_level_composition_boundaries():
    # below the top level the boundary composes in the base
    t = term(eh_extension(), "((c:a)*0(c:b))")
    assert (t.src, t.tgt) == ("id_star", "id_star")


def test_top_level_composition_swaps_boundaries():
    t = term(eh_extension(), "((c:a)*1(c:b))")
    assert t.src == "id_star"
    assert t.tgt == "id_star"


@pytest.mark.parametrize(
    "text,reason",
    [
        ("(c:zzz)", "UnknownGenerator"),
        ("(i:star)", "UnknownCell"),
        ("((c:a)*2(c:b))", "LevelOutOfRange"),
        ("((c:a)", "ShapeError"),
        ("(c:a)(c:b)", "ShapeError"),
    ],
)
def test_not_well_formed_reasons(text, reason):
    with pytest.raises(NotWellFormed) as err:
        term(eh_extension(), text)
    assert err.value.reason == reason


def test_boundary_mismatch_reports_level():
    with pytest.raises(NotWellFormed) as err:
        term(chain3_extension(), "((c:a)*0(c:a))")
    assert err.value.reason == "BoundaryMismatch"
    assert err.value.level == 0


def test_decompose():
    ext = eh_extension()
    a = term(ext, "(c:a)")
    assert (a.kind, a.name, a.left) == ("generator", "a", None)
    unit = term(ext, "(i:id_star)")
    assert (unit.kind, unit.name, unit.left) == ("identity", "id_star", None)
    d = term(ext, "((c:a)*0(c:b))")
    assert d.kind == "composite"
    assert d.level == 0
    assert d.left.serialize() == "(c:a)"
    assert d.right.serialize() == "(c:b)"


def test_subterm_and_substitute():
    ext = eh_extension()
    t = term(ext, "((c:a)*0(c:b))")
    inner = subterm_at(t, 1, 4)
    assert inner.serialize() == "(c:a)"
    swapped = substitute(t, 1, 4, term(ext, "(c:b)"))
    assert swapped.serialize() == "((c:b)*0(c:b))"


def test_substitute_rejects_boundary_change():
    ext = chain3_extension()
    t = term(ext, "((c:a)*0(c:b))")
    with pytest.raises(BoundaryMismatch):
        substitute(t, 1, 4, term(ext, "(c:d)"))


def test_compose_terms():
    ext = chain3_extension()
    ab = compose_terms(term(ext, "(c:a)"), 0, term(ext, "(c:b)"))
    assert ab.serialize() == "((c:a)*0(c:b))"
    with pytest.raises(BoundaryMismatch):
        compose_terms(term(ext, "(c:b)"), 0, term(ext, "(c:a)"))


def test_evaluate_restriction():
    cat = path2_category()
    ext = restriction_extension(cat, 1, ["f", "g"])
    assert evaluate(cat, ["f", "g"], term(ext, "((c:g)*0(c:f))")) == "gf"
    assert evaluate(cat, ["f", "g"], term(ext, "(i:x)")) == "1x"
    assert evaluate(cat, ["f", "g"], term(ext, "((c:f)*0(i:x))")) == "f"


def test_generator_multiset():
    t = term(eh_extension(), "(((c:a)*0(c:b))*1((c:a)*0(c:b)))")
    assert generator_multiset(t) == {"a": 2, "b": 2}


def test_enumerate_terms_chain3():
    # atoms: three generators and four identity atoms; at size one, exactly
    # twelve composable pairs exist (counted by hand from the boundaries)
    terms, truncated = enumerate_terms(chain3_extension(), 1)
    assert not truncated
    assert len(terms) == 19
    assert [t.serialize() for t in terms[:3]] == ["(c:a)", "(c:b)", "(c:d)"]
    assert terms[7].serialize() == "((c:a)*0(c:b))"
    sizes = [t.size for t in terms]
    assert sizes == sorted(sizes)


def test_enumerate_terms_eh():
    # every atom pair is composable at both levels: 3 + 3*3*2 = 21
    terms, truncated = enumerate_terms(eh_extension(), 1)
    assert not truncated
    assert len(terms) == 21


def test_enumerate_truncation():
    terms, truncated = enumerate_terms(eh_extension(), 3, max_count=50)
    assert truncated
    assert len(terms) >= 50


def test_enumerate_truncates_only_when_a_term_is_left_out():
    # chain3 has 59 terms of size at most 2, seven of them atoms
    everything, _ = enumerate_terms(chain3_extension(), 2)
    assert len(everything) == 59
    for max_count, truncated in ((59, False), (60, False), (58, True), (7, True), (2, True)):
        terms, cut = enumerate_terms(chain3_extension(), 2, max_count=max_count)
        assert cut == truncated, max_count
        assert [t.serialize() for t in terms] == [
            t.serialize() for t in everything[:max_count]
        ]


def test_enumerate_stops_at_the_first_size_no_pair_reaches():
    # Every pair meets and every pair is dropped: only the size-1 pairs are
    # tried, whatever the size bound.
    atoms = ["a", "b", "c"]
    calls = []

    def pair(left, k, right):
        calls.append((left, k, right))

    got = _enumerate(atoms, 1, lambda item, k: 0, lambda item, k: 0, pair, 50)
    assert got == (atoms, False)
    assert calls == [(left, k, right) for k in range(2) for left in atoms for right in atoms]


def test_enumerate_counts_only_the_pairs_it_keeps():
    # Of the nine size-1 pairs only the three with right "a" are kept, and
    # the last two pairs tried are dropped.
    atoms = ["a", "b", "c"]

    def pair(left, k, right):
        return left + right if right == "a" else None

    def enumerate_(max_count):
        return _enumerate(atoms, 0, lambda item, k: 0, lambda item, k: 0, pair, 1, max_count)

    kept = atoms + ["aa", "ba", "ca"]
    assert enumerate_(None) == enumerate_(6) == (kept, False)
    assert enumerate_(5) == (kept[:5], True)


def test_random_term_is_deterministic_and_bounded():
    ext = chain3_extension()
    t1 = random_term(ext, Random(5), 6)
    t2 = random_term(ext, Random(5), 6)
    assert t1.word == t2.word
    assert t1.size <= 6
    # it parses back to the same boundaries
    again = check_term(ext, t1.word)
    assert (again.src, again.tgt) == (t1.src, t1.tgt)


def test_random_term_grows_only_below_the_size_it_draws():
    # random_term draws a first atom and then a target size, and pairs only
    # while the term is smaller than the target: a target of 0 gives that
    # atom, and any other target a composite.
    ext = chain3_extension()
    targets = set()
    for seed in range(40):
        draws = Random(seed)
        first = draws.choice(all_atoms(ext))
        target = draws.randint(0, 4)
        targets.add(target)
        t = random_term(ext, Random(seed), 4)
        assert t is first if target == 0 else t.size > 0
    assert 0 in targets and len(targets) > 1


def _reference_tokens(t):
    """A term's tokens read off its tree by recursion."""
    if t.left is None:
        return (LPAREN, gen(t.name) if t.kind == GENERATOR else ident_of(t.name), RPAREN)
    left, right = _reference_tokens(t.left), _reference_tokens(t.right)
    return (LPAREN, *left, comp(t.level), *right, RPAREN)


def _rebuilt(t):
    """The same term from new composites, none of which has its word yet."""
    return t if t.left is None else _pair(_rebuilt(t.left), t.level, _rebuilt(t.right))


def test_words_agree_with_and_without_cached_factor_words(small_terms):
    for ext, t in small_terms:
        if t.left is None:
            continue
        reference = Word(_reference_tokens(t))
        parsed = check_term(ext, reference)
        assert (parsed.src, parsed.tgt) == (t.src, t.tgt)
        assert _rebuilt(t).word == reference
        assert t.left.word and t.right.word  # both factor words are cached from here on
        assert _pair(t.left, t.level, t.right).word == reference


@pytest.mark.parametrize(
    "text", ["(c:a)", "((c:a)*0(c:b))", "(((i:id_star)*1(c:a))*0((c:b)*1(i:id_star)))"]
)
def test_check_term_keeps_the_parsed_word(text):
    ext = eh_extension()
    word = tokenize(text)
    parsed = check_term(ext, word)
    assert parsed.word.tokens is word.tokens
    assert parsed.serialize() == serialize(word) == text
    if parsed.left is not None:  # the word kept is the one the tree spells
        assert _pair(parsed.left, parsed.level, parsed.right).word == word


def test_check_term_does_not_keep_a_word_of_listed_tokens():
    ext = eh_extension()
    listed = Word(list(tokenize("((c:a)*0(c:b))").tokens))
    parsed = check_term(ext, listed)
    assert parsed.word.tokens.__class__ is tuple
    assert parsed.word.tokens == tuple(listed.tokens)


CRITERION5 = {
    "eh": eh_extension,
    "chain3": chain3_extension,
    "path2/1": lambda: full_extension(path2_category(), 1),
    "parallel_pair/2": lambda: full_extension(parallel_pair_category(), 2),
    "idem/2": lambda: full_extension(idem_category(), 2),
}


def _token_multiset(tokens):
    counts = {}
    for token in tokens:
        if token.kind == GEN_KIND:
            counts[token.value] = counts.get(token.value, 0) + 1
    return counts


@pytest.mark.parametrize("name", list(CRITERION5))
def test_moved_terms_inherit_the_words_their_trees_spell(name):
    ext = CRITERION5[name]()
    rng = Random(list(CRITERION5).index(name))
    places = set()
    for _ in range(60):
        source = check_term(ext, random_term(ext, rng, 6).word)
        for movement in enumerate_movements(ext, source):
            moved = apply_movement(source, movement)
            reference = _reference_tokens(moved)
            if movement.prefix_len:  # at the root, the result is the contractum
                assert moved._word is not None
            assert moved.word.tokens == reference
            counts = generator_multiset(moved)
            assert list(counts.items()) == list(_token_multiset(reference).items())
            places.add(movement.prefix_len == 0)
            # substitute inherits the word the same way
            end = movement.prefix_len + movement.redex.length
            substituted = substitute(source, movement.prefix_len, end, movement.contractum)
            assert substituted.word == moved.word
        # A term without a word gives moved terms without one.
        fresh = random_term(ext, rng, 6)
        for movement in enumerate_movements(ext, fresh):
            moved = apply_movement(fresh, movement)
            if movement.prefix_len:
                assert moved._word is None
            assert moved.word.tokens == _reference_tokens(moved)
        assert fresh.left is None or fresh._word is None
    assert places == {True, False}
