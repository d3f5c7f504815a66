"""check_term against a reference copy of the parser it replaced.

`_reference_check_term` is the one-pass parser that built a fresh atom term
for every atom token and asked the base category for every boundary and
composite. The parser must give the same term, or raise the same error at
the same position with the same reason, level and message, on every input:
all short token sequences, all composites of up to three atoms, seeded
random words, the words movements make of them, and one-token mutations of
both, over three checked extensions and one extension that was never
checked.
"""

from itertools import product
from random import Random

import pytest

from polyconduche.categories import SRC, TGT
from polyconduche.conduche import full_extension
from polyconduche.errors import NotWellFormed
from polyconduche.fixtures import (
    chain3_extension,
    eh_extension,
    parallel_pair_category,
    terminal_category,
)
from polyconduche.movements import apply_movement, enumerate_movements
from polyconduche.terms import (
    COMPOSITE,
    GENERATOR,
    IDENTITY,
    CellularExtension,
    Term,
    atom_word,
    check_term,
    random_term,
)
from polyconduche.words import (
    COMP_KIND,
    GEN_KIND,
    ID_KIND,
    LPAREN,
    RPAREN,
    Word,
    comp,
    gen,
    ident_of,
)


def _reference_meets(extension, left_src, k, right_tgt):
    if k == extension.dimension:
        return left_src == right_tgt
    base = extension.base
    return base.boundary(left_src, k, SRC) == base.boundary(right_tgt, k, TGT)


def _reference_pair(left, k, right):
    extension = left.extension
    if k == extension.dimension:
        src, tgt = right.src, left.tgt
    else:
        base = extension.base
        src = base.compose(left.src, right.src, k)
        tgt = base.compose(left.tgt, right.tgt, k)
    return Term(
        extension, COMPOSITE, None, left, k, right, src, tgt,
        left.size + right.size + 1, left.length + right.length + 3,
    )


def _reference_atom(extension, kind, name):
    src, tgt = extension.generators[name] if kind == GENERATOR else (name, name)
    atom = Term(extension, kind, name, None, None, None, src, tgt, 0, 3)
    atom._word = atom_word(kind, name)
    return atom


def _expect_rparen(tokens, pos):
    if pos >= len(tokens) or tokens[pos] is not RPAREN:
        raise NotWellFormed(pos, "ShapeError", "expected ')'")


def _reference_check_term(extension, word):
    base = extension.base
    n = base.dimension
    tokens = word.tokens
    count = len(tokens)
    atoms: dict = {}
    pending: list[list] = []
    start = 0
    while True:
        if start >= count or tokens[start] is not LPAREN:
            raise NotWellFormed(start, "ShapeError", "expected '('")
        if start + 1 >= count:
            raise NotWellFormed(start + 1, "ShapeError", "unclosed '('")
        head = tokens[start + 1]
        if head is LPAREN:
            pending.append([None, 0])
            start += 1
            continue
        node = atoms.get(head)
        if node is None:
            if head.kind == GEN_KIND:
                if head.value not in extension.generators:
                    raise NotWellFormed(start + 1, "UnknownGenerator", f"{head.value!r}")
                kind = GENERATOR
            elif head.kind == ID_KIND:
                if not base.has_cell(head.value) or base.level_of(head.value) != n:
                    raise NotWellFormed(start + 1, "UnknownCell", f"{head.value!r}")
                kind = IDENTITY
            else:
                raise NotWellFormed(start + 1, "ShapeError", f"unexpected {head.text()!r}")
            node = atoms[head] = _reference_atom(extension, kind, head.value)
        _expect_rparen(tokens, start + 2)
        end = start + 3
        while pending and pending[-1][0] is not None:
            left, pos = pending.pop()
            _expect_rparen(tokens, end)
            k = tokens[pos].value
            if not _reference_meets(extension, left.src, k, node.tgt):
                if k == n:
                    message = f"{left.src!r} != {node.tgt!r} at level {k}"
                else:
                    message = f"factors do not meet at level {k}"
                raise NotWellFormed(pos, "BoundaryMismatch", message, level=k)
            node = _reference_pair(left, k, node)
            end += 1
        if not pending:
            if end != count:
                raise NotWellFormed(end, "ShapeError", "trailing tokens")
            return node
        if end >= count or tokens[end].kind != COMP_KIND:
            raise NotWellFormed(end, "ShapeError", "expected a composition symbol")
        k = int(tokens[end].value)
        if k > n:
            raise NotWellFormed(end, "LevelOutOfRange", f"*{k} in a dimension-{n} extension")
        pending[-1][:] = [node, end]
        start = end + 1


def _outcome(parse, extension, word):
    """What a parser makes of a word: the term's shape, or the error."""
    try:
        t = parse(extension, word)
    except NotWellFormed as exc:
        return ("NotWellFormed", exc.position, exc.reason, exc.level, exc.message, str(exc))
    except Exception as exc:  # the parser's other errors, compared by class and text
        return (type(exc).__name__, str(exc))
    return ("term", t.serialize(), t.src, t.tgt, t.size, t.length)


def _same(extension, word):
    expected = _outcome(_reference_check_term, extension, word)
    assert _outcome(check_term, extension, word) == expected, word
    return expected[0]


# A generator whose boundary is no cell of the base, one whose boundary is a
# 0-cell, and one well-formed generator: check_extension would refuse it.
UNCHECKED = CellularExtension(
    terminal_category(),
    {"a": ("zz", "id_star"), "b": ("id_star", "id_star"), "s": ("star", "star")},
)


def _extensions():
    return {
        "eh": eh_extension(),
        "chain3": chain3_extension(),
        "parallel_pair/2": full_extension(parallel_pair_category(), 2),
        "unchecked": UNCHECKED,
    }


def _atom_tokens(extension):
    """Two generators and one identity atom's cell of the extension."""
    names = list(extension.generators)[:2]
    return [gen(name) for name in names] + [ident_of(extension.base.cells[extension.dimension][0])]


@pytest.mark.parametrize("name", list(_extensions()))
def test_every_short_token_sequence_matches_the_reference(name):
    extension = _extensions()[name]
    alphabet = [LPAREN, RPAREN, *_atom_tokens(extension), comp(0), comp(1), comp(2)]
    for length in range(6):
        for tokens in product(alphabet, repeat=length):
            _same(extension, Word(tokens))


@pytest.mark.parametrize("name", list(_extensions()))
def test_every_composite_of_three_atoms_matches_the_reference(name):
    extension = _extensions()[name]
    atoms = [Word((LPAREN, t, RPAREN)) for t in _atom_tokens(extension)]
    if name == "unchecked":
        atoms.append(Word((LPAREN, gen("s"), RPAREN)))

    def pair(left, k, right):
        return Word((LPAREN, *left.tokens, comp(k), *right.tokens, RPAREN))

    outcomes = set()
    for x, y, z in product(atoms, repeat=3):
        for k, l in product(range(3), repeat=2):
            outcomes.add(_same(extension, pair(pair(x, k, y), l, z)))
            outcomes.add(_same(extension, pair(x, k, pair(y, l, z))))
    assert "term" in outcomes and "NotWellFormed" in outcomes
    if name == "unchecked":
        assert {"SchemaError", "UndefinedComposite"} <= outcomes


def _mutations(extension, rng, words):
    """One insertion, deletion or swap of tokens in each word, several times."""
    n = extension.dimension
    alphabet = [LPAREN, RPAREN, *(comp(k) for k in range(n + 2))]
    alphabet += [gen(name) for name in extension.generators]
    alphabet += [ident_of(cell) for cell in extension.base.cells[n]]
    for word in words:
        for _ in range(3):
            tokens = list(word.tokens)
            action = rng.randrange(3)
            at = rng.randrange(len(tokens))
            if action == 0:
                tokens.insert(at, rng.choice(alphabet))
            elif action == 1:
                del tokens[at]
            else:
                other = rng.randrange(len(tokens))
                tokens[at], tokens[other] = tokens[other], tokens[at]
            yield Word(tuple(tokens))


def test_mutated_random_words_match_the_reference():
    rng = Random(9)
    extensions = _extensions()
    outcomes = []
    for name in ("eh", "chain3", "parallel_pair/2"):
        extension = extensions[name]
        words = [random_term(extension, rng, 6).word for _ in range(300)]
        for word in words:
            outcomes.append(_same(extension, word))
        targets = [extension] + ([UNCHECKED] if name == "eh" else [])
        for target in targets:
            for mutated in _mutations(extension, rng, words):
                outcomes.append(_same(target, mutated))
    assert len(outcomes) > 3000
    assert {"term", "NotWellFormed", "SchemaError"} <= set(outcomes)



def test_moved_words_match_the_reference():
    """The words of moved terms, spliced from their sources' words, and their
    one-token mutations: what the criterion-5 sweep re-parses."""
    rng = Random(12)
    extensions = _extensions()
    outcomes = []
    for name in ("eh", "chain3", "parallel_pair/2"):
        extension = extensions[name]
        moved = []
        for _ in range(20):
            source = check_term(extension, random_term(extension, rng, 6).word)
            for movement in enumerate_movements(extension, source):
                moved.append(apply_movement(source, movement).word)
        moved = rng.sample(moved, min(len(moved), 500))
        targets = [extension] + ([UNCHECKED] if name == "eh" else [])
        for target in targets:
            for word in moved:
                outcomes.append(_same(target, word))
            for mutated in _mutations(extension, rng, moved):
                outcomes.append(_same(target, mutated))
    assert len(outcomes) > 3000
    assert {"term", "NotWellFormed", "SchemaError"} <= set(outcomes)
