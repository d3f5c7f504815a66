"""Movement lifting against the word-rebuilding oracle.

`lift_movement` picks the matching movement among those
`enumerate_movements` lists upstairs. The oracle below does what it did
before that: rebuild the lifted contractum for each of the five shapes as a
word from the upstairs redex and re-parse it. Lifts must agree exactly,
except where the oracle's lift changes the term's boundary (unit erasure
along a functor that sends a non-identity cell to an identity): that is no
movement, and lift_movement raises NotLiftable there.
"""

from polyconduche.categories import SRC, TGT, OmegaFunctor
from polyconduche.conduche import (
    induced_term,
    induced_word_map,
    lift_movement,
    morphism_from_functor,
)
from polyconduche.errors import BadOccurrence, NotLiftable, NotWellFormed, SchemaError
from polyconduche.fixtures import (
    arrow_category,
    collapse_functor,
    functor_corpus,
    inflate_functor,
    parallel_pair_collapse,
    terminal_category,
)
from polyconduche.movements import (
    FORWARD,
    ElementaryMovement,
    _unit_on,
    enumerate_movements,
)
from polyconduche.terms import (
    atom_word,
    check_term,
    enumerate_terms,
    pair_word,
    splice,
    subterm_at,
)

SIZE_BOUND = 1


def oracle_lift(morphism, movement, lifted_input):
    """The lifted movement and its output, from the contractum rebuilt as a word."""
    if induced_word_map(morphism, lifted_input.word).tokens != (
        movement.prefix.tokens + movement.redex.word.tokens + movement.suffix.tokens
    ):
        raise SchemaError("the lifted input does not map onto the movement's input")
    start = movement.prefix_len
    end = start + movement.redex.length
    try:
        redex_up = subterm_at(lifted_input, start, end)
    except BadOccurrence:
        raise NotLiftable("no subterm at the occurrence") from None
    try:
        contractum_up = check_term(
            morphism.source, oracle_contractum(morphism, movement, redex_up)
        )
    except NotWellFormed as exc:
        raise NotLiftable(f"lifted contractum is ill formed ({exc})") from None
    lifted = ElementaryMovement(
        lifted_input, start, redex_up, contractum_up, movement.case, movement.direction
    )
    return lifted, splice(lifted_input, start, end, contractum_up)


def oracle_contractum(morphism, movement, node):
    ext = morphism.source
    base = ext.base
    n = ext.dimension
    case, direction = movement.case, movement.direction

    if case in (1, 5):
        if node.kind != "composite":
            raise NotLiftable("occurrence is not a composite")
        k, left, right = node.level, node.left, node.right
        if case == 1 and direction == FORWARD:
            if left.kind != "composite" or left.level != k:
                raise NotLiftable("case 1: left factor shape mismatch")
            return pair_word(left.left.word, k, pair_word(left.right.word, k, right.word))
        if case == 1:
            if right.kind != "composite" or right.level != k:
                raise NotLiftable("case 1: right factor shape mismatch")
            return pair_word(pair_word(left.word, k, right.left.word), k, right.right.word)
        if left.kind != "composite" or right.kind != "composite":
            raise NotLiftable("case 5: factors are not composites")
        inner = left.level
        if right.level != inner:
            raise NotLiftable("case 5: factor levels disagree")
        x, y = left.left.word, left.right.word
        z, t = right.left.word, right.right.word
        return pair_word(pair_word(x, k, z), inner, pair_word(y, k, t))

    if case in (2, 3):
        if direction == FORWARD:
            if node.kind != "composite":
                raise NotLiftable("occurrence is not a composite")
            keep = node.right if case == 2 else node.left
            drop = node.left if case == 2 else node.right
            if drop.kind != "identity":
                raise NotLiftable("no identity factor to erase")
            return keep.word
        k = movement.contractum.level
        if case == 2:
            return pair_word(atom_word("identity", _unit_on(ext, node.tgt, k, TGT)), k, node.word)
        return pair_word(node.word, k, atom_word("identity", _unit_on(ext, node.src, k, SRC)))

    if direction == FORWARD:
        if node.kind != "composite":
            raise NotLiftable("occurrence is not a composite")
        left, right = node.left, node.right
        if left.kind != "identity" or right.kind != "identity":
            raise NotLiftable("case 4: factors are not identity atoms")
        k = node.level
        if (left.name, right.name) not in base.comp.get((n, k), {}):
            raise NotLiftable("case 4: base composite missing")
        return atom_word("identity", base.compose(left.name, right.name, k))
    if node.kind != "identity":
        raise NotLiftable("case 4: occurrence is not an identity atom")
    contractum = movement.contractum
    k = contractum.level
    want = (contractum.left.name, contractum.right.name)
    for (c, d) in base.factorizations(node.name, n, k):
        if (morphism.base.apply(c), morphism.base.apply(d)) == want:
            return pair_word(atom_word("identity", c), k, atom_word("identity", d))
    raise NotLiftable("case 4: no factorization lifts the split")


def arrow_to_terminal():
    return OmegaFunctor(
        arrow_category(),
        terminal_category(),
        {0: {"x": "star", "y": "star"}, 1: {"1x": "id_star", "1y": "id_star", "u": "id_star"}},
    )


def lifting_functors():
    """The corpus, collapse, pp_collapse and arrow to terminal, each as it is
    and inflated by one dimension, whose top level moves identity atoms of
    every cell below."""
    functors = [f for _, f in functor_corpus()]
    functors += [collapse_functor(), parallel_pair_collapse(), arrow_to_terminal()]
    return functors + [inflate_functor(f, f.source.dimension + 1) for f in functors]


def outcome(lift, morphism, movement, up):
    try:
        return lift(morphism, movement, up)
    except NotLiftable:
        return None


def test_lift_movement_matches_word_rebuilding_oracle():
    rows = {"lifted": 0, "not liftable": 0, "boundary-changing": 0}
    for functor in lifting_functors():
        up_to_dim = min(functor.source.dimension, functor.target.dimension)
        for level in range(1, up_to_dim + 1):
            morphism = morphism_from_functor(functor, level)
            terms, _ = enumerate_terms(morphism.source, SIZE_BOUND)
            for up in terms:
                for movement in enumerate_movements(morphism.target, induced_term(morphism, up)):
                    expected = outcome(oracle_lift, morphism, movement, up)
                    got = outcome(lift_movement, morphism, movement, up)
                    if expected is None:
                        rows["not liftable"] += 1
                        assert got is None, (up, movement)
                        continue
                    redex, contractum = expected[0].redex, expected[0].contractum
                    if (redex.src, redex.tgt) != (contractum.src, contractum.tgt):
                        rows["boundary-changing"] += 1
                        assert got is None, (up, movement)
                        continue
                    rows["lifted"] += 1
                    assert got is not None, (up, movement)
                    assert got[0].to_json() == expected[0].to_json()
                    assert got[1].serialize() == expected[1].serialize()
                    assert (got[1].src, got[1].tgt) == (expected[1].src, expected[1].tgt)
    assert all(rows.values()), rows
