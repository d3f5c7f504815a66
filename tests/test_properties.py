"""Law checks on generated terms, complementing the fixed-fixture tests."""

from random import Random

from hypothesis import given, settings, strategies as st

from polyconduche.conduche import PASS, check_conduche, fiber_conduche, full_extension
from polyconduche.fixtures import (
    arrow_category,
    chain3_extension,
    eh_extension,
    idem_category,
    inflate_functor,
    loop_category,
    parallel_pair_category,
    path2_category,
    random_dag_category,
    random_functor,
)
from polyconduche.movements import (
    WITNESS,
    SearchStats,
    apply_movement,
    enumerate_movements,
    equivalent,
    reduce,
)
from polyconduche.polygraphs import BASIS, NOT_BASIS, check_basis, indecomposables, transfer_basis
from polyconduche.terms import check_term, generator_multiset, random_term
from polyconduche.words import tokenize

EXTENSIONS = [
    eh_extension(),
    chain3_extension(),
    full_extension(path2_category(), 1),
    full_extension(parallel_pair_category(), 2),
    full_extension(idem_category(), 2),
]
# Names like "1x" fall outside the identifier grammar, so only extensions
# whose atoms all lex can promise a tokenize round trip.
LEXABLE = EXTENSIONS[:2]
DIMENSION_ZERO = [
    full_extension(build(), 1)
    for build in (path2_category, loop_category, arrow_category, idem_category)
]


def terms(pool, max_size=5):
    return st.builds(
        lambda index, seed, size: (
            pool[index],
            random_term(pool[index], Random(seed), size),
        ),
        st.integers(0, len(pool) - 1),
        st.integers(0, 2**32 - 1),
        st.integers(0, max_size),
    )


@given(terms(LEXABLE))
def test_serialization_round_trips(pair):
    extension, term = pair
    assert check_term(extension, tokenize(term.serialize())).word == term.word


@given(terms(EXTENSIONS))
def test_movements_preserve_boundaries_and_multiset(pair):
    extension, term = pair
    reference = generator_multiset(term)
    for movement in enumerate_movements(extension, term):
        moved = check_term(extension, apply_movement(term, movement).word)
        assert (moved.src, moved.tgt) == (term.src, term.tgt)
        assert generator_multiset(moved) == reference


@given(terms(EXTENSIONS))
def test_movements_invert(pair):
    extension, term = pair
    for movement in enumerate_movements(extension, term):
        moved = apply_movement(term, movement)
        assert apply_movement(moved, movement.inverted()).word == term.word


@given(terms(EXTENSIONS))
def test_reduce_is_idempotent(pair):
    extension, term = pair
    reduced = reduce(extension, term)
    assert reduced.size <= term.size
    assert reduce(extension, reduced).word == reduced.word


@given(terms(EXTENSIONS))
def test_terms_are_self_equivalent(pair):
    extension, term = pair
    outcome = equivalent(extension, term, term)
    assert outcome.verdict == WITNESS
    replay = term
    for step in outcome.witness.steps:
        replay = apply_movement(replay, step)
    assert replay.word == term.word


@settings(derandomize=True, max_examples=100)
@given(terms(DIMENSION_ZERO))
def test_dimension_zero_normal_form_is_invariant_under_movements(pair):
    # Over a 0-category, reduction and right association give every word one
    # normal form that no movement changes, so a word and any movement of it
    # are connected by normal forms alone, with no search.
    extension, term = pair
    for movement in enumerate_movements(extension, term):
        moved = apply_movement(term, movement)
        outcome = equivalent(extension, term, moved)
        assert outcome.verdict == WITNESS
        assert outcome.stats == SearchStats()
        replay = term
        for step in outcome.witness.steps:
            replay = apply_movement(replay, step)
        assert replay.word == moved.word


def dag_functors():
    """A functor from a seeded free DAG category into loop, idem or path2,
    inflated to dimension 2 or not."""

    def build(target, seed, inflated):
        rng = Random(seed)
        source = random_dag_category(rng, max_objects=4, max_edges=4, max_paths=8)
        functor = random_functor(rng, source, target())
        return inflate_functor(functor, 2) if inflated else functor

    return st.builds(
        build,
        st.sampled_from([loop_category, idem_category, path2_category]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )


@settings(derandomize=True, max_examples=200)
@given(dag_functors())
def test_fiber_route_agrees_with_the_table_route(functor):
    # The paper's equivalence: a functor is discrete Conduché exactly when
    # its words lift uniquely.
    assert fiber_conduche(functor, 3).verdict == check_conduche(functor).verdict


@settings(derandomize=True, max_examples=300)
@given(dag_functors())
def test_conduche_functors_pull_bases_back_to_bases(functor):
    # The paper's main theorem: along a discrete Conduche functor the
    # preimage of a basis is a basis. Bounded checks may answer Unknown,
    # never NotBasis.
    if check_conduche(functor).verdict != PASS:
        return
    source, target = functor.source, functor.target
    sigma = target.basis or {
        dim: sorted(indecomposables(target, dim)) for dim in range(target.dimension + 1)
    }
    transferred = transfer_basis(functor, sigma)
    for level in range(1, min(source.dimension, target.dimension) + 1):
        if check_basis(target, level, sigma[level]).verdict == BASIS:
            assert check_basis(source, level, transferred[level]).verdict != NOT_BASIS
