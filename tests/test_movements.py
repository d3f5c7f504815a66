import gc
import json
from pathlib import Path
from random import Random

import pytest

from polyconduche.categories import OmegaFunctor, truncate
from polyconduche import movements, terms
from polyconduche.conduche import full_extension
from polyconduche.errors import Stale
from polyconduche.fixtures import (
    chain3_extension,
    eh_extension,
    parallel_pair_category,
    path2_category,
)
from polyconduche.movements import (
    ALL_CASES,
    BACKWARD,
    DISTINCT,
    FORWARD,
    UNKNOWN,
    WITNESS,
    SearchBounds,
    apply_movement,
    enumerate_movements,
    equivalent,
    extend_functor,
    movement_graph_dot,
    reduce,
)
from polyconduche.terms import (
    check_term,
    enumerate_terms,
    generator_multiset,
    occurrences,
    random_term,
)
from polyconduche.words import tokenize

GOLDEN = Path(__file__).resolve().parent / "golden" / "search_commands.json"


def term(extension, text):
    return check_term(extension, tokenize(text))


def outputs(extension, t, direction="both"):
    return [
        apply_movement(t, m).serialize()
        for m in enumerate_movements(extension, t, direction)
    ]


def test_generator_pair_has_only_insertions():
    ext = eh_extension()
    t = term(ext, "((c:a)*0(c:b))")
    moves = enumerate_movements(ext, t)
    assert len(moves) == 12
    assert all(m.direction == BACKWARD and m.case in (2, 3) for m in moves)
    # three occurrences, two sides, two levels
    assert "((i:id_star)*1((c:a)*0(c:b)))" in outputs(ext, t)
    assert "(((c:a)*0(i:id_star))*0(c:b))" in outputs(ext, t)


def test_unit_removal_forward():
    ext = eh_extension()
    t = term(ext, "((i:id_star)*1(c:a))")
    forward = enumerate_movements(ext, t, FORWARD)
    assert [m.case for m in forward] == [2]
    assert apply_movement(t, forward[0]).serialize() == "(c:a)"


def test_associativity_both_ways():
    ext = chain3_extension()
    left_nested = term(ext, "(((c:a)*0(c:b))*0(c:d))")
    fwd = [m for m in enumerate_movements(ext, left_nested, FORWARD) if m.case == 1]
    assert len(fwd) == 1
    rotated = apply_movement(left_nested, fwd[0])
    assert rotated.serialize() == "((c:a)*0((c:b)*0(c:d)))"
    back = [m for m in enumerate_movements(ext, rotated, BACKWARD) if m.case == 1]
    assert apply_movement(rotated, back[0]).serialize() == left_nested.serialize()


def test_base_composite_merge_and_split():
    ext = eh_extension()
    t = term(ext, "((i:id_star)*0(i:id_star))")
    merges = [m for m in enumerate_movements(ext, t, FORWARD) if m.case == 4]
    assert len(merges) == 1
    merged = apply_movement(t, merges[0])
    assert merged.serialize() == "(i:id_star)"
    splits = [m for m in enumerate_movements(ext, merged, BACKWARD) if m.case == 4]
    assert [apply_movement(merged, m).serialize() for m in splits] == [
        "((i:id_star)*0(i:id_star))"
    ]


def test_interchange_round_trip():
    ext = eh_extension()
    t = term(ext, "(((c:a)*1(c:b))*0((c:a)*1(c:b)))")
    fwd = [m for m in enumerate_movements(ext, t, FORWARD) if m.case == 5]
    assert len(fwd) == 1
    swapped = apply_movement(t, fwd[0])
    assert swapped.serialize() == "(((c:a)*0(c:a))*1((c:b)*0(c:b)))"
    back = [m for m in enumerate_movements(ext, swapped, BACKWARD) if m.case == 5]
    assert t.serialize() in [apply_movement(swapped, m).serialize() for m in back]


def test_apply_rejects_stale_movement():
    ext = eh_extension()
    t = term(ext, "((c:a)*0(c:b))")
    other = term(ext, "((c:b)*0(c:a))")
    movement = enumerate_movements(ext, t)[0]
    with pytest.raises(Stale):
        apply_movement(other, movement)


def test_inverted_movement_round_trips():
    ext = eh_extension()
    t = term(ext, "((c:a)*0(c:b))")
    for movement in enumerate_movements(ext, t):
        stepped = apply_movement(t, movement)
        back = apply_movement(stepped, movement.inverted())
        assert back.word == t.word


def test_enumeration_is_deterministic():
    ext = eh_extension()
    t = term(ext, "(((c:a)*1(c:b))*0(i:id_star))")
    first = [m.to_json() for m in enumerate_movements(ext, t)]
    second = [m.to_json() for m in enumerate_movements(ext, t)]
    assert first == second


@pytest.mark.parametrize("seed", range(12))
def test_movement_outputs_are_well_formed(seed):
    # splicing never re-parses, so re-check every output against the parser
    ext = eh_extension() if seed % 2 else chain3_extension()
    t = random_term(ext, Random(seed), 5)
    for movement in enumerate_movements(ext, t):
        out = apply_movement(t, movement)
        parsed = check_term(ext, out.word)
        assert (parsed.src, parsed.tgt) == (t.src, t.tgt)
        assert parsed.size == out.size
        assert generator_multiset(parsed) == generator_multiset(t)


@pytest.mark.parametrize(
    "make",
    [eh_extension, chain3_extension, lambda: full_extension(parallel_pair_category(), 2)],
    ids=["eh", "chain3", "parallel-pair"],
)
def test_rewrite_shapes_spell_the_words_of_their_trees(make):
    # The search spells a contractum's key from its shape and builds the tree
    # only where it needs one: key and tree must spell the same word, and the
    # tree must have the boundaries the parser gives that word.
    ext = make()
    enumerated, _ = enumerate_terms(ext, 3)
    subterms = {id(sub): sub for t in enumerated for sub, _ in occurrences(t)}
    checked = 0
    for sub in subterms.values():
        for backward in (ALL_CASES, (1, 5)):  # growing, and not
            for _, shape, _ in movements._rewrites(ext, sub, ALL_CASES, backward):
                key = movements._key_of({}, shape)
                tree = movements._built(shape, sub.src, sub.tgt)
                assert key == "".join(token.code for token in tree.word.tokens)
                parsed = check_term(ext, tree.word)
                assert (tree.src, tree.tgt) == (parsed.src, parsed.tgt)
                checked += 1
    assert checked


def test_reduce_strips_units_and_merges():
    ext = eh_extension()
    t = term(ext, "(((i:id_star)*0(i:id_star))*1((c:a)*1((c:b)*1(i:id_star))))")
    reduced = reduce(ext, t)
    assert reduced.serialize() == "((c:a)*1(c:b))"


def test_reduce_fixed_point():
    ext = eh_extension()
    t = term(ext, "((c:a)*0(c:b))")
    assert reduce(ext, t).word == t.word


def test_equivalent_equal_words():
    ext = eh_extension()
    t = term(ext, "((c:a)*0(c:b))")
    outcome = equivalent(ext, t, t)
    assert outcome.verdict == WITNESS
    assert outcome.witness.steps == []


def test_equivalent_distinct_boundary():
    ext = chain3_extension()
    outcome = equivalent(ext, term(ext, "(c:a)"), term(ext, "(c:b)"))
    assert outcome.verdict == DISTINCT
    assert outcome.reason == "boundary"


def test_equivalent_distinct_multiset():
    ext = eh_extension()
    outcome = equivalent(ext, term(ext, "(c:a)"), term(ext, "(c:b)"))
    assert outcome.verdict == DISTINCT
    assert outcome.reason == "generator-multiset"


def test_equivalent_unit_padding():
    ext = eh_extension()
    u = term(ext, "((i:id_star)*1(c:a))")
    v = term(ext, "((c:a)*0(i:id_star))")
    outcome = equivalent(ext, u, v)
    assert outcome.verdict == WITNESS
    replay = u
    for movement in outcome.witness.steps:
        replay = apply_movement(replay, movement)
    assert replay.word == v.word


def test_equivalent_association_normal_form():
    # dimension-zero extensions settle without any search
    ext = chain3_extension()
    u = term(ext, "(((c:a)*0(c:b))*0(c:d))")
    v = term(ext, "((c:a)*0((c:b)*0(c:d)))")
    outcome = equivalent(ext, u, v, SearchBounds(max_steps=0))
    assert outcome.verdict == WITNESS
    replay = u
    for movement in outcome.witness.steps:
        replay = apply_movement(replay, movement)
    assert replay.word == v.word


def test_equivalent_starved_is_unknown():
    ext = eh_extension()
    u = term(ext, "((c:a)*0(c:b))")
    v = term(ext, "((c:b)*0(c:a))")
    outcome = equivalent(ext, u, v, SearchBounds(max_steps=1))
    assert outcome.verdict == UNKNOWN
    assert outcome.reason == "step-cap"


def test_step_budget_ends_a_search_whose_other_frontier_is_empty():
    # At size slack 0 one side's frontier empties after one expansion, while
    # the other side still holds its start but has no step left: the search
    # ends on the step budget. An early exit once a frontier empties (ROADMAP
    # O13 step 3) would make this reason "exhausted-under-cap" on purpose.
    ext = eh_extension()
    u = term(ext, "((c:a)*0(c:b))")
    v = term(ext, "((c:b)*0(c:a))")
    outcome = equivalent(ext, u, v, SearchBounds(size_slack=0, max_steps=1))
    assert (outcome.verdict, outcome.reason) == (UNKNOWN, "step-cap")


def test_search_bounds_from_env(monkeypatch):
    monkeypatch.setenv("POLYCONDUCHE_MAX_VISITED", "1234")
    assert SearchBounds.from_env().max_visited == 1234
    monkeypatch.delenv("POLYCONDUCHE_MAX_VISITED")
    assert SearchBounds.from_env().max_visited == 200_000


def test_extend_functor_folds_into_target():
    cat = path2_category()
    base = truncate(cat, 0)
    from polyconduche.terms import restriction_extension

    ext = restriction_extension(cat, 1, ["f", "g"])
    inclusion = OmegaFunctor(base, cat, {0: {o: o for o in base.cells[0]}})
    phi = {"f": "f", "g": "g"}
    t = term(ext, "((c:g)*0(c:f))")
    assert extend_functor(ext, cat, inclusion, phi, t) == "gf"
    assert extend_functor(ext, cat, inclusion, phi, term(ext, "(i:y)")) == "1y"


def test_dot_export_mentions_center_and_backward_edge():
    ext = eh_extension()
    t = term(ext, "((c:a)*0(c:b))")
    dot = movement_graph_dot(ext, t)
    assert dot.startswith("digraph")
    assert '"((c:a)*0(c:b))"' in dot
    assert '-> "((c:a)*0(c:b))" [label="case 2"]' in dot


def test_braiding_query_work_is_pinned():
    # A later change that expands more nodes, probes more child words or
    # builds more records shows here. Built by enumerate_movements at every
    # expansion, the same search listed 16,500 movements over these 1,510
    # nodes: the 16,487 child words probed here and 13 listed after the
    # meeting point in the last node.
    ext = eh_extension()
    outcome = equivalent(ext, term(ext, "((c:a)*0(c:b))"), term(ext, "((c:b)*0(c:a))"))
    stats = outcome.stats
    assert stats.expansions == (1_377, 133)
    assert (stats.candidates, stats.records, stats.memo_misses) == (16_487, 3_440, 1_899)
    # The normaliser takes no step here, so the witness is all search steps:
    # one per level expanded on either side.
    assert stats.depths == (7, 3) and len(outcome.witness.steps) == sum(stats.depths)
    assert stats.largest_frontier == 1_122
    golden = json.loads(json.loads(GOLDEN.read_text())["equiv-braiding"]["stdout"])
    assert outcome.witness.to_json() == golden["witness"]["steps"]


def test_search_builds_movements_only_for_the_witness(monkeypatch):
    # The visited sets hold plain records; movement objects are made only
    # for the witness chain (and the inverted half of it), not per record.
    built = []

    class Counting(movements.ElementaryMovement):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    # Records hold contractum shapes, so trees are built only to expand a
    # node and for the witness's steps, not per rewrite or per record.
    trees = []
    build, search = movements._built, movements._bidirectional_search
    inside = []

    def counting_built(*args):
        if inside:
            trees.append(args)
        return build(*args)

    def watched(*args):
        inside.append(True)
        try:
            return search(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(movements, "ElementaryMovement", Counting)
    monkeypatch.setattr(movements, "_built", counting_built)
    monkeypatch.setattr(movements, "_bidirectional_search", watched)
    ext = eh_extension()
    outcome = equivalent(ext, term(ext, "((c:a)*0(c:b))"), term(ext, "((c:b)*0(c:a))"))
    stats = outcome.stats
    assert stats.records == 3_440
    assert 0 < len(built) <= 2 * len(outcome.witness.steps)
    assert 0 < len(trees) <= sum(stats.expansions) + len(outcome.witness.steps)


def test_stats_repeat_and_stay_zero_without_a_search():
    ext = eh_extension()
    u, v = term(ext, "((c:a)*0(c:b))"), term(ext, "((c:b)*0(c:a))")
    assert equivalent(ext, u, v).stats == equivalent(ext, u, v).stats
    starved = equivalent(ext, u, v, SearchBounds(max_visited=50)).stats
    assert starved.records == 50 - 2 + 1  # the roots count towards the cap
    assert starved.records <= starved.candidates and starved.memo_misses > 0
    padded = term(ext, "((i:id_star)*1(c:a))")
    assert equivalent(ext, padded, term(ext, "(c:a)")).stats == movements.SearchStats()


def test_search_state_forms_no_reference_cycle():
    # A search's visited sets, memo and keys must be freed when it returns,
    # not left to the cyclic collector (a recursive nested key speller
    # would keep them in a cycle).
    ext = eh_extension()
    u, v = term(ext, "((c:a)*0(c:b))"), term(ext, "((c:b)*0(c:a))")
    gc.collect()
    gc.disable()
    try:
        assert equivalent(ext, u, v).verdict == WITNESS
        assert equivalent(ext, u, v, SearchBounds(max_visited=500)).reason == "visited-cap"
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_spells_no_word(monkeypatch):
    # The search keys words by str and spells each contractum's key from
    # its subterms' keys: it builds no Word and walks no tree for its
    # tokens. The witness's words are spelled afterwards, from the trees.
    ext = eh_extension()
    u, v = term(ext, "((c:a)*0(c:b))"), term(ext, "((c:b)*0(c:a))")
    equivalent(ext, u, v)  # make the atoms the search inserts, with their words
    counts = {"Word": 0, "_tokens": 0}

    class CountingWord(movements.Word):
        __slots__ = ()

        def __init__(self, *args):
            counts["Word"] += 1
            super().__init__(*args)

    def counting_tokens(t, tokens=terms._tokens):
        counts["_tokens"] += 1
        return tokens(t)

    during = []
    search = movements._bidirectional_search

    def watched(*args):
        before = dict(counts)
        result = search(*args)
        during.append({name: counts[name] - before[name] for name in counts})
        return result

    monkeypatch.setattr(movements, "Word", CountingWord)
    monkeypatch.setattr(terms, "Word", CountingWord)
    monkeypatch.setattr(terms, "_tokens", counting_tokens)
    monkeypatch.setattr(movements, "_bidirectional_search", watched)
    outcome = equivalent(ext, u, v)
    assert during == [{"Word": 0, "_tokens": 0}]
    golden = json.loads(json.loads(GOLDEN.read_text())["equiv-braiding"]["stdout"])
    assert outcome.witness.to_json() == golden["witness"]["steps"]
    assert counts["_tokens"] > 0  # the witness's words, spelled after the search
