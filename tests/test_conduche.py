from functools import cached_property

import pytest

from polyconduche import movements, terms
from polyconduche.categories import (
    OmegaFunctor,
    PresentedCategory,
    identity_functor,
    validate_category,
)
from polyconduche.conduche import (
    FAIL,
    PASS,
    UNKNOWN,
    ExtensionMorphism,
    check_conduche,
    check_extension_morphism,
    check_fiber_bijection,
    check_kappa,
    check_nabla,
    fiber_conduche,
    full_extension,
    induced_movement,
    induced_term,
    induced_word_map,
    is_rigid,
    lift_movement,
    morphism_from_functor,
)
from polyconduche.errors import NotLiftable, NotWellFormed, SchemaError, UndefinedComposite
from polyconduche.fixtures import (
    arrow_category,
    collapse_functor,
    eh_morphism,
    functor_corpus,
    inflate_functor,
    loop_category,
    parallel_pair_category,
    parallel_pair_collapse,
    path2_category,
    terminal_category,
)
from polyconduche.movements import (
    BACKWARD,
    FORWARD,
    SearchBounds,
    apply_movement,
    enumerate_movements,
    equivalent,
)
from polyconduche.polygraphs import check_basis
from polyconduche.terms import (
    GENERATOR,
    IDENTITY,
    CellularExtension,
    _spelled,
    _term_of,
    all_atoms,
    atom_word,
    check_term,
    compose_terms,
    enumerate_terms,
    pair_word,
)
from polyconduche.words import Word, serialize, tokenize


def term(extension, text):
    return check_term(extension, tokenize(text))


def test_identity_functor_passes():
    report = check_conduche(identity_functor(path2_category()))
    assert report.verdict == PASS
    assert report.failures == []


def test_collapse_fails_with_no_lift():
    report = check_conduche(collapse_functor())
    assert report.verdict == FAIL
    assert report.failures == [
        {
            "x": "u",
            "n": 1,
            "k": 0,
            "factorization": ["s", "s"],
            "kind": "NoLift",
        }
    ]


def test_degenerate_image_fails_nabla_and_kappa():
    report = check_conduche(parallel_pair_collapse())
    assert report.verdict == FAIL
    kinds = {f["kind"] for f in report.failures}
    assert kinds == {"NonUniqueLift", "KappaFail"}
    nonunique = next(f for f in report.failures if f["kind"] == "NonUniqueLift")
    assert nonunique["x"] == "gam"
    assert (nonunique["n"], nonunique["k"]) == (2, 1)
    assert sorted(map(tuple, nonunique["lifts"])) == [("1v", "gam"), ("gam", "1u")]


def test_nabla_and_kappa_split_the_verdict():
    f = parallel_pair_collapse()
    assert check_nabla(f, 2, 1).verdict == FAIL
    assert check_kappa(f, 2, 1).verdict == FAIL
    assert check_nabla(f, 2, 0).verdict == PASS
    # the collapse functor breaks lifting but not degeneracy reflection
    g = collapse_functor()
    assert check_nabla(g, 1, 0).verdict == FAIL
    assert check_kappa(g, 1, 0).verdict == PASS


@pytest.mark.parametrize("check", [check_nabla, check_kappa])
@pytest.mark.parametrize("k", [1, -1])
def test_nabla_and_kappa_refuse_a_level_outside_0_to_n(check, k):
    # Both need 0 <= k < n: k = n and a negative k are usage errors.
    with pytest.raises(SchemaError):
        check(collapse_functor(), 1, k)


def test_extension_morphism_validates():
    check_extension_morphism(eh_morphism())
    broken = eh_morphism()
    broken.phi["a"] = "zzz"
    with pytest.raises(SchemaError):
        check_extension_morphism(broken)


def test_induced_word_and_term_map():
    m = eh_morphism()
    word = tokenize("((c:a)*1(c:b))")
    assert serialize(induced_word_map(m, word)) == "((c:c)*1(c:c))"
    t = induced_term(m, term(m.source, "((c:a)*0(i:id_star))"))
    assert t.serialize() == "((c:c)*0(i:id_star))"


def test_induced_word_map_rejects_foreign_tokens():
    m = eh_morphism()
    with pytest.raises(NotWellFormed):
        induced_word_map(m, tokenize("(c:zzz)"))


def test_induced_movement_relabels_all_parts():
    m = eh_morphism()
    t = term(m.source, "((c:a)*0(c:b))")
    movement = enumerate_movements(m.source, t)[0]
    image = induced_movement(m, movement)
    downstairs = induced_term(m, t)
    stepped = apply_movement(downstairs, image)
    assert stepped.word == induced_word_map(m, apply_movement(t, movement).word)


def test_fiber_route_matches_table_on_named_functors():
    assert fiber_conduche(identity_functor(path2_category()), 2).verdict == PASS
    report = fiber_conduche(collapse_functor(), 2)
    assert report.verdict == FAIL
    assert report.failures[0] == {
        "x": "u",
        "level": 1,
        "kind": "surjectivity",
        "unhit": "((c:s)*0(c:s))",
    }


@pytest.mark.parametrize(
    "build, table, message",
    [
        (path2_category, (1, 0), "'g' *0 'f' at level 1"),
        (parallel_pair_category, (2, 1), "'1v' *1 'gam' at level 2"),
        (parallel_pair_category, (2, 0), "'11y' *0 'gam' at level 2"),
    ],
)
def test_fiber_route_reports_a_missing_table_entry(build, table, message):
    category = build()
    entries = category.comp[table]
    del entries[list(entries)[-1]]
    with pytest.raises(UndefinedComposite) as raised:
        fiber_conduche(identity_functor(category), 2)
    assert str(raised.value) == message
    # The edit comes before the category's first derived read, so the
    # category answers as one built with the edit does.
    tables = build()
    built = PresentedCategory(
        tables.dimension, tables.cells, tables.src, tables.tgt, tables.ids,
        {key: dict(entries) if key == table else t for key, t in tables.comp.items()},
        tables.basis,
    )
    assert built == category
    assert validate_category(built).violations == validate_category(category).violations
    with pytest.raises(UndefinedComposite) as raised:
        fiber_conduche(identity_functor(built), 2)
    assert str(raised.value) == message


def test_boundary_maps_are_built_once_per_category(monkeypatch):
    # validate_category, the fiber route and the basis check all read the
    # category's own boundary maps: one build for the three.
    builds = []
    boundaries = PresentedCategory.__dict__["boundaries"]

    def counted(category):
        builds.append(category)
        return boundaries.func(category)

    patched = cached_property(counted)
    patched.__set_name__(PresentedCategory, "boundaries")
    monkeypatch.setattr(PresentedCategory, "boundaries", patched)
    category = parallel_pair_category()
    validate_category(category)
    fiber_conduche(identity_functor(category), 2)
    for level in (1, 2):
        check_basis(category, level, category.basis[level])
    assert [c for c in builds if c is category] == [category]


def test_fiber_witness_rebuilds_deep_records():
    # a record nested deeper than the interpreter's recursion limit
    s = ("s", 0, (GENERATOR, "s"), None, None)
    record = s
    for _ in range(3000):
        record = ("s", 1, record, 0, s)
    term = _term_of(full_extension(loop_category(), 1), record)
    assert term.size == 3000
    assert term.serialize() == "(" * 3001 + "c:s)" + "*0(c:s))" * 3000


def test_witnesses_are_spelled_from_deep_records_without_terms(monkeypatch):
    # The same record, spelled with no term built and no recursion; an
    # identity atom spells as (i:x).
    s = ("s", 0, (GENERATOR, "s"), None, None)
    record = s
    for _ in range(3000):
        record = ("s", 1, record, 0, s)
    monkeypatch.setattr(terms, "Term", None)
    assert _spelled(record) == "(" * 3001 + "c:s)" + "*0(c:s))" * 3000
    unit = ("1x", 2, (IDENTITY, "x"), None, None)
    assert _spelled(("f", 3, unit, 0, ("f", 4, (GENERATOR, "f"), None, None))) == "((i:x)*0(c:f))"


def test_fiber_route_builds_extensions_only_for_witnesses(monkeypatch):
    # The records and classes read the categories' own tables, and every
    # witness is spelled from its record or class: no extension, and with it
    # no truncated copy of the category, is built, even for a witness.
    calls = []
    truncate = terms.truncate

    def counted(*args):
        calls.append(args)
        return truncate(*args)

    monkeypatch.setattr(terms, "truncate", counted)
    verdicts = set()
    for name, functor in functor_corpus():
        calls.clear()
        report = fiber_conduche(functor, 3)
        verdicts.add(report.verdict)
        assert calls == [], name
    assert verdicts == {PASS, FAIL}


FIBER_QUERIES = [
    (
        lambda: inflate_functor(dict(functor_corpus())["collapse-loop"], 2),
        atom_word(GENERATOR, "1(u)"),
        (FAIL, {"kind": "surjectivity", "unhit": "((c:1(s))*1((i:s)*0(i:s)))"}),
    ),
    (
        lambda: dict(functor_corpus())["inflated-0"],
        pair_word(atom_word(GENERATOR, "1(id_o0)"), 0, atom_word(GENERATOR, "1(id_o0)")),
        (UNKNOWN, None),
    ),
]


def fiber_query(functor, representative):
    """The query at dimension 2 with size bound 2, under tight bounds."""
    m = morphism_from_functor(functor(), 2)
    bounds = SearchBounds(size_slack=0, max_steps=2, max_visited=30)
    return m, check_term(m.source, representative), 2, bounds


@pytest.mark.parametrize(
    "functor,representative,expected", FIBER_QUERIES, ids=["surjectivity", "unknown"]
)
def test_fiber_bijection_outcomes(functor, representative, expected):
    # The tight bounds leave the second query's memberships Unknown.
    report = check_fiber_bijection(*fiber_query(functor, representative))
    assert (report.verdict, report.witness) == expected


@pytest.mark.parametrize(
    "functor,representative,expected,searches",
    [(*query, searches) for query, searches in zip(FIBER_QUERIES, (8, 4))],
    ids=["surjectivity", "unknown"],
)
def test_fiber_bijection_runs_each_search_once(
    monkeypatch, functor, representative, expected, searches
):
    # Without the per-call memo the two queries ran 30 and 26 searches.
    keys = []
    search = movements._bidirectional_search

    def recorded(extension, start, goal, size_cap, max_steps, max_visited, stats):
        keys.append((id(extension), start.word, goal.word, size_cap, max_steps, max_visited))
        return search(extension, start, goal, size_cap, max_steps, max_visited, stats)

    monkeypatch.setattr(movements, "_bidirectional_search", recorded)
    report = check_fiber_bijection(*fiber_query(functor, representative))
    assert (report.verdict, report.witness) == expected
    assert len(keys) == len(set(keys)) == searches


def test_fiber_bijection_with_one_unknown_side_is_unknown():
    # Every source membership is decided and every target member is hit, but
    # one target membership is Unknown: that side alone makes the verdict
    # Unknown.
    m = morphism_from_functor(collapse_functor(), 1)
    a = check_term(m.source, pair_word(atom_word(GENERATOR, "u"), 0, atom_word(GENERATOR, "1x")))

    def memberships(extension, representative):
        ext = CellularExtension(extension.base, dict(sorted(extension.generators.items())))
        return {
            candidate.word.tokens: equivalent(ext, candidate, representative, SearchBounds()).verdict
            for candidate in enumerate_terms(ext, 1)[0]
        }

    source = memberships(m.source, a)
    target = memberships(m.target, induced_term(m, a))
    assert set(source.values()) == {movements.WITNESS, movements.DISTINCT}
    assert movements.UNKNOWN in target.values()
    hit = {induced_word_map(m, Word(tokens)).tokens
           for tokens, verdict in source.items() if verdict == movements.WITNESS}
    assert {tokens for tokens, verdict in target.items() if verdict == movements.WITNESS} <= hit
    assert check_fiber_bijection(m, a, 1, SearchBounds()).verdict == UNKNOWN


def test_fiber_bijection_with_only_the_source_side_unknown_is_unknown():
    # Two loops a, b on one object both map to the loop g. The only source
    # member up to size 1 is the representative, whose image is the one
    # target member, so nothing fails; but ((c:b)*0(c:a)) is Unknown against
    # it, and that source side alone makes the verdict Unknown. Once O14
    # step 2 makes that word distinct at dimension 0, this query passes and
    # the test changes with it.
    base = PresentedCategory(0, {0: ["x"]}, {}, {}, {}, {})
    source = CellularExtension(base, {"a": ("x", "x"), "b": ("x", "x")})
    target = CellularExtension(base, {"g": ("x", "x")})
    m = ExtensionMorphism(source, target, identity_functor(base), {"a": "g", "b": "g"})
    check_extension_morphism(m)
    a = term(source, "((c:a)*0(c:b))")

    def memberships(extension, representative):
        return {
            candidate.serialize(): equivalent(extension, candidate, representative).verdict
            for candidate in enumerate_terms(extension, 1)[0]
        }

    source_side = memberships(source, a)
    unknown = [word for word, verdict in source_side.items() if verdict == movements.UNKNOWN]
    assert unknown == ["((c:b)*0(c:a))"]
    target_side = memberships(target, induced_term(m, a))
    assert set(target_side.values()) == {movements.WITNESS, movements.DISTINCT}
    assert check_fiber_bijection(m, a, 1, SearchBounds()).verdict == UNKNOWN


def test_fiber_bijection_of_an_identity_passes():
    # Every membership is decided, and each member is its own image.
    m = morphism_from_functor(identity_functor(arrow_category()), 1)
    a = check_term(m.source, atom_word(GENERATOR, "u"))
    assert check_fiber_bijection(m, a, 2, SearchBounds()).verdict == PASS


def test_rigidity():
    assert is_rigid(eh_morphism(), {2: ["a", "b"]}, {2: ["c"]})
    # the degenerate image is outside every generator set
    assert not is_rigid(
        parallel_pair_collapse(), {2: ["gam"]}, {2: ["1(1x)", "1(1y)"]}
    )


def test_lift_movement_through_identity():
    m = morphism_from_functor(identity_functor(path2_category()), 1)
    t = term(m.source, "((c:g)*0(c:f))")
    for movement in enumerate_movements(m.target, induced_term(m, t)):
        lifted, out = lift_movement(m, movement, t)
        assert lifted.case == movement.case
        assert out.word == apply_movement(t, movement).word


def test_lift_movement_splits():
    # target base composes the loop with itself; the arrow upstairs only
    # factors through units, so one of the three splits cannot lift
    infl = inflate_functor(collapse_functor(), 2)
    m = morphism_from_functor(infl, 2)
    down = term(m.target, "(i:s)")
    up = term(m.source, "(i:u)")
    splits = [
        mv for mv in enumerate_movements(m.target, down, BACKWARD) if mv.case == 4
    ]
    assert [mv.contractum.serialize() for mv in splits] == [
        "((i:1p)*0(i:s))",
        "((i:s)*0(i:1p))",
        "((i:s)*0(i:s))",
    ]
    _, out1 = lift_movement(m, splits[0], up)
    assert out1.serialize() == "((i:1y)*0(i:u))"
    _, out2 = lift_movement(m, splits[1], up)
    assert out2.serialize() == "((i:u)*0(i:1x))"
    with pytest.raises(NotLiftable):
        lift_movement(m, splits[2], up)


def test_unit_erasure_lifts_only_at_a_unit():
    # The arrow goes to the terminal category, so u maps to an identity: the
    # image of (i:u) is a unit downstairs although (i:u) is no unit upstairs,
    # and erasing it there would change the term's boundary.
    f = OmegaFunctor(
        arrow_category(),
        terminal_category(),
        {0: {"x": "star", "y": "star"}, 1: {"1x": "id_star", "1y": "id_star", "u": "id_star"}},
    )
    m = morphism_from_functor(inflate_functor(f, 2), 2)
    atoms = {atom.serialize(): atom for atom in all_atoms(m.source)}
    for case, (left, right) in ((2, ("(i:u)", "(c:1(1x))")), (3, ("(c:1(1y))", "(i:u)"))):
        up = compose_terms(atoms[left], 0, atoms[right])
        (movement,) = [
            mv
            for mv in enumerate_movements(m.target, induced_term(m, up), FORWARD)
            if mv.case == case
        ]
        with pytest.raises(NotLiftable):
            lift_movement(m, movement, up)


def test_lift_movement_checks_the_input_image():
    m = morphism_from_functor(identity_functor(path2_category()), 1)
    downstairs = term(m.target, "(c:f)")
    movement = enumerate_movements(m.target, downstairs, BACKWARD)[0]
    wrong = term(m.source, "(c:g)")
    with pytest.raises(SchemaError):
        lift_movement(m, movement, wrong)


def test_full_extension_and_morphism_from_functor():
    ext = full_extension(arrow_category(), 1)
    assert sorted(ext.generators) == ["1x", "1y", "u"]
    m = morphism_from_functor(collapse_functor(), 1)
    assert isinstance(m, ExtensionMorphism)
    assert m.phi == {"1x": "1p", "1y": "1p", "u": "s"}
