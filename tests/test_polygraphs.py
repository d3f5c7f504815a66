import pytest

from polyconduche import polygraphs, terms
from polyconduche.categories import (
    OmegaFunctor,
    PresentedCategory,
    globe,
    identity_functor,
    validate_category,
)
from polyconduche.errors import NotSurjective, SchemaError
from polyconduche.fixtures import (
    arrow_category,
    collapse_functor,
    free_category_on_dag,
    idem_category,
    loop_category,
    parallel_pair_category,
    path2_category,
)
from polyconduche.movements import SearchBounds
from polyconduche.polygraphs import (
    BASIS,
    NOT_BASIS,
    UNKNOWN,
    BasisBounds,
    check_basis,
    check_free,
    default_word_bound,
    image_basis,
    indecomposables,
    transfer_basis,
)


def test_indecomposables_level_zero_is_all_objects():
    assert indecomposables(path2_category(), 0) == {"x", "y", "z"}


def test_indecomposables_drop_composites_and_identities():
    assert indecomposables(path2_category(), 1) == {"f", "g"}
    assert indecomposables(arrow_category(), 1) == {"u"}
    assert indecomposables(parallel_pair_category(), 2) == {"gam"}


def test_idempotents_are_decomposable():
    # s = s * s is a factorization with no unit factor
    assert indecomposables(loop_category(), 1) == set()
    assert indecomposables(idem_category(), 2) == set()


def test_default_word_bound():
    assert default_word_bound(path2_category(), 1) == 6
    assert default_word_bound(parallel_pair_category(), 2) == 2


def test_declared_basis_is_a_basis():
    verdict = check_basis(path2_category(), 1, ["f", "g"])
    assert verdict.verdict == BASIS
    assert verdict.witness is None


def test_missing_generator_is_proven():
    verdict = check_basis(path2_category(), 1, ["f"])
    assert verdict.verdict == NOT_BASIS
    assert verdict.witness["kind"] == "MissingPreimage"
    assert verdict.witness["cell"] == "g"


def test_redundant_generator_disconnects_a_fiber():
    verdict = check_basis(path2_category(), 1, ["f", "g", "gf"])
    assert verdict.verdict == NOT_BASIS
    assert verdict.witness["kind"] == "DisconnectedPair"
    assert verdict.witness["cell"] == "gf"
    assert set(verdict.witness["pair"]) == {"(c:gf)", "((c:g)*0(c:f))"}


@pytest.mark.parametrize("sigma", [["f", "g", "f"], ["f", "f"]])
def test_a_repeated_cell_is_refused(sigma):
    # The restricted extension keys generators by name, so a repeat would
    # vanish from the verdict while the caller's set still shows it.
    with pytest.raises(SchemaError, match="repeated cell 'f'"):
        check_basis(path2_category(), 1, sigma)


def test_non_free_composition_disconnects():
    verdict = check_basis(loop_category(), 1, ["s"])
    assert verdict.verdict == NOT_BASIS
    assert verdict.witness["kind"] == "DisconnectedPair"


def test_truncated_enumeration_is_unknown():
    bounds = BasisBounds(max_terms=3)
    verdict = check_basis(path2_category(), 1, ["f", "g"], bounds)
    assert verdict.verdict == UNKNOWN


def test_tiny_word_bound_leaves_cells_unresolved():
    bounds = BasisBounds(word_size=0)
    verdict = check_basis(path2_category(), 1, ["f", "g"], bounds)
    assert verdict.verdict == UNKNOWN
    assert "gf" in verdict.unresolved


def test_check_free_on_free_fixtures():
    cat = path2_category()
    report = check_free(cat, cat.basis)
    assert report.verdict == BASIS
    assert report.basis_matches_indecomposables == {0: True, 1: True}

    g = globe(2)
    report = check_free(g, g.basis)
    assert report.verdict == BASIS
    assert all(report.basis_matches_indecomposables.values())


def test_check_free_flags_wrong_objects():
    cat = path2_category()
    report = check_free(cat, {0: ["x", "y"], 1: ["f", "g"]})
    assert report.verdict == NOT_BASIS
    assert report.per_dim[0].witness["kind"] == "MissingPreimage"


def test_transfer_basis():
    out = transfer_basis(collapse_functor(), {0: ["p"], 1: ["s"]})
    assert out == {0: ["x", "y"], 1: ["u"]}


def test_image_basis_round_trip():
    cat = path2_category()
    f = identity_functor(cat)
    assert image_basis(f, cat.basis) == {0: ["x", "y", "z"], 1: ["f", "g"]}


def test_image_basis_requires_surjectivity():
    arrow = arrow_category()
    path2 = path2_category()
    inclusion = OmegaFunctor(
        arrow,
        path2,
        {0: {"x": "x", "y": "y"}, 1: {"1x": "1x", "1y": "1y", "u": "f"}},
    )
    with pytest.raises(NotSurjective) as err:
        image_basis(inclusion, arrow.basis)
    assert err.value.level == 0
    assert err.value.cell == "z"


def test_search_bounds_thread_through():
    bounds = BasisBounds(search=SearchBounds(max_steps=0))
    # association is settled by the normal form, not the search budget
    verdict = check_basis(path2_category(), 1, ["f", "g"], bounds)
    assert verdict.verdict == BASIS


def chain7_category():
    """The free category on a chain of 7 edges."""
    edges = [(f"e{i}", f"p{i - 1}", f"p{i}") for i in range(1, 8)]
    return free_category_on_dag([f"p{i}" for i in range(8)], edges).category


@pytest.mark.parametrize(
    "name, expected, rebuilt",
    [("chain7", BASIS, 0), ("path2-all", NOT_BASIS, 2)],
)
def test_basis_verdicts_need_no_search(monkeypatch, name, expected, rebuilt):
    # Every preimage of a free chain's cell has the same atom sequence, and
    # path2 with every 1-cell as a generator fails on generator multisets.
    if name == "chain7":
        category = chain7_category()
        sigma = list(category.basis[1])
    else:
        category = path2_category()
        sigma = list(category.cells[1])
    calls = {"equivalent": 0, "_term_of": 0}
    for function in calls:
        monkeypatch.setattr(polygraphs, function, counting(calls, function))
    # The records read the category's tables: the extension and a truncated
    # copy of the category are built only when a term is rebuilt over it.
    built = {"CellularExtension": 0, "truncate": 0}
    for function in built:
        monkeypatch.setattr(terms, function, counting(built, function, terms))
    verdict = check_basis(category, 1, sigma)
    assert verdict.verdict == expected
    assert calls == {"equivalent": 0, "_term_of": rebuilt}
    expected_built = {"chain7": 0, "path2-all": 1}[name]
    assert built == {"CellularExtension": expected_built, "truncate": expected_built}


def test_basis_records_are_listed_only_to_the_split_size(monkeypatch):
    # path2 with every 1-cell as a generator splits on two atoms, (c:1x) and
    # (i:x); a level-1 Basis verdict is read off sequence classes with no
    # record; a missing preimage is proven by closure, with no record.
    listed = []
    value_buckets = polygraphs._value_buckets

    def counted(category, level, sigma, atom_key, shapes, max_size, *rest):
        listed.append(max_size)
        return value_buckets(category, level, sigma, atom_key, shapes, max_size, *rest)

    monkeypatch.setattr(polygraphs, "_value_buckets", counted)
    path2 = path2_category()
    verdict = check_basis(path2, 1, list(path2.cells[1]))
    assert verdict.witness == {"kind": "DisconnectedPair", "pair": ["(c:1x)", "(i:x)"], "cell": "1x"}
    assert listed == [0]

    listed.clear()
    chain7 = chain7_category()
    assert check_basis(chain7, 1, list(chain7.basis[1])).verdict == BASIS
    assert listed == []

    listed.clear()
    verdict = check_basis(path2, 1, ["f"])
    assert verdict.witness["kind"] == "MissingPreimage"
    assert listed == []


@pytest.mark.parametrize("name", ["chain7", "path2"])
def test_level_one_basis_verdicts_list_no_record(monkeypatch, name):
    # One class pass keyed by generator sequences decides a level-1 Basis:
    # no multiset pass, no record, no extension.
    if name == "chain7":
        category = chain7_category()
        sigma = list(category.basis[1])
    else:
        category, sigma = path2_category(), ["f", "g"]
    keys = []
    split_size = polygraphs._split_size

    def keyed(*args, ordered):
        keys.append(ordered)
        return split_size(*args, ordered=ordered)

    monkeypatch.setattr(polygraphs, "_split_size", keyed)
    calls = {"_value_buckets": 0}
    monkeypatch.setattr(polygraphs, "_value_buckets", counting(calls, "_value_buckets"))
    built = {"CellularExtension": 0}
    monkeypatch.setattr(terms, "CellularExtension", counting(built, "CellularExtension", terms))
    assert check_basis(category, 1, sigma).verdict == BASIS
    assert keys == [True]
    assert calls == {"_value_buckets": 0}
    assert built == {"CellularExtension": 0}


def test_level_one_word_count_meets_max_terms_exactly(monkeypatch):
    # chain7's reduced words within its bound of 8: the 8 identity atoms and,
    # for each of the 8 - L paths of L edges, Catalan(L - 1) bracketings.
    # With max_terms at exactly that sum, Basis comes from the sequence
    # classes alone, with no record listed.
    chain7 = chain7_category()
    sigma = list(chain7.basis[1])
    catalan = [1, 1, 2, 5, 14, 42, 132]
    assert 8 + sum((8 - L) * catalan[L - 1] for L in range(1, 8)) == 309
    cut = check_basis(chain7, 1, sigma, BasisBounds(max_terms=308))
    assert cut.to_json() == {"verdict": UNKNOWN, "unresolved": ["<enumeration truncated>"]}
    calls = {"_value_buckets": 0}
    monkeypatch.setattr(polygraphs, "_value_buckets", counting(calls, "_value_buckets"))
    assert check_basis(chain7, 1, sigma, BasisBounds(max_terms=309)).verdict == BASIS
    assert calls == {"_value_buckets": 0}


def test_level_one_sequence_pass_pairs_only_generator_atoms(monkeypatch):
    # At level 1 every identity atom is a unit that the reduced filter drops,
    # so the pass pairs chain7's 7 edges alone: 56 filter calls, where
    # pairing its 8 identity atoms too made 120.
    calls = []
    reduced_records = polygraphs._reduced_records

    def counted_filter(category, level):
        admit = reduced_records(category, level)

        def counted(*args):
            calls.append(args)
            return admit(*args)

        return counted

    monkeypatch.setattr(polygraphs, "_reduced_records", counted_filter)
    chain7 = chain7_category()
    assert check_basis(chain7, 1, list(chain7.basis[1])).verdict == BASIS
    assert len(calls) == 56


def test_level_two_words_with_the_same_atoms_are_searched():
    # One object, one arrow and the 2-cells e, a, b = a.a of a commutative
    # monoid, composed alike at both levels. b's preimages (a*0a) and (a*1a)
    # share their atoms; only an interchange search connects them.
    product = {"e": "eab", "a": "abb", "b": "bbb"}
    table = {(x, y): product[x]["eab".index(y)] for x in product for y in product}
    category = PresentedCategory(
        2,
        {0: ["o"], 1: ["1"], 2: ["e", "a", "b"]},
        {1: {"1": "o"}, 2: {"e": "1", "a": "1", "b": "1"}},
        {1: {"1": "o"}, 2: {"e": "1", "a": "1", "b": "1"}},
        {0: {"o": "1"}, 1: {"1": "e"}},
        {(1, 0): {("1", "1"): "1"}, (2, 0): dict(table), (2, 1): dict(table)},
    )
    assert validate_category(category).ok
    starved = BasisBounds(word_size=1, search=SearchBounds(max_steps=0))
    assert check_basis(category, 2, ["a"], starved).to_json() == {
        "verdict": UNKNOWN,
        "unresolved": ["b"],
    }
    assert check_basis(category, 2, ["a"], BasisBounds(word_size=1)).verdict == BASIS


def commutative_category_cut_at_4():
    """One object o and the monoid N^2 cut at degree 4, built as
    commutative_category() in test_fiber_reference.py builds its cut at
    degree 3: a cell per degree (i, j) in (a, b) below 4, named m<i><j> from
    degree 2 on, and z for every degree of 4 or more."""
    degree = {"1o": (0, 0), "a": (1, 0), "b": (0, 1)}
    degree.update({f"m{i}{j}": (i, j) for i in range(4) for j in range(4) if 2 <= i + j <= 3})
    degree["z"] = (4, 0)
    named = {d: x for x, d in degree.items()}
    cells = list(degree)
    comp = {
        (x, y): named.get((degree[x][0] + degree[y][0], degree[x][1] + degree[y][1]), "z")
        for x in cells
        for y in cells
    }
    return PresentedCategory(
        1,
        {0: ["o"], 1: cells},
        {1: {x: "o" for x in cells}},
        {1: {x: "o" for x in cells}},
        {0: {"o": "1o"}},
        {(1, 0): comp},
    )


def test_level_one_preimages_with_the_first_ones_sequence_are_not_searched(monkeypatch):
    # At level 1, two preimages with one generator sequence are equal by
    # re-association, so connected searches only the preimages whose
    # sequence differs from the first one's. m11, m12 and m21 each stop at
    # their first Unknown search, and z has no preimage within the bound.
    # Searching the same-sequence preimages too takes 5 searches.
    category = commutative_category_cut_at_4()
    assert validate_category(category).ok
    calls = {"equivalent": 0}
    monkeypatch.setattr(polygraphs, "equivalent", counting(calls, "equivalent"))
    verdict = check_basis(category, 1, ["a", "b"], BasisBounds(word_size=2))
    assert verdict.to_json() == {"verdict": UNKNOWN, "unresolved": ["m11", "m12", "m21", "z"]}
    assert calls == {"equivalent": 3}


def counting(calls, name, module=polygraphs):
    """The module's function `name`, counting its calls in calls[name]."""
    function = getattr(module, name)

    def counted(*args):
        calls[name] += 1
        return function(*args)

    return counted
