import pytest

from polyconduche.categories import (
    SRC,
    TGT,
    OmegaFunctor,
    composable_pair,
    compose_functors,
    globe,
    identity_functor,
    inflate,
    is_degenerate,
    truncate,
    validate_category,
    validate_functor,
)
from polyconduche.conduche import PASS, fiber_conduche
from polyconduche.errors import SchemaError, UndefinedComposite
from polyconduche.fixtures import (
    arrow_category,
    idem_category,
    inflate_functor,
    loop_category,
    parallel_pair_category,
    path2_category,
    terminal_category,
)
from polyconduche.manifests import category_from_json, category_to_json


@pytest.mark.parametrize(
    "build",
    [
        terminal_category,
        arrow_category,
        loop_category,
        path2_category,
        idem_category,
        parallel_pair_category,
    ],
)
def test_fixture_categories_validate(build):
    report = validate_category(build())
    assert report.ok, report.violations


@pytest.mark.parametrize("n", range(4))
def test_globes_validate(n):
    assert validate_category(globe(n)).ok


def test_globe_cell_counts():
    g = globe(2)
    assert [len(g.cells[l]) for l in range(3)] == [2, 4, 5]


@pytest.mark.parametrize("n,k", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_composable_pairs_validate(n, k):
    assert validate_category(composable_pair(n, k)).ok


def test_composable_pair_1_0_shape():
    c = composable_pair(1, 0)
    assert sum(len(v) for v in c.cells.values()) == 9
    # the glued composite exists in the table
    assert c.compose("a_top", "b_top", 0) == "c(a_top,b_top)"


def test_boundaries_and_identities():
    c = path2_category()
    assert c.boundary("gf", 0, SRC) == "x"
    assert c.boundary("gf", 0, TGT) == "z"
    assert c.identity_to("x", 1) == "1x"
    assert is_degenerate(c, "1x")
    assert not is_degenerate(c, "f")
    assert c.degeneracy_preimage("1x", 0) == "x"
    assert c.degeneracy_preimage("f", 0) is None


def test_compose_checks_composability():
    c = path2_category()
    assert c.compose("g", "f", 0) == "gf"
    assert c.composable("g", "f", 0)
    assert not c.composable("f", "g", 0)
    with pytest.raises(UndefinedComposite):
        c.compose("f", "g", 0)
    with pytest.raises(UndefinedComposite):
        c.compose("g", "f", 1)


def test_missing_table_entry_raises():
    c = path2_category()
    broken = c.comp[(1, 0)].copy()
    del broken[("g", "f")]
    c2 = path2_category()
    c2.comp = {(1, 0): broken}
    with pytest.raises(UndefinedComposite):
        c2.compose("g", "f", 0)


def test_factorizations_are_sorted_and_complete():
    c = path2_category()
    assert c.factorizations("gf", 1, 0) == [("1z", "gf"), ("g", "f"), ("gf", "1x")]
    assert c.factorizations("f", 1, 0) == [("1y", "f"), ("f", "1x")]


def test_truncate():
    c = truncate(idem_category(), 1)
    assert c.dimension == 1
    assert 2 not in c.cells
    assert validate_category(c).ok


def test_inflate_pads_with_identities():
    c = inflate(arrow_category(), 3)
    assert c.dimension == 3
    assert c.cells[2] == ["1(1x)", "1(1y)", "1(u)"]
    assert c.cells[3] == ["1(1(1x))", "1(1(1y))", "1(1(u))"]
    assert validate_category(c).ok
    assert truncate(c, 1).cells == arrow_category().cells


def test_inflate_functor_into_a_deeper_target():
    # idem is 2-dimensional already, so the padding identities of the arrow
    # go to idem's own identities on their images.
    f = OmegaFunctor(
        arrow_category(), idem_category(), {0: {"x": "o", "y": "o"}, 1: {"1x": "1o", "1y": "1o", "u": "f"}}
    )
    assert validate_functor(f).ok
    inflated = inflate_functor(f, 2)
    assert inflated.maps[2] == {"1(1x)": "11o", "1(1y)": "11o", "1(u)": "1f"}
    assert validate_functor(inflated).ok


def test_validate_flags_globularity():
    c = parallel_pair_category()
    c.tgt[2]["gam"] = "1y"  # target is no longer parallel to the source
    report = validate_category(c)
    assert not report.ok
    assert any(tag == "globular" for tag, _ in report.violations)


def test_validate_flags_missing_composite():
    c = path2_category()
    del c.comp[(1, 0)][("g", "f")]
    report = validate_category(c)
    assert not report.ok
    assert ("comp-total", (1, 0, "g", "f")) in report.violations


def test_validate_flags_broken_unit():
    c = arrow_category()
    c.comp[(1, 0)][("u", "1x")] = "1y"
    report = validate_category(c)
    assert not report.ok
    tags = {tag for tag, _ in report.violations}
    assert "right-unit" in tags


def test_schema_error_on_dangling_reference():
    c = arrow_category()
    c.src[1]["u"] = "nope"
    with pytest.raises(SchemaError):
        validate_category(c)


def test_equal_categories_stay_equal_once_used():
    # The indexes a category derives from its tables are not part of its
    # value: using one of two equal categories keeps them equal, and a used
    # category survives a JSON round trip.
    used, fresh = path2_category(), path2_category()
    assert ("g", "f") in used.factorizations("gf", 1, 0)
    assert validate_category(used).ok
    assert fiber_conduche(identity_functor(used), 2).verdict == PASS
    assert used == fresh
    assert category_from_json(category_to_json(used)) == used


def test_identity_functor_validates():
    f = identity_functor(idem_category())
    assert validate_functor(f).ok
    assert f.apply("g") == "g"


def test_functor_boundary_square_violation():
    c = arrow_category()
    f = OmegaFunctor(
        c, c, {0: {"x": "x", "y": "x"}, 1: {"1x": "1x", "1y": "1y", "u": "1x"}}
    )
    report = validate_functor(f)
    assert not report.ok


def test_compose_functors():
    c = arrow_category()
    f = identity_functor(c)
    g = compose_functors(f, f)
    assert validate_functor(g).ok
    assert g.apply("u") == "u"
