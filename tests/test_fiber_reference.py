"""The fiber route and the basis check against per-term oracles.

`fiber_conduche` decides each level from classes of target words, takes each
surjectivity witness from the first word of a class, and lists records of
each source word's value and image shape, read off its two factors, only on
a level with an injectivity failure and only up to the size of its
witnesses; it spells every witness from its record or class and builds no
term. The record loop of both sides at the full bound (record_failures) is
the reference for the class route.
`check_basis` first runs class passes that list no word: at level 1 one
keyed by generator sequences, which decides Basis, then one keyed by
generator multisets, which finds the least size of a NotBasis witness.
Only then does it enumerate records of each reduced word's value and atom
sequence, up to that size or the full bound, and it rebuilds terms only for
a witness or an equivalence search. The oracles below do what they did
before that: enumerate terms with a plain nested loop, evaluate every term
from its atoms, relabel every source word token by token and compare every
preimage with `equivalent`. Verdicts and witnesses must agree exactly.
"""

from itertools import combinations
from math import comb
from pathlib import Path
from random import Random

import pytest

from polyconduche import conduche, polygraphs
from polyconduche.categories import SRC, TGT, PresentedCategory, validate_category
from polyconduche.conduche import (
    FAIL,
    PASS,
    ConducheReport,
    _fiber_classes,
    fiber_conduche,
    full_extension,
    induced_word_map,
    morphism_from_functor,
)
from polyconduche.fixtures import (
    arrow_category,
    functor_corpus,
    idem_category,
    inflate_functor,
    loop_category,
    parallel_pair_category,
    path2_category,
    random_dag_category,
    random_functor,
)
from polyconduche.manifests import CATEGORY, load_document
from polyconduche.movements import DISTINCT, WITNESS, _unit_on, equivalent
from polyconduche.polygraphs import (
    BASIS,
    NOT_BASIS,
    UNKNOWN,
    BasisBounds,
    BasisVerdict,
    _basis_records,
    _reachable_values,
    _reduced_records,
    _split_size,
    check_basis,
    default_word_bound,
    indecomposables,
    transfer_basis,
)
from polyconduche.terms import (
    IDENTITY,
    _spelled,
    _term_of,
    _value_buckets,
    all_atoms,
    compose_terms,
    enumerate_terms,
    evaluate,
    restriction_extension,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CORPUS = functor_corpus()


def plain_enumeration(extension, max_size, max_count=None, reduced=False):
    """Every composable pair of smaller terms, tested pair by pair; at most
    max_count terms, truncated when an admitted term was left out."""
    base = extension.base
    n = extension.dimension
    atoms = all_atoms(extension)
    if max_count is not None and len(atoms) > max_count:
        return atoms[:max_count], True
    by_size = [atoms]
    total = len(atoms)
    for size in range(1, max_size + 1):
        layer = []
        by_size.append(layer)
        for k in range(n + 1):
            for left_size in range(size):
                for left in by_size[left_size]:
                    for right in by_size[size - 1 - left_size]:
                        if k == n:
                            if left.src != right.tgt:
                                continue
                        elif base.boundary(left.src, k, SRC) != base.boundary(right.tgt, k, TGT):
                            continue
                        if reduced and not irreducible(extension, left, k, right):
                            continue
                        if total == max_count:
                            return [t for lst in by_size for t in lst], True
                        layer.append(compose_terms(left, k, right))
                        total += 1
    return [t for lst in by_size for t in lst], False


def irreducible(extension, left, k, right):
    n = extension.dimension
    lid = left.name if left.kind == IDENTITY else None
    rid = right.name if right.kind == IDENTITY else None
    if lid is not None and lid == _unit_on(extension, right.tgt, k, TGT):
        return False
    if rid is not None and rid == _unit_on(extension, left.src, k, SRC):
        return False
    return not (
        k < n
        and lid is not None
        and rid is not None
        and (lid, rid) in extension.base.comp.get((n, k), {})
    )


def oracle_buckets(category, level, size_bound):
    sigma = list(category.cells.get(level, []))
    terms, _ = plain_enumeration(full_extension(category, level), size_bound)
    buckets = {}
    for term in terms:
        buckets.setdefault(evaluate(category, sigma, term), []).append(term)
    return buckets


def oracle_fiber_conduche(functor, size_bound):
    """Each fiber compared by the relabelled words of its members."""
    up_to_dim = min(functor.source.dimension, functor.target.dimension)
    failures = []
    for level in range(1, up_to_dim + 1):
        morphism = morphism_from_functor(functor, level)
        src_buckets = oracle_buckets(functor.source, level, size_bound)
        tgt_buckets = oracle_buckets(functor.target, level, size_bound)
        for a in functor.source.cells.get(level, []):
            seen = {}
            fail = None
            for member in src_buckets.get(a, []):
                key = induced_word_map(morphism, member.word).tokens
                if key in seen:
                    fail = {
                        "x": a,
                        "level": level,
                        "kind": "injectivity",
                        "pair": [seen[key].serialize(), member.serialize()],
                    }
                    break
                seen[key] = member
            if fail is None:
                for target_member in tgt_buckets.get(functor.apply(a), []):
                    if target_member.word.tokens not in seen:
                        fail = {
                            "x": a,
                            "level": level,
                            "kind": "surjectivity",
                            "unhit": target_member.serialize(),
                        }
                        break
            if fail is not None:
                failures.append(fail)
    return ConducheReport(FAIL if failures else PASS, failures)


def oracle_check_basis(category, level, sigma, bounds=None):
    """check_basis with every reduced preimage word, up to the full bound,
    evaluated on its own."""
    bounds = bounds or BasisBounds()
    reachable = _reachable_values(category, level, sigma)
    for a in category.cells.get(level, []):
        if a not in reachable:
            return BasisVerdict(NOT_BASIS, {"kind": "MissingPreimage", "cell": a})
    extension = restriction_extension(category, level, sigma)
    size_bound = bounds.word_size
    if size_bound is None:
        size_bound = default_word_bound(category, level)
    terms, truncated = plain_enumeration(extension, size_bound, bounds.max_terms, reduced=True)
    buckets = {}
    for term in terms:
        buckets.setdefault(evaluate(category, sigma, term), []).append(term)
    unresolved = []
    for a in category.cells.get(level, []):
        preimages = buckets.get(a, [])
        if not preimages:
            unresolved.append(a)
            continue
        for candidate in preimages[1:]:
            outcome = equivalent(extension, candidate, preimages[0], bounds.search)
            if outcome.verdict == DISTINCT:
                pair = [preimages[0].serialize(), candidate.serialize()]
                return BasisVerdict(NOT_BASIS, {"kind": "DisconnectedPair", "pair": pair, "cell": a})
            if outcome.verdict != WITNESS and a not in unresolved:
                unresolved.append(a)
    if truncated:
        unresolved.append("<enumeration truncated>")
    if unresolved:
        return BasisVerdict(UNKNOWN, None, unresolved)
    return BasisVerdict(BASIS)


def finite_categories():
    """Every shipped valid category fixture and every corpus category, by name."""
    out = {}
    for path in sorted(FIXTURES.glob("*.cat.json")):
        if path.name.startswith("bad_"):
            continue
        kind, category = load_document(path)
        assert kind == CATEGORY
        out[path.name] = category
    for name, functor in CORPUS:
        out[f"{name}.source"] = functor.source
        out[f"{name}.target"] = functor.target
    return sorted(out.items())


CATEGORIES = finite_categories()


def seeded_functors(count=30):
    """Functors from seeded free DAG categories into the non-free loop and
    idem categories, whose fibers fail with composite witnesses."""
    out = []
    for target_name, target in (("loop", loop_category()), ("idem", idem_category())):
        for seed in range(count):
            rng = Random(seed)
            source = random_dag_category(rng, max_objects=4, max_edges=4, max_paths=8)
            out.append((f"dag-{seed}-into-{target_name}", random_functor(rng, source, target)))
    return out


SEEDED = seeded_functors()
INFLATED = [(f"{name}-inflated", inflate_functor(functor, 2)) for name, functor in SEEDED]


def record_failures(functor, level, size_bound):
    """The failures of one level, from the words of both sides up to the
    size bound, listed as records of their value and the shape id of their
    image word (terms._value_buckets): an atom's is (kind, name of its
    image), a composite's (left id, k, right id), interned per level. The
    induced word map being token-wise, two words have the same image word
    exactly when their ids are equal. Witnesses are terms rebuilt over each
    side's full extension, built once."""
    extensions = {}

    def spell(category, record):
        extension = extensions.get(id(category))
        if extension is None:
            extension = extensions[id(category)] = full_extension(category, level)
        return _term_of(extension, record).serialize()

    shapes = {}
    src_buckets, _ = _value_buckets(
        functor.source, level, functor.source.cells.get(level, []),
        lambda atom: (atom[0], functor.apply(atom[1])), shapes, size_bound,
    )
    tgt_buckets, _ = _value_buckets(
        functor.target, level, functor.target.cells.get(level, []),
        lambda atom: atom, shapes, size_bound,
    )
    failures = []
    for a in functor.source.cells.get(level, []):
        seen = {}
        fail = None
        for record in src_buckets.get(a, []):
            shape = record[1]
            if shape in seen:
                fail = {
                    "x": a,
                    "level": level,
                    "kind": "injectivity",
                    "pair": [spell(functor.source, r) for r in (seen[shape], record)],
                }
                break
            seen[shape] = record
        if fail is None:
            for record in tgt_buckets.get(functor.apply(a), []):
                if record[1] not in seen:
                    fail = {
                        "x": a,
                        "level": level,
                        "kind": "surjectivity",
                        "unhit": spell(functor.target, record),
                    }
                    break
        if fail is not None:
            failures.append(fail)
    return failures


@pytest.mark.parametrize("size_bound", [1, 2, 3])
def test_fiber_conduche_matches_per_term_oracle(size_bound):
    verdicts = set()
    compositions = 0
    for name, functor in CORPUS + SEEDED:
        expected = oracle_fiber_conduche(functor, size_bound).to_json()
        assert fiber_conduche(functor, size_bound).to_json() == expected, name
        verdicts.add(expected["verdict"])
        for failure in expected["failures"]:
            for word in failure.get("pair", [failure.get("unhit", "")]):
                compositions = max(compositions, word.count("*"))
    assert verdicts == {PASS, FAIL}
    assert compositions >= min(size_bound, 2)


def test_class_route_matches_full_bound_records():
    # The records of every level at the full bound, cut to each up_to_dim.
    # The inflated functors have level-2 surjectivity witnesses of two
    # compositions (16 of them), each the first word of a class built from
    # composite classes; their level 2 has too many words to list at size 4.
    compositions = 0
    level_two = False
    cases = [(name, functor, 4) for name, functor in CORPUS + SEEDED]
    for name, functor, largest in cases + [(name, functor, 3) for name, functor in INFLATED]:
        top = min(functor.source.dimension, functor.target.dimension)
        for size_bound in range(largest + 1):
            levels = [record_failures(functor, level, size_bound) for level in range(1, top + 1)]
            for up_to_dim in [None, *range(functor.source.dimension + 1)]:
                cut = top if up_to_dim is None else min(up_to_dim, top)
                failures = [f for level in levels[:cut] for f in level]
                expected = ConducheReport(FAIL if failures else PASS, failures).to_json()
                got = fiber_conduche(functor, size_bound, up_to_dim).to_json()
                assert got == expected, (name, size_bound, up_to_dim)
            for failure in failures:
                for word in failure.get("pair", [failure.get("unhit", "")]):
                    compositions = max(compositions, word.count("*"))
                level_two = level_two or (
                    failure["level"] == 2 and failure.get("unhit", "").count("*") == 2
                )
    assert compositions >= 2
    assert level_two


def test_class_route_lists_records_only_to_the_witness_size(monkeypatch):
    # Surjectivity witnesses come from the classes: a level lists records
    # only when a cell fails injectivity, only on the source side and only
    # to its witness size, here 1.
    listed = []
    value_buckets = conduche._value_buckets

    def counted(category, level, sigma, atom_key, shapes, max_size, *rest, **options):
        listed.append((category, level, max_size))
        return value_buckets(category, level, sigma, atom_key, shapes, max_size, *rest, **options)

    monkeypatch.setattr(conduche, "_value_buckets", counted)
    verdicts = set()
    kinds = set()
    listings = 0
    for name, functor in CORPUS:
        listed.clear()
        report = fiber_conduche(functor, 3)
        verdicts.add(report.verdict)
        kinds.update(f["kind"] for f in report.failures)
        injective = sorted({f["level"] for f in report.failures if f["kind"] == "injectivity"})
        assert [level for _, level, _ in listed] == injective, name
        assert all(category is functor.source for category, _, _ in listed), name
        assert {size for _, _, size in listed} <= {1}, name
        listings += len(listed)
    assert verdicts == {PASS, FAIL}
    assert kinds == {"injectivity", "surjectivity"}
    assert listings == 7


def record_size(record):
    """The number of compositions in a _value_buckets record's word."""
    return 0 if record[3] is None else record_size(record[2]) + record_size(record[4]) + 1


def test_fiber_classes_match_value_records():
    # Each target word's class (value, N) read off the records of both sides
    # at the same bound: the source words over a target word are those with
    # its shape id, and have its size. Each class's back-pointer spells the
    # first of its words at its least size, in the listing's order.
    saturated = composite = False
    for name, functor in CORPUS:
        source, target = functor.source, functor.target
        for level in range(1, min(source.dimension, target.dimension) + 1):
            extension = full_extension(target, level)
            shapes = {}
            src_buckets, _ = _value_buckets(
                source, level, source.cells.get(level, []),
                lambda atom: (atom[0], functor.apply(atom[1])), shapes, 3,
            )
            tgt_buckets, _ = _value_buckets(
                target, level, target.cells.get(level, []), lambda atom: atom, shapes, 3,
            )
            counts = {}  # shape id -> source value -> source words, capped at 2
            for value, records in src_buckets.items():
                for record in records:
                    n = counts.setdefault(record[1], {})
                    n[value] = min(2, n.get(value, 0) + 1)
            want = {}
            first = {}  # (value, N) -> its first word of least size
            for value, records in tgt_buckets.items():
                for record in records:
                    key = (value, frozenset(counts.get(record[1], {}).items()))
                    if record_size(record) < want.get(key, 4):
                        want[key] = record_size(record)
                        first[key] = _term_of(extension, record).serialize()
            got = {}
            for value, n, left, k, right, size in _fiber_classes(functor, level, 3):
                key = (value, frozenset(n.items()))
                got[key] = size
                assert _spelled((value, n, left, k, right)) == first[key], (name, level, key)
            assert got == want, (name, level)
            saturated = saturated or any(2 in dict(n).values() for _, n in got)
            composite = composite or any(got.values())
    assert saturated and composite


def square_category():
    """A commutative square: gf = kh = e, so e has two generator multisets
    over {f, g, h, k}, both from composites of size 1."""
    arrows = {"f": ("a", "b"), "g": ("b", "d"), "h": ("a", "c"), "k": ("c", "d"), "e": ("a", "d")}
    comp = {("g", "f"): "e", ("k", "h"): "e"}
    for arrow, (x, y) in arrows.items():
        comp[(arrow, "1" + x)] = comp[("1" + y, arrow)] = arrow
    for x in "abcd":
        comp[("1" + x, "1" + x)] = "1" + x
    return PresentedCategory(
        1,
        {0: list("abcd"), 1: ["1" + x for x in "abcd"] + list(arrows)},
        {1: {**{"1" + x: x for x in "abcd"}, **{a: x for a, (x, _) in arrows.items()}}},
        {1: {**{"1" + x: x for x in "abcd"}, **{a: y for a, (_, y) in arrows.items()}}},
        {0: {x: "1" + x for x in "abcd"}},
        {(1, 0): comp},
    )


def commutative_category():
    """One object o and the monoid N^2 cut at degree 3: ab = ba = c, aa = p,
    bb = q, and every word of degree 3 or more is z. Over {a, b}, c has two
    generator sequences but one multiset, and z has two multisets."""
    # A cell's degree in (a, b); z stands for every degree of 3 or more.
    degree = {
        "1o": (0, 0), "a": (1, 0), "b": (0, 1), "c": (1, 1), "p": (2, 0), "q": (0, 2), "z": (3, 0)
    }
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


def bounded_cases(square_sigmas):
    """(name, category, level, sigma, word sizes): every case of
    level_subsets() and the square over each of square_sigmas at sizes 0-4
    and the default bound, and the commutative monoid over {a, b} at sizes
    0-3 only, since its words number in the hundreds of thousands at its
    default bound."""
    square = square_category()
    commutative = commutative_category()
    assert validate_category(square).ok and validate_category(commutative).ok
    every = (0, 1, 2, 3, 4, None)
    return (
        [(*case, every) for case in level_subsets()]
        + [("square", square, 1, sigma, every) for sigma in square_sigmas]
        + [("commutative", commutative, 1, ["a", "b"], (0, 1, 2, 3))]
    )


def test_split_size_matches_full_bound_records():
    # s* read off every reduced word up to the full bound: for the first
    # cell whose words have two generator keys, the second smallest of its
    # keys' least sizes. On the square over {f, g, h, k} the split is from
    # two composites, so the cap of two classes a value keeps is reached. At
    # level 1 the generator sequence is a key too; with no split, the
    # classes are each (value, sequence) at its least size, and a class of
    # size s holds Catalan(s) words. The commutative monoid splits on
    # sequences before it does on multisets.
    splits = set()
    keys_differ = False
    for name, category, level, sigma, word_sizes in bounded_cases((list("fghk"), ["e"])):
        admit = _reduced_records(category, level)
        for word_size in word_sizes:
            size_bound = default_word_bound(category, level) if word_size is None else word_size
            buckets, _, atoms = _basis_records(category, level, sigma, size_bound, None, admit)
            found = {}  # ordered -> s*
            for ordered in (False, True) if level == 1 else (False,):
                want = None
                least = {}  # (value, key) -> least size
                for a in category.cells.get(level, []):
                    sizes = {}
                    for record in buckets.get(a, []):
                        word = atoms[record[1]]
                        key = tuple(cell for kind, cell in word if kind != IDENTITY)
                        key = key if ordered else tuple(sorted(key))
                        sizes.setdefault(key, len(word) - 1)
                        least.setdefault((a, key), len(word) - 1)
                    if want is None and len(sizes) > 1:
                        want = sorted(sizes.values())[1]
                got, classes = _split_size(category, level, sigma, size_bound, admit, ordered)
                assert got == want, (name, level, sigma, word_size, ordered)
                if want is None and ordered:
                    assert {(c[0], c[1]): c[4] for c in classes} == least
                    words = sum(len(records) for records in buckets.values())
                    assert sum(comb(2 * c[4], c[4]) // (c[4] + 1) for c in classes) == words
                assert (classes is None) == (want is not None)
                found[ordered] = got
            splits.update(found.values())
            keys_differ = keys_differ or len(set(found.values())) > 1
    assert {None, 0, 1} <= splits
    assert keys_differ


def test_split_size_stops_once_the_first_cell_has_split(monkeypatch):
    # path2 over every 1-cell: its first cell, 1x, has two atoms, (c:1x) and
    # (i:x), so s* is 0 before any class is listed.
    path2 = path2_category()
    monkeypatch.setattr(polygraphs, "_enumerate", None)
    admit = _reduced_records(path2, 1)
    for ordered in (False, True):
        assert _split_size(path2, 1, list(path2.cells[1]), 6, admit, ordered) == (0, None)
    monkeypatch.undo()
    # The commutative monoid with z listed first: z's second multiset comes
    # at size 2, and the pass stops there. Listed last, z is still the first
    # cell to split, but the pass lists classes up to the bound to know it.
    # (The square's level-1 pass pairs only its four edges, which compose no
    # further than size 1, so where e is listed changes no work there.)
    admitted = []

    def counted(admit):
        def inner(*args):
            admitted[-1] += 1
            return admit(*args)

        return inner

    for first in (False, True):
        monoid = commutative_category()
        if first:
            monoid.cells[1] = ["z"] + [cell for cell in monoid.cells[1] if cell != "z"]
        admitted.append(0)
        admit = counted(_reduced_records(monoid, 1))
        assert _split_size(monoid, 1, ["a", "b"], 6, admit, False) == (2, None)
    assert 0 < admitted[1] < admitted[0]


def test_check_basis_matches_per_term_oracle():
    verdicts = set()
    for name, functor in CORPUS:
        source, target = functor.source, functor.target
        sigma_d = target.basis or {
            dim: sorted(indecomposables(target, dim)) for dim in range(target.dimension + 1)
        }
        transferred = transfer_basis(functor, sigma_d)
        for level in range(1, source.dimension + 1):
            for sigma in (transferred[level], list(source.cells.get(level, []))):
                expected = oracle_check_basis(source, level, sigma).to_json()
                got = check_basis(source, level, sigma).to_json()
                assert got == expected, (name, level, sigma)
                verdicts.add(expected["verdict"])
    assert BASIS in verdicts and NOT_BASIS in verdicts


def level_subsets():
    """(name, category, level, sigma) for every subset sigma of every level's
    cells of the small fixtures and of one inflated corpus source."""
    categories = [
        ("path2", path2_category()),
        ("arrow", arrow_category()),
        ("loop", loop_category()),
        ("idem", idem_category()),
        ("parallel-pair", parallel_pair_category()),
        ("inflated-0.source", dict(CORPUS)["inflated-0"].source),
    ]
    out = []
    for name, category in categories:
        for level in range(1, category.dimension + 1):
            cells = category.cells[level]
            for r in range(len(cells) + 1):
                for sigma in combinations(cells, r):
                    out.append((name, category, level, list(sigma)))
    return out


def test_check_basis_matches_full_bound_oracle_on_every_subset():
    # The class pass lists records only up to the split size; the oracle
    # enumerates every reduced word up to the full bound. A small max_terms
    # cuts the enumeration below some witnesses, a larger one above them.
    # On the square over {f, g, h, k}, e's two preimages (g*0f) and (k*0h)
    # are composites, so the witness pair is two rebuilt composites. A
    # level-1 Basis that a small max_terms truncates checks the word count
    # of the sequence classes. Over {a, b}, the commutative monoid's c has two
    # sequences, ab and ba, of one multiset, so the search leaves it
    # unresolved until z's two multisets give a witness.
    chosen = (list("fghk"), list("khgf"), list("fghke"), ["1a", *"fghk"])
    cut_below = cut_above = two_composites = counted_paths = False
    verdicts = set()
    commutative = []
    for name, category, level, sigma, word_sizes in bounded_cases(chosen):
        for word_size in word_sizes:
            outcomes = []
            for max_terms in (200_000, 3, 12):
                bounds = BasisBounds(word_size=word_size, max_terms=max_terms)
                expected = oracle_check_basis(category, level, sigma, bounds).to_json()
                got = check_basis(category, level, sigma, bounds).to_json()
                assert got == expected, (name, level, sigma, word_size, max_terms)
                outcomes.append(expected)
                verdicts.add(expected["verdict"])
            full, low, high = outcomes
            if name == "commutative":
                commutative.append(full)
            if level == 1 and full["verdict"] == BASIS:
                counted_paths = counted_paths or any(
                    cut.get("unresolved", [None])[-1] == "<enumeration truncated>"
                    for cut in (low, high)
                )
            if full.get("witness", {}).get("kind") == "DisconnectedPair":
                two_composites = two_composites or all("*" in w for w in full["witness"]["pair"])
                cut_below = cut_below or low["verdict"] == UNKNOWN
                if not cut_above and high == full:
                    cut_above = too_many(category, level, sigma, word_size, 12)
    assert verdicts == {BASIS, NOT_BASIS, UNKNOWN}
    assert cut_below and cut_above and two_composites and counted_paths
    pair = ["((c:a)*0((c:a)*0(c:a)))", "((c:a)*0((c:a)*0(c:b)))"]
    split = {"verdict": NOT_BASIS, "witness": {"kind": "DisconnectedPair", "pair": pair, "cell": "z"}}
    assert commutative == [
        {"verdict": UNKNOWN, "unresolved": ["c", "p", "q", "z"]},
        {"verdict": UNKNOWN, "unresolved": ["c", "z"]},
        split,
        split,
    ]


def too_many(category, level, sigma, word_size, max_terms):
    """More reduced words within the bound than max_terms."""
    size_bound = default_word_bound(category, level) if word_size is None else word_size
    extension = restriction_extension(category, level, sigma)
    return plain_enumeration(extension, size_bound, max_terms, reduced=True)[1]


@pytest.mark.parametrize("category", [c for _, c in CATEGORIES], ids=[n for n, _ in CATEGORIES])
def test_fold_enumerated_equals_evaluate(category):
    """The value each enumerated basis record folds from its factors' values
    is evaluate of its rebuilt term, and its shape id gives the term's atoms."""
    for level in range(1, category.dimension + 1):
        sigma = list(category.cells.get(level, []))
        extension = restriction_extension(category, level, sigma)
        buckets, _, atoms = _basis_records(
            category, level, sigma, 3, None, _reduced_records(category, level)
        )
        for value, records in buckets.items():
            for record in records:
                term = _term_of(extension, record)
                assert value == record[0] == evaluate(category, sigma, term)
                assert list(atoms[record[1]]) == [(node.kind, node.name) for node in atoms_of(term)]


def atoms_of(term):
    """The atoms of a term, left to right."""
    if term.left is None:
        return [term]
    return atoms_of(term.left) + atoms_of(term.right)


@pytest.mark.parametrize("name, functor", CORPUS, ids=[name for name, _ in CORPUS])
def test_shaped_terms_match_image_words(name, functor):
    source, target = functor.source, functor.target
    for level in range(1, min(source.dimension, target.dimension) + 1):
        morphism = morphism_from_functor(functor, level)
        shapes = {}
        sources, _ = _value_buckets(
            source, level, source.cells.get(level, []),
            lambda atom: (atom[0], functor.apply(atom[1])), shapes, 3,
        )
        targets, _ = _value_buckets(
            target, level, target.cells.get(level, []), lambda atom: atom, shapes, 3,
        )
        images = []
        for extension, buckets, relabel in (
            (morphism.source, sources, lambda word: induced_word_map(morphism, word)),
            (morphism.target, targets, lambda word: word),
        ):
            terms = [(_term_of(extension, r), r[1]) for records in buckets.values() for r in records]
            assert sorted(t.serialize() for t, _ in terms) == sorted(
                t.serialize() for t in enumerate_terms(extension, 3)[0]
            )
            images += [(relabel(t.word).tokens, shape) for t, shape in terms]
        ids = {}
        for image, shape in images:
            assert ids.setdefault(image, shape) == shape
        assert len(set(ids.values())) == len(ids)


def basis_cases():
    """(name, category, level, sigma): every level of every fixture and
    corpus category and of seeded free DAG categories, over all its cells
    and over its indecomposables."""
    categories = list(CATEGORIES)
    for seed in range(20):
        rng = Random(seed)
        categories.append((f"dag-{seed}", random_dag_category(rng, 4, 5, 10).category))
    out = []
    for name, category in categories:
        for level in range(1, category.dimension + 1):
            cells = list(category.cells.get(level, []))
            out.append((f"{name}-{level}-all", category, level, cells))
            out.append((f"{name}-{level}-ind", category, level, sorted(indecomposables(category, level))))
    return out


BASIS_CASES = basis_cases()


@pytest.mark.parametrize(
    "category, level, sigma", [c[1:] for c in BASIS_CASES], ids=[c[0] for c in BASIS_CASES]
)
def test_record_filter_admits_what_reduced_admits(category, level, sigma):
    extension = restriction_extension(category, level, sigma)
    everything = len(plain_enumeration(extension, 3, reduced=True)[0])
    for max_count in (None, 2, 40, everything):
        buckets, cut, _ = _basis_records(
            category, level, sigma, 3, max_count, _reduced_records(category, level)
        )
        terms, want_cut = plain_enumeration(extension, 3, max_count, reduced=True)
        want = {}
        for term in terms:
            want.setdefault(evaluate(category, sigma, term), []).append(term.serialize())
        assert cut == want_cut
        got = {v: [_term_of(extension, r).serialize() for r in rs] for v, rs in buckets.items()}
        assert got == want


@pytest.mark.parametrize("category", [c for _, c in CATEGORIES], ids=[n for n, _ in CATEGORIES])
def test_enumerate_terms_matches_plain_enumeration(category):
    for level in range(1, category.dimension + 1):
        extension = full_extension(category, level)
        for max_count in (None, 2, 40, len(enumerate_terms(extension, 3)[0])):
            got, cut = enumerate_terms(extension, 3, max_count)
            want, want_cut = plain_enumeration(extension, 3, max_count)
            assert cut == want_cut
            assert [t.serialize() for t in got] == [t.serialize() for t in want]
