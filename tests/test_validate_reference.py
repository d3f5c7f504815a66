"""validate_category against a per-pair reference.

`validate_category` reads every k-boundary from the category's
`boundaries` and pairs entries through them. The reference below is the
earlier form, which calls `boundary` inside its pairwise loops; wherever it
returns, the violations must be the same. It raises where a composite lies
at a level without the boundaries it asks for; validate_category reports
those as violations instead.
"""

import copy
import json
from pathlib import Path
from random import Random

from polyconduche.categories import (
    SRC,
    TGT,
    _check_schema,
    validate_category,
)
from polyconduche.errors import LevelError, SchemaError
from polyconduche.fixtures import functor_corpus
from polyconduche.manifests import category_from_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CATEGORY_DOCS = sorted(FIXTURES.glob("*.cat.json"))
MUTATIONS = 40


def reference_validate(c):
    """Every violation, found pair by pair with `boundary` and `composable`."""
    n = c.dimension
    _check_schema(c)
    violations = []
    for l in range(2, n + 1):
        for x in c.cells.get(l, []):
            sx, tx = c.src[l][x], c.tgt[l][x]
            if c.src[l - 1][sx] != c.src[l - 1][tx] or c.tgt[l - 1][sx] != c.tgt[l - 1][tx]:
                violations.append(("globular", (l, x)))
    for k in range(n):
        seen_images = {}
        for x in c.cells.get(k, []):
            ix = c.ids[k][x]
            if c.src[k + 1][ix] != x or c.tgt[k + 1][ix] != x:
                violations.append(("identity-boundary", (k, x)))
            if ix in seen_images:
                violations.append(("identity-injective", (k, seen_images[ix], x)))
            seen_images[ix] = x
    for l in range(1, n + 1):
        for k in range(l):
            table = c.comp.get((l, k), {})
            for (a, b), res in table.items():
                if c.level_of(res) != l:
                    violations.append(("composite-level", (l, k, a, b, res)))
                if not c.composable(a, b, k):
                    violations.append(("comp-domain", (l, k, a, b)))
            for a in c.cells.get(l, []):
                for b in c.cells.get(l, []):
                    if c.composable(a, b, k) and (a, b) not in table:
                        violations.append(("comp-total", (l, k, a, b)))
    for (l, k), table in sorted(c.comp.items()):
        for (a, b), res in sorted(table.items()):
            if c.boundary(res, k, SRC) != c.boundary(b, k, SRC):
                violations.append(("composite-source", (l, k, a, b)))
            if c.boundary(res, k, TGT) != c.boundary(a, k, TGT):
                violations.append(("composite-target", (l, k, a, b)))
            for m in range(k + 1, l):
                for side in (SRC, TGT):
                    want = c.comp.get((m, k), {}).get(
                        (c.boundary(a, m, side), c.boundary(b, m, side))
                    )
                    if want is None or c.boundary(res, m, side) != want:
                        violations.append(("composite-boundary-distributes", (l, k, m, a, b, side)))
    for (l, k), table in sorted(c.comp.items()):
        by_left = {}
        for (a, b) in table:
            by_left.setdefault(a, []).append((a, b))
        for (a, b), ab in sorted(table.items()):
            for (_, d) in sorted(by_left.get(b, [])):
                bd = table[(b, d)]
                left = table.get((ab, d))
                right = table.get((a, bd))
                if left is None or right is None or left != right:
                    violations.append(("associativity", (l, k, a, b, d)))
    for l in range(1, n + 1):
        for k in range(l):
            table = c.comp.get((l, k), {})
            for x in c.cells.get(l, []):
                left_unit = c.identity_to(c.boundary(x, k, TGT), l)
                right_unit = c.identity_to(c.boundary(x, k, SRC), l)
                if table.get((x, right_unit)) != x:
                    violations.append(("right-unit", (l, k, x)))
                if table.get((left_unit, x)) != x:
                    violations.append(("left-unit", (l, k, x)))
    for (l, k), table in sorted(c.comp.items()):
        if l == n:
            continue
        upper = c.comp.get((l + 1, k), {})
        for (a, b), res in sorted(table.items()):
            if upper.get((c.ids[l][a], c.ids[l][b])) != c.ids[l][res]:
                violations.append(("identity-functorial", (l, k, a, b)))
    for l in range(2, n + 1):
        for k in range(l):
            for m in range(k + 1, l):
                lower = c.comp.get((l, k), {})
                upper = c.comp.get((l, m), {})
                entries = sorted(lower.items())
                for (x, y), xy in entries:
                    for (z, t), zt in entries:
                        if c.boundary(x, m, SRC) != c.boundary(z, m, TGT):
                            continue
                        if c.boundary(y, m, SRC) != c.boundary(t, m, TGT):
                            continue
                        lhs = upper.get((xy, zt))
                        xz = upper.get((x, z))
                        yt = upper.get((y, t))
                        rhs = lower.get((xz, yt)) if xz is not None and yt is not None else None
                        if lhs is None or rhs is None or lhs != rhs:
                            violations.append(("exchange", (l, k, m, x, y, z, t)))
    return sorted(set(violations), key=repr)


def mutations(doc, seed):
    """Copies of a category document, each with one value of its boundary,
    identity or composition tables replaced by a cell name of the document."""
    rng = Random(seed)
    names = sorted({cell for cells in doc["cells"].values() for cell in cells})
    slots = []
    for table in ("src", "tgt", "id"):
        for level, entries in sorted(doc.get(table, {}).items()):
            slots += [(table, level, key) for key in sorted(entries)]
    for key, triples in sorted(doc.get("comp", {}).items()):
        slots += [("comp", key, (i, j)) for i in range(len(triples)) for j in range(3)]
    for _ in range(MUTATIONS):
        table, level, key = rng.choice(slots)
        mutated = copy.deepcopy(doc)
        if table == "comp":
            i, j = key
            mutated["comp"][level][i][j] = rng.choice(names)
        else:
            mutated[table][level][key] = rng.choice(names)
        yield mutated


def documents():
    """Every category fixture, then MUTATIONS seeded mutations of each."""
    out = []
    for seed, path in enumerate(CATEGORY_DOCS):
        doc = json.loads(path.read_text())
        out.append(doc)
        out += list(mutations(doc, seed))
    return out


def compare(category):
    """The reference's violations, after checking that validate_category
    finds the same ones. When the reference raises past the schema check,
    validate_category must still return; the result is then None."""
    try:
        want = reference_validate(category)
    except (LevelError, KeyError):
        validate_category(category)
        return None
    assert validate_category(category).violations == want
    return want


def test_validation_matches_the_reference_on_fixtures_and_mutations():
    results = []
    for doc in documents():
        try:
            category = category_from_json(doc)
            _check_schema(category)
        except SchemaError:
            continue
        results.append(compare(category))
    compared = [want for want in results if want is not None]
    assert len(compared) >= 100
    assert sum(1 for want in compared if want) >= 50
    assert None in results


def test_validation_matches_the_reference_on_the_corpus():
    for _name, functor in functor_corpus():
        assert compare(functor.source) == []
        assert compare(functor.target) == []
