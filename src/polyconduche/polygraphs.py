"""Generator bases of finite categories and their transfer along functors.

A set of level-cells is a basis when every level-cell is reached by some
word over it and all words reaching the same cell are equivalent. Existence
is decided exactly by closing the atom values under the composition tables;
the equivalence half is bounded and may answer Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .categories import OmegaFunctor, PresentedCategory, SRC, TGT, is_degenerate
from .errors import NotSurjective, SchemaError
from .movements import SearchBounds, WITNESS, equivalent
from .terms import GENERATOR, IDENTITY, _enumerate, _term_of, _value_buckets, restriction_extension

BASIS = "Basis"
NOT_BASIS = "NotBasis"
UNKNOWN = "Unknown"

MAX_TERMS = 200_000
SIZE_CAP = 8


@dataclass
class BasisBounds:
    word_size: int | None = None  # None: derived from the level's cell count
    max_terms: int = MAX_TERMS
    search: SearchBounds = field(default_factory=SearchBounds)


@dataclass
class BasisVerdict:
    verdict: str
    witness: dict | None = None
    unresolved: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {"verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.unresolved:
            out["unresolved"] = self.unresolved
        return out


def indecomposables(category: PresentedCategory, n: int) -> set[str]:
    """Non-degenerate cells admitting only trivial factorizations.

    A factorization is trivial when one factor is the unit the other factor
    absorbs. Every 0-cell counts.
    """
    if n == 0:
        return set(category.cells.get(0, []))
    out: set[str] = set()
    for x in category.cells.get(n, []):
        if is_degenerate(category, x):
            continue
        decomposable = False
        for k in range(n):
            left_unit = category.identity_to(category.boundary(x, k, TGT), n)
            right_unit = category.identity_to(category.boundary(x, k, SRC), n)
            for (a, b) in category.factorizations(x, n, k):
                if a != left_unit and b != right_unit:
                    decomposable = True
                    break
            if decomposable:
                break
        if not decomposable:
            out.add(x)
    return out


def default_word_bound(category: PresentedCategory, level: int) -> int:
    """Twice the level's non-identity cell count, up to SIZE_CAP."""
    identities = set(category.ids.get(level - 1, {}).values())
    plain = [x for x in category.cells.get(level, []) if x not in identities]
    return min(2 * len(plain), SIZE_CAP)


def _reachable_values(
    category: PresentedCategory, level: int, sigma: list[str]
) -> set[str]:
    """Exact closure of the atom values under the level's composition tables.

    A cell has a preimage word over sigma if and only if it lies here, with
    no word-size bound involved.
    """
    values = set(sigma)
    values.update(
        category.ids[level - 1][x] for x in category.cells.get(level - 1, [])
    )
    changed = True
    while changed:
        changed = False
        for (l, _k), table in category.comp.items():
            if l != level:
                continue
            for (p, q), r in table.items():
                if p in values and q in values and r not in values:
                    values.add(r)
                    changed = True
    return values


def _reduced_records(category: PresentedCategory, level: int):
    """The _value_buckets filter for words with no removable unit factor and
    no mergeable identity pair; it also filters the classes of _split_size.

    Every word is connected to such a representative of the same or smaller
    size, so checking connectivity on these alone decides it for the full
    set of preimage words within the bound, at a fraction of the cost.
    Factors that meet at k share the k-boundary a unit would sit on, so
    (i:x) is a unit its partner absorbs when x is k-degenerate; at k = n
    every identity atom is."""
    n = level - 1
    units = {
        (x, k) for x in category.cells.get(n, []) for k in range(level)
        if category.degeneracy_preimage(x, k) is not None
    }
    merges = [category.comp.get((n, k), {}) for k in range(n)]

    def admit(left: tuple, k: int, right: tuple) -> bool:
        lid = left[2][1] if left[3] is None and left[2][0] == IDENTITY else None
        rid = right[2][1] if right[3] is None and right[2][0] == IDENTITY else None
        if (lid, k) in units or (rid, k) in units:
            return False
        return lid is None or rid is None or k == n or (lid, rid) not in merges[k]

    return admit


class _Fixed(Exception):
    """Raised by _split_size with s* once the first cell has split."""


def _split_size(
    category: PresentedCategory, level: int, sigma: list[str], size_bound: int, admit,
    ordered: bool,
) -> tuple[int | None, list | None]:
    """(s*, classes). s* is the least size at which the first cell, in cells
    order, whose reduced words over sigma of size up to size_bound have two
    generator keys gets its second one, or None when no cell has two; a key
    is the generator sequence when ordered and the multiset otherwise. The
    classes come back only when s* is None: no value had two keys, so the
    cap below dropped none and the list is complete. admit is the filter of
    _reduced_records.

    No word is listed: classes of words are listed by terms._enumerate, each
    at its least size, as in conduche._fiber_classes. Each atom is its own
    class, because the reduced filter reads identity atoms by name. A
    composite's class is (value, key): the filter sees only that it is not
    an atom, whether it composes depends on its value, and a composite's
    value and key are functions of its factors'.

    The cap of two composite classes a value keeps, the first found in size
    order, is exact. A composite over a dropped class has two keys anyway:
    that class's value kept two composite classes of no greater size, which
    the filter and composability treat alike, so with the same partner they
    give two keys at no greater size. Any other composite is built from
    kept classes, so a value with fewer than two classes has them all. By
    induction on size, each value keeps min(2, n) of its n composite
    classes of size up to s, at their true least sizes.

    So s* is the true least split size: a cell's is the second smallest
    least size over its distinct keys, which is 0 when its atoms have two,
    and otherwise that of one of its first two composite classes. The first
    cell in cells order comes first whatever the others do, so the pass
    returns as soon as that cell has a second key: classes come smallest
    first, and the size of the class that gives it the second is s*. The
    pass keeps the key of each value's first class, so it knows when a
    value gets a second key; when none does, s* is None without a scan. At
    level 1 every identity atom is a unit, which admit drops, so only the
    generator atoms are paired and the identity atoms join the classes after.
    """
    sources, targets = category.boundaries
    composites = [category.comp.get((level, k), {}) for k in range(level)]
    units = category.ids[level - 1]
    kept: dict[str, set] = {}  # value -> its composite classes' keys

    # Classes are shaped for admit as records are: (value, key, atom, None,
    # 0) for an atom, (value, key, None, k, size) for a composite.
    atoms = [(name, (name,), (GENERATOR, name), None, 0) for name in sigma]
    identities = [(units[x], (), (IDENTITY, x), None, 0) for x in category.cells.get(level - 1, [])]
    cells = category.cells.get(level, [])
    first = cells[0] if cells else None
    keys_of: dict[str, tuple] = {}  # value -> the key of its first class
    split = False  # has some value got a second key?
    for value, key, *_ in atoms + identities:
        if keys_of.setdefault(value, key) != key:
            if value == first:
                return 0, None
            split = True

    def pair(left: tuple, k: int, right: tuple) -> tuple | None:
        nonlocal split
        if not admit(left, k, right):
            return None
        value = composites[k].get((left[0], right[0])) or category.compose(left[0], right[0], k)
        key = left[1] + right[1] if ordered else tuple(sorted(left[1] + right[1]))
        keys = kept.get(value)
        if keys is None:
            kept[value] = {key}
        elif len(keys) == 2 or key in keys:
            return None
        else:
            keys.add(key)
        size = left[4] + right[4] + 1
        if keys_of.setdefault(value, key) != key:
            if value == first:
                raise _Fixed(size)
            split = True
        return (value, key, None, k, size)

    try:
        classes, _ = _enumerate(
            atoms if level == 1 else atoms + identities, level - 1,
            lambda c, k: sources[k][c[0]], lambda c, k: targets[k][c[0]], pair, size_bound,
        )
    except _Fixed as fixed:
        return fixed.args[0], None
    if level == 1:
        classes += identities
    if not split:
        return None, classes
    least: dict[str, dict[tuple, int]] = {}  # value -> key -> least size
    for value, key, _, _, size in classes:
        least.setdefault(value, {}).setdefault(key, size)
    for a in cells:
        sizes = sorted(least.get(a, {}).values())
        if len(sizes) > 1:
            return sizes[1], None
    return None, classes


def _basis_records(
    category: PresentedCategory, level: int, sigma: list[str], size_bound, max_count, admit,
):
    """The reduced words over sigma as terms._value_buckets records, with the
    truncation flag and, by shape id, each word's atoms (kind, name), left to
    right, which re-association leaves fixed. admit is the filter of
    _reduced_records."""
    shapes: dict[tuple, int] = {}
    buckets, truncated = _value_buckets(
        category, level, sigma, lambda atom: (atom,), shapes, size_bound, max_count, admit,
    )
    atoms: list[tuple] = []
    for key in shapes:  # factors are numbered before the words they make
        atoms.append(key if len(key) == 1 else atoms[key[0]] + atoms[key[2]])
    return buckets, truncated, atoms


def check_basis(
    category: PresentedCategory,
    level: int,
    sigma: list[str],
    bounds: BasisBounds | None = None,
) -> BasisVerdict:
    """Is sigma a basis for the category's level-cells?

    Missing preimages are proven via the exact closure. At level 1 every
    reduced composite is a path of generators, and words with the same
    sequence are equal by re-association: so the class pass (_split_size)
    keyed by generator sequences gives Basis, with no record listed, when no
    value has two sequences within the bound, every cell is a value and the
    words, Catalan(s) bracketings for a class of size s, fit in max_terms.
    Otherwise the verdict comes from the route below, as at every higher
    level.

    Preimages of one cell share their boundaries, so the equivalence search
    tells two apart only by their generator multisets: the first cell whose
    reduced preimage words have two multisets is a proven basis failure.
    The class pass keyed by multisets, which lists no word, finds that cell
    and s*, the least size at which it has two. When there is one, the
    reduced words are enumerated as records (_basis_records) only up to s*,
    and the first record of the first cell with records of two multisets,
    and the first of that cell's records with another multiset than it,
    give the witness pair. Records come smallest first, so every bucket up
    to s* is a prefix of the bucket at the full bound. A max_terms cut that
    leaves out a word of size up to s* falls at the same record in both
    enumerations, which then keep the same records; any other cut keeps
    every word up to s*. No cell before the split cell has two multisets
    within the bound, and the split cell has its second one by s*. So the
    first record and the first with another multiset are the ones the full
    bound gives, and so are the witness's bytes.

    Otherwise the records go up to the full bound, and the search compares
    each cell's preimages with its first; an Unknown leaves the cell
    unresolved. At level 1 no reduced word but an atom holds an identity,
    so words with the same atoms are equivalent by re-association and are
    not searched. Terms, and the extension they live in, are built only for
    a witness or a search. When the max_terms cap cut the enumeration short,
    unresolved ends with "<enumeration truncated>", whatever cells it lists.
    """
    bounds = bounds or BasisBounds()
    if not 1 <= level <= category.dimension:
        raise SchemaError(f"level {level} out of range")
    for i, cell in enumerate(sigma):
        if category.level_of(cell) != level:
            raise SchemaError(f"{cell!r} is not a level-{level} cell")
        if cell in sigma[:i]:
            raise SchemaError(f"repeated cell {cell!r}")

    reachable = _reachable_values(category, level, sigma)
    cells = category.cells.get(level, [])
    for a in cells:
        if a not in reachable:
            return BasisVerdict(NOT_BASIS, {"kind": "MissingPreimage", "cell": a})

    size_bound = bounds.word_size
    if size_bound is None:
        size_bound = default_word_bound(category, level)
    admit = _reduced_records(category, level)
    if level == 1:
        split, classes = _split_size(category, level, sigma, size_bound, admit, ordered=True)
        if (
            split is None
            and {c[0] for c in classes}.issuperset(cells)
            and sum(comb(2 * c[4], c[4]) // (c[4] + 1) for c in classes) <= bounds.max_terms
        ):
            return BasisVerdict(BASIS)
    split, _ = _split_size(category, level, sigma, size_bound, admit, ordered=False)
    buckets, truncated, atoms = _basis_records(
        category, level, sigma, size_bound if split is None else split, bounds.max_terms, admit,
    )
    extension = None

    def term(record: tuple):
        nonlocal extension
        if extension is None:
            extension = restriction_extension(category, level, sigma)
        return _term_of(extension, record)

    def multiset(record: tuple) -> list[str]:
        return sorted(name for kind, name in atoms[record[1]] if kind == GENERATOR)

    for a in cells:
        first, *others = buckets.get(a) or [None]
        for record in others:
            if atoms[record[1]] != atoms[first[1]] and multiset(record) != multiset(first):
                pair = [term(r).serialize() for r in (first, record)]
                return BasisVerdict(NOT_BASIS, {"kind": "DisconnectedPair", "pair": pair, "cell": a})

    def connected(preimages: list[tuple]) -> bool:
        first = preimages[0]
        searched = [r for r in preimages[1:] if level > 1 or atoms[r[1]] != atoms[first[1]]]
        if not searched:
            return True
        representative = term(first)
        return all(
            equivalent(extension, term(r), representative, bounds.search).verdict == WITNESS
            for r in searched
        )

    # A cell without preimages is reachable by closure but not within the word-size bound.
    unresolved = [a for a in cells if a not in buckets or not connected(buckets[a])]
    if truncated:
        unresolved.append("<enumeration truncated>")
    if unresolved:
        return BasisVerdict(UNKNOWN, None, unresolved)
    return BasisVerdict(BASIS)


@dataclass
class FreenessReport:
    per_dim: dict[int, BasisVerdict]
    basis_matches_indecomposables: dict[int, bool]

    @property
    def verdict(self) -> str:
        if any(v.verdict == NOT_BASIS for v in self.per_dim.values()):
            return NOT_BASIS
        if any(v.verdict == UNKNOWN for v in self.per_dim.values()):
            return UNKNOWN
        return BASIS

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "per_dim": {str(d): v.to_json() for d, v in self.per_dim.items()},
            "basis_matches_indecomposables": {
                str(d): m for d, m in self.basis_matches_indecomposables.items()
            },
        }


def check_free(
    category: PresentedCategory,
    sigma_per_dim: dict[int, list[str]],
    bounds: BasisBounds | None = None,
) -> FreenessReport:
    """Basis checks at every dimension, plus the indecomposability cross-check.

    At dimension 0 the only admissible generator set is all objects.
    """
    per_dim: dict[int, BasisVerdict] = {}
    matches: dict[int, bool] = {}
    sigma0 = set(sigma_per_dim.get(0, []))
    objects = set(category.cells.get(0, []))
    if sigma0 == objects:
        per_dim[0] = BasisVerdict(BASIS)
    else:
        missing = sorted(objects - sigma0) + sorted(sigma0 - objects)
        per_dim[0] = BasisVerdict(
            NOT_BASIS, {"kind": "MissingPreimage", "cell": missing[0]}
        )
    matches[0] = sigma0 == indecomposables(category, 0)
    for dim in range(1, category.dimension + 1):
        sigma = sigma_per_dim.get(dim, [])
        per_dim[dim] = check_basis(category, dim, sigma, bounds)
        matches[dim] = set(sigma) == indecomposables(category, dim)
    return FreenessReport(per_dim, matches)


def transfer_basis(
    functor: OmegaFunctor, sigma_d: dict[int, list[str]]
) -> dict[int, list[str]]:
    """Dimension-wise preimage of a target basis."""
    out: dict[int, list[str]] = {}
    for dim in range(functor.source.dimension + 1):
        chosen = set(sigma_d.get(dim, []))
        out[dim] = sorted(
            x
            for x in functor.source.cells.get(dim, [])
            if functor.apply(x) in chosen
        )
    return out


def image_basis(
    functor: OmegaFunctor, sigma_c: dict[int, list[str]]
) -> dict[int, list[str]]:
    """Dimension-wise image of a source basis; the functor must be onto."""
    for dim in range(functor.target.dimension + 1):
        hit = {
            functor.apply(x) for x in functor.source.cells.get(dim, [])
        }
        for cell in functor.target.cells.get(dim, []):
            if cell not in hit:
                raise NotSurjective(dim, cell)
    out: dict[int, list[str]] = {}
    for dim in range(functor.target.dimension + 1):
        out[dim] = sorted({functor.apply(x) for x in sigma_c.get(dim, [])})
    return out
