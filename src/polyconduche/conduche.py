"""Unique-lifting checks for functors, two ways.

The table route inspects finite composition tables directly: a functor has
the lifting property at (n, k) when every factorization of every image cell
lifts uniquely (nabla) and degenerate images come from degenerate cells
(kappa). The fiber route compares term fibers through the induced word map
and also covers free, infinite targets at the price of a size bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .categories import OmegaFunctor, PresentedCategory, truncate
from .errors import BadOccurrence, NotLiftable, NotWellFormed, SchemaError
from .movements import (
    BACKWARD,
    DISTINCT,
    FORWARD,
    ElementaryMovement,
    SearchBounds,
    WITNESS,
    _built,
    _rewrites,
    apply_movement,
    equivalent,
)
from .terms import (
    GENERATOR,
    IDENTITY,
    CellularExtension,
    Term,
    _enumerate,
    _term_of,
    _value_buckets,
    check_term,
    enumerate_terms,
    restriction_extension,
    subterm_at,
)
from .words import (
    GEN_KIND,
    ID_KIND,
    SymbolToken,
    Word,
    gen,
    ident_of,
)
from .words import serialize as w_serialize

PASS = "Pass"
FAIL = "Fail"
UNKNOWN = "Unknown"


@dataclass
class ConducheReport:
    verdict: str
    failures: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "failures": self.failures}


def _merge(reports: list[ConducheReport]) -> ConducheReport:
    failures = [f for r in reports for f in r.failures]
    if failures:
        return ConducheReport(FAIL, failures)
    if any(r.verdict == UNKNOWN for r in reports):
        return ConducheReport(UNKNOWN)
    return ConducheReport(PASS)


def check_nabla(functor: OmegaFunctor, n: int, k: int) -> ConducheReport:
    """Unique lifting of k-factorizations of n-cell images."""
    if not 0 <= k < n:
        raise SchemaError(f"need 0 <= k < n, got k={k}, n={n}")
    source, target = functor.source, functor.target
    failures: list[dict] = []
    for x in source.cells.get(n, []):
        fx = functor.apply(x)
        for (y1, y2) in target.factorizations(fx, n, k):
            lifts = [
                (p, q)
                for p, q in source.factorizations(x, n, k)
                if functor.apply(p) == y1 and functor.apply(q) == y2
            ]
            if not lifts:
                failures.append(
                    {
                        "x": x,
                        "n": n,
                        "k": k,
                        "factorization": [y1, y2],
                        "kind": "NoLift",
                    }
                )
            elif len(lifts) > 1:
                failures.append(
                    {
                        "x": x,
                        "n": n,
                        "k": k,
                        "factorization": [y1, y2],
                        "kind": "NonUniqueLift",
                        "lifts": [list(lifts[0]), list(lifts[1])],
                    }
                )
    return ConducheReport(FAIL if failures else PASS, failures)


def check_kappa(functor: OmegaFunctor, n: int, k: int) -> ConducheReport:
    """Cells with k-degenerate images must be k-degenerate themselves.

    Uniqueness of the witness is automatic because identity maps are
    injective in a valid category.
    """
    if not 0 <= k < n:
        raise SchemaError(f"need 0 <= k < n, got k={k}, n={n}")
    source, target = functor.source, functor.target
    failures: list[dict] = []
    for x in source.cells.get(n, []):
        fx = functor.apply(x)
        if target.degeneracy_preimage(fx, k) is None:
            continue
        if source.degeneracy_preimage(x, k) is None:
            failures.append(
                {"x": x, "n": n, "k": k, "factorization": None, "kind": "KappaFail"}
            )
    return ConducheReport(FAIL if failures else PASS, failures)


def check_conduche(functor: OmegaFunctor, up_to_dim: int | None = None) -> ConducheReport:
    """Conjunction of the nabla and kappa checks for all k < n <= up_to_dim.

    The default ceiling is the source dimension; higher levels only hold
    identities and are settled by the top level.
    """
    if up_to_dim is None:
        up_to_dim = functor.source.dimension
    up_to_dim = min(up_to_dim, functor.source.dimension, functor.target.dimension)
    return _merge([conduche_at_level(functor, n) for n in range(1, up_to_dim + 1)])


def conduche_at_level(functor: OmegaFunctor, n: int) -> ConducheReport:
    """All (n, k) checks for one fixed n."""
    reports = []
    for k in range(n):
        reports.append(check_nabla(functor, n, k))
        reports.append(check_kappa(functor, n, k))
    return _merge(reports)


# -- the induced map on words ------------------------------------------------


@dataclass
class ExtensionMorphism:
    """A functor of bases plus a generator assignment between extensions."""

    source: CellularExtension
    target: CellularExtension
    base: OmegaFunctor
    phi: dict[str, str]


def check_extension_morphism(morphism: ExtensionMorphism) -> None:
    src_ext, tgt_ext = morphism.source, morphism.target
    n = src_ext.dimension
    if tgt_ext.dimension != n:
        raise SchemaError("extensions live over bases of different dimensions")
    for name, (s, t) in src_ext.generators.items():
        image = morphism.phi.get(name)
        if image is None:
            raise SchemaError(f"generator {name!r} has no image")
        if image not in tgt_ext.generators:
            raise SchemaError(f"image {image!r} is not a target generator")
        ts, tt = tgt_ext.generators[image]
        if (morphism.base.apply(s), morphism.base.apply(t)) != (ts, tt):
            raise SchemaError(f"generator {name!r} image breaks the boundary squares")


def full_extension(category: PresentedCategory, level: int) -> CellularExtension:
    """The extension of the (level-1)-truncation by every level-cell."""
    return restriction_extension(category, level, list(category.cells.get(level, [])))


def morphism_from_functor(functor: OmegaFunctor, level: int) -> ExtensionMorphism:
    """View a functor of finite categories as a morphism of full extensions."""
    base = OmegaFunctor(
        truncate(functor.source, level - 1),
        truncate(functor.target, level - 1),
        {l: dict(functor.maps.get(l, {})) for l in range(level)},
    )
    return ExtensionMorphism(
        full_extension(functor.source, level),
        full_extension(functor.target, level),
        base,
        dict(functor.maps.get(level, {})),
    )


def induced_word_map(morphism: ExtensionMorphism, word: Word) -> Word:
    """Token-wise relabeling of a word; preserves length and size."""
    out: list[SymbolToken] = []
    for pos, token in enumerate(word.tokens):
        if token.kind == GEN_KIND:
            image = morphism.phi.get(token.value)
            if image is None:
                raise NotWellFormed(pos, "UnknownGenerator", f"{token.value!r}")
            out.append(gen(image))
        elif token.kind == ID_KIND:
            if not morphism.source.base.has_cell(token.value):
                raise NotWellFormed(pos, "UnknownCell", f"{token.value!r}")
            out.append(ident_of(morphism.base.apply(token.value)))
        else:
            out.append(token)
    return Word(tuple(out))


def induced_term(morphism: ExtensionMorphism, term: Term) -> Term:
    return check_term(morphism.target, induced_word_map(morphism, term.word))


def induced_movement(
    morphism: ExtensionMorphism, movement: ElementaryMovement
) -> ElementaryMovement:
    """Relabel the source, redex and contractum of a movement through the morphism."""
    return ElementaryMovement(
        induced_term(morphism, movement.source),
        movement.prefix_len,
        induced_term(morphism, movement.redex),
        induced_term(morphism, movement.contractum),
        movement.case,
        movement.direction,
    )


# -- fiber comparison --------------------------------------------------------


@dataclass
class FiberReport:
    verdict: str
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {"verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def check_fiber_bijection(
    morphism: ExtensionMorphism, a: Term, size_bound: int, bounds: SearchBounds | None = None
) -> FiberReport:
    """Is the induced word map a bijection on the fiber of the equivalence
    class of a, over the words of size up to size_bound?

    The morphism is one that check_extension_morphism accepts: every source
    generator maps to a target generator, so the fiber covers every
    generator of both sides. Each side's candidates come in generator name
    order, whatever order the extensions declare, so witnesses do not
    depend on it. Membership of a candidate word in the fiber is decided by
    bounded equivalence search against the representative or its image, so
    an Unknown membership contaminates the verdict unless a definite
    injectivity collision was already found. Members are compared by their
    image words. Each side keeps a search memo for this call (see
    equivalent), so candidates that normalise alike share one search.
    """
    ext_c = CellularExtension(morphism.source.base, dict(sorted(morphism.source.generators.items())))
    ext_d = CellularExtension(morphism.target.base, dict(sorted(morphism.target.generators.items())))
    rep_image = induced_term(morphism, a)

    unknown_src = False
    seen: dict[tuple, Term] = {}
    memo: dict = {}
    for candidate in enumerate_terms(ext_c, size_bound)[0]:
        verdict = equivalent(ext_c, candidate, a, bounds, memo).verdict
        if verdict != WITNESS:
            unknown_src = unknown_src or verdict != DISTINCT
            continue
        image = induced_word_map(morphism, candidate.word)
        if image.tokens in seen:
            return FiberReport(
                FAIL,
                {
                    "kind": "injectivity",
                    "pair": [seen[image.tokens].serialize(), candidate.serialize()],
                    "image": w_serialize(image),
                },
            )
        seen[image.tokens] = candidate

    unknown_tgt = False
    unhit: list[Term] = []
    memo = {}
    for candidate in enumerate_terms(ext_d, size_bound)[0]:
        verdict = equivalent(ext_d, candidate, rep_image, bounds, memo).verdict
        unknown_tgt = unknown_tgt or verdict not in (WITNESS, DISTINCT)
        if verdict == WITNESS and candidate.word.tokens not in seen:
            unhit.append(candidate)

    if unhit and not unknown_src:
        return FiberReport(FAIL, {"kind": "surjectivity", "unhit": unhit[0].serialize()})
    if unknown_src or unknown_tgt:
        return FiberReport(UNKNOWN)
    return FiberReport(PASS)


def fiber_conduche(
    functor: OmegaFunctor, size_bound: int, up_to_dim: int | None = None
) -> ConducheReport:
    """Fiber-route verdict over every level and every fiber of a finite
    functor, with full generator sets.

    A level is decided from classes of target words (see _fiber_classes):
    for a target word t and a source value v, let N_t(v) be the number of
    source words with image t and value v, capped at 2. A cell a fails
    injectivity when some target word of size up to the bound has
    N_t(a) = 2, and surjectivity when some target word of value F(a) has
    N_t(a) = 0; injectivity is checked first. The induced word map is
    token-wise and whether two source words compose depends only on their
    values, so N of a composite (t1 *k t2) is the sum of N_t1(v1) * N_t2(v2)
    over the source values v1, v2 that meet at k, filed under v1 *k v2 and
    capped at 2. Target words with the same value and N are interchangeable
    as factors, so the level needs only its classes (value, N), each at its
    least size, and not its words.

    A level without failing cells lists no word. A failing level's
    witnesses come from _record_failures run at size s*, the largest of the
    failing cells' least witness sizes. Records are listed smallest first,
    and the image map keeps sizes, so every bucket up to s* is the prefix of
    the one at the full bound; a cell's first collision and its first unhit
    target word have the least size of a witness class, at most s*, and no
    cell passes at s* that fails at the full bound. So the report is the
    one the records give at the full bound, to the byte.
    """
    if up_to_dim is None:
        up_to_dim = functor.source.dimension
    up_to_dim = min(up_to_dim, functor.source.dimension, functor.target.dimension)
    failures: list[dict] = []
    for level in range(1, up_to_dim + 1):
        classes = _fiber_classes(functor, level, size_bound)
        witness_sizes = []
        for a in functor.source.cells.get(level, []):
            fa = functor.apply(a)
            sizes = [size for _, counts, size in classes if counts.get(a) == 2]
            if not sizes:
                sizes = [size for value, counts, size in classes if value == fa and a not in counts]
            if sizes:
                witness_sizes.append(min(sizes))
        if witness_sizes:
            failures += _record_failures(functor, level, max(witness_sizes))
    return ConducheReport(FAIL if failures else PASS, failures)


def _fiber_classes(functor: OmegaFunctor, level: int, size_bound: int) -> list[tuple]:
    """The classes of the level's target words of size up to size_bound, as
    (target value, N, least size); N maps each source value v to the number
    of source words over the target word with value v, capped at 2 and left
    out at 0.

    A composite's class depends only on its factors' classes and k, so the
    classes are listed by terms._enumerate, each once, at its least size.
    """
    source, target = functor.source, functor.target
    (src_sources, src_targets), (tgt_sources, tgt_targets) = source.boundaries, target.boundaries
    src_comp = [source.comp.get((level, k), {}) for k in range(level)]
    tgt_comp = [target.comp.get((level, k), {}) for k in range(level)]

    # Target atom (kind, name) -> its N: each source generator and unit is
    # one word, over the atom its image names.
    atoms: dict[tuple, dict] = {}
    for x in source.cells.get(level, []):
        atoms.setdefault((GENERATOR, functor.apply(x)), {})[x] = 1
    for y in source.cells.get(level - 1, []):
        atoms.setdefault((IDENTITY, functor.apply(y)), {})[source.ids[level - 1][y]] = 1
    least: dict[tuple, int] = {}  # (value, N as frozen items) -> least size
    for y in target.cells.get(level, []):
        least[(y, frozenset(atoms.get((GENERATOR, y), {}).items()))] = 0
    for z in target.cells.get(level - 1, []):
        preimages = atoms.get((IDENTITY, z), {})
        least.setdefault((target.ids[level - 1][z], frozenset(preimages.items())), 0)

    def pair(left: tuple, k: int, right: tuple) -> tuple | None:
        sources, targets, table = src_sources[k], src_targets[k], src_comp[k]
        counts: dict[str, int] = {}
        for v1, c1 in left[1]:
            for v2, c2 in right[1]:
                if sources[v1] == targets[v2]:
                    value = table.get((v1, v2)) or source.compose(v1, v2, k)
                    counts[value] = min(2, counts.get(value, 0) + c1 * c2)
        w1, w2 = left[0], right[0]
        key = (tgt_comp[k].get((w1, w2)) or target.compose(w1, w2, k), frozenset(counts.items()))
        if key in least:
            return None
        least[key] = least[left] + least[right] + 1
        return key

    _enumerate(
        list(least), level - 1, lambda c, k: tgt_sources[k][c[0]],
        lambda c, k: tgt_targets[k][c[0]], pair, size_bound,
    )
    return [(value, dict(counts), size) for (value, counts), size in least.items()]


def _record_failures(functor: OmegaFunctor, level: int, size_bound: int) -> list[dict]:
    """The failures of one level, from the words of both sides up to the
    size bound.

    Each side's words are listed once as records of their value and the
    shape id of their image word (terms._value_buckets): an atom's is
    (kind, name of its image), a composite's (left id, k, right id),
    interned per level. The induced word map being token-wise, two words
    have the same image word exactly when their ids are equal, so each
    fiber comparison is a dictionary pass over ints. The records read the
    categories' own tables; a term is rebuilt only to spell a witness, over
    the one extension of its category that the first witness builds.
    """
    extensions: dict[int, CellularExtension] = {}

    def spell(category: PresentedCategory, record: tuple) -> str:
        extension = extensions.get(id(category))
        if extension is None:
            extension = extensions[id(category)] = full_extension(category, level)
        return _term_of(extension, record).serialize()

    shapes: dict[tuple, int] = {}
    src_buckets, _ = _value_buckets(
        functor.source, level, functor.source.cells.get(level, []),
        lambda atom: (atom[0], functor.apply(atom[1])), shapes, size_bound,
    )
    tgt_buckets, _ = _value_buckets(
        functor.target, level, functor.target.cells.get(level, []),
        lambda atom: atom, shapes, size_bound,
    )
    failures: list[dict] = []
    for a in functor.source.cells.get(level, []):
        seen: dict[int, tuple] = {}
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


# -- movement lifting --------------------------------------------------------


def lift_movement(
    morphism: ExtensionMorphism, movement: ElementaryMovement, lifted_input: Term
) -> tuple[ElementaryMovement, Term]:
    """Lift a downstairs movement along the morphism at a given preimage.

    The induced word map preserves token structure, so the lift sits at the
    same token span: of the rewrites of the movement's case and direction
    rooted there, each built from its shape, the first whose contractum maps
    onto the downstairs one. NotLiftable when no subterm or no rewrite there fits.
    """
    if induced_word_map(morphism, lifted_input.word).tokens != movement.source.word.tokens:
        raise SchemaError("the lifted input does not map onto the movement's input")
    start, case, direction = movement.prefix_len, movement.case, movement.direction
    try:
        redex = subterm_at(lifted_input, start, start + movement.redex.length)
    except BadOccurrence:
        raise NotLiftable(f"case {case}: no subterm upstairs at the occurrence") from None
    forward = (case,) if direction == FORWARD else ()
    backward = (case,) if direction == BACKWARD else ()
    want = movement.contractum.word.tokens
    for _, shape, _ in _rewrites(morphism.source, redex, forward, backward):
        contractum = _built(shape, redex.src, redex.tgt)
        if induced_word_map(morphism, contractum.word).tokens == want:
            lifted = ElementaryMovement(lifted_input, start, redex, contractum, case, direction)
            return lifted, apply_movement(lifted_input, lifted)
    raise NotLiftable(f"case {case}: no movement upstairs maps onto this one")


def is_rigid(
    morphism_or_functor,
    sigma_c: dict[int, list[str]],
    sigma_d: dict[int, list[str]],
) -> bool:
    """Do chosen generators land in chosen generators at every dimension?"""
    for dim, cells in sigma_c.items():
        allowed = set(sigma_d.get(dim, []))
        for cell in cells:
            image = _apply_at(morphism_or_functor, dim, cell)
            if image not in allowed:
                return False
    return True


def _apply_at(morphism_or_functor, dim: int, cell: str) -> str:
    if isinstance(morphism_or_functor, ExtensionMorphism):
        morphism = morphism_or_functor
        if dim == morphism.source.dimension + 1:
            image = morphism.phi.get(cell)
            if image is None:
                raise SchemaError(f"{cell!r} has no image at dimension {dim}")
            return image
        return morphism.base.apply(cell)
    return morphism_or_functor.apply(cell)
