"""Terms over a cellular extension: well-formedness, boundaries, evaluation.

A cellular extension hangs a set of formal (n+1)-generators on an n-category;
terms are the well-formed words built from generator atoms "(c:g)", identity
atoms "(i:x)" for top cells x of the base, and binary composition at levels
0..n. Checking is a single left-to-right pass that builds the term's tree,
computes boundaries as it goes and reports the leftmost failure. Terms keep
that tree: composites are built from their factors, movements and
substitutions copy only the path to the root, and evaluation folds the tree.
A parsed term keeps the word it was parsed from, and a moved or substituted
term inherits its word from its source: the source's tokens before and after
the replaced span around the replacement's tokens. A term without a source
word, such as a built or random one, builds its word from the tree when asked.

An extension adds only (n+1)-generators, so every boundary and composite a
term reads is its base's: parsing, enumeration and movements read the base's
boundary maps (PresentedCategory.boundaries) and composition tables (comp).
The extension keeps only the atom terms it interns (CellularExtension._atoms),
built on first use: one per atom token, shared by every parse, enumeration
and movement, and the unit atom of _unit_atom per (cell, k, side). A lookup
that misses the base's maps falls back to the base's own methods, so a
malformed or never-checked extension raises what the base raises. Because the
atoms and maps are kept, an extension and its base must not be mutated after
the first parse, enumeration or movement over the extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random

from .categories import SRC, TGT, PresentedCategory, truncate
from .errors import (
    BadOccurrence,
    BoundaryMismatch,
    LevelError,
    NotWellFormed,
    SchemaError,
    UndefinedComposite,
)
from .words import (
    COMP_KIND,
    GEN_KIND,
    ID_KIND,
    LPAREN,
    RPAREN,
    Word,
    comp,
    gen,
    ident_of,
    serialize,
)


@dataclass
class CellularExtension:
    """An n-category plus formal (n+1)-generators with parallel boundaries."""

    base: PresentedCategory
    generators: dict[str, tuple[str, str]]

    @property
    def dimension(self) -> int:
        return self.base.dimension

    @cached_property
    def _atoms(self) -> dict:
        """The atom terms this extension interns, by atom token (see _atom)
        and by (cell, k, side) for _unit_atom."""
        return {}


def check_extension(extension: CellularExtension) -> None:
    """Schema check plus the parallel-boundary condition on generators."""
    base = extension.base
    n = base.dimension
    for name, (src, tgt) in extension.generators.items():
        for cell in (src, tgt):
            if base.level_of(cell) != n:
                raise SchemaError(f"generator {name!r} boundary {cell!r} is not an {n}-cell")
        if n >= 1:
            if base.boundary(src, n - 1, SRC) != base.boundary(tgt, n - 1, SRC) or base.boundary(
                src, n - 1, TGT
            ) != base.boundary(tgt, n - 1, TGT):
                raise SchemaError(f"generator {name!r} boundaries {src!r}, {tgt!r} are not parallel")


GENERATOR = "generator"
IDENTITY = "identity"
COMPOSITE = "composite"


class Term:
    """A well-formed term: an atom, or the composite (left *level right) of
    two terms, with its top-level boundaries, size and token length cached.

    Terms are immutable and share their subterms, so a term is a node of a
    tree that other terms may contain too. For atoms, kind is "generator" or
    "identity" and name the generator or base cell; for composites, left,
    level and right hold the factors. A parsed term keeps its word and a
    spliced one inherits it from its source (see splice); any other term
    builds its word from the tree on first use and then keeps it.
    """

    __slots__ = (
        "extension", "kind", "name", "left", "level", "right",
        "src", "tgt", "size", "length", "_word",
    )

    def __init__(self, extension, kind, name, left, level, right, src, tgt, size, length):
        self.extension = extension
        self.kind = kind
        self.name = name
        self.left = left
        self.level = level
        self.right = right
        self.src = src
        self.tgt = tgt
        self.size = size
        self.length = length
        self._word = None

    @property
    def word(self) -> Word:
        if self._word is None:
            self._word = Word(_tokens(self))
        return self._word

    def serialize(self) -> str:
        return serialize(self.word)

    def __repr__(self) -> str:
        return f"Term({self.serialize()!r})"


def _tokens(term: Term) -> tuple:
    """The token sequence of a term, from an explicit stack so that nesting
    depth is not bounded by the interpreter's recursion limit. A composite
    whose factors already have words is one tuple display."""
    left, right = term.left, term.right
    if left._word is not None and right._word is not None:
        return (LPAREN, *left._word.tokens, comp(term.level), *right._word.tokens, RPAREN)
    out: list = []
    todo: list = [term]
    while todo:
        item = todo.pop()
        if item.__class__ is not Term:
            out.append(item)
        elif item._word is not None:
            out.extend(item._word.tokens)
        else:
            out.append(LPAREN)
            todo += (RPAREN, item.right, comp(item.level), item.left)
    return tuple(out)


def _atom(extension: CellularExtension, kind: str, name: str) -> Term:
    """The atom term for a generator or top base cell, one per atom token
    and extension; the caller has checked the name."""
    token = gen(name) if kind == GENERATOR else ident_of(name)
    atoms = extension._atoms
    atom = atoms.get(token)
    if atom is None:
        src, tgt = extension.generators[name] if kind == GENERATOR else (name, name)
        atom = atoms[token] = Term(extension, kind, name, None, None, None, src, tgt, 0, 3)
        atom._word = Word((LPAREN, token, RPAREN))
    return atom


def meets(extension: CellularExtension, left_src: str, k: int, right_tgt: str) -> bool:
    """Can a term with n-source left_src follow one with n-target right_tgt
    at level k?"""
    base = extension.base
    if k == base.dimension:
        return left_src == right_tgt
    sources, targets = base.boundaries
    try:
        return sources[k][left_src] == targets[k][right_tgt]
    except KeyError:
        return base.boundary(left_src, k, SRC) == base.boundary(right_tgt, k, TGT)


def _unit_on(extension: CellularExtension, cell: str, k: int, side: str) -> str:
    """The k-level unit over the k-boundary of an n-cell, as an n-cell.

    At k = n this is the boundary cell itself.
    """
    base = extension.base
    n = extension.dimension
    if k == n:
        return cell
    sources, targets = base.boundaries
    try:
        below = (sources if side == SRC else targets)[k][cell]
    except KeyError:
        below = base.boundary(cell, k, side)
    return base.identity_to(below, n)


def _unit_atom(extension: CellularExtension, cell: str, k: int, side: str) -> Term:
    """The identity atom of _unit_on."""
    atoms = extension._atoms
    atom = atoms.get((cell, k, side))
    if atom is None:
        atom = _atom(extension, IDENTITY, _unit_on(extension, cell, k, side))
        atoms[(cell, k, side)] = atom
    return atom


def _composite(left: Term, k: int, right: Term, src: str, tgt: str) -> Term:
    """(left *k right) with boundaries the caller already knows."""
    return Term(
        left.extension, COMPOSITE, None, left, k, right, src, tgt,
        left.size + right.size + 1, left.length + right.length + 3,
    )


def _pair(left: Term, k: int, right: Term) -> Term:
    """(left *k right) built from its factors, which the caller has checked
    to meet at level k."""
    base = left.extension.base
    if k == base.dimension:
        return _composite(left, k, right, right.src, left.tgt)
    try:
        table = base.comp[(base.dimension, k)]
        src = table[(left.src, right.src)]
        tgt = table[(left.tgt, right.tgt)]
    except KeyError:
        src = base.compose(left.src, right.src, k)
        tgt = base.compose(left.tgt, right.tgt, k)
    return _composite(left, k, right, src, tgt)


@dataclass(frozen=True, slots=True)
class TermNode:
    """One subterm occurrence: a half-open token span plus parsed shape.

    For atoms, name holds the generator or base cell; for composites, level
    holds k and left/right the child spans.
    """

    start: int
    end: int
    kind: str  # "generator" | "identity" | "composite"
    name: str | None
    level: int | None
    left: tuple[int, int] | None
    right: tuple[int, int] | None
    src: str
    tgt: str
    size: int


@dataclass
class TermIndex:
    word: Word
    nodes: dict[tuple[int, int], TermNode]
    root: tuple[int, int]


def occurrences(term: Term) -> list[tuple[Term, int]]:
    """Every subterm occurrence as (subterm, start token), as a list in token order."""
    out, stack = [], [(term, 0)]
    while stack:
        item = stack.pop()
        out.append(item)
        node, start = item
        if node.left is not None:
            stack.append((node.right, start + node.left.length + 2))
            stack.append((node.left, start + 1))
    return out


def analyze_term(extension: CellularExtension, word: Word) -> TermIndex:
    """The subterm index of a word as token spans; raises NotWellFormed."""
    nodes: dict[tuple[int, int], TermNode] = {}
    for node, start in occurrences(check_term(extension, word)):
        end = start + node.length
        if node.left is None:
            left = right = None
        else:
            middle = start + 1 + node.left.length
            left, right = (start + 1, middle), (middle + 1, end - 1)
        nodes[(start, end)] = TermNode(
            start, end, node.kind, node.name, node.level, left, right,
            node.src, node.tgt, node.size,
        )
    return TermIndex(word, nodes, (0, len(word)))


def check_term(extension: CellularExtension, word: Word) -> Term:
    """Parse a word into a term in one left-to-right pass; raises
    NotWellFormed at the leftmost failure. The term keeps the word when its
    tokens are a tuple.

    Composites still being read wait on an explicit stack, each as two
    entries: its left factor, None until read, and the position of its
    composition symbol. So nesting depth is not bounded by the
    interpreter's recursion limit. Atom tokens are looked up in the atoms
    the extension interns; only a token that is not there yet is checked
    against the extension. Each composite is closed from the base's
    boundary maps and composition tables; a cell they miss goes through
    meets and _pair, which ask the base.
    """
    atoms = extension._atoms
    base = extension.base
    sources, targets = base.boundaries
    tables = base.comp
    n = base.dimension
    tokens = word.tokens
    count = len(tokens)
    pending: list = []
    start = 0
    while True:
        # Read the term that starts at `start` down to its leftmost atom.
        if start >= count or tokens[start] is not LPAREN:
            raise NotWellFormed(start, "ShapeError", "expected '('")
        if start + 1 >= count:
            raise NotWellFormed(start + 1, "ShapeError", "unclosed '('")
        head = tokens[start + 1]
        if head is LPAREN:
            pending += (None, 0)
            start += 1
            continue
        node = atoms.get(head)
        if node is None:
            if head.kind == GEN_KIND:
                if head.value not in extension.generators:
                    raise NotWellFormed(start + 1, "UnknownGenerator", f"{head.value!r}")
                kind = GENERATOR
            elif head.kind == ID_KIND:
                if not base.has_cell(head.value) or base.level_of(head.value) != n:
                    raise NotWellFormed(start + 1, "UnknownCell", f"{head.value!r}")
                kind = IDENTITY
            else:
                raise NotWellFormed(start + 1, "ShapeError", f"unexpected {head.text()!r}")
            node = _atom(extension, kind, head.value)
        end = start + 3
        if end > count or tokens[end - 1] is not RPAREN:
            raise NotWellFormed(end - 1, "ShapeError", "expected ')'")
        # Close every composite this term completes.
        while pending and pending[-2] is not None:
            pos = pending.pop()
            left = pending.pop()
            if end >= count or tokens[end] is not RPAREN:
                raise NotWellFormed(end, "ShapeError", "expected ')'")
            k = tokens[pos].value
            try:
                if k == n:
                    meet, src, tgt = left.src == node.tgt, node.src, left.tgt
                else:
                    meet = sources[k][left.src] == targets[k][node.tgt]
                    table = tables[(n, k)]
                    src, tgt = table[(left.src, node.src)], table[(left.tgt, node.tgt)]
            except KeyError:  # a cell the tables miss: the base decides, or raises
                meet, src = meets(extension, left.src, k, node.tgt), None
            if not meet:
                raise NotWellFormed(pos, "BoundaryMismatch", _apart(left, k, node), level=k)
            if src is None:
                node = _pair(left, k, node)
            else:
                node = Term(
                    extension, COMPOSITE, None, left, k, node, src, tgt,
                    left.size + node.size + 1, left.length + node.length + 3,
                )
            end += 1
        if not pending:
            if end != count:
                raise NotWellFormed(end, "ShapeError", "trailing tokens")
            if tokens.__class__ is tuple:
                node._word = word  # the parsed word is the term's: keep, not rebuild
            return node
        # The term is a left factor: read its composition symbol.
        if end >= count or tokens[end].kind != COMP_KIND:
            raise NotWellFormed(end, "ShapeError", "expected a composition symbol")
        if tokens[end].value > n:
            symbol = tokens[end].text()
            raise NotWellFormed(end, "LevelOutOfRange", f"{symbol} in a dimension-{n} extension")
        pending[-2] = node
        pending[-1] = end
        start = end + 1


def _path_to(term: Term, start: int, end: int) -> tuple[Term, list[tuple[Term, bool]]]:
    """The subterm at a token span, with the composites above it, root
    first, each paired with whether the span lies in its left factor."""
    path: list[tuple[Term, bool]] = []
    node, offset = term, 0
    while (offset, offset + node.length) != (start, end):
        if node.left is None or start <= offset:
            raise BadOccurrence(f"({start}, {end}) is not a subterm occurrence")
        right_at = offset + node.left.length + 2
        if start >= right_at:
            path.append((node, False))
            node, offset = node.right, right_at
        else:
            path.append((node, True))
            node, offset = node.left, offset + 1
    return node, path


def subterm_at(term: Term, start: int, end: int) -> Term:
    """The subterm occurrence at a token span; BadOccurrence otherwise."""
    return _path_to(term, start, end)[0]


def splice(term: Term, start: int, end: int, replacement: Term) -> Term:
    """Put replacement in place of the subterm at a token span, copying only
    the composites above it. The caller guarantees equal boundaries, so
    every copied composite keeps its own. When the term has its word, the
    result inherits it: the term's tokens before start and from end on
    around the replacement's tokens. Otherwise the result builds its word
    from the tree when asked. At the root, the result is the replacement."""
    return _spliced(term, start, end, _path_to(term, start, end)[1], replacement)


def _spliced(term: Term, start: int, end: int, path: list, replacement: Term) -> Term:
    """splice, given the path that _path_to found for the span."""
    node = _graft(path, replacement)
    word = term._word
    if word is not None and path:
        tokens = word.tokens
        node._word = Word(tokens[:start] + replacement.word.tokens + tokens[end:])
    return node


def _graft(path: list, replacement: Term) -> Term:
    """replacement under copies of the composites of a _path_to path."""
    node = replacement
    for parent, on_left in reversed(path):
        left, right = (node, parent.right) if on_left else (parent.left, node)
        node = _composite(left, parent.level, right, parent.src, parent.tgt)
    return node


def substitute(term: Term, start: int, end: int, replacement: Term) -> Term:
    """Replace the subterm at (start, end) by a term with the same boundaries."""
    old, path = _path_to(term, start, end)
    if (old.src, old.tgt) != (replacement.src, replacement.tgt):
        raise BoundaryMismatch(
            f"replacement boundaries ({replacement.src!r}, {replacement.tgt!r}) "
            f"differ from ({old.src!r}, {old.tgt!r})"
        )
    return _spliced(term, start, end, path, replacement)


# -- evaluation into an ambient category ------------------------------------


def restriction_extension(
    category: PresentedCategory, level: int, sigma: list[str]
) -> CellularExtension:
    """The extension whose base is the truncation below `level` and whose
    generators are the chosen level-cells with their table boundaries."""
    if not 1 <= level <= category.dimension:
        raise LevelError(f"level {level} out of range")
    generators = {}
    for cell in sigma:
        if category.level_of(cell) != level:
            raise SchemaError(f"{cell!r} is not a {level}-cell")
        generators[cell] = (category.src[level][cell], category.tgt[level][cell])
    return CellularExtension(truncate(category, level - 1), generators)


def fold(term: Term, atom, composite):
    """Fold a term bottom-up, left factor before right: atom(t) for each
    atom, composite(left value, right value, k) for each composite. Runs
    from an explicit stack, so nesting depth is not bounded by the
    interpreter's recursion limit."""
    values: list = []
    todo: list = [term]
    while todo:
        node = todo.pop()
        if node.__class__ is int:
            right = values.pop()
            values.append(composite(values.pop(), right, node))
        elif node.left is None:
            values.append(atom(node))
        else:
            todo += (node.level, node.right, node.left)
    return values[0]


def evaluate(category: PresentedCategory, sigma: list[str], term: Term) -> str:
    """Fold a term into a category that actually holds the composites.

    Generator atoms map to their named cells, identity atoms to identity
    cells, composition to table lookups (UndefinedComposite if missing).
    """
    n = term.extension.dimension
    sigma_set = set(sigma)

    def atom(node: Term) -> str:
        if node.kind == IDENTITY:
            return category.ids[n][node.name]
        if node.name not in sigma_set:
            raise UndefinedComposite(f"generator {node.name!r} outside the chosen set")
        return node.name

    return fold(term, atom, category.compose)


def generator_multiset(term: Term) -> dict[str, int]:
    """How often each generator occurs in a term, counted over its tree's
    atoms left to right: down each left spine, with the right factors passed
    on an explicit stack."""
    counts: dict[str, int] = {}
    todo = [term]
    while todo:
        node = todo.pop()
        while node.left is not None:
            todo.append(node.right)
            node = node.left
        if node.kind == GENERATOR:
            counts[node.name] = counts.get(node.name, 0) + 1
    return counts


# -- construction helpers ---------------------------------------------------


def atom_word(kind: str, name: str) -> Word:
    tok = gen(name) if kind == GENERATOR else ident_of(name)
    return Word((LPAREN, tok, RPAREN))


def pair_word(left: Word, k: int, right: Word) -> Word:
    return Word((LPAREN,) + left.tokens + (comp(k),) + right.tokens + (RPAREN,))


def compose_terms(left: Term, k: int, right: Term) -> Term:
    """Form (left *k right), checking composability first."""
    extension = left.extension
    n = extension.dimension
    if not 0 <= k <= n:
        raise LevelError(f"composition level {k} out of range")
    if not meets(extension, left.src, k, right.tgt):
        raise BoundaryMismatch(_apart(left, k, right))
    return _pair(left, k, right)


def _apart(left: Term, k: int, right: Term) -> str:
    """Why two factors do not meet at level k."""
    if k == left.extension.dimension:
        return f"{left.src!r} != {right.tgt!r} at level {k}"
    return f"factors do not meet at level {k}"


def all_atoms(extension: CellularExtension) -> list[Term]:
    """Every atom term, generators first, in declaration order."""
    out = [_atom(extension, GENERATOR, name) for name in extension.generators]
    for cell in extension.base.cells[extension.dimension]:
        out.append(_atom(extension, IDENTITY, cell))
    return out


def enumerate_terms(
    extension: CellularExtension, max_size: int, max_count: int | None = None
) -> tuple[list[Term], bool]:
    """All terms of size up to max_size, smallest first, deterministic order.

    Returns (terms, truncated): at most max_count terms, and truncated True
    when a term within max_size was left out. Each composite shares its
    factors with the smaller terms it is built from, so the list is
    factor-closed.
    """
    sources, targets = extension.base.boundaries
    return _enumerate(
        all_atoms(extension),
        extension.dimension,
        lambda term, k: sources[k][term.src],
        lambda term, k: targets[k][term.tgt],
        _pair,
        max_size,
        max_count,
    )


def _enumerate(
    atoms: list, top: int, source_key, target_key, pair, max_size: int,
    max_count: int | None = None,
) -> tuple[list, bool]:
    """The one enumeration loop: every item of size up to max_size, smallest
    first, as (items, truncated): at most max_count items, and truncated
    True when an item within max_size that pair keeps was left out.

    An item of size 0 is an atom; one of size s > 0 is pair(left, k, right)
    for k in 0..top and items left, right of sizes adding up to s - 1 that
    meet at k, that is source_key(left, k) == target_key(right, k), unless
    pair returns None, which drops it. Within a size the order is by k, then
    left size, then left, then right, each in listed order. Each item's keys
    are computed once per k.

    Class passes run on this loop too: an item is a class of words, and pair
    drops a class already listed. When whether two words meet at k, and the
    class of their composite, depend only on k and the two words' classes,
    and a composite's size is its factors' plus one, a class of least size s
    comes from factor classes at their least sizes adding up to s - 1. So
    listing each class once, at its least size, lists every class.
    """
    by_size: list[list] = [atoms[:max_count]]
    if len(by_size[0]) < len(atoms):
        return by_size[0], True
    count = len(atoms)
    # (size, k) -> the source keys of that size's items, in order; and its
    # items grouped by target key, in order.
    source_keys: dict[tuple[int, int], list] = {}
    by_target: dict[tuple[int, int], dict] = {}
    for size in range(1, max_size + 1):
        if not any(by_size[size // 2:]):
            break  # a pair of this size or more has a factor of an empty size
        layer: list = []
        by_size.append(layer)
        for k in range(top + 1):
            for left_size in range(size):
                right_size = size - 1 - left_size
                partners = by_target.get((right_size, k))
                if partners is None:
                    partners = by_target[(right_size, k)] = {}
                    for right in by_size[right_size]:
                        partners.setdefault(target_key(right, k), []).append(right)
                lefts = by_size[left_size]
                keys = source_keys.get((left_size, k))
                if keys is None:
                    keys = source_keys[(left_size, k)] = [source_key(left, k) for left in lefts]
                for left, key in zip(lefts, keys):
                    for right in partners.get(key, ()):
                        built = pair(left, k, right)
                        if built is None:
                            continue
                        if count == max_count:
                            return [item for items in by_size for item in items], True
                        layer.append(built)
                        count += 1
    return [item for items in by_size for item in items], False


def _value_buckets(
    category: PresentedCategory, level: int, sigma: list[str], atom_key, shapes: dict,
    max_size: int, max_count: int | None = None, admit=None,
) -> tuple[dict[str, list[tuple]], bool]:
    """The words of enumerate_terms(restriction_extension(category, level,
    sigma), max_size, max_count) as records (value, shape id, left, k, right)
    bucketed by value, and truncated, read off the category's own tables.
    An atom's record holds (kind, name) as left and None as k; the atoms are
    sigma's generators, then (i:x) for each (level-1)-cell x, as all_atoms
    lists them. Shapes are numbered in `shapes`, factors first: an atom's is
    atom_key((kind, name)), a composite's (left id, k, right id). Factors
    meet when their values' boundaries do, which in a valid category is when
    their terms' do. admit, when given, filters pairs of records."""
    sources, targets = category.boundaries
    units = category.ids[level - 1]
    composites = [category.comp.get((level, k), {}) for k in range(level)]

    def pair(left: tuple, k: int, right: tuple) -> tuple | None:
        if admit is not None and not admit(left, k, right):
            return None
        # A missing entry goes through compose, which raises UndefinedComposite.
        value = composites[k].get((left[0], right[0])) or category.compose(left[0], right[0], k)
        return (value, shapes.setdefault((left[1], k, right[1]), len(shapes)), left, k, right)

    valued = [(name, (GENERATOR, name)) for name in sigma]
    valued += [(units[cell], (IDENTITY, cell)) for cell in category.cells.get(level - 1, [])]
    atoms = [(value, shapes.setdefault(atom_key(atom), len(shapes)), atom, None, None)
             for value, atom in valued]
    records, truncated = _enumerate(
        atoms, level - 1, lambda record, k: sources[k][record[0]],
        lambda record, k: targets[k][record[0]], pair, max_size, max_count,
    )
    buckets: dict[str, list[tuple]] = {}
    for record in records:
        buckets.setdefault(record[0], []).append(record)
    return buckets, truncated


def _term_of(extension: CellularExtension, record: tuple) -> Term:
    """The term over extension that a record of _value_buckets stands for,
    rebuilt from its factors with an explicit stack, so nesting depth is not
    bounded by the interpreter's recursion limit."""
    built: list[Term] = []
    todo: list = [record]
    while todo:
        item = todo.pop()
        if item.__class__ is int:
            right = built.pop()
            built.append(_pair(built.pop(), item, right))
        elif item[3] is None:
            built.append(_atom(extension, *item[2]))
        else:
            todo += (item[3], item[4], item[2])
    return built[0]


def _spelled(record: tuple) -> str:
    """The serialization of a _value_buckets record's word, or of a class's
    first word shaped like one (conduche._fiber_classes): its token spellings
    joined from an explicit stack, so no term and no recursion limit."""
    out: list[str] = []
    todo: list = [record]
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            out.append(item)
        elif item[3] is None:
            kind, name = item[2]
            out += ("(", (gen(name) if kind == GENERATOR else ident_of(name)).spelling, ")")
        else:
            out.append("(")
            todo += (")", item[4], comp(item[3]).spelling, item[2])
    return "".join(out)


def random_term(extension: CellularExtension, rng: Random, max_size: int) -> Term:
    """Grow a random term bottom-up; composability holds by construction.

    Levels and factors are drawn uniformly. Some partner always fits: the
    pool holds an identity atom on every top cell, and on a valid extension
    the one on the k-unit of left's k-source meets left at level k.
    """
    n = extension.dimension
    top_cells = extension.base.cells[n]
    pool = all_atoms(extension)
    if not pool:
        raise SchemaError("extension has no atoms to build from")
    current = rng.choice(pool)
    target = rng.randint(0, max_size)
    while current.size < target:
        left = rng.choice(pool + [current])
        k = rng.randint(0, n)
        # Every target is a top cell: test each once, not each candidate.
        fits = {tgt: meets(extension, left.src, k, tgt) for tgt in top_cells}
        right = rng.choice([t for t in pool + [current] if fits[t.tgt]])
        if left.size + right.size + 1 > max_size:
            break
        current = _pair(left, k, right)
        pool.append(current)
    return current
