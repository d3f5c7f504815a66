"""Elementary movements between terms and the bounded equivalence search.

Five oriented rewrite shapes act on subterm occurrences:

  1  ((x *k y) *k z)        ->  (x *k (y *k z))
  2  ((i:c) *k x)           ->  x          when c is the k-unit on x's k-target
  3  (x *k (i:c))           ->  x          when c is the k-unit on x's k-source
  4  ((i:c) *k (i:d))       ->  (i:c*d)    for k < n, via the base table
  5  ((x *k y) *l (z *k t)) ->  ((x *l z) *k (y *l t))   for l < k

Two terms are equivalent when a chain of movements (in either direction)
connects them. Backward unit insertion makes every equivalence class
infinite, so the search is bounded and three-valued: Witness, Distinct
(only ever from proven invariants), or Unknown.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .categories import SRC, TGT, OmegaFunctor, PresentedCategory
from .errors import (
    BoundaryMismatch,
    LevelError,
    SchemaError,
    SettingError,
    Stale,
)
from .terms import (
    IDENTITY,
    CellularExtension,
    Term,
    _atom,
    _composite,
    _graft,
    _pair,
    _path_to,
    _unit_atom,
    _unit_on,
    fold,
    generator_multiset,
    meets,
    occurrences,
    splice,
)
from .words import LPAREN, RPAREN, SPELLINGS, Word, comp, serialize

WITNESS = "witness"
DISTINCT = "distinct"
UNKNOWN = "unknown"
FORWARD = "forward"
BACKWARD = "backward"

MAX_VISITED_ENV = "POLYCONDUCHE_MAX_VISITED"


class ElementaryMovement:
    """One rewrite step u = v e w  ->  v e' w at a fixed occurrence.

    source is the term u and prefix_len the token length of v; the prefix v
    and suffix w are read from the source's word when asked. direction
    records the orientation of the underlying shape: a backward movement has
    the shape's right-hand side as its redex. The source of an inverted
    movement is the grafted tree, which spells its word only when asked.
    """

    __slots__ = ("source", "prefix_len", "redex", "contractum", "case", "direction")

    def __init__(
        self, source: Term, prefix_len: int, redex: Term, contractum: Term, case: int, direction: str
    ):
        self.source = source
        self.prefix_len = prefix_len
        self.redex = redex
        self.contractum = contractum
        self.case = case
        self.direction = direction

    @property
    def prefix(self) -> Word:
        return self.source.word.sub(0, self.prefix_len)

    @property
    def suffix(self) -> Word:
        word = self.source.word
        return word.sub(self.prefix_len + self.redex.length, len(word))

    def inverted(self) -> "ElementaryMovement":
        at = self.prefix_len
        return ElementaryMovement(
            _graft(_path_to(self.source, at, at + self.redex.length)[1], self.contractum),
            self.prefix_len,
            self.contractum,
            self.redex,
            self.case,
            FORWARD if self.direction == BACKWARD else BACKWARD,
        )

    def __repr__(self) -> str:
        return (
            f"ElementaryMovement(case={self.case}, direction={self.direction!r}, "
            f"prefix_len={self.prefix_len}, redex={self.redex!r}, contractum={self.contractum!r})"
        )

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "direction": self.direction,
            "prefix_len": self.prefix_len,
            "redex": self.redex.serialize(),
            "contractum": self.contractum.serialize(),
        }


@dataclass
class EquivalenceWitness:
    start: Word
    end: Word
    steps: list[ElementaryMovement]

    def to_json(self) -> list[dict]:
        return [step.to_json() for step in self.steps]


@dataclass
class SearchStats:
    """What the bidirectional search of one equivalence query did, as
    deterministic counts; all zero when the query needed no search."""

    expansions: tuple[int, int] = (0, 0)  # nodes expanded from start, from goal
    candidates: int = 0  # child words probed against the visited sets
    records: int = 0  # visited records made: one per newly visited word
    memo_misses: int = 0  # distinct subterm words whose rewrites were computed
    depths: tuple[int, int] = (0, 0)  # levels expanded from start, from goal
    largest_frontier: int = 0  # most words in one frontier when it was expanded


@dataclass
class EquivalenceOutcome:
    verdict: str  # witness | distinct | unknown
    witness: EquivalenceWitness | None = None
    reason: str | None = None
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass(frozen=True)
class SearchBounds:
    size_slack: int = 3
    max_steps: int = 64
    max_visited: int = 200_000

    @staticmethod
    def from_env() -> "SearchBounds":
        """Default bounds, with the visited cap from the environment when
        set; SettingError unless that is a positive integer."""
        cap = os.environ.get(MAX_VISITED_ENV)
        if cap is None:
            return SearchBounds()
        try:
            value = int(cap)
        except ValueError:
            value = 0
        if value <= 0:
            raise SettingError(f"{MAX_VISITED_ENV} must be a positive integer, got {cap!r}")
        return SearchBounds(max_visited=value)


ALL_CASES = frozenset((1, 2, 3, 4, 5))


def enumerate_movements(
    extension: CellularExtension,
    term: Term,
    direction: str = "both",
    cases=ALL_CASES,
) -> list[ElementaryMovement]:
    """All movements of the given cases rooted at some subterm occurrence,
    in deterministic (case, position, direction, level) order.

    Backward movements include unit insertion at every occurrence and every
    identity split the base composition tables support. The occurrences
    come in token order, and each node's rewrites are listed by the one
    _rewrites that also serves the search and movement lifting; filing them
    under their case gives that order without sorting.
    """
    forward = cases if direction in ("both", FORWARD) else ()
    backward = cases if direction in ("both", BACKWARD) else ()
    assoc, left_unit, right_unit, merge, interchange = by_case = ([], [], [], [], [])
    for node, start in occurrences(term):
        for case, shape, sense in _rewrites(extension, node, forward, backward):
            contractum = _built(shape, node.src, node.tgt)
            by_case[case - 1].append(ElementaryMovement(term, start, node, contractum, case, sense))
    return assoc + left_unit + right_unit + merge + interchange


def _rewrites(extension: CellularExtension, node: Term, forward, backward) -> list[tuple]:
    """The rewrites rooted at a node, as (case, shape, direction): the
    forward ones in case order, backward case 1 and then case 5, a left
    (case 2) and a right (case 3) unit insertion at each level, and the
    identity splits (case 4). forward and backward hold the cases wanted in
    each direction. Only backward cases 2, 3 and 4 make the node larger,
    each by one.

    A shape is the contractum where that term exists already (a factor, or
    the merged atom of forward case 4), and otherwise a triple (left, k,
    right) of terms, or of triples for the inner pairs of cases 1 and 5.
    _built makes its tree and _key_of its key. Nothing is parsed: the
    globularity and distribution axioms make every shape except backward
    interchange well formed outright, and that one is guarded by two
    boundary comparisons.
    """
    n = extension.dimension
    left, k, right = node.left, node.level, node.right
    out = []
    if left is not None and forward:
        if left.level == k and 1 in forward:
            out.append((1, (left.left, k, (left.right, k, right)), FORWARD))
        if left.kind == IDENTITY and 2 in forward:
            if left.name == _unit_on(extension, right.tgt, k, TGT):
                out.append((2, right, FORWARD))
        if right.kind == IDENTITY:
            if 3 in forward and right.name == _unit_on(extension, left.src, k, SRC):
                out.append((3, left, FORWARD))
            if left.kind == IDENTITY and k < n and 4 in forward:
                base = extension.base
                if (left.name, right.name) in base.comp.get((n, k), {}):
                    merged = _atom(extension, IDENTITY, base.compose(left.name, right.name, k))
                    out.append((4, merged, FORWARD))
        if left.level is not None and left.level == right.level and k < left.level and 5 in forward:
            first, second = (left.left, k, right.left), (left.right, k, right.right)
            out.append((5, (first, left.level, second), FORWARD))
    if left is not None and backward:
        if right.level == k and 1 in backward:
            out.append((1, ((left, k, right.left), k, right.right), BACKWARD))
        if left.level is not None and left.level == right.level and left.level < k and 5 in backward:
            p, q, r, s = left.left, left.right, right.left, right.right
            if meets(extension, p.src, k, r.tgt) and meets(extension, q.src, k, s.tgt):
                out.append((5, ((p, k, r), left.level, (q, k, s)), BACKWARD))
    if 2 in backward or 3 in backward:
        for level in range(n + 1):
            if 2 in backward:
                out.append((2, (_unit_atom(extension, node.tgt, level, TGT), level, node), BACKWARD))
            if 3 in backward:
                out.append((3, (node, level, _unit_atom(extension, node.src, level, SRC)), BACKWARD))
    if node.kind == IDENTITY and 4 in backward:
        for level in range(n):
            for (c, d) in extension.base.factorizations(node.name, n, level):
                c_atom, d_atom = _atom(extension, IDENTITY, c), _atom(extension, IDENTITY, d)
                out.append((4, (c_atom, level, d_atom), BACKWARD))
    return out


def _built(shape, src: str, tgt: str) -> Term:
    """The contractum of a _rewrites shape over a redex (src, tgt)."""
    if shape.__class__ is Term:
        return shape
    left, k, right = shape
    left = left if left.__class__ is Term else _pair(*left)
    right = right if right.__class__ is Term else _pair(*right)
    return _composite(left, k, right, src, tgt)


def apply_movement(term: Term, movement: ElementaryMovement) -> Term:
    """Splice the contractum in at the recorded occurrence; Stale unless the
    term is the movement's source or has the same word."""
    if movement.source is not term and movement.source.word.tokens != term.word.tokens:
        raise Stale("movement does not match this word")
    return _splice(term, movement)


def _splice(term: Term, movement: ElementaryMovement) -> Term:
    start = movement.prefix_len
    return splice(term, start, start + movement.redex.length, movement.contractum)


def _innermost(movement: ElementaryMovement) -> tuple[int, int]:
    return (movement.prefix_len + movement.redex.length, movement.prefix_len)


def _leftmost(movement: ElementaryMovement) -> int:
    return movement.prefix_len


def _normalize(
    extension: CellularExtension, term: Term, cases: tuple[int, ...], key
) -> tuple[Term, list[ElementaryMovement]]:
    """Apply the least forward movement of the given cases under key until
    none is left; returns the normal form and the movements taken.

    Unit erasure (cases 2, 3, 4) removes a composition symbol per step, and
    right association (case 1) terminates. Together they give a complete
    normal form for extensions of 0-categories, where no interchange or
    identity-split movements exist.
    """
    path: list[ElementaryMovement] = []
    current = term
    while True:
        movements = enumerate_movements(extension, current, FORWARD, cases=cases)
        if not movements:
            return current, path
        step = min(movements, key=key)
        path.append(step)
        current = _splice(current, step)


def reduce(extension: CellularExtension, term: Term) -> Term:
    return _normalize(extension, term, (2, 3, 4), _innermost)[0]


def equivalent(
    extension: CellularExtension,
    u: Term,
    v: Term,
    bounds: SearchBounds | None = None,
    memo: dict | None = None,
) -> EquivalenceOutcome:
    """Decide u ~ v within bounds.

    Distinct only ever comes from the two proven movement invariants:
    mismatched top-level boundaries or mismatched generator multisets.
    Everything the bounded bidirectional search cannot connect is Unknown.

    The search is deterministic in the extension and in its start and goal
    words, size cap, step budget and visited cap. A caller that asks many
    queries over one extension may pass a dict as memo, kept only as long
    as those queries: each search then runs once per distinct key, and a
    repeat returns the first run's steps and stats.
    """
    bounds = bounds or SearchBounds()
    if (u.src, u.tgt) != (v.src, v.tgt):
        return EquivalenceOutcome(DISTINCT, reason="boundary")
    if generator_multiset(u) != generator_multiset(v):
        return EquivalenceOutcome(DISTINCT, reason="generator-multiset")
    if u.word == v.word:
        return EquivalenceOutcome(WITNESS, EquivalenceWitness(u.word, v.word, []))

    ru, path_u = _normalize(extension, u, (2, 3, 4), _innermost)
    rv, path_v = _normalize(extension, v, (2, 3, 4), _innermost)
    if extension.dimension == 0:
        ru, rot_u = _normalize(extension, ru, (1,), _leftmost)
        rv, rot_v = _normalize(extension, rv, (1,), _leftmost)
        path_u += rot_u
        path_v += rot_v
    if ru.word == rv.word:
        steps = path_u + [m.inverted() for m in reversed(path_v)]
        return EquivalenceOutcome(WITNESS, EquivalenceWitness(u.word, v.word, steps))

    budget = bounds.max_steps - len(path_u) - len(path_v)
    if budget <= 0:
        return EquivalenceOutcome(UNKNOWN, reason="step-cap")
    size_cap = max(u.size, v.size) + bounds.size_slack
    if memo is None:
        memo = {}
    key = (ru.word.tokens, rv.word.tokens, size_cap, budget, bounds.max_visited)
    if key not in memo:
        stats = SearchStats()
        memo[key] = (
            _bidirectional_search(extension, ru, rv, size_cap, budget, bounds.max_visited, stats),
            stats,
        )
    middle, stats = memo[key]
    if isinstance(middle, str):
        return EquivalenceOutcome(UNKNOWN, reason=middle, stats=stats)
    steps = path_u + middle + [m.inverted() for m in reversed(path_v)]
    return EquivalenceOutcome(WITNESS, EquivalenceWitness(u.word, v.word, steps), stats=stats)


def _bidirectional_search(
    extension: CellularExtension,
    start: Term,
    goal: Term,
    size_cap: int,
    max_steps: int,
    max_visited: int,
    stats: SearchStats,
):
    """Meet-in-the-middle breadth-first search over the movement graph.

    Side 0 grows from start and side 1 from goal. Frontiers expand level by
    level, smaller side first, nodes in (word length, serialization) order,
    children in enumerate_movements order; the first meeting point under
    that ordering is the witness, which makes repeated queries byte-stable.
    Returns the step list or an Unknown reason, and fills in stats.

    Words are keyed by str: a word's key joins its tokens' one-character
    codes (see words.SymbolToken), so slicing, joining and hashing keys run
    in C, and the level order is (len(key), key.translate(SPELLINGS)). Each
    visited set maps a word's key to a plain record of the step that first
    reached it, (source node, prefix_len, redex, contractum shape, case,
    direction), or None at the root, and a frontier holds keys only. Trees
    are built only where they are used: a node's tree is grafted, with its
    contractum built from the record's shape, when the node is expanded,
    and ElementaryMovement objects are made only for the witness, from the
    records on its path. No Word is built and no tree is walked for its
    tokens; the witness's words are spelled from the trees when asked for.

    keys maps each term the search has met to its key: every subterm
    occurrence of an expanded node gets its slice of the node's key, and a
    contractum's key is spelled from its shape by _key_of. A contractum
    depends only on its redex, so the rewrites rooted at a subterm are
    computed once per search and kept under the subterm's key, filed by
    case in _rewrites order as (shape, contractum key, direction); the
    growing ones (backward cases 2, 3 and 4) only when a node below the
    size cap first needs them. A child's key is prefix + contractum key +
    suffix, probed against the visited sets.
    """
    keys: dict[Term, str] = {}
    start_key, goal_key = _key_of(keys, start), _key_of(keys, goal)
    visited = [{start_key: None}, {goal_key: None}]
    roots = (start, goal)
    frontiers = [[start_key], [goal_key]]
    depths = [0, 0]  # levels expanded on each side, the last perhaps in part
    if goal_key in visited[0]:
        return []
    total_visited = 2
    # Subterm key -> [its rewrites that do not grow it, all its rewrites],
    # each one tuple per case, () when there are none and None until needed.
    memo: dict[str, list] = {}
    expansions = [0, 0]
    candidates = records = largest_frontier = 0

    def chain(side: int, key: str) -> list[ElementaryMovement]:
        """The movements from the side's root to key, last first."""
        steps = []
        record = visited[side][key]
        while record is not None:
            source, at, redex, shape, case, direction = record
            contractum = _built(shape, redex.src, redex.tgt)
            steps.append(ElementaryMovement(source, at, redex, contractum, case, direction))
            record = visited[side][keys[source]]
        return steps

    try:
        while True:
            expandable = [
                side
                for side in (0, 1)
                if frontiers[side] and depths[side] + 1 + depths[1 - side] <= max_steps
            ]
            if not expandable:
                return "step-cap" if frontiers[0] or frontiers[1] else "exhausted-under-cap"
            side = min(expandable, key=lambda s: (len(frontiers[s]), s))
            seen, other = visited[side], visited[1 - side]
            largest_frontier = max(largest_frontier, len(frontiers[side]))
            depths[side] += 1
            new_frontier: list[str] = []
            for node_key in sorted(frontiers[side], key=lambda k: (len(k), k.translate(SPELLINGS))):
                reached = seen[node_key]
                if reached is None:
                    node = roots[side]
                else:  # graft the tree at the record's occurrence
                    source, at, redex, shape = reached[:4]
                    contractum = _built(shape, redex.src, redex.tgt)
                    node = _graft(_path_to(source, at, at + redex.length)[1], contractum)
                expansions[side] += 1
                growing = node.size < size_cap
                sites = []  # (subterm, position, prefix, suffix, rewrites by case)
                # Descendants before their ancestors, so that the subterms in a
                # new contractum's shape have their keys when it is spelled.
                for sub, at in reversed(occurrences(node)):
                    end = at + sub.length
                    key = keys[sub] = node_key[at:end]
                    entry = memo.get(key)
                    if entry is None:
                        entry = memo[key] = [None, None]
                    by_case = entry[growing]
                    if by_case is None:
                        filed: tuple[list, ...] = ([], [], [], [], [])
                        for case, shape, direction in _rewrites(
                            extension, sub, ALL_CASES, ALL_CASES if growing else (1, 5)
                        ):
                            filed[case - 1].append((shape, _key_of(keys, shape), direction))
                        by_case = entry[growing] = tuple(map(tuple, filed)) if any(filed) else ()
                    if by_case:
                        sites.append((sub, at, node_key[:at], node_key[end:], by_case))
                sites.reverse()
                for case in (1, 2, 3, 4, 5):
                    for sub, at, prefix, suffix, by_case in sites:
                        for shape, contractum_key, direction in by_case[case - 1]:
                            # Probe the visited sets with the child's key.
                            key = prefix + contractum_key + suffix
                            candidates += 1
                            if key in seen:
                                continue
                            records += 1
                            seen[key] = (node, at, sub, shape, case, direction)
                            if key in other:
                                return list(reversed(chain(0, key))) + [
                                    m.inverted() for m in chain(1, key)
                                ]
                            new_frontier.append(key)
                            total_visited += 1
                            if total_visited > max_visited:
                                return "visited-cap"
            frontiers[side] = new_frontier
    finally:
        stats.expansions = tuple(expansions)
        stats.candidates = candidates
        stats.records = records
        stats.memo_misses = len(memo)
        stats.depths = tuple(depths)
        stats.largest_frontier = largest_frontier


def _key_of(keys: dict, shape) -> str:
    """The search key of a _rewrites shape, spelled from its factors' keys,
    or of a term: its word's codes joined, kept in keys. Module level, so
    that a search's state forms no reference cycle and is freed when the
    search returns."""
    if shape.__class__ is not Term:
        left, k, right = shape
        left, right = keys.get(left) or _key_of(keys, left), keys.get(right) or _key_of(keys, right)
        return LPAREN.code + left + comp(k).code + right + RPAREN.code
    key = keys.get(shape)
    if key is None:
        key = keys[shape] = "".join([t.code for t in shape.word.tokens])
    return key


def extend_functor(
    extension: CellularExtension,
    target: PresentedCategory,
    base_functor: OmegaFunctor,
    phi: dict[str, str],
    term: Term,
) -> str:
    """Fold a term through a base functor and a generator assignment.

    Requires target dimension n+1 and, for every generator g, the boundary
    squares f(src g) = src phi(g), f(tgt g) = tgt phi(g).
    """
    n = extension.dimension
    if target.dimension < n + 1:
        raise LevelError("target category is too shallow to receive the extension")
    for name, (src, tgt) in extension.generators.items():
        image = phi.get(name)
        if image is None:
            raise SchemaError(f"assignment misses generator {name!r}")
        if target.src[n + 1][image] != base_functor.apply(src) or target.tgt[n + 1][
            image
        ] != base_functor.apply(tgt):
            raise BoundaryMismatch(f"assignment for {name!r} breaks the boundary squares")
    def atom(node: Term) -> str:
        if node.kind == IDENTITY:
            return target.ids[n][base_functor.apply(node.name)]
        return phi[node.name]

    return fold(term, atom, target.compose)


def movement_graph_dot(extension: CellularExtension, term: Term, direction: str = "both") -> str:
    """The one-step neighborhood of a word as a DOT digraph, over the
    movements enumerate_movements lists in the given direction.

    Forward movements point away from the word, backward movements into it;
    edges are labeled by case.
    """
    lines = ["digraph movements {", "  rankdir=LR;"]
    center = serialize(term.word)
    lines.append(f'  "{_dot_escape(center)}";')
    for movement in enumerate_movements(extension, term, direction):
        neighbor = serialize(_splice(term, movement).word)
        label = f"case {movement.case}"
        if movement.direction == FORWARD:
            src, dst = center, neighbor
        else:
            src, dst = neighbor, center
        lines.append(
            f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}" [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
