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
from dataclasses import dataclass

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
    _pair,
    _unit_on,
    fold,
    generator_multiset,
    meets,
    occurrences,
    splice,
)
from .words import Word, serialize

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
    the shape's right-hand side as its redex.
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
        return ElementaryMovement(
            _splice(self.source, self),
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
class EquivalenceOutcome:
    verdict: str  # witness | distinct | unknown
    witness: EquivalenceWitness | None = None
    reason: str | None = None


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


def enumerate_movements(
    extension: CellularExtension,
    term: Term,
    direction: str = "both",
    size_cap: int | None = None,
) -> list[ElementaryMovement]:
    """All movements rooted at some subterm occurrence, in deterministic
    (case, position, direction, level) order.

    Backward movements include unit insertion at every occurrence and every
    identity split the base composition tables support. These are the only
    movements that make a term larger, each by one, so none is built when a
    size_cap is given and the term's size has reached it; the listing is
    otherwise the same, in the same order. The occurrences come
    in token order and each movement is filed under its case, which gives
    that order without sorting. Redexes are subterms of the term and
    contracta are built from its subterms, never parsed: the globularity and
    distribution axioms make every shape except backward interchange well
    formed outright, and that one is guarded by two boundary comparisons.
    """
    base = extension.base
    n = extension.dimension
    levels = range(n + 1)
    want_fwd = direction in ("both", FORWARD)
    want_bwd = direction in ("both", BACKWARD)
    want_growing = want_bwd and (size_cap is None or term.size < size_cap)
    # One list per case; the walk fills each in (position, direction, level) order.
    assoc, left_unit, right_unit, merge, interchange = [], [], [], [], []
    units: dict[tuple, Term] = {}

    def unit(cell: str, level: int, side: str) -> Term:
        """The identity atom of _unit_on, one per call and arguments."""
        atom = units.get((cell, level, side))
        if atom is None:
            atom = _atom(extension, IDENTITY, _unit_on(extension, cell, level, side))
            units[(cell, level, side)] = atom
        return atom

    for node, start in occurrences(term):
        left, k, right = node.left, node.level, node.right
        if left is not None:
            if want_fwd:
                if left.level == k:
                    inner = _pair(left.right, k, right)
                    contractum = _composite(left.left, k, inner, node.src, node.tgt)
                    assoc.append(ElementaryMovement(term, start, node, contractum, 1, FORWARD))
                if left.kind == IDENTITY and left.name == unit(right.tgt, k, TGT).name:
                    left_unit.append(ElementaryMovement(term, start, node, right, 2, FORWARD))
                if right.kind == IDENTITY and right.name == unit(left.src, k, SRC).name:
                    right_unit.append(ElementaryMovement(term, start, node, left, 3, FORWARD))
                if (
                    k < n
                    and left.kind == IDENTITY
                    and right.kind == IDENTITY
                    and (left.name, right.name) in base.comp.get((n, k), {})
                ):
                    merged = _atom(extension, IDENTITY, base.compose(left.name, right.name, k))
                    merge.append(ElementaryMovement(term, start, node, merged, 4, FORWARD))
                if left.level is not None and left.level == right.level and k < left.level:
                    contractum = _composite(
                        _pair(left.left, k, right.left),
                        left.level,
                        _pair(left.right, k, right.right),
                        node.src,
                        node.tgt,
                    )
                    interchange.append(
                        ElementaryMovement(term, start, node, contractum, 5, FORWARD)
                    )
            if want_bwd:
                if right.level == k:
                    inner = _pair(left, k, right.left)
                    contractum = _composite(inner, k, right.right, node.src, node.tgt)
                    assoc.append(ElementaryMovement(term, start, node, contractum, 1, BACKWARD))
                if left.level is not None and left.level == right.level and left.level < k:
                    p, q, r, s = left.left, left.right, right.left, right.right
                    if meets(extension, p.src, k, r.tgt) and meets(extension, q.src, k, s.tgt):
                        contractum = _composite(
                            _pair(p, k, r), left.level, _pair(q, k, s), node.src, node.tgt
                        )
                        interchange.append(
                            ElementaryMovement(term, start, node, contractum, 5, BACKWARD)
                        )
        if want_growing:
            for level in levels:
                inserted = unit(node.tgt, level, TGT)
                contractum = _composite(inserted, level, node, node.src, node.tgt)
                left_unit.append(ElementaryMovement(term, start, node, contractum, 2, BACKWARD))
                inserted = unit(node.src, level, SRC)
                contractum = _composite(node, level, inserted, node.src, node.tgt)
                right_unit.append(ElementaryMovement(term, start, node, contractum, 3, BACKWARD))
            if node.kind == IDENTITY:
                for level in range(n):
                    for (c, d) in base.factorizations(node.name, n, level):
                        c_atom = _atom(extension, IDENTITY, c)
                        d_atom = _atom(extension, IDENTITY, d)
                        contractum = _composite(c_atom, level, d_atom, node.src, node.tgt)
                        merge.append(
                            ElementaryMovement(term, start, node, contractum, 4, BACKWARD)
                        )
    return assoc + left_unit + right_unit + merge + interchange


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
        movements = [
            m for m in enumerate_movements(extension, current, FORWARD) if m.case in cases
        ]
        if not movements:
            return current, path
        step = min(movements, key=key)
        path.append(step)
        current = _splice(current, step)


def reduce(extension: CellularExtension, term: Term) -> Term:
    return _normalize(extension, term, (2, 3, 4), _innermost)[0]


def equivalent(
    extension: CellularExtension, u: Term, v: Term, bounds: SearchBounds | None = None
) -> EquivalenceOutcome:
    """Decide u ~ v within bounds.

    Distinct only ever comes from the two proven movement invariants:
    mismatched top-level boundaries or mismatched generator multisets.
    Everything the bounded bidirectional search cannot connect is Unknown.
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
    middle = _bidirectional_search(extension, ru, rv, size_cap, budget, bounds.max_visited)
    if isinstance(middle, str):
        return EquivalenceOutcome(UNKNOWN, reason=middle)
    steps = path_u + middle + [m.inverted() for m in reversed(path_v)]
    return EquivalenceOutcome(WITNESS, EquivalenceWitness(u.word, v.word, steps))


def _bidirectional_search(
    extension: CellularExtension,
    start: Term,
    goal: Term,
    size_cap: int,
    max_steps: int,
    max_visited: int,
):
    """Meet-in-the-middle breadth-first search over the movement graph.

    Side 0 grows from start and side 1 from goal. Frontiers expand level by
    level, smaller side first, nodes in (word length, serialization) order,
    movements in enumeration order; the first meeting point under that
    ordering is the witness, which makes repeated queries byte-stable. Each
    visited set maps a word's tokens to the movement that first reached it
    (None at the root), whose source is the parent. Returns the step list
    or an Unknown reason.
    """
    visited = [{start.word.tokens: None}, {goal.word.tokens: None}]
    roots = (start, goal)
    # A frontier entry is a word and the movement that reached it (None at
    # the root); its tree is built only when the entry is expanded.
    frontiers = [[(start.word, None)], [(goal.word, None)]]
    depths = [0, 0]
    if goal.word.tokens in visited[0]:
        return []
    total_visited = 2

    def chain(side: int, tokens) -> list[ElementaryMovement]:
        """The movements from the side's root to tokens, last first."""
        steps = []
        movement = visited[side][tokens]
        while movement is not None:
            steps.append(movement)
            movement = visited[side][movement.source.word.tokens]
        return steps

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
        new_frontier: list[tuple[Word, ElementaryMovement]] = []
        for word, reached in sorted(frontiers[side], key=lambda e: (len(e[0]), serialize(e[0]))):
            node = roots[side] if reached is None else _splice(reached.source, reached)
            node._word = word  # the entry's word is the node's: keep, not rebuild
            tokens = word.tokens
            for movement in enumerate_movements(extension, node, size_cap=size_cap):
                redex, contractum = movement.redex, movement.contractum
                # Probe the visited sets with the child's tokens.
                start = movement.prefix_len
                key = tokens[:start] + contractum.word.tokens + tokens[start + redex.length :]
                if key in seen:
                    continue
                seen[key] = movement
                if key in other:
                    return list(reversed(chain(0, key))) + [m.inverted() for m in chain(1, key)]
                new_frontier.append((Word(key), movement))
                total_visited += 1
                if total_visited > max_visited:
                    return "visited-cap"
        frontiers[side] = new_frontier
        depths[side] += 1


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


def movement_graph_dot(extension: CellularExtension, term: Term) -> str:
    """The one-step neighborhood of a word as a DOT digraph.

    Forward movements point away from the word, backward movements into it;
    edges are labeled by case.
    """
    lines = ["digraph movements {", "  rankdir=LR;"]
    center = serialize(term.word)
    lines.append(f'  "{_dot_escape(center)}";')
    for movement in enumerate_movements(extension, term):
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
