"""The movement enumerator and the equivalence search against reference
copies.

`_reference_movements` and `_reference_search` are the per-expansion
enumerator and search that the per-node rewrite functions and the per-search
rewrite memo replaced: every movement of every occurrence is built at every
expansion. The enumeration must list the same movements in the same order,
and the search must give the same verdicts, reasons and witnesses.
"""

from random import Random

from polyconduche import movements
from polyconduche.categories import SRC, TGT
from polyconduche.conduche import full_extension
from polyconduche.fixtures import (
    chain3_extension,
    eh_extension,
    idem_category,
    parallel_pair_category,
    path2_category,
)
from polyconduche.movements import (
    BACKWARD,
    FORWARD,
    ElementaryMovement,
    SearchBounds,
    _splice,
    apply_movement,
    enumerate_movements,
    equivalent,
)
from polyconduche.terms import (
    IDENTITY,
    _atom,
    _composite,
    _pair,
    _unit_on,
    generator_multiset,
    meets,
    occurrences,
    random_term,
)
from polyconduche.words import Word, serialize


def _reference_movements(extension, term, direction="both", size_cap=None):
    base = extension.base
    n = extension.dimension
    levels = range(n + 1)
    want_fwd = direction in ("both", FORWARD)
    want_bwd = direction in ("both", BACKWARD)
    want_growing = want_bwd and (size_cap is None or term.size < size_cap)
    assoc, left_unit, right_unit, merge, interchange = [], [], [], [], []
    units = {}

    def unit(cell, level, side):
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
                    interchange.append(ElementaryMovement(term, start, node, contractum, 5, FORWARD))
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
                        merge.append(ElementaryMovement(term, start, node, contractum, 4, BACKWARD))
    return assoc + left_unit + right_unit + merge + interchange


def _reference_search(extension, start, goal, size_cap, max_steps, max_visited, *_stats):
    visited = [{start.word.tokens: None}, {goal.word.tokens: None}]
    roots = (start, goal)
    frontiers = [[(start.word, None)], [(goal.word, None)]]
    depths = [0, 0]
    if goal.word.tokens in visited[0]:
        return []
    total_visited = 2

    def chain(side, tokens):
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
        new_frontier = []
        for word, reached in sorted(frontiers[side], key=lambda e: (len(e[0]), serialize(e[0]))):
            node = roots[side] if reached is None else _splice(reached.source, reached)
            node._word = word
            tokens = word.tokens
            for movement in _reference_movements(extension, node, size_cap=size_cap):
                redex, contractum = movement.redex, movement.contractum
                at = movement.prefix_len
                key = tokens[:at] + contractum.word.tokens + tokens[at + redex.length :]
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


def _listing(moves):
    """The fields of to_json, with redex and contractum as token tuples:
    equal listings have equal to_json, and the check skips serializing."""
    return [
        (m.case, m.direction, m.prefix_len, m.redex.word.tokens, m.contractum.word.tokens)
        for m in moves
    ]


def test_enumeration_matches_the_reference(small_terms):
    # In the reference each direction is built under its own test, so its
    # listing for a direction is its full listing less the other direction.
    total = 0
    for ext, t in small_terms:
        reference = _reference_movements(ext, t)
        total += len(reference)
        full = _listing(reference)
        for direction in ("both", FORWARD, BACKWARD):
            expected = [entry for entry in full if direction in ("both", entry[1])]
            assert _listing(enumerate_movements(ext, t, direction)) == expected
    assert total == 751_678


def test_case_filter_drops_only_other_cases(small_terms):
    # The normaliser's two case sets, on every fourth term to keep it short.
    for ext, t in small_terms[::4]:
        full = _listing(_reference_movements(ext, t, FORWARD))
        for cases in ((2, 3, 4), (1,)):
            expected = [entry for entry in full if entry[0] in cases]
            assert _listing(enumerate_movements(ext, t, FORWARD, cases=cases)) == expected


def _same_multiset_pairs(extension, seed, draws, max_size):
    """Pairs of seeded random terms with the same boundaries and generator
    multiset, consecutive members of each class in draw order."""
    rng = Random(seed)
    classes = {}
    for _ in range(draws):
        t = random_term(extension, rng, max_size)
        key = (t.src, t.tgt, tuple(sorted(generator_multiset(t).items())))
        classes.setdefault(key, []).append(t)
    return [
        (u, v)
        for members in classes.values()
        for u, v in zip(members, members[1:])
        if u.word != v.word
    ]


def _outcome(result):
    witness = None if result.witness is None else result.witness.to_json()
    return result.verdict, result.reason, witness


SEARCH_EXTENSIONS = [
    eh_extension,
    chain3_extension,
    lambda: full_extension(path2_category(), 1),
    lambda: full_extension(parallel_pair_category(), 2),
    lambda: full_extension(idem_category(), 2),
]
SEARCH_BOUNDS = [
    SearchBounds(size_slack=1, max_visited=3_000),
    SearchBounds(size_slack=2, max_steps=3, max_visited=400),
    SearchBounds(size_slack=3, max_visited=60),
]


def test_search_matches_the_reference(monkeypatch):
    outcomes = set()
    for seed, make in enumerate(SEARCH_EXTENSIONS):
        ext = make()
        pairs = _same_multiset_pairs(ext, seed, draws=80, max_size=4)
        assert pairs
        for u, v in pairs:
            for bounds in SEARCH_BOUNDS:
                got = equivalent(ext, u, v, bounds)
                with monkeypatch.context() as patch:
                    patch.setattr(movements, "_bidirectional_search", _reference_search)
                    expected = equivalent(ext, u, v, bounds)
                assert _outcome(got) == _outcome(expected), (u, v, bounds)
                if got.witness is not None:
                    # Each step's source must be the term it is applied to.
                    moved = u
                    for step in got.witness.steps:
                        moved = apply_movement(moved, step)
                    assert moved.word == v.word, (u, v, bounds)
                outcomes.add((got.reason, got.stats.expansions != (0, 0)))
    # Witnesses found by the search, and both caps, are among the outcomes.
    assert {(None, True), ("visited-cap", True), ("step-cap", True)} <= outcomes
