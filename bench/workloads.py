"""The four benchmark workloads, built from a seed.

Each workload function takes the loaded program (`Program`), the seed, the
size ("full" or "tiny") and the work directory, and returns the operations of
one pass. An operation is a closure that does the timed work, plus an oracle that
checks its answer outside the timer. The oracle returns the verdict label used
in the tally and a failure message, or None when the answer is right.

Every call into the program goes through a module attribute looked up at call
time (`pc.movements.equivalent`, never a name imported here), so that the
tracer's rebinding reaches the benchmark's own calls as well.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import string
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from random import Random
from typing import Callable

# Decided verdicts count towards decided_ratio; these labels do not.
UNDECIDED = frozenset({"unknown", "Unknown"})

FIBER_SIZE_BOUND = 3
STARVED_MAX_VISITED = 2_000
BRAID_LEFT = "((c:a)*0(c:b))"


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str | None]]


@dataclass
class Program:
    """The polyconduche modules one set-up imported."""

    words: object
    terms: object
    movements: object
    conduche: object
    polygraphs: object
    categories: object
    constructions: object
    manifests: object
    cli: object
    fixtures: object


def _sizes(size: str, full: dict, tiny: dict) -> dict:
    return full if size == "full" else tiny


class _Renaming:
    """A seeded renaming of cells: every name gets a fresh random name, the
    same one wherever it occurs. Renamed inputs have the same structure, so
    the seed changes the names, and with them every sorted order, but not
    the amount of work."""

    def __init__(self, pc: Program, rng: Random):
        self.pc = pc
        self.rng = rng
        self.names: dict[str, str] = {}
        self.used: set[str] = set()

    def __call__(self, name: str) -> str:
        while name not in self.names:
            fresh = "".join(self.rng.choices(string.ascii_lowercase, k=6))
            if fresh not in self.used:
                self.used.add(fresh)
                self.names[name] = fresh
        return self.names[name]

    def _table(self, tables: dict) -> dict:
        return {level: {self(a): self(b) for a, b in table.items()} for level, table in tables.items()}

    def category(self, c):
        return self.pc.categories.PresentedCategory(
            c.dimension,
            {level: [self(x) for x in cells] for level, cells in c.cells.items()},
            self._table(c.src),
            self._table(c.tgt),
            self._table(c.ids),
            {
                key: {(self(a), self(b)): self(r) for (a, b), r in table.items()}
                for key, table in c.comp.items()
            },
            None if c.basis is None else {lvl: [self(x) for x in xs] for lvl, xs in c.basis.items()},
        )

    def functor(self, f):
        return self.pc.categories.OmegaFunctor(
            self.category(f.source), self.category(f.target), self._table(f.maps)
        )


# -- braid-search -------------------------------------------------------------


def _generator_words(pc: Program, extension, max_size: int) -> list:
    terms, _ = pc.terms.enumerate_terms(extension, max_size)
    return [
        t
        for t in terms
        if t.size >= 1 and all(tok.kind != pc.words.ID_KIND for tok in t.word.tokens)
    ]


def _generator_sequence(pc: Program, term) -> tuple:
    return tuple(tok.value for tok in term.word.tokens if tok.kind == pc.words.GEN_KIND)


def _multiset(pc: Program, term) -> tuple:
    return tuple(sorted(pc.terms.generator_multiset(term).items()))


def _equivalence_op(pc: Program, kind: str, extension, u, v, expected: str, bounds=None) -> Op:
    """One `equivalent` query. The oracle replays a witness from u and
    compares the verdict with the known answer; `unknown` is no failure."""

    def run():
        return pc.movements.equivalent(extension, u, v, bounds)

    def check(outcome):
        verdict = outcome.verdict
        if verdict == "witness":
            current = u
            for step in outcome.witness.steps:
                current = pc.movements.apply_movement(current, step)
            if current.word != v.word:
                return verdict, f"{kind}: witness replay misses {v.serialize()}"
        if verdict != expected and verdict != "unknown":
            return verdict, f"{kind}: {u.serialize()} ~ {v.serialize()} gave {verdict}"
        return verdict, None

    return Op(kind, run, check)


def _bracketing(pc: Program, atoms: list, rng: Random):
    """A random binary bracketing of a left-to-right sequence of atom words."""
    if len(atoms) == 1:
        return atoms[0]
    cut = rng.randrange(1, len(atoms))
    return pc.terms.pair_word(_bracketing(pc, atoms[:cut], rng), 0, _bracketing(pc, atoms[cut:], rng))


def _chain3_word(pc: Program, rng: Random):
    """a, b, d composed at level 0, with units inserted where they fit."""
    atom = pc.terms.atom_word
    units = ["p3", "p2", "p1", "p0"]
    sequence = []
    for unit, generator in zip(units, ["a", "b", "d", None]):
        if rng.random() < 0.5:
            sequence.append(atom("identity", unit))
        if generator is not None:
            sequence.append(atom("generator", generator))
    return _bracketing(pc, sequence, rng)


def _skeleton(pc: Program, term) -> str:
    """A word with its generator names blanked out."""
    return "".join(
        "c:_" if tok.kind == pc.words.GEN_KIND else tok.text() for tok in term.word.tokens
    )


def braid_search(pc: Program, seed: int, size: str, workdir: Path) -> list[Op]:
    """Eckmann-Hilton queries over the two-generator extension of the point,
    plus associativity and interchange pairs, invariant-distinct pairs and
    searches starved by a lowered visited cap."""
    n = _sizes(
        size,
        {"strata": 16, "chain3": 8, "assoc": 4, "interchange": 4, "distinct": 4, "starved": 4},
        {"strata": 2, "chain3": 2, "assoc": 1, "interchange": 1, "distinct": 1, "starved": 1},
    )
    rng = Random(seed)
    eh = pc.fixtures.eh_extension()
    words = _generator_words(pc, eh, 2)
    ops: list[Op] = []

    # Every same-multiset pair of size-1 words. Two of them are the braiding
    # itself, ten steps apart; the rest are five steps apart.
    small = [w for w in words if w.size == 1]
    pairs = [
        (u, v)
        for i, u in enumerate(small)
        for v in small[i + 1 :]
        if _multiset(pc, u) == _multiset(pc, v)
    ]
    if size == "tiny":
        sequence = partial(_generator_sequence, pc)
        pairs = [(u, v) for u, v in pairs if sequence(u) == sequence(v)][:2]
    for u, v in pairs:
        ops.append(_equivalence_op(pc, "eh-size1", eh, u, v, "witness"))

    # Size-2 pairs one composition level apart, one per stratum (bracketing,
    # levels, flipped symbol) with seeded generator names. The search does
    # the same work for every naming, so the seed changes the words and not
    # the cost. Pairs that reorder generators take seconds each, so they only
    # run starved.
    strata: dict[tuple, list] = {}
    for w in (w for w in words if w.size == 2):
        tokens = w.word.tokens
        for i, tok in enumerate(tokens):
            if tok.kind == pc.words.COMP_KIND:
                flipped = tokens[:i] + (pc.words.comp(1 - tok.value),) + tokens[i + 1 :]
                other = pc.terms.check_term(eh, pc.words.Word(flipped))
                strata.setdefault((_skeleton(pc, w), i), []).append((w, other))
    for key in sorted(strata)[: n["strata"]]:
        u, v = rng.choice(strata[key])
        ops.append(_equivalence_op(pc, "eh-flip", eh, u, v, "witness"))

    size2 = [w for w in words if w.size == 2]
    braids = [
        (u, v)
        for u in size2
        for v in size2
        if _multiset(pc, u) == _multiset(pc, v)
        and _generator_sequence(pc, u) != _generator_sequence(pc, v)
    ]
    starved = pc.movements.SearchBounds(max_visited=STARVED_MAX_VISITED)
    for u, v in rng.sample(braids, n["starved"]):
        ops.append(_equivalence_op(pc, "eh-starved", eh, u, v, "witness", starved))

    distinct = [(u, v) for u in words for v in words if _multiset(pc, u) != _multiset(pc, v)]
    for u, v in rng.sample(distinct, n["distinct"]):
        ops.append(_equivalence_op(pc, "eh-distinct", eh, u, v, "distinct"))

    chain3 = pc.fixtures.chain3_extension()
    made = 0
    while made < n["chain3"]:
        u = pc.terms.check_term(chain3, _chain3_word(pc, rng))
        v = pc.terms.check_term(chain3, _chain3_word(pc, rng))
        if u.word != v.word:
            ops.append(_equivalence_op(pc, "chain3-assoc", chain3, u, v, "witness"))
            made += 1

    # One forward associativity (case 1) or interchange (case 5) movement apart.
    pp = pc.conduche.full_extension(pc.fixtures.parallel_pair_category(), 2)
    terms, _ = pc.terms.enumerate_terms(pp, 3)
    wanted = {1: n["assoc"], 5: n["interchange"]}
    labels = {1: "pp-assoc", 5: "pp-interchange"}
    for index in rng.sample(range(len(terms)), len(terms)):
        if not any(wanted.values()):
            break
        term = terms[index]
        for movement in pc.movements.enumerate_movements(pp, term, "forward"):
            if wanted.get(movement.case):
                wanted[movement.case] -= 1
                other = pc.movements.apply_movement(term, movement)
                u, v = (term, other) if rng.random() < 0.5 else (other, term)
                ops.append(_equivalence_op(pc, labels[movement.case], pp, u, v, "witness"))
                break

    rng.shuffle(ops)
    return ops


# -- word-sweep ---------------------------------------------------------------


def _word_check(pc: Program, extension, word, seed: int) -> str | None:
    """The criterion-5 invariants for one word; returns the first problem."""
    words, terms, movements = pc.words, pc.terms, pc.movements
    rng = Random(seed)
    term = terms.check_term(extension, word)
    if term.size > 8:
        return f"size {term.size}"
    if not words.is_well_parenthesized(word):
        return "not well parenthesized"

    profile = words.paren_profile(word).values
    splits = [
        j
        for j, token in enumerate(word.tokens)
        if token.kind == words.COMP_KIND and profile[j] == 1
    ]
    if len(splits) != (1 if term.size else 0):
        return f"{len(splits)} top-level splits"
    if term.size:
        left, k, right = words.split_parenthesized(word)
        if terms.pair_word(left, k, right) != word:
            return "split does not reassemble"

    index = terms.analyze_term(extension, word)
    if term.size:
        root = index.nodes[index.root]
        for span in index.nodes:
            outcome = words.parenthesized_subword_trichotomy(word, span)
            if span == index.root:
                expected = words.Whole()
            elif root.left[0] <= span[0] and span[1] <= root.left[1]:
                expected = words.InsideLeft(span[0] - root.left[0])
            elif root.right[0] <= span[0] and span[1] <= root.right[1]:
                expected = words.InsideRight(span[0] - root.right[0])
            else:
                return f"span {span} in neither factor"
            if outcome != expected:
                return f"span {span} classified {outcome}"

    span = sorted(index.nodes)[rng.randrange(len(index.nodes))]
    inner = terms.subterm_at(term, *span)
    choices = movements.enumerate_movements(extension, inner)
    replacement = movements.apply_movement(inner, choices[rng.randrange(len(choices))])
    terms.substitute(term, span[0], span[1], replacement)

    reference = terms.generator_multiset(term)
    for movement in movements.enumerate_movements(extension, term):
        moved = movements.apply_movement(term, movement)
        reparsed = terms.check_term(extension, moved.word)
        if (reparsed.src, reparsed.tgt) != (term.src, term.tgt):
            return f"movement case {movement.case} moved a boundary"
        if terms.generator_multiset(reparsed) != reference:
            return f"movement case {movement.case} changed the multiset"
    return None


def _path_check(pc: Program, category, sigma, extension, start, seed: int) -> str | None:
    """Evaluation stays constant along a random four-step movement path."""
    rng = Random(seed)
    value = pc.terms.evaluate(category, sigma, start)
    current = start
    for _ in range(4):
        choices = pc.movements.enumerate_movements(extension, current)
        current = pc.movements.apply_movement(current, choices[rng.randrange(len(choices))])
        if pc.terms.evaluate(category, sigma, current) != value:
            return f"evaluation drifted from {value} at {current.serialize()}"
    return None


def _invariant_op(kind: str, run: Callable[[], str | None]) -> Op:
    def check(problem):
        return "checked", None if problem is None else f"{kind}: {problem}"

    return Op(kind, run, check)


def word_sweep(pc: Program, seed: int, size: str, workdir: Path) -> list[Op]:
    """Fresh random words over the five criterion-5 extensions, each checked
    once per pass, plus random movement paths checked by evaluation."""
    n = _sizes(size, {"words": 1000, "paths": 100}, {"words": 10, "paths": 3})
    fixtures, full_extension = pc.fixtures, pc.conduche.full_extension
    extensions = [
        fixtures.eh_extension(),
        fixtures.chain3_extension(),
        full_extension(fixtures.path2_category(), 1),
        full_extension(fixtures.parallel_pair_category(), 2),
        full_extension(fixtures.idem_category(), 2),
    ]
    rng = Random(seed)
    ops: list[Op] = []
    for i in range(n["words"]):
        extension = extensions[i % len(extensions)]
        word = pc.terms.random_term(extension, rng, 8).word
        check = partial(_word_check, pc, extension, word, rng.getrandbits(32))
        ops.append(_invariant_op("word", check))

    setups = []
    for category, level in [
        (fixtures.path2_category(), 1),
        (fixtures.idem_category(), 2),
        (fixtures.parallel_pair_category(), 2),
    ]:
        sigma = list(category.cells[level])
        setups.append((category, sigma, pc.terms.restriction_extension(category, level, sigma)))
    for j in range(n["paths"]):
        category, sigma, extension = setups[j % len(setups)]
        start = pc.terms.random_term(extension, rng, 4)
        check = partial(_path_check, pc, category, sigma, extension, start, rng.getrandbits(32))
        ops.append(_invariant_op("path", check))
    rng.shuffle(ops)
    return ops


# -- finite-verdicts ----------------------------------------------------------


def _target_basis(pc: Program, category) -> dict:
    if category.basis is not None:
        return category.basis
    return {
        dim: sorted(pc.polygraphs.indecomposables(category, dim))
        for dim in range(category.dimension + 1)
    }


def _functor_op(pc: Program, name: str, functor) -> Op:
    """Table route, fiber route, then the transferred basis checked level by
    level. A decisive fiber verdict must equal the table verdict, and along a
    lifting functor the transferred basis must come back Basis."""

    def run():
        table = pc.conduche.check_conduche(functor).verdict
        fiber = pc.conduche.fiber_conduche(functor, FIBER_SIZE_BOUND).verdict
        sigma = pc.polygraphs.transfer_basis(functor, _target_basis(pc, functor.target))
        bases = [
            pc.polygraphs.check_basis(functor.source, level, sigma[level]).verdict
            for level in range(1, functor.source.dimension + 1)
        ]
        return table, fiber, bases

    def check(result):
        table, fiber, bases = result
        label = "Unknown" if fiber == "Unknown" or "Unknown" in bases else fiber
        if fiber != "Unknown" and fiber != table:
            return label, f"{name}: table {table} vs fiber {fiber}"
        if table == "Pass" and "NotBasis" in bases:
            return label, f"{name}: transferred basis gave {bases}"
        return label, None

    return Op("functor", run, check)


def _transfer_op(pc: Program, label: str, source, functor, target) -> Op:
    """A criterion-7 pair: the functor lifts, so the transferred generators
    are the source's indecomposables and a basis at every level."""

    def run():
        lifts = pc.conduche.check_conduche(functor).verdict
        sigma = pc.polygraphs.transfer_basis(functor, _target_basis(pc, target))
        indecomposable = [
            set(sigma[dim]) == pc.polygraphs.indecomposables(source, dim)
            for dim in range(source.dimension + 1)
        ]
        bases = [
            pc.polygraphs.check_basis(source, level, sigma[level]).verdict
            for level in range(1, source.dimension + 1)
        ]
        return lifts, indecomposable, bases

    def check(result):
        lifts, indecomposable, bases = result
        verdict = "Unknown" if "Unknown" in bases else ("NotBasis" if "NotBasis" in bases else "Basis")
        if lifts != "Pass" or not all(indecomposable) or verdict == "NotBasis":
            return verdict, f"{label}: lifts {lifts}, indecomposables {indecomposable}, bases {bases}"
        return verdict, None

    return Op("transfer", run, check)


def _basis_op(pc: Program, label: str, category, sigma: list, expected: str) -> Op:
    def run():
        return pc.polygraphs.check_basis(category, 1, sigma).verdict

    def check(verdict):
        if verdict != expected and verdict != "Unknown":
            return verdict, f"{label}: {verdict}, expected {expected}"
        return verdict, None

    return Op("basis", run, check)


def _criterion7_pairs(pc: Program) -> list[tuple]:
    fixtures, constructions = pc.fixtures, pc.constructions
    path2, arrow = fixtures.path2_category(), fixtures.arrow_category()
    vee = fixtures.free_category_on_dag(["l", "r", "m"], [("a", "l", "m"), ("b", "r", "m")]).category
    chain = fixtures.free_category_on_dag(
        ["p0", "p1", "p2", "p3"],
        [("e1", "p0", "p1"), ("e2", "p1", "p2"), ("e3", "p2", "p3")],
    ).category

    def sliced(label, category, obj):
        source, projection = constructions.slice_1cat(category, obj)
        return label, source, projection, category

    pairs = [
        sliced("path2/x", path2, "x"),
        sliced("path2/y", path2, "y"),
        sliced("path2/z", path2, "z"),
        sliced("arrow/x", arrow, "x"),
        sliced("arrow/y", arrow, "y"),
        sliced("terminal/star", fixtures.terminal_category(), "star"),
        sliced("vee/m", vee, "m"),
        sliced("chain/p3", chain, "p3"),
    ]
    pp = fixtures.parallel_pair_category()
    identity = pc.categories.identity_functor
    square = constructions.pullback(identity(pp), identity(pp))
    pairs.append(("parallel-pair diagonal", square.apex, square.proj2, pp))
    arrow_over_path2 = pc.categories.OmegaFunctor(
        fixtures.arrow_category(),
        path2,
        {0: {"x": "x", "y": "y"}, 1: {"1x": "1x", "1y": "1y", "u": "f"}},
    )
    _, z_projection = constructions.slice_1cat(path2, "z")
    mixed = constructions.pullback(z_projection, arrow_over_path2)
    pairs.append(("slice-by-arrow pullback", mixed.apex, mixed.proj2, arrow))
    return pairs


def finite_verdicts(pc: Program, seed: int, size: str, workdir: Path) -> list[Op]:
    """The shared 20-functor corpus, the criterion-7 transfer pairs and two
    basis checks with many preimages, all under a seeded renaming."""
    fixtures = pc.fixtures
    rename = _Renaming(pc, Random(seed))
    corpus = fixtures.functor_corpus()
    pairs = _criterion7_pairs(pc)
    if size == "tiny":
        corpus, pairs = corpus[:1] + corpus[3:4], pairs[:2]
    ops = [_functor_op(pc, name, rename.functor(functor)) for name, functor in corpus]
    for label, source, functor, target in pairs:
        ops.append(
            _transfer_op(
                pc, label, rename.category(source), rename.functor(functor), rename.category(target)
            )
        )

    edges = [(f"e{i}", f"p{i - 1}", f"p{i}") for i in range(1, 8)]
    chain7 = rename.category(fixtures.free_category_on_dag([f"p{i}" for i in range(8)], edges).category)
    ops.append(_basis_op(pc, "chain7", chain7, list(chain7.basis[1]), "Basis"))
    if size == "full":
        path2 = rename.category(fixtures.path2_category())
        ops.append(_basis_op(pc, "path2-all", path2, list(path2.cells[1]), "NotBasis"))
    Random(seed).shuffle(ops)
    return ops


# -- cli-docs -----------------------------------------------------------------

DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"
FIXTURES = "fixtures"
CLI_SHAPES_SEED = 20240901
PASS_CATEGORY = '{\n  "kind": "category",\n  "verdict": "Pass"\n}\n'
PASS_FUNCTOR = '{\n  "kind": "functor",\n  "verdict": "Pass"\n}\n'
PASS_TABLE = '{\n  "failures": [],\n  "mode": "table",\n  "verdict": "Pass"\n}\n'


def run_cli(pc: Program, argv: list[str]) -> tuple[int, str]:
    """One in-process `polyconduche` run: exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pc.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fixed_commands(docs: str) -> list[list[str]]:
    """Commands whose output is the same for every seed; their exit codes and
    stdout digests are recorded in cli_digests.json. `docs` holds the fixed
    documents that `write_fixed_documents` generates."""
    f = lambda name: f"{FIXTURES}/{name}"  # noqa: E731
    d = lambda name: f"{docs}/{name}"  # noqa: E731
    shipped = [
        "arrow.cat.json", "arrow2.cat.json", "bad_dangling.cat.json", "chain3.ext.json",
        "collapse.fun.json", "eh.ext.json", "eh.fun.json", "ehc.ext.json", "idem.cat.json",
        "identity_arrow.fun.json", "loop.cat.json", "parallel_pair.cat.json",
        "path2.cat.json", "pp_collapse.fun.json", "slice_path2_z.fun.json",
        "terminal.cat.json",
    ]
    functors = ["collapse.fun.json", "pp_collapse.fun.json", "slice_path2_z.fun.json",
                "identity_arrow.fun.json"]
    commands = [["validate", f(name)] for name in shipped]
    commands += [
        ["validate", d("composable_pair_3_0.cat.json")],
        ["validate", d("broken_unit.cat.json")],
        ["validate", d("truncated.cat.json")],
        ["validate", f("missing.cat.json")],
    ]
    commands += [["conduche", f(name)] for name in functors]
    commands += [["transfer", f(name)] for name in functors + ["eh.fun.json"]]
    commands += [
        ["basis", f("path2.cat.json"), "--dim", "1"],
        ["basis", f("arrow.cat.json"), "--dim", "1"],
        ["basis", f("terminal.cat.json"), "--dim", "1"],
        ["basis", f("loop.cat.json"), "--dim", "1"],
        ["basis", f("idem.cat.json"), "--dim", "1"],
        ["basis", f("parallel_pair.cat.json"), "--dim", "1"],
        ["basis", f("parallel_pair.cat.json"), "--dim", "2"],
        ["basis", f("arrow2.cat.json"), "--dim", "1"],
        ["slice", f("path2.cat.json"), "x"],
        ["slice", f("path2.cat.json"), "y"],
        ["slice", f("path2.cat.json"), "z"],
        ["slice", f("arrow.cat.json"), "x"],
        ["slice", f("arrow.cat.json"), "y"],
        ["slice", f("terminal.cat.json"), "star"],
        ["pullback", f("collapse.fun.json"), f("collapse.fun.json")],
        ["pullback", f("pp_collapse.fun.json"), f("pp_collapse.fun.json")],
        ["pullback", f("identity_arrow.fun.json"), f("identity_arrow.fun.json")],
        ["pullback", f("slice_path2_z.fun.json"), f("slice_path2_z.fun.json")],
        ["movements", f("eh.ext.json"), BRAID_LEFT],
        ["movements", f("eh.ext.json"), BRAID_LEFT, "--dot"],
        ["movements", f("eh.ext.json"), BRAID_LEFT, "--direction", "forward"],
        ["movements", f("eh.ext.json"), "((c:a)*1(c:b))", "--direction", "backward"],
        ["movements", f("chain3.ext.json"), "(((c:a)*0(c:b))*0(c:d))"],
        ["movements", f("chain3.ext.json"), "((c:a)*0((c:b)*0(c:d)))", "--dot"],
        ["movements", f("ehc.ext.json"), "((c:c)*0(c:c))"],
        # Error paths: each exits 3 with its message on stderr only.
        ["conduche", f("bad_dangling.cat.json")],
        ["conduche", f("eh.fun.json")],
        ["basis", f("path2.cat.json")],
        ["movements", f("eh.ext.json"), "((c:a)*0"],
        ["movements", f("eh.ext.json"), "((c:a)*1(c:z))"],
    ]
    return commands


def write_fixed_documents(pc: Program, docs: Path) -> None:
    """composable_pair(3,0), an arrow category whose unit law fails, and a
    truncated JSON file; the same bytes for every seed."""
    manifests = pc.manifests
    docs.mkdir(parents=True, exist_ok=True)
    manifests.save_document(
        docs / "composable_pair_3_0.cat.json",
        manifests.category_to_json(pc.categories.composable_pair(3, 0)),
    )
    broken = manifests.category_to_json(pc.fixtures.arrow_category())
    broken["comp"]["1*0"] = [
        [left, right, "1y" if (left, right) == ("u", "1x") else out]
        for left, right, out in broken["comp"]["1*0"]
    ]
    manifests.save_document(docs / "broken_unit.cat.json", broken)
    text = manifests.dump_json(manifests.category_to_json(pc.fixtures.path2_category()))
    (docs / "truncated.cat.json").write_text(text[: len(text) // 2])


def _cli_op(pc: Program, kind: str, argv: list[str], accept: Callable[[int, str], bool]) -> Op:
    def check(result):
        code, stdout = result
        label = "Unknown" if code == 2 else "decided"
        if not accept(code, stdout):
            return label, f"{' '.join(argv)}: exit {code}, unexpected output"
        return label, None

    return Op(kind, partial(run_cli, pc, argv), check)


def _transferred(functor_doc: dict) -> str:
    """transfer's expected stdout, computed from the documents alone: the
    source cells of each dimension whose image is in the target's declared
    basis."""
    basis = functor_doc["target"]["basis"]
    out = {
        dim: sorted(
            cell
            for cell in cells
            if functor_doc["map"][dim][cell] in basis.get(dim, [])
        )
        for dim, cells in functor_doc["source"]["cells"].items()
    }
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def cli_docs(pc: Program, seed: int, size: str, workdir: Path) -> list[Op]:
    """Short in-process CLI runs over the shipped fixtures, fixed generated
    documents and random DAG categories under seeded names, with their slices
    and pullbacks. Fixed commands are checked against recorded digests; seeded
    ones against known verdicts or documents built through the library."""
    n = _sizes(size, {"categories": 6}, {"categories": 1})
    manifests, fixtures, constructions = pc.manifests, pc.fixtures, pc.constructions
    docs = workdir / "docs"
    write_fixed_documents(pc, docs)
    recorded = json.loads(DIGESTS.read_text())
    rel = docs.relative_to(workdir.parent).as_posix()
    ops = []
    for argv in fixed_commands(rel):
        ops.append(_cli_op(pc, "fixed", argv, _recorded(*recorded[" ".join(argv)])))
    if size == "tiny":
        ops = ops[::6]

    rename = _Renaming(pc, Random(seed))
    for i in range(n["categories"]):
        # Fixed shapes under seeded names, so every seed does the same work.
        rng = Random(CLI_SHAPES_SEED + i)
        data = fixtures.random_dag_category(rng)
        obj = rename(rng.choice(data.objects))
        other = fixtures.random_dag_category(rng, max_objects=4, max_edges=4, max_paths=8)
        g = rename.functor(fixtures.random_functor(rng, other, data.category))
        category = g.target
        sliced, projection = constructions.slice_1cat(category, obj)
        square = constructions.pullback(projection, g)
        documents = {
            "cat": manifests.category_to_json(category),
            "slice": manifests.category_to_json(sliced),
            "proj": manifests.functor_to_json(projection),
            "g": manifests.functor_to_json(g),
            "proj2": manifests.functor_to_json(square.proj2),
        }
        paths = {}
        for stem, doc in documents.items():
            manifests.save_document(docs / f"dag{i}_{stem}.json", doc)
            paths[stem] = f"{rel}/dag{i}_{stem}.json"
        pullback_doc = {
            "apex": manifests.category_to_json(square.apex),
            "proj1": manifests.functor_to_json(square.proj1),
            "proj2": documents["proj2"],
        }
        dump = manifests.dump_json
        seeded = partial(_cli_op, pc, "seeded")
        ops += [
            seeded(["validate", paths["cat"]], _exact(PASS_CATEGORY)),
            seeded(["slice", paths["cat"], obj], _exact(dump(documents["slice"]))),
            seeded(["validate", paths["slice"]], _exact(PASS_CATEGORY)),
            seeded(["validate", paths["proj"]], _exact(PASS_FUNCTOR)),
            seeded(["conduche", paths["proj"]], _exact(PASS_TABLE)),
            seeded(["transfer", paths["proj"]], _exact(_transferred(documents["proj"]))),
            seeded(["pullback", paths["proj"], paths["g"]], _exact(dump(pullback_doc))),
            seeded(["conduche", paths["proj2"]], _exact(PASS_TABLE)),
            seeded(["basis", paths["cat"], "--dim", "1"], _basis_verdict(category.basis[1])),
        ]
    Random(seed).shuffle(ops)
    return ops


def _recorded(expected_code: int, expected_digest: str) -> Callable[[int, str], bool]:
    return lambda code, stdout: (code, digest(stdout)) == (expected_code, expected_digest)


def _exact(expected: str) -> Callable[[int, str], bool]:
    return lambda code, stdout: code == 0 and stdout == expected


def _basis_verdict(sigma: list) -> Callable[[int, str], bool]:
    def accept(code, stdout):
        report = json.loads(stdout)
        return code == 0 and report["verdict"] == "Basis" and report["set"] == list(sigma)

    return accept


WORKLOADS = {
    "braid-search": braid_search,
    "word-sweep": word_sweep,
    "finite-verdicts": finite_verdicts,
    "cli-docs": cli_docs,
}
