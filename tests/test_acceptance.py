"""End-to-end checks of the shipped behavior, one verdict line per criterion.

Each test gathers its findings into a list of problems and prints a single
pass/fail line before asserting, so a full run reads as a nine-line report.
The random pieces all run from frozen seeds.
"""

from pathlib import Path
from random import Random
from time import perf_counter

from polyconduche.categories import OmegaFunctor, identity_functor
from polyconduche.cli import main
from polyconduche.conduche import (
    FAIL,
    PASS,
    UNKNOWN as CONDUCHE_UNKNOWN,
    check_conduche,
    check_fiber_bijection,
    check_kappa,
    check_nabla,
    conduche_at_level,
    fiber_conduche,
    full_extension,
    is_rigid,
)
from polyconduche.constructions import pullback, slice_1cat
from polyconduche.fixtures import (
    arrow_category,
    chain3_extension,
    conduche_pairs,
    eh_extension,
    eh_morphism,
    free_category_on_dag,
    functor_corpus,
    idem_category,
    parallel_pair_category,
    path2_category,
    slice_suite,
    terminal_category,
)
from polyconduche.movements import (
    SearchBounds,
    WITNESS,
    apply_movement,
    enumerate_movements,
    equivalent,
)
from polyconduche.polygraphs import (
    BASIS,
    check_basis,
    indecomposables,
    transfer_basis,
)
from polyconduche.terms import (
    analyze_term,
    check_term,
    evaluate,
    generator_multiset,
    pair_word,
    random_term,
    restriction_extension,
    subterm_at,
    substitute,
)
from polyconduche.words import (
    COMP_KIND,
    InsideLeft,
    InsideRight,
    Whole,
    is_well_parenthesized,
    paren_profile,
    parenthesized_subword_trichotomy,
    split_parenthesized,
    tokenize,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BRAID_LEFT = "((c:a)*0(c:b))"
BRAID_RIGHT = "((c:b)*0(c:a))"
SEED = 20240817


def conclude(tag: str, problems: list[str]) -> None:
    print(f"{tag}: {'fail' if problems else 'pass'}")
    assert not problems, f"{tag}: " + "; ".join(problems[:10])


def test_criterion_1_braiding_witness_under_default_bounds():
    problems: list[str] = []
    bounds = SearchBounds()
    if (bounds.size_slack, bounds.max_steps) != (3, 64):
        problems.append(f"default bounds drifted to {bounds}")
    ext = eh_extension()
    u = check_term(ext, tokenize(BRAID_LEFT))
    v = check_term(ext, tokenize(BRAID_RIGHT))
    started = perf_counter()
    outcome = equivalent(ext, u, v)
    elapsed = perf_counter() - started
    if outcome.verdict != WITNESS:
        problems.append(f"verdict {outcome.verdict}")
    else:
        reference = generator_multiset(u)
        replay = u
        for step in outcome.witness.steps:
            replay = apply_movement(replay, step)
            reparsed = check_term(ext, replay.word)
            if (reparsed.src, reparsed.tgt) != (u.src, u.tgt):
                problems.append(f"boundary drift after step {step.case}")
            if generator_multiset(reparsed) != reference:
                problems.append(f"multiset drift after step {step.case}")
        if replay.word != v.word:
            problems.append("witness replay missed the target word")
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s")
    conclude("criterion 1 (braiding witness, default bounds)", problems)


def test_criterion_2_collapse_morphism_fails_fiber_injectivity():
    problems: list[str] = []
    morphism = eh_morphism()
    representative = check_term(morphism.source, tokenize(BRAID_LEFT))
    report = check_fiber_bijection(morphism, representative, 1)
    if report.verdict != FAIL:
        problems.append(f"verdict {report.verdict}")
    elif set(report.witness["pair"]) != {BRAID_LEFT, BRAID_RIGHT}:
        problems.append(f"witness pair {report.witness['pair']}")
    if not is_rigid(morphism, {2: ["a", "b"]}, {2: ["c"]}):
        problems.append("collapse not recognized as rigid")
    conclude("criterion 2 (fiber injectivity failure, size bound 1)", problems)


def test_criterion_3_slice_projections_lift_everywhere():
    problems: list[str] = []
    suite = slice_suite(SEED)
    categories = {id(category): category for category, _obj in suite}
    if len(categories) < 20:
        problems.append(f"only {len(categories)} categories")
    for category in categories.values():
        objects = len(category.cells[0])
        arrows = len(category.cells[1]) - objects
        if objects > 5 or arrows > 15:
            problems.append(f"category out of size ({objects} objects, {arrows} arrows)")
    for category, obj in suite:
        _sliced, projection = slice_1cat(category, obj)
        if check_conduche(projection).verdict != PASS:
            problems.append(f"slice at {obj} failed")
    conclude(f"criterion 3 (slice projections, {len(suite)} slices)", problems)


def test_criterion_4_pullback_preserves_lifting():
    problems: list[str] = []
    pairs = conduche_pairs(SEED, 20)
    if len(pairs) < 20:
        problems.append(f"only {len(pairs)} pairs")
    for i, (f, g) in enumerate(pairs):
        if check_conduche(f).verdict != PASS:
            problems.append(f"pair {i}: premise functor does not lift")
            continue
        result = pullback(f, g)
        if check_conduche(result.proj2).verdict != PASS:
            problems.append(f"pair {i}: second projection does not lift")
    conclude("criterion 4 (pullback stability, 20 pairs)", problems)


def test_criterion_5_word_and_movement_properties():
    problems: list[str] = []
    started = perf_counter()
    extensions = [
        eh_extension(),
        chain3_extension(),
        full_extension(path2_category(), 1),
        full_extension(parallel_pair_category(), 2),
        full_extension(idem_category(), 2),
    ]
    rng = Random(20240805)
    for i in range(10_000):
        ext = extensions[i % len(extensions)]
        term = random_term(ext, rng, 8)
        word = term.word
        if term.size > 8:
            problems.append(f"word {i}: size {term.size}")
            break
        if not is_well_parenthesized(word):
            problems.append(f"word {i}: not well parenthesized")
            break

        # the top-level split is unique and reassembles the word
        profile = paren_profile(word).values
        splits = [
            j
            for j, token in enumerate(word.tokens)
            if token.kind == COMP_KIND and profile[j] == 1
        ]
        if len(splits) != (1 if term.size else 0):
            problems.append(f"word {i}: {len(splits)} top-level splits")
            break
        if term.size:
            left, k, right = split_parenthesized(word)
            if pair_word(left, k, right) != word:
                problems.append(f"word {i}: split does not reassemble")
                break

        # every subterm occurrence lands in exactly one trichotomy arm
        index = analyze_term(ext, word)
        if term.size:
            root = index.nodes[index.root]
            for span in index.nodes:
                outcome = parenthesized_subword_trichotomy(word, span)
                if span == index.root:
                    expected = Whole()
                elif root.left[0] <= span[0] and span[1] <= root.left[1]:
                    expected = InsideLeft(span[0] - root.left[0])
                elif root.right[0] <= span[0] and span[1] <= root.right[1]:
                    expected = InsideRight(span[0] - root.right[0])
                else:
                    problems.append(f"word {i}: span {span} in neither factor")
                    break
                if outcome != expected:
                    problems.append(f"word {i}: span {span} classified {outcome}")
                    break

        # substituting an equivalent subterm keeps the word well formed
        span = sorted(index.nodes)[rng.randrange(len(index.nodes))]
        inner = subterm_at(term, *span)
        movements = enumerate_movements(ext, inner)
        replacement = apply_movement(inner, movements[rng.randrange(len(movements))])
        substitute(term, span[0], span[1], replacement)

        # every movement preserves boundaries and the generator multiset
        reference = generator_multiset(term)
        for movement in enumerate_movements(ext, term):
            moved = apply_movement(term, movement)
            reparsed = check_term(ext, moved.word)
            if (reparsed.src, reparsed.tgt) != (term.src, term.tgt):
                problems.append(f"word {i}: movement case {movement.case} moved a boundary")
                break
            if generator_multiset(reparsed) != reference:
                problems.append(f"word {i}: movement case {movement.case} changed the multiset")
                break
        if problems:
            break

    # evaluation is constant along movement paths
    setups = []
    for category, level in [
        (path2_category(), 1),
        (idem_category(), 2),
        (parallel_pair_category(), 2),
    ]:
        sigma = list(category.cells[level])
        setups.append((category, sigma, restriction_extension(category, level, sigma)))
    for j in range(1_000):
        category, sigma, ext = setups[j % len(setups)]
        current = random_term(ext, rng, 4)
        value = evaluate(category, sigma, current)
        for _step in range(4):
            movements = enumerate_movements(ext, current)
            current = apply_movement(current, movements[rng.randrange(len(movements))])
            if evaluate(category, sigma, current) != value:
                problems.append(f"path {j}: evaluation drifted")
                break
        if problems:
            break

    elapsed = perf_counter() - started
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s")
    conclude(f"criterion 5 (word properties, {elapsed:.1f}s)", problems)


def test_criterion_6_lifting_level_implications():
    problems: list[str] = []
    for name, functor in functor_corpus():
        dim = functor.source.dimension
        pairs = [(n, k) for n in range(1, dim + 1) for k in range(n)]
        nabla_ok = all(check_nabla(functor, n, k).verdict == PASS for n, k in pairs)
        kappa_ok = all(check_kappa(functor, n, k).verdict == PASS for n, k in pairs)
        if nabla_ok and not kappa_ok:
            problems.append(f"{name}: composition lifts but identities do not")
        levels = {
            n: conduche_at_level(functor, n).verdict for n in range(1, dim + 1)
        }
        for n, verdict in levels.items():
            if verdict != PASS:
                continue
            for k in range(1, n):
                if levels[k] != PASS:
                    problems.append(f"{name}: level {n} passes but level {k} fails")
    conclude("criterion 6 (level implications, 20 functors)", problems)


def _slice_pair(category, obj):
    sliced, projection = slice_1cat(category, obj)
    return sliced, projection, category


def test_criterion_7_transferred_bases_stay_bases():
    problems: list[str] = []
    path2 = path2_category()
    arrow = arrow_category()
    vee = free_category_on_dag(
        ["l", "r", "m"], [("a", "l", "m"), ("b", "r", "m")]
    ).category
    chain = free_category_on_dag(
        ["p0", "p1", "p2", "p3"],
        [("e1", "p0", "p1"), ("e2", "p1", "p2"), ("e3", "p2", "p3")],
    ).category
    pairs = [
        ("path2/x", *_slice_pair(path2, "x")),
        ("path2/y", *_slice_pair(path2, "y")),
        ("path2/z", *_slice_pair(path2, "z")),
        ("arrow/x", *_slice_pair(arrow, "x")),
        ("arrow/y", *_slice_pair(arrow, "y")),
        ("terminal/star", *_slice_pair(terminal_category(), "star")),
        ("vee/m", *_slice_pair(vee, "m")),
        ("chain/p3", *_slice_pair(chain, "p3")),
    ]
    pp = parallel_pair_category()
    square = pullback(identity_functor(pp), identity_functor(pp))
    pairs.append(("parallel-pair diagonal", square.apex, square.proj2, pp))
    arrow_over_path2 = OmegaFunctor(
        arrow_category(),
        path2,
        {0: {"x": "x", "y": "y"}, 1: {"1x": "1x", "1y": "1y", "u": "f"}},
    )
    _sliced, z_projection = slice_1cat(path2, "z")
    mixed = pullback(z_projection, arrow_over_path2)
    pairs.append(("slice-by-arrow pullback", mixed.apex, mixed.proj2, arrow))

    if len(pairs) < 10:
        problems.append(f"only {len(pairs)} pairs")
    for label, source, functor, target in pairs:
        if check_conduche(functor).verdict != PASS:
            problems.append(f"{label}: functor does not lift")
            continue
        if target.basis is not None:
            sigma = target.basis
        else:
            sigma = {
                dim: sorted(indecomposables(target, dim))
                for dim in range(target.dimension + 1)
            }
        transferred = transfer_basis(functor, sigma)
        for dim in range(source.dimension + 1):
            if set(transferred[dim]) != indecomposables(source, dim):
                problems.append(f"{label}: transferred set at {dim} is not the indecomposables")
        for level in range(1, source.dimension + 1):
            verdict = check_basis(source, level, transferred[level])
            if verdict.verdict != BASIS:
                problems.append(f"{label}: level {level} gave {verdict.verdict}")
    conclude(f"criterion 7 (transferred bases, {len(pairs)} pairs)", problems)


def test_criterion_8_fiber_and_table_verdicts_agree():
    problems: list[str] = []
    verdicts = set()
    for name, functor in functor_corpus():
        table = check_conduche(functor).verdict
        fiber = fiber_conduche(functor, 4).verdict
        if fiber == CONDUCHE_UNKNOWN:
            continue
        verdicts.add(fiber)
        if fiber != table:
            problems.append(f"{name}: table {table} vs fiber {fiber}")
    if verdicts != {PASS, FAIL}:
        problems.append(f"decisive verdicts seen: {sorted(verdicts)}")
    conclude("criterion 8 (fiber vs table at size bound 4)", problems)


def test_criterion_9_cli_runs_are_byte_identical(capsys):
    problems: list[str] = []
    path2 = str(FIXTURES / "path2.cat.json")
    eh = str(FIXTURES / "eh.ext.json")
    eh_fun = str(FIXTURES / "eh.fun.json")
    collapse = str(FIXTURES / "collapse.fun.json")
    commands = [
        ["validate", path2],
        ["validate", eh],
        ["validate", collapse],
        ["validate", eh_fun],
        ["equiv", eh, BRAID_LEFT, BRAID_RIGHT],
        ["conduche", collapse],
        ["conduche", collapse, "--mode", "fiber", "--size-bound", "2"],
        ["conduche", eh_fun, "--mode", "fiber", "--at", BRAID_LEFT, "--size-bound", "1"],
        ["basis", path2, "--dim", "1"],
        ["transfer", collapse],
        ["transfer", eh_fun],
        ["slice", path2, "z"],
        ["pullback", collapse, collapse],
        ["movements", eh, BRAID_LEFT],
        ["movements", eh, BRAID_LEFT, "--dot"],
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            code = main(list(argv))
            runs.append((code, capsys.readouterr().out))
        if runs[0] != runs[1]:
            problems.append(f"{' '.join(argv)} varies between runs")
        if not runs[0][1]:
            problems.append(f"{' '.join(argv)} printed nothing")
    conclude(f"criterion 9 (CLI determinism, {len(commands)} commands)", problems)
