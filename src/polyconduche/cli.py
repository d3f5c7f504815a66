"""Command-line surface.

Every command prints one JSON document (or DOT with --dot) and exits with
0 for Pass/success, 1 for Fail/NotBasis/Distinct, 2 for Unknown, 3 for
usage or schema errors, and 4 for an internal error (a bug, never a
verdict). Output is byte-identical across runs for identical inputs and
flags.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from dataclasses import asdict

from .categories import validate_category, validate_functor
from .conduche import (
    ExtensionMorphism,
    check_conduche,
    check_extension_morphism,
    check_fiber_bijection,
    fiber_conduche,
)
from .constructions import pullback, slice_1cat
from .errors import PolyconducheError, SchemaError
from .manifests import (
    CATEGORY,
    EXTENSION,
    FUNCTOR,
    category_to_json,
    dump_json,
    functor_to_json,
    load_document,
    save_document,
)
from .movements import (
    DISTINCT,
    UNKNOWN,
    WITNESS,
    SearchBounds,
    apply_movement,
    enumerate_movements,
    equivalent,
    movement_graph_dot,
)
from .polygraphs import (
    BasisBounds,
    check_basis,
    default_word_bound,
    indecomposables,
    transfer_basis,
)
from .terms import check_extension, check_term
from .words import serialize, tokenize

FIBER_SIZE_BOUND = 4  # conduche --size-bound when not given

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

_VERDICT_EXIT = {
    WITNESS: EXIT_OK,
    "Pass": EXIT_OK,
    "Basis": EXIT_OK,
    DISTINCT: EXIT_FAIL,
    "Fail": EXIT_FAIL,
    "NotBasis": EXIT_FAIL,
    UNKNOWN: EXIT_UNKNOWN,
    "Unknown": EXIT_UNKNOWN,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here reserves 2 for
    Unknown, so usage errors exit 3 instead. Help shows flag defaults, in
    the command parsers too: add_subparsers makes them _Parsers."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(low: int, message: str):
    """argparse type for an int no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{message}, got {value}")
        return value

    return parse


# A search or enumeration bound, and a level to check up to.
_bound = _at_least(0, "bounds must be non-negative")
_level = _at_least(1, "--dim must be at least 1")


def _emit(doc: dict) -> None:
    sys.stdout.write(dump_json(doc))


def _search_bounds(args) -> SearchBounds:
    """The bounds the search flags give; a flag that is None keeps its default."""
    given = {n: v for n in ("size_slack", "max_steps") if (v := getattr(args, n)) is not None}
    return SearchBounds(max_visited=SearchBounds.from_env().max_visited, **given)


def _add_search_flags(sub) -> None:
    sub.add_argument(
        "--size-slack",
        type=_bound,
        default=SearchBounds.size_slack,
        help="extra word size the equivalence search may explore",
    )
    sub.add_argument(
        "--max-steps",
        type=_bound,
        default=SearchBounds.max_steps,
        help="movement steps allowed on a witness path",
    )


def _violations_json(report) -> list:
    return [[tag, list(detail)] for tag, detail in report.violations]


def _violations(kind: str, obj) -> tuple[str, list]:
    """The checks of validate, in order, on a document of the given kind:
    (part, violations), where part is "category" when the violations belong
    to a category, an extension's base or a functor's source or target, and
    "functor" when they belong to the functor. A check may raise instead."""
    if kind == CATEGORY:
        return CATEGORY, _violations_json(validate_category(obj))
    if kind == EXTENSION:
        violations = _violations_json(validate_category(obj.base))
        if not violations:
            check_extension(obj)
        return CATEGORY, violations
    side = EXTENSION if isinstance(obj, ExtensionMorphism) else CATEGORY
    violations = [v for doc in (obj.source, obj.target) for v in _violations(side, doc)[1]]
    if violations:
        return CATEGORY, violations
    if side == EXTENSION:
        check_extension_morphism(obj)
        return FUNCTOR, []
    return FUNCTOR, _violations_json(validate_functor(obj))


def _load(args, path, kind: str, command: str):
    """The document at path, refused unless it has the given kind and passes
    every check of validate, so that no verdict comes from a document
    validate rejects. args.loaded keeps each document that passed, by
    resolved path, so that a run reads and checks a path once."""
    key = os.path.realpath(path)
    cached = args.loaded.get(key)
    found, obj = cached or load_document(path)
    if found != kind:
        article = "an" if kind == EXTENSION else "a"
        raise SchemaError(f"{command} needs {article} {kind} document")
    if cached is None:
        part, violations = _violations(kind, obj)
        if violations:
            raise SchemaError(f"invalid {part}: {violations}")
        args.loaded[key] = (found, obj)
    return obj


def cmd_validate(args) -> int:
    kind, obj = load_document(args.path)
    try:
        _, violations = _violations(kind, obj)
    except PolyconducheError as exc:
        _emit(
            {
                "kind": kind,
                "verdict": "Fail",
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
        )
        return EXIT_FAIL
    if violations:
        _emit({"kind": kind, "verdict": "Fail", "violations": violations})
        return EXIT_FAIL
    _emit({"kind": kind, "verdict": "Pass"})
    return EXIT_OK


def cmd_equiv(args) -> int:
    extension = _load(args, args.extension, EXTENSION, "equiv")
    u = check_term(extension, tokenize(args.word1))
    v = check_term(extension, tokenize(args.word2))
    bounds = _search_bounds(args)
    outcome = equivalent(extension, u, v, bounds)
    report = {"verdict": outcome.verdict, "bounds": asdict(bounds)}
    if outcome.reason is not None:
        report["reason"] = outcome.reason
    if outcome.witness is not None:
        witness_doc = {
            "start": serialize(outcome.witness.start),
            "end": serialize(outcome.witness.end),
            "steps": outcome.witness.to_json(),
        }
        report["witness"] = witness_doc
        if args.witness_out:
            save_document(args.witness_out, witness_doc)
    _emit(report)
    return _VERDICT_EXIT[outcome.verdict]


def cmd_conduche(args) -> int:
    obj = _load(args, args.functor, FUNCTOR, "conduche")
    size_bound = FIBER_SIZE_BOUND if args.size_bound is None else args.size_bound
    if isinstance(obj, ExtensionMorphism):
        if args.mode != "fiber":
            raise SchemaError("table mode needs a functor between categories")
        if args.at is None:
            raise SchemaError("fiber mode on an extension morphism needs --at WORD")
        if args.dim is not None:
            raise SchemaError("--dim needs a functor between categories")
        representative = check_term(obj.source, tokenize(args.at))
        fiber = check_fiber_bijection(obj, representative, size_bound, _search_bounds(args))
        report = fiber.to_json()
        report.update(
            {"mode": "fiber", "size_bound": size_bound, "at": args.at}
        )
        _emit(report)
        return _VERDICT_EXIT[fiber.verdict]
    if args.at is not None:
        raise SchemaError("--at needs an extension morphism")
    # Only the search of --at reads the search flags, and only fibers the size bound.
    ignored = (["size_bound"] if args.mode == "table" else []) + ["size_slack", "max_steps"]
    for name in ignored:
        if getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            raise SchemaError(f"{flag} has no effect in {args.mode} mode on a functor")
    if args.mode == "table":
        result = check_conduche(obj, up_to_dim=args.dim)
        report = result.to_json()
        report["mode"] = "table"
    else:
        result = fiber_conduche(obj, size_bound, up_to_dim=args.dim)
        report = result.to_json()
        report.update({"mode": "fiber", "size_bound": size_bound})
    if args.dim is not None:
        report["up_to_dim"] = args.dim
    _emit(report)
    return _VERDICT_EXIT[result.verdict]


def cmd_basis(args) -> int:
    category = _load(args, args.category, CATEGORY, "basis")
    if args.set is not None:
        sigma = [cell for cell in args.set.split(",") if cell]
    elif category.basis is not None and args.dim in category.basis:
        sigma = list(category.basis[args.dim])
    else:
        sigma = sorted(indecomposables(category, args.dim))
    search = _search_bounds(args)
    bounds = BasisBounds(
        word_size=args.word_size, max_terms=args.max_terms, search=search
    )
    verdict = check_basis(category, args.dim, sigma, bounds)
    report = verdict.to_json()
    effective = (
        args.word_size
        if args.word_size is not None
        else default_word_bound(category, args.dim)
    )
    report.update(
        {
            "dim": args.dim,
            "set": sigma,
            "bounds": dict(
                asdict(search),
                word_size=effective,
                max_terms=args.max_terms,
            ),
        }
    )
    _emit(report)
    return _VERDICT_EXIT[verdict.verdict]


def cmd_transfer(args) -> int:
    obj = _load(args, args.functor, FUNCTOR, "transfer")
    if isinstance(obj, ExtensionMorphism):
        out = {str(obj.source.base.dimension + 1): sorted(obj.source.generators)}
    else:
        if obj.target.basis is not None:
            sigma_d = obj.target.basis
        else:
            sigma_d = {
                dim: sorted(indecomposables(obj.target, dim))
                for dim in range(obj.target.dimension + 1)
            }
        out = {
            str(dim): cells
            for dim, cells in sorted(transfer_basis(obj, sigma_d).items())
        }
    _emit(out)
    return EXIT_OK


def cmd_slice(args) -> int:
    category = _load(args, args.category, CATEGORY, "slice")
    sliced, projection = slice_1cat(category, args.object)
    if args.projection_out:
        save_document(args.projection_out, functor_to_json(projection))
    _emit(category_to_json(sliced))
    return EXIT_OK


def cmd_pullback(args) -> int:
    f = _load(args, args.f, FUNCTOR, "pullback")
    g = _load(args, args.g, FUNCTOR, "pullback")
    if isinstance(f, ExtensionMorphism) or isinstance(g, ExtensionMorphism):
        raise SchemaError("pullback needs functors between categories")
    result = pullback(f, g)
    doc = {
        "apex": category_to_json(result.apex),
        "proj1": functor_to_json(result.proj1),
        "proj2": functor_to_json(result.proj2),
    }
    if args.out:
        save_document(args.out, doc)
    _emit(doc)
    return EXIT_OK


def cmd_movements(args) -> int:
    extension = _load(args, args.extension, EXTENSION, "movements")
    term = check_term(extension, tokenize(args.word))
    if args.dot:
        sys.stdout.write(movement_graph_dot(extension, term, args.direction))
        return EXIT_OK
    listing = []
    for movement in enumerate_movements(extension, term, args.direction):
        entry = movement.to_json()
        entry["output"] = apply_movement(term, movement).serialize()
        listing.append(entry)
    _emit({"word": term.serialize(), "movements": listing})
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared by
    the rest of the process: parsing does not change it, each parse fills a
    fresh namespace, and help reads the terminal width when it is printed.
    main runs the function named cmd_<command>."""
    parser = _Parser(
        prog="polyconduche",
        description="Finite strict higher categories: movements, lifting "
        "checks, bases, slices, and pullbacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="schema and axiom check for a document")
    p.add_argument("path")

    p = sub.add_parser("equiv", help="bounded equivalence of two words over an extension")
    p.add_argument("extension")
    p.add_argument("word1")
    p.add_argument("word2")
    _add_search_flags(p)
    p.add_argument("--witness-out", default=None, help="write the witness here")

    p = sub.add_parser("conduche", help="lifting check for a functor document")
    p.add_argument("functor")
    p.add_argument(
        "--mode",
        choices=["table", "fiber"],
        default="table",
        help="factorization tables or fiber bijections",
    )
    p.add_argument("--dim", type=_level, default=None, help="check up to this level (at least 1)")
    p.add_argument("--size-bound", type=_bound, help=f"fiber word size, {FIBER_SIZE_BOUND} if unset")
    p.add_argument("--at", default=None, help="fiber representative word")
    _add_search_flags(p)
    # None: cmd_conduche refuses a flag it would ignore, and sets the default.
    p.set_defaults(size_slack=None, max_steps=None)

    p = sub.add_parser("basis", help="is a cell set a basis at one level")
    p.add_argument("category")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument(
        "--set", default=None, help="comma-separated cells; defaults to the "
        "declared basis or the indecomposables"
    )
    p.add_argument(
        "--word-size",
        type=_bound,
        default=None,
        help="word size cap; None means twice the level's non-identity cell count, up to 8",
    )
    p.add_argument(
        "--max-terms",
        type=_bound,
        default=BasisBounds.max_terms,
        help="enumeration cap before answering Unknown",
    )
    _add_search_flags(p)

    p = sub.add_parser("transfer", help="pull the target basis back along a functor")
    p.add_argument("functor")

    p = sub.add_parser("slice", help="slice a dimension-1 category at an object")
    p.add_argument("category")
    p.add_argument("object")
    p.add_argument(
        "--projection-out", default=None, help="write the projection functor here"
    )

    p = sub.add_parser("pullback", help="pullback of two functors with a common target")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--out", default=None, help="write the result here")

    p = sub.add_parser("movements", help="one-step movements of a word")
    p.add_argument("extension")
    p.add_argument("word")
    p.add_argument(
        "--direction",
        choices=["both", "forward", "backward"],
        default="both",
        help="which movement directions to list",
    )
    p.add_argument("--dot", action="store_true", help="emit a DOT graph")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.loaded = {}  # see _load
    try:
        return globals()[f"cmd_{args.command}"](args)
    except PolyconducheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
