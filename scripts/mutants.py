"""Mutation testing of the package: does some test fail when one operator of
the source changes? Run from the root of a git checkout:

    python3 scripts/mutants.py --modules conduche movements --count 25 --seed 1
    python3 scripts/mutants.py --modules conduche --function check_nabla
    python3 scripts/mutants.py --modules movements --line 442 --operator "or -> and"

Three operators make the mutants, each at one site of a module:
- a comparison flip: < and <=, > and >=, == and !=, in and not in, is and
  is not, each into the other;
- an and/or swap of one boolean operation (all of its operators);
- an integer constant plus one.

The sites of each module are listed in source order and `--count` of them
are drawn with `--seed`, so a run is repeated by its arguments. Each mutant
is written into a temporary copy of the checkout (the files git lists, with
src/ mutated in the copy only) and first runs the module's own test files,
tests/test_<module>.py and tests/test_<module>_*.py. A mutant that survives
them then runs all of tier-1. Each run has a timeout of TIMEOUT seconds; a
run that times out counts as killed. For every survivor the
script prints the module, function, line and operator, and it exits 1 when
one survives (2 when a module's tests fail in the copy before any
mutant). Mutants that behave like the original are in SKIP, each with
its reason, and are not run. Standard library only; tier-1 does not run it.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/polyconduche")
TIMEOUT = 120  # seconds per test run

# Operator -> (its text, the text of its mutant).
FLIPS = {
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="),
    ast.NotEq: ("!=", "=="),
    ast.In: ("in", "not in"),
    ast.NotIn: ("not in", "in"),
    ast.Is: ("is", "is not"),
    ast.IsNot: ("is not", "is"),
}
SWAPS = {ast.And: ("and", "or"), ast.Or: ("or", "and")}

# (module, function, source line stripped, operator) -> why the mutant is
# equivalent: it gives the same answers as the original on every input that
# reaches it, so no test can kill it.
COMPLETE_TABLES = (
    "every pair that reaches the lookup is composable and the category "
    "passed validate, so its table holds the entry and compose gives the same value"
)
SKIP = {
    (
        "terms", "_value_buckets.pair",
        "value = composites[k].get((left[0], right[0])) or category.compose(left[0], right[0], k)",
        "or -> and",
    ): COMPLETE_TABLES,
    (
        "polygraphs", "_split_size.pair",
        "value = composites[k].get((left[0], right[0])) or category.compose(left[0], right[0], k)",
        "or -> and",
    ): COMPLETE_TABLES,
    (
        "conduche", "_fiber_classes.pair",
        "value = table.get((v1, v2)) or source.compose(v1, v2, k)",
        "or -> and",
    ): COMPLETE_TABLES,
    (
        "conduche", "_fiber_classes.pair",
        "key = (tgt_comp[k].get((w1, w2)) or target.compose(w1, w2, k), frozenset(counts.items()))",
        "or -> and",
    ): COMPLETE_TABLES,
}


@dataclass(frozen=True)
class Mutant:
    module: str
    function: str
    line: int
    operator: str
    source_line: str
    edits: tuple  # ((start byte, end byte, replacement), ...)

    def label(self) -> str:
        return f"{self.module}.{self.function}:{self.line}: {self.operator}: {self.source_line}"

    def key(self) -> tuple:
        return (self.module, self.function, self.source_line, self.operator)


def _offsets(source: bytes) -> list[int]:
    """The byte offset at which each line starts, for ast positions."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _gap_edit(source: bytes, starts: list[int], before, after, old: str, new: str):
    """The edit that replaces operator text old by new between the end of
    node before and the start of node after, or None when the text there is
    not plain (a comment, or not one match)."""
    lo = starts[before.end_lineno - 1] + before.end_col_offset
    hi = starts[after.lineno - 1] + after.col_offset
    gap = source[lo:hi].decode()
    pattern = r"\s+".join(map(re.escape, old.split()))
    if old[0].isalpha():
        pattern = rf"\b{pattern}\b"
    matches = list(re.finditer(pattern, gap))
    if "#" in gap or len(matches) != 1:
        return None
    match = matches[0]
    return (lo + len(gap[: match.start()].encode()), lo + len(gap[: match.end()].encode()), new)


def mutants_of(module: str, source: bytes) -> list[Mutant]:
    """Every mutant of a module's source, in source order."""
    tree = ast.parse(source)
    starts = _offsets(source)
    lines = [line.decode() for line in source.splitlines()]
    found: list[Mutant] = []

    def visit(node, function: str) -> None:
        if isinstance(node, ast.JoinedStr):
            return  # positions inside f-strings are not reliable
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            function = node.name if function == "<module>" else f"{function}.{node.name}"
        edits: list[tuple[str, tuple]] = []
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                old, new = FLIPS[type(op)]
                edit = _gap_edit(source, starts, operands[i], operands[i + 1], old, new)
                if edit:
                    edits.append((f"{old} -> {new}", (edit,)))
        elif isinstance(node, ast.BoolOp):
            old, new = SWAPS[type(node.op)]
            gaps = [
                _gap_edit(source, starts, a, b, old, new)
                for a, b in zip(node.values, node.values[1:])
            ]
            if all(gaps):
                edits.append((f"{old} -> {new}", tuple(gaps)))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            lo = starts[node.lineno - 1] + node.col_offset
            hi = starts[node.end_lineno - 1] + node.end_col_offset
            edits.append((f"{node.value} -> {node.value + 1}", ((lo, hi, str(node.value + 1)),)))
        for operator, change in edits:
            line = lines[node.lineno - 1].strip()
            found.append(Mutant(module, function, node.lineno, operator, line, change))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def apply(source: bytes, mutant: Mutant) -> bytes:
    for lo, hi, text in sorted(mutant.edits, reverse=True):
        source = source[:lo] + text.encode() + source[hi:]
    return source


def copy_checkout(into: Path) -> None:
    """The files git lists (tracked, and untracked but not ignored)."""
    listed = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "-z"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode()
    for name in listed.split("\0"):
        source = ROOT / name
        if name and source.is_file():
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_tests(tree: Path, tests: list[str]) -> str:
    """The outcome of pytest over the given tests in a tree: pass, fail or
    timeout."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def module_tests(tree: Path, module: str) -> list[str]:
    """tests/test_<module>.py and tests/test_<module>_*.py in a tree."""
    patterns = (f"test_{module}.py", f"test_{module}_*.py")
    return sorted(str(p.relative_to(tree)) for pattern in patterns for p in (tree / "tests").glob(pattern))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modules", nargs="+", default=["movements", "polygraphs", "conduche"])
    parser.add_argument("--count", type=int, default=25, help="mutants drawn per module")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--function", help="only the sites in this function (name or dotted path)")
    parser.add_argument("--line", type=int, help="only the sites on this line")
    parser.add_argument("--operator", help='only this operator, as printed: "or -> and"')
    args = parser.parse_args(argv)
    if args.count < 0:
        parser.error("--count must be non-negative")

    drawn: list[Mutant] = []
    for module in args.modules:
        sites = mutants_of(module, (ROOT / PACKAGE / f"{module}.py").read_bytes())
        sites = [
            m for m in sites
            if args.function in (None, m.function, m.function.rsplit(".", 1)[-1])
            and args.line in (None, m.line)
            and args.operator in (None, m.operator)
        ]
        rng = random.Random(f"{args.seed}:{module}")
        drawn += sorted(rng.sample(sites, min(args.count, len(sites))), key=lambda m: m.line)
    survivors: list[Mutant] = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch)
        copy_checkout(tree)
        for module in {mutant.module for mutant in drawn}:
            if run_tests(tree, module_tests(tree, module)) != "pass":
                print(f"the tests of {module} fail without a mutant")
                return 2
        for mutant in drawn:
            if mutant.key() in SKIP:
                print(f"{'skipped':<17} {mutant.label()} ({SKIP[mutant.key()]})")
                continue
            path = tree / PACKAGE / f"{mutant.module}.py"
            original = path.read_bytes()
            path.write_bytes(apply(original, mutant))
            try:
                status = run_tests(tree, module_tests(tree, mutant.module))
                if status == "pass":
                    status = run_tests(tree, ["tests"])
            finally:
                path.write_bytes(original)
            verdict = "SURVIVED" if status == "pass" else f"killed ({status})"
            print(f"{verdict:<17} {mutant.label()}", flush=True)
            if status == "pass":
                survivors.append(mutant)
    ran = sum(1 for m in drawn if m.key() not in SKIP)
    print(f"{len(survivors)} of {ran} mutants survived")
    for mutant in survivors:
        print(f"  survivor {mutant.label()}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
