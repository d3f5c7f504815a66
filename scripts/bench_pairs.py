"""Compare the benchmark of a base revision and of the work tree in
alternating pairs. Run from the root of a git checkout:

    python3 scripts/bench_pairs.py --base HEAD --pairs 10 --seconds 25

The base revision is exported with `git archive`, and the work tree (tracked
and untracked files that git does not ignore) is copied, each into a
temporary directory. Pair i runs the unchanged `bench/run.py --trace 0` of
both trees on one workload with seed `--first-seed + i`; even pairs run the
base first, odd pairs the work tree. The first line gives the `wc -l` total
of `src/polyconduche/*.py` in each tree, and under it comes one line per
module whose count changed, by name. Each workload's header line names
the base revision (with its commit) and the seed range, so that a run can be
repeated from its output. For every workload and end-to-end metric
of BENCHMARK.json it prints the medians and quartiles of each side, their
ratio, in how many pairs the work tree was better, and a verdict: gain,
worse, unresolved or flat (see `verdict`). It exits 1 when a metric is worse
or the work tree fails a larger share of the operations it attempts: a
faster tree attempts more. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_revision(revision: str, into: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", revision))) as archive:
        archive.extractall(into, filter="data")


def copy_work_tree(into: Path) -> None:
    listed = git("ls-files", "--cached", "--others", "--exclude-standard", "-z")
    for name in listed.decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def module_lines(tree: Path) -> dict[str, int]:
    """The line count `wc -l` gives each module of src/polyconduche in a tree,
    by file name: its newline characters."""
    package = tree / "src/polyconduche"
    return {path.name: path.read_bytes().count(b"\n") for path in package.glob("*.py")}


def count_lines(tree: Path) -> int:
    """The total line count `wc -l src/polyconduche/*.py` gives in a tree."""
    return sum(module_lines(tree).values())


def changed_modules(base: dict[str, int], change: dict[str, int]) -> list[str]:
    """`name.py: A -> B (+d)` for each module whose line count differs,
    sorted by name; a module that one side lacks has 0 lines there."""
    lines = []
    for name in sorted(base.keys() | change.keys()):
        before, after = base.get(name, 0), change.get(name, 0)
        if before != after:
            lines.append(f"{name}: {before:,} -> {after:,} ({after - before:+,})")
    return lines


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object that bench/run.py prints as its last line."""
    argv = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(metric: dict, pairs: list[tuple[float, float]], wins: int) -> str:
    """gain, worse, unresolved or flat, by the rule of the benchmark's
    bounds: a gain wins at least nine tenths of the pairs and moves the
    median by more than the base's interquartile range; worse moves the
    median the wrong way by more than the metric's relative bound; a spread
    (interquartile range over median) wider than the bound on either side
    is unresolved, unless every change run beats every base run."""
    base_values, new_values = [b for b, _ in pairs], [n for _, n in pairs]
    q1, base_median, q3 = quartiles(base_values)
    new_q1, new_median, new_q3 = quartiles(new_values)
    sign = 1 if metric["better"] == "higher" else -1
    gain = sign * (new_median - base_median)  # positive when the change is better
    bound = metric["bound"]
    if base_median and -gain / abs(base_median) > bound:
        return "worse"
    if 10 * wins >= 9 * len(pairs) and gain > q3 - q1:
        return "gain"
    spreads = [
        (high - low) / abs(median) if median else 0.0
        for low, median, high in ((q1, base_median, q3), (new_q1, new_median, new_q3))
    ]
    if sign > 0:
        beats_all = min(new_values) > max(base_values)
    else:
        beats_all = max(new_values) < min(base_values)
    if max(spreads) > bound and not beats_all:
        return "unresolved"
    return "flat"


def report(
    workload: str, metrics: list[dict], runs: list[tuple[dict, dict]], base: str, seeds: range
) -> bool:
    """A header line naming the base revision and the seeds, with each
    side's failed and attempted operations summed over the pairs and its
    median attempted per run (a memory metric grows with the operations
    the tally holds), then one line per metric: each side's median [q1,
    q3], the ratio of the medians, the pairs the work tree won (ties count
    for neither) and the verdict. True when the change is worse on a metric
    or fails a larger share of its attempted operations."""
    sides = list(zip(*runs))
    failed = [sum(run["failed"] for run in side) for side in sides]
    attempted = [sum(run["attempted"] for run in side) for side in sides]
    median = [statistics.median(run["attempted"] for run in side) for side in sides]
    correct = [all(run["correct"] for run in side) for side in sides]
    print(f"\n{workload}: {len(runs)} pairs, base {base}, seeds {seeds[0]}-{seeds[-1]}; "
          f"failed {failed[0]}/{attempted[0]} -> {failed[1]}/{attempted[1]}, "
          f"median attempted {median[0]:g} -> {median[1]:g}, "
          f"correct {correct[0]} -> {correct[1]}")
    print(f"  {'metric':<14}{'base median [q1, q3]':<28}{'change median [q1, q3]':<28}"
          f"{'ratio':<7}{'wins':<7}verdict")
    bad = failed[1] * attempted[0] > failed[0] * attempted[1]
    for metric in metrics:
        name = metric["name"]
        pairs = [(base["metrics"][name]["value"], new["metrics"][name]["value"]) for base, new in runs]
        base_values, new_values = [b for b, _ in pairs], [n for _, n in pairs]
        if metric["better"] == "higher":
            wins = sum(n > b for b, n in pairs)
        else:
            wins = sum(n < b for b, n in pairs)
        ratio = statistics.median(new_values) / statistics.median(base_values)
        outcome = verdict(metric, pairs, wins)
        bad = bad or outcome == "worse"
        print(f"  {name:<14}{spread(base_values):<28}{spread(new_values):<28}"
              f"{ratio:<7.3f}{f'{wins}/{len(pairs)}':<7}{outcome}")
    return bad


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--workload", action="append", help="repeat for several; default every workload"
    )
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    commit = git("rev-parse", "--short", args.base).decode().strip()
    base_name = args.base if args.base == commit else f"{args.base} ({commit})"
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    bad = False
    with tempfile.TemporaryDirectory() as scratch:
        base, change = Path(scratch, "base"), Path(scratch, "change")
        export_revision(args.base, base)
        copy_work_tree(change)
        lines = count_lines(base), count_lines(change)
        print(f"src/polyconduche/*.py: {lines[0]:,} lines at base {base_name}, "
              f"{lines[1]:,} in the work tree ({lines[1] - lines[0]:+,})")
        for line in changed_modules(module_lines(base), module_lines(change)):
            print(f"  {line}")
        for workload in workloads:
            runs = []
            for i, seed in enumerate(seeds):
                order = (base, change) if i % 2 == 0 else (change, base)
                results = {tree: run_bench(tree, workload, seed, args.seconds) for tree in order}
                runs.append((results[base], results[change]))
            bad = report(workload, spec["end_to_end"], runs, base_name, seeds) or bad
    if bad:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
