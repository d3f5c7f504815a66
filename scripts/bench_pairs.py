"""Compare the benchmark of a base revision and of the work tree in
alternating pairs. Run from the root of a git checkout:

    python3 scripts/bench_pairs.py --base HEAD --pairs 10 --seconds 25

The base revision is exported with `git archive`, and the work tree (tracked
and untracked files that git does not ignore) is copied, each into a
temporary directory. Pair i runs the unchanged `bench/run.py --trace 0` of
both trees on one workload with seed `--first-seed + i`; even pairs run the
base first, odd pairs the work tree. For every workload and end-to-end metric
of BENCHMARK.json it prints the medians and quartiles of each side, their
ratio, and in how many pairs the work tree was better. Standard library only.
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


def report(workload: str, metrics: list[dict], runs: list[tuple[dict, dict]]) -> None:
    """One line per metric: each side's median [q1, q3], the ratio of the
    medians, and the pairs the work tree won (ties count for neither)."""
    failed = [sum(run["failed"] for run in side) for side in zip(*runs)]
    correct = [all(run["correct"] for run in side) for side in zip(*runs)]
    print(f"\n{workload}: {len(runs)} pairs; failed {failed[0]} -> {failed[1]}, "
          f"correct {correct[0]} -> {correct[1]}")
    print(f"  {'metric':<14}{'base median [q1, q3]':<28}{'change median [q1, q3]':<28}"
          f"{'ratio':<7}wins")
    for metric in metrics:
        name = metric["name"]
        pairs = [(base["metrics"][name]["value"], new["metrics"][name]["value"]) for base, new in runs]
        base_values, new_values = [b for b, _ in pairs], [n for _, n in pairs]
        if metric["better"] == "higher":
            wins = sum(n > b for b, n in pairs)
        else:
            wins = sum(n < b for b, n in pairs)
        ratio = statistics.median(new_values) / statistics.median(base_values)
        print(f"  {name:<14}{spread(base_values):<28}{spread(new_values):<28}"
              f"{ratio:<7.3f}{wins}/{len(pairs)}")


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
    with tempfile.TemporaryDirectory() as scratch:
        base, change = Path(scratch, "base"), Path(scratch, "change")
        export_revision(args.base, base)
        copy_work_tree(change)
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = (base, change) if i % 2 == 0 else (change, base)
                results = {tree: run_bench(tree, workload, seed, args.seconds) for tree in order}
                runs.append((results[base], results[change]))
            report(workload, spec["end_to_end"], runs)


if __name__ == "__main__":
    main()
