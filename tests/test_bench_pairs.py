"""The verdict rule of scripts/bench_pairs.py on made-up pairs, and its
line counts."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
P50 = {"name": "op_p50_ms", "better": "lower", "bound": 0.25}


def judge(metric, base, new):
    pairs = list(zip(base, new))
    if metric["better"] == "higher":
        wins = sum(n > b for b, n in pairs)
    else:
        wins = sum(n < b for b, n in pairs)
    return bench_pairs.verdict(metric, pairs, wins)


BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def test_gain_needs_nine_wins_and_a_gap_beyond_the_base_spread():
    assert judge(OPS, BASE, [b * 1.5 for b in BASE]) == "gain"
    assert judge(P50, BASE, [b / 1.5 for b in BASE]) == "gain"
    # Eight wins of ten are not enough.
    eight = [b * 1.5 for b in BASE[:8]] + [b * 0.99 for b in BASE[8:]]
    assert judge(OPS, BASE, eight) == "flat"
    # Ten wins by less than the base's interquartile range are not a gain.
    assert judge(OPS, BASE, [b + 0.5 for b in BASE]) == "flat"


def test_worse_is_a_median_beyond_the_bound():
    assert judge(OPS, BASE, [b * 0.7 for b in BASE]) == "worse"
    assert judge(P50, BASE, [b * 1.3 for b in BASE]) == "worse"
    assert judge(OPS, BASE, [b * 0.8 for b in BASE]) == "flat"


def test_a_wide_spread_is_unresolved_unless_every_run_is_better():
    wide = [60, 140, 70, 130, 100, 100, 65, 135, 100, 100]
    assert judge(OPS, BASE, wide) == "unresolved"
    assert judge(OPS, wide, [200] * 10) == "gain"
    # Every run better, by less than the base's interquartile range.
    above = [141, 142, 143, 144, 145, 150, 200, 250, 150, 145]
    assert judge(OPS, wide, above) == "flat"


def test_line_count_is_the_wc_total_of_the_package_modules(tmp_path):
    package = tmp_path / "src" / "polyconduche"
    package.mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\n")
    (package / "b.py").write_text("x = 1\n\n\ny = 2")  # wc -l: no newline, no line
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub").mkdir()
    (package / "sub" / "c.py").write_text("not counted\n")
    assert bench_pairs.count_lines(tmp_path) == 5


def test_changed_modules_are_listed_by_name(tmp_path):
    package = tmp_path / "src" / "polyconduche"
    package.mkdir(parents=True)
    (package / "terms.py").write_text("a\nb\n")
    (package / "cli.py").write_text("c\n")
    assert bench_pairs.module_lines(tmp_path) == {"terms.py": 2, "cli.py": 1}
    base = {"terms.py": 743, "conduche.py": 465, "cli.py": 475, "old.py": 1}
    change = {"terms.py": 739, "conduche.py": 445, "cli.py": 475, "new.py": 1200}
    assert bench_pairs.changed_modules(base, change) == [
        "conduche.py: 465 -> 445 (-20)",
        "new.py: 0 -> 1,200 (+1,200)",
        "old.py: 1 -> 0 (-1)",
        "terms.py: 743 -> 739 (-4)",
    ]


def run(ops: float, attempted: int, failed: int) -> dict:
    return {"metrics": {"ops_per_s": {"value": ops}}, "attempted": attempted,
            "failed": failed, "correct": not failed}


def test_failures_are_compared_as_shares_of_the_attempted(capsys):
    # The faster tree attempts twice as many operations and fails more of
    # them, but a smaller share.
    runs = [(run(100, 1000, 1), run(200, 2000, 1 + (i == 0))) for i in range(10)]
    assert not bench_pairs.report("w", [OPS], runs, "HEAD", range(1, 11))
    header = capsys.readouterr().out.splitlines()[1]
    assert "failed 10/10000 -> 11/20000" in header
    assert "median attempted 1000 -> 2000" in header
    # The same count over as many attempts is no larger share; one more is.
    same = [(run(100, 1000, 1), run(100, 1000, 1)) for _ in range(10)]
    assert not bench_pairs.report("w", [OPS], same, "HEAD", range(1, 11))
    more = same[:-1] + [(run(100, 1000, 1), run(100, 1000, 2))]
    assert bench_pairs.report("w", [OPS], more, "HEAD", range(1, 11))
