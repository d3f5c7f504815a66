import json
import subprocess
import sys
from pathlib import Path

import pytest

from polyconduche import cli
from polyconduche.cli import main
from polyconduche.manifests import FUNCTOR, load_document

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

PATH2 = str(FIXTURES / "path2.cat.json")
ARROW = str(FIXTURES / "arrow.cat.json")
LOOP = str(FIXTURES / "loop.cat.json")
DANGLING = str(FIXTURES / "bad_dangling.cat.json")
EH = str(FIXTURES / "eh.ext.json")
EH_FUN = str(FIXTURES / "eh.fun.json")
COLLAPSE = str(FIXTURES / "collapse.fun.json")
IDENTITY_ARROW = str(FIXTURES / "identity_arrow.fun.json")

BRAID_LEFT = "((c:a)*0(c:b))"
BRAID_RIGHT = "((c:b)*0(c:a))"


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_validate_accepts_a_sound_category(capsys):
    code, out = run_cli(["validate", PATH2], capsys)
    assert code == 0
    assert json.loads(out) == {"kind": "category", "verdict": "Pass"}


def test_validate_flags_a_dangling_boundary(capsys):
    code, out = run_cli(["validate", DANGLING], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "Fail"
    assert report["error"]["type"] == "SchemaError"
    assert "nope" in report["error"]["message"]


def test_validate_lists_axiom_violations(capsys, tmp_path):
    doc = json.loads(Path(PATH2).read_text())
    doc["comp"]["1*0"] = [
        triple for triple in doc["comp"]["1*0"] if triple[:2] != ["g", "f"]
    ]
    partial = tmp_path / "partial.cat.json"
    partial.write_text(json.dumps(doc))
    code, out = run_cli(["validate", str(partial)], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "Fail"
    assert any(tag == "comp-total" for tag, _ in report["violations"])


def test_validate_reports_a_composite_at_the_wrong_level(capsys, tmp_path):
    doc = json.loads((FIXTURES / "parallel_pair.cat.json").read_text())
    doc["comp"]["2*1"][-1][2] = "x"
    wrong = tmp_path / "wrong_level.cat.json"
    wrong.write_text(json.dumps(doc))
    code, out = run_cli(["validate", str(wrong)], capsys)
    assert code == 1
    report = json.loads(out)
    assert "error" not in report
    tags = {tag for tag, _ in report["violations"]}
    assert {"composite-level", "composite-source", "composite-target"} <= tags
    assert len(tags) > 3


def test_validate_covers_functor_and_morphism_documents(capsys):
    for path in (COLLAPSE, EH_FUN):
        code, out = run_cli(["validate", path], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "Pass"


def test_validate_missing_file_is_a_usage_error(capsys):
    code, _ = run_cli(["validate", str(FIXTURES / "no_such.json")], capsys)
    assert code == 3


UNREADABLE = {
    "undecodable.json": b"\xff\xfe",
    "deep.json": b"[" * 200_000,
    "self.ext.json": b'{"base": "self.ext.json", "generators": []}',
    "self.fun.json": b'{"source": "self.fun.json", "target": "self.fun.json", "map": {}}',
}


@pytest.mark.parametrize("name", [None, *UNREADABLE])
def test_validate_refuses_unreadable_documents_and_reference_cycles(capsys, tmp_path, name):
    # None stands for a directory given as the document.
    path = tmp_path
    if name is not None:
        path = tmp_path / name
        path.write_bytes(UNREADABLE[name])
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_equiv_finds_the_braiding_witness(capsys):
    code, out = run_cli(["equiv", EH, BRAID_LEFT, BRAID_RIGHT], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "witness"
    assert report["witness"]["start"] == BRAID_LEFT
    assert report["witness"]["end"] == BRAID_RIGHT
    assert len(report["witness"]["steps"]) >= 1
    assert report["bounds"]["size_slack"] == 3


def test_equiv_separates_distinct_generators(capsys):
    code, out = run_cli(["equiv", EH, "(c:a)", "(c:b)"], capsys)
    assert code == 1
    assert json.loads(out)["verdict"] == "distinct"


def test_equiv_reports_starved_searches_as_unknown(capsys):
    code, out = run_cli(
        ["equiv", EH, BRAID_LEFT, BRAID_RIGHT, "--max-steps", "0"], capsys
    )
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "unknown"
    assert report["reason"] == "step-cap"


def test_equiv_writes_the_witness_file(capsys, tmp_path):
    target = tmp_path / "witness.json"
    code, _ = run_cli(
        ["equiv", EH, BRAID_LEFT, BRAID_RIGHT, "--witness-out", str(target)], capsys
    )
    assert code == 0
    saved = json.loads(target.read_text())
    assert saved["start"] == BRAID_LEFT
    assert saved["end"] == BRAID_RIGHT
    assert saved["steps"]


def test_conduche_table_mode_passes_the_identity(capsys):
    code, out = run_cli(["conduche", IDENTITY_ARROW], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "Pass"
    assert report["mode"] == "table"
    assert report["failures"] == []


def test_conduche_table_mode_pins_the_collapse_failure(capsys):
    code, out = run_cli(["conduche", COLLAPSE], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "Fail"
    assert report["failures"] == [
        {
            "x": "u",
            "n": 1,
            "k": 0,
            "factorization": ["s", "s"],
            "kind": "NoLift",
        }
    ]


def test_conduche_fiber_mode_agrees_on_the_collapse(capsys):
    code, out = run_cli(
        ["conduche", COLLAPSE, "--mode", "fiber", "--size-bound", "2"], capsys
    )
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "Fail"
    assert report["mode"] == "fiber"
    assert report["size_bound"] == 2


def test_conduche_fiber_mode_on_the_braiding_morphism(capsys):
    code, out = run_cli(
        [
            "conduche",
            EH_FUN,
            "--mode",
            "fiber",
            "--at",
            BRAID_LEFT,
            "--size-bound",
            "1",
        ],
        capsys,
    )
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "Fail"
    assert sorted(report["witness"]["pair"]) == [BRAID_LEFT, BRAID_RIGHT]


def test_conduche_morphism_document_needs_fiber_mode_and_a_word(capsys):
    code, _ = run_cli(["conduche", EH_FUN], capsys)
    assert code == 3
    code, _ = run_cli(["conduche", EH_FUN, "--mode", "fiber"], capsys)
    assert code == 3


@pytest.mark.parametrize(
    "argv,message",
    [
        (["conduche", COLLAPSE, "--at", "(c:a)"], "--at"),
        (["conduche", COLLAPSE, "--mode", "fiber", "--at", "(c:a)"], "--at"),
        (["conduche", EH_FUN, "--mode", "fiber", "--at", BRAID_LEFT, "--dim", "1"], "--dim"),
        (["conduche", COLLAPSE, "--size-bound", "4"], "--size-bound"),
        (["conduche", COLLAPSE, "--size-slack", "3"], "--size-slack"),
        (["conduche", COLLAPSE, "--max-steps", "64"], "--max-steps"),
        (["conduche", COLLAPSE, "--mode", "fiber", "--size-slack", "1"], "--size-slack"),
        (["conduche", COLLAPSE, "--mode", "fiber", "--max-steps", "1"], "--max-steps"),
    ],
    ids=[
        "at-table", "at-fiber", "dim-morphism", "size-bound-table", "size-slack-table",
        "max-steps-table", "size-slack-fiber", "max-steps-fiber",
    ],
)
def test_conduche_refuses_flags_it_would_ignore(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


def test_conduche_fiber_mode_reports_the_default_size_bound(capsys):
    code, out = run_cli(["conduche", COLLAPSE, "--mode", "fiber"], capsys)
    assert code == 1
    assert json.loads(out)["size_bound"] == 4


def test_pullback_of_one_path_loads_it_once(capsys, monkeypatch, tmp_path):
    copy = tmp_path / "collapse.fun.json"
    for name in ("collapse.fun.json", "arrow.cat.json", "loop.cat.json"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    code, expected = run_cli(["pullback", COLLAPSE, str(copy)], capsys)
    assert code == 0
    calls = []

    def counted(path):
        calls.append(path)
        return load_document(path)

    monkeypatch.setattr(cli, "load_document", counted)
    same = str(FIXTURES / ".." / FIXTURES.name / "collapse.fun.json")
    code, out = run_cli(["pullback", COLLAPSE, same], capsys)
    assert (code, out) == (0, expected)
    assert calls == [COLLAPSE]


def test_basis_uses_the_declared_basis(capsys):
    code, out = run_cli(["basis", PATH2, "--dim", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "Basis"
    assert report["set"] == ["f", "g"]
    assert report["bounds"]["word_size"] == 6


def test_basis_rejects_an_incomplete_set(capsys):
    code, out = run_cli(["basis", PATH2, "--dim", "1", "--set", "f"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "NotBasis"
    assert report["witness"]["kind"] == "MissingPreimage"


def test_basis_rejects_a_redundant_set(capsys):
    code, out = run_cli(["basis", PATH2, "--dim", "1", "--set", "f,g,gf"], capsys)
    assert code == 1
    assert json.loads(out)["witness"]["kind"] == "DisconnectedPair"


@pytest.mark.parametrize("cells", ["f,g,f", "f,f"])
def test_basis_refuses_a_repeated_cell(capsys, cells):
    code = main(["basis", PATH2, "--dim", "1", "--set", cells])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: repeated cell 'f'\n"


def test_a_repeated_declared_basis_cell_fails_validation(capsys, tmp_path):
    doc = json.loads(Path(PATH2).read_text())
    doc["basis"]["1"] = ["f", "g", "f"]
    path = tmp_path / "path2.cat.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "SchemaError",
        "message": "declared basis repeats cell 'f'",
    }
    code = main(["basis", str(path), "--dim", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: declared basis repeats cell 'f'\n"


def test_basis_accepts_the_empty_set(capsys):
    code, out = run_cli(["basis", PATH2, "--dim", "1", "--set", ""], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["set"] == []
    assert report["witness"] == {"kind": "MissingPreimage", "cell": "f"}


def test_basis_without_any_candidate_reports_the_gap(capsys):
    code, out = run_cli(["basis", LOOP, "--dim", "1"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["set"] == []
    assert report["witness"]["kind"] == "MissingPreimage"


def test_basis_truncation_is_unknown(capsys):
    code, out = run_cli(["basis", PATH2, "--dim", "1", "--max-terms", "3"], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "Unknown"
    # The cap is named beside the cells it cut off.
    assert report["unresolved"] == ["1y", "1z", "gf", "<enumeration truncated>"]


def test_basis_with_room_for_exactly_every_term_decides(capsys):
    # the reduced enumeration over {f, g} up to the default bound has 6 terms
    code, out = run_cli(["basis", PATH2, "--dim", "1", "--max-terms", "6"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "Basis"


def test_transfer_pulls_back_along_the_collapse(capsys):
    # The collapsed loop has no level-1 basis at all, so nothing transfers.
    code, out = run_cli(["transfer", COLLAPSE], capsys)
    assert code == 0
    assert json.loads(out) == {"0": ["x", "y"], "1": []}


def test_transfer_pulls_back_a_declared_basis(capsys):
    code, out = run_cli(
        ["transfer", str(FIXTURES / "slice_path2_z.fun.json")], capsys
    )
    assert code == 0
    assert json.loads(out) == {"0": ["1z", "g", "gf"], "1": ["f|g", "g|1z"]}


def test_transfer_on_a_morphism_lists_generator_preimages(capsys):
    code, out = run_cli(["transfer", EH_FUN], capsys)
    assert code == 0
    assert json.loads(out) == {"2": ["a", "b"]}


def test_morphism_commands_list_generators_in_name_order(capsys, tmp_path):
    # The copy's source extension declares b before a; fibers and transfers
    # still list the generators, and so the witness pair, in name order.
    for name in ("eh.fun.json", "ehc.ext.json", "terminal.cat.json"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    doc = json.loads(Path(EH).read_text())
    doc["generators"].reverse()
    assert [g["name"] for g in doc["generators"]] == ["b", "a"]
    (tmp_path / "eh.ext.json").write_text(json.dumps(doc))
    copy = str(tmp_path / "eh.fun.json")
    for args in (["conduche", "--mode", "fiber", "--at", BRAID_LEFT, "--size-bound", "1"],
                 ["transfer"]):
        shipped = run_cli([args[0], EH_FUN, *args[1:]], capsys)
        assert run_cli([args[0], copy, *args[1:]], capsys) == shipped


def test_slice_prints_the_sliced_category(capsys, tmp_path):
    target = tmp_path / "projection.json"
    code, out = run_cli(
        ["slice", PATH2, "z", "--projection-out", str(target)], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cells"]["0"] == ["1z", "g", "gf"]
    kind, projection = load_document(target)
    assert kind == FUNCTOR
    assert projection.apply("f|g") == "f"


def test_slice_unknown_object_is_a_usage_error(capsys):
    code, _ = run_cli(["slice", PATH2, "w"], capsys)
    assert code == 3


def test_pullback_squares_the_collapse(capsys, tmp_path):
    target = tmp_path / "square.json"
    code, out = run_cli(
        ["pullback", COLLAPSE, COLLAPSE, "--out", str(target)], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["apex"]["cells"]["0"] == ["x|x", "x|y", "y|x", "y|y"]
    assert doc["proj1"]["map"]["1"]["u|u"] == "u"
    assert json.loads(target.read_text()) == doc


@pytest.mark.parametrize(
    "command, flag",
    [
        (["pullback", COLLAPSE, COLLAPSE], "--out"),
        (["slice", PATH2, "z"], "--projection-out"),
        (["equiv", EH, BRAID_LEFT, BRAID_RIGHT], "--witness-out"),
    ],
)
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_paths_are_usage_errors(capsys, tmp_path, command, flag, where):
    target = tmp_path / "no_such_dir" / "out.json" if where == "missing directory" else tmp_path
    code = main([*command, flag, str(target)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(f"error: {target}: cannot write (")
    assert "Traceback" not in captured.err


def test_movements_lists_the_braiding_neighbourhood(capsys):
    code, out = run_cli(["movements", EH, BRAID_LEFT], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["word"] == BRAID_LEFT
    assert len(report["movements"]) == 12
    assert all(entry["direction"] == "backward" for entry in report["movements"])
    code, out = run_cli(["movements", EH, BRAID_LEFT, "--direction", "forward"], capsys)
    assert json.loads(out)["movements"] == []


def test_movements_dot_output(capsys):
    code, out = run_cli(["movements", EH, BRAID_LEFT, "--dot"], capsys)
    assert code == 0
    assert out.startswith("digraph")
    assert "case 2" in out and "case 3" in out


@pytest.mark.parametrize(
    "direction,edges",
    [("both", {"in", "out"}), ("forward", {"out"}), ("backward", {"in"})],
)
def test_movements_dot_honours_the_direction(capsys, direction, edges):
    word = "((c:a)*0(i:id_star))"
    code, out = run_cli(["movements", EH, word, "--dot", "--direction", direction], capsys)
    assert code == 0
    center = f'"{word}"'
    found = set()
    for line in out.splitlines():
        if " -> " in line:
            source, _ = line.strip().split(" -> ")
            found.add("out" if source == center else "in")
    assert found == edges


def test_reruns_are_byte_identical(capsys):
    for argv in (
        ["movements", EH, BRAID_LEFT],
        ["conduche", EH_FUN, "--mode", "fiber", "--at", BRAID_LEFT],
        ["basis", PATH2, "--dim", "1"],
    ):
        _, first = run_cli(argv, capsys)
        _, second = run_cli(argv, capsys)
        assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["equiv", EH, "(c:a)"],
        ["basis", PATH2],
        ["conduche", PATH2],
        ["equiv", PATH2, "(c:a)", "(c:b)"],
    ],
)
def test_usage_and_kind_errors_exit_three(capsys, argv):
    code, _ = run_cli(argv, capsys)
    assert code == 3


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "polyconduche", "validate", PATH2],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "Pass"


def test_deeply_nested_words_do_not_exhaust_the_stack(capsys):
    # 1,500 alternating levels, deeper than the interpreter's recursion
    # limit; no forward movement applies anywhere in this word.
    word = "(c:a)"
    for depth in range(1500):
        word = f"({word}*{depth % 2}(c:b))"
    code, out = run_cli(["movements", EH, word, "--direction", "forward"], capsys)
    assert code == 0
    assert json.loads(out) == {"word": word, "movements": []}


@pytest.mark.parametrize("cap", ["abc", "0", "-5"])
def test_malformed_visited_cap_is_a_usage_error(capsys, monkeypatch, cap):
    monkeypatch.setenv("POLYCONDUCHE_MAX_VISITED", cap)
    code = main(["equiv", EH, BRAID_LEFT, BRAID_RIGHT])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: POLYCONDUCHE_MAX_VISITED")


@pytest.mark.parametrize(
    "argv",
    [
        ["conduche", EH_FUN, "--mode", "fiber", "--at", BRAID_LEFT, "--size-bound", "-1"],
        ["equiv", EH, BRAID_LEFT, BRAID_RIGHT, "--max-steps", "-5"],
        ["equiv", EH, BRAID_LEFT, BRAID_RIGHT, "--size-slack", "-1"],
        ["basis", PATH2, "--dim", "1", "--word-size", "-2"],
        ["basis", PATH2, "--dim", "1", "--max-terms", "-1"],
    ],
)
def test_negative_bounds_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 3
    assert captured.out == ""
    assert "bounds must be non-negative" in captured.err


@pytest.mark.parametrize("mode", ["table", "fiber"])
@pytest.mark.parametrize("dim", ["0", "-1"])
def test_conduche_dim_below_one_is_a_usage_error(capsys, mode, dim):
    # Dimension 0 would check no level at all and answer a vacuous Pass,
    # although the collapse fails at dimension 1.
    with pytest.raises(SystemExit) as exit_info:
        main(["conduche", COLLAPSE, "--mode", mode, "--dim", dim])
    captured = capsys.readouterr()
    assert exit_info.value.code == 3
    assert captured.out == ""
    assert "--dim must be at least 1" in captured.err
    code, out = run_cli(["conduche", COLLAPSE, "--mode", mode, "--dim", "1"], capsys)
    assert code == 1
    assert json.loads(out)["up_to_dim"] == 1


@pytest.mark.parametrize(
    "key,value",
    [
        ("cells", []),
        ("src", []),
        ("tgt", "x"),
        ("id", 3),
        ("basis", ["f"]),
        ("comp", []),
        ("cells", {"one": ["x"]}),
        ("cells", {"0": "xz"}),
        ("src", {"1": ["x"]}),
        ("basis", {"1.5": ["f"]}),
    ],
)
@pytest.mark.parametrize("command", [["validate"], ["basis", "--dim", "1"]])
def test_malformed_category_tables_are_usage_errors(capsys, tmp_path, command, key, value):
    doc = json.loads(Path(PATH2).read_text())
    doc[key] = value
    path = tmp_path / "malformed.cat.json"
    path.write_text(json.dumps(doc))
    code = main(command[:1] + [str(path)] + command[1:])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert repr(key) in captured.err


@pytest.mark.parametrize("command", ["validate", "transfer", "conduche"])
def test_dimension_beyond_the_declared_levels_is_a_usage_error(tmp_path, command):
    # A category's tables are walked level by level up to its dimension, so
    # one far beyond the declared levels must be refused on load.
    (tmp_path / "huge.cat.json").write_text(
        json.dumps({"dimension": 10**30, "cells": {"0": ["x"]}})
    )
    (tmp_path / "huge.fun.json").write_text(
        json.dumps({"source": "huge.cat.json", "target": "huge.cat.json", "map": {"0": {"x": "x"}}})
    )
    document = "huge.cat.json" if command == "validate" else "huge.fun.json"
    proc = subprocess.run(
        [sys.executable, "-m", "polyconduche", command, str(tmp_path / document)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "dimension" in proc.stderr


def _set(path, value):
    """A document edit: set the entry at `path` (keys and indices) to value."""

    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        if last is None:
            doc.append(value)
        else:
            doc[last] = value

    return edit


@pytest.mark.parametrize(
    "fixture,edit,command",
    [
        pytest.param(EH, _set(["generators"], 5), ["validate"], id="generators-number"),
        pytest.param(
            EH,
            _set(["generators"], 5),
            ["equiv", BRAID_LEFT, BRAID_RIGHT],
            id="generators-number-equiv",
        ),
        pytest.param(EH, _set(["generators", None], "a"), ["validate"], id="generator-string"),
        pytest.param(EH, _set(["generators", 0, "name"], 5), ["validate"], id="generator-name"),
        pytest.param(
            EH, _set(["generators", 0, "tgt"], ["id_star"]), ["validate"], id="generator-tgt"
        ),
        pytest.param(EH, _set(["base"], 7), ["validate"], id="base-number"),
        pytest.param(PATH2, _set(["cells", "0", None], ["a"]), ["validate"], id="cell-list"),
        pytest.param(
            PATH2, _set(["comp", "1*0", None], [["1x"], "1x", "1x"]), ["validate"], id="comp-triple"
        ),
        pytest.param(PATH2, _set(["id", "0", "x"], ["1x"]), ["validate"], id="id-value"),
        pytest.param(
            PATH2, _set(["id", "0", "x"], ["1x"]), ["basis", "--dim", "1"], id="id-value-basis"
        ),
        pytest.param(PATH2, _set(["basis", "1", None], 3), ["validate"], id="basis-entry"),
        pytest.param(PATH2, _set(["dimension"], True), ["validate"], id="dimension-boolean"),
        pytest.param(COLLAPSE, _set(["map", "0", "x"], 1), ["conduche"], id="functor-image"),
    ],
)
def test_documents_with_non_string_names_are_usage_errors(capsys, tmp_path, fixture, edit, command):
    doc = json.loads(Path(fixture).read_text())
    for key in ("base", "source", "target"):
        if isinstance(doc.get(key), str):
            doc[key] = str(FIXTURES / doc[key])
    edit(doc)
    path = tmp_path / Path(fixture).name
    path.write_text(json.dumps(doc))
    code = main(command[:1] + [str(path)] + command[1:])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "fixture,edit,command,message",
    [
        pytest.param(ARROW, _set(["id"], {}), ["basis", "--dim", "1"], "identity", id="arrow-id"),
        pytest.param(
            LOOP, _set(["cells", "1", 1], "zz"), ["basis", "--dim", "1"], "'zz'", id="loop-renamed"
        ),
        pytest.param(DANGLING, _set(["src", "1"], {}), ["slice", "x"], "'1x'", id="dangling-src"),
        pytest.param(
            PATH2,
            _set(["comp", "1*0"], []),
            ["basis", "--dim", "1"],
            "comp-total",
            id="path2-comp-basis",
        ),
        pytest.param(
            PATH2, _set(["comp", "1*0"], []), ["slice", "x"], "comp-total", id="path2-comp-slice"
        ),
    ],
)
def test_basis_and_slice_refuse_documents_validate_rejects(
    capsys, fixture, edit, command, message, tmp_path
):
    doc = json.loads(Path(fixture).read_text())
    edit(doc)
    path = tmp_path / Path(fixture).name
    path.write_text(json.dumps(doc))
    code = main(command[:1] + [str(path)] + command[1:])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


@pytest.mark.parametrize(
    "command",
    [
        ["conduche", "--mode", "fiber", "F"],
        ["conduche", "F"],
        ["transfer", "F"],
        ["pullback", "F", "F"],
    ],
    ids=["conduche-fiber", "conduche-table", "transfer", "pullback"],
)
@pytest.mark.parametrize(
    "fixture,edit,message",
    [
        pytest.param(ARROW, _set(["id"], {}), "identity", id="source-arrow-id"),
        pytest.param(LOOP, _set(["cells", "1", 1], "zz"), "'zz'", id="target-loop-renamed"),
    ],
)
def test_functor_commands_refuse_categories_validate_rejects(
    capsys, command, fixture, edit, message, tmp_path
):
    # collapse.fun.json maps arrow.cat.json to loop.cat.json; one of the two
    # is edited next to a copy of the functor.
    for name in ("collapse.fun.json", "arrow.cat.json", "loop.cat.json"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    doc = json.loads(Path(fixture).read_text())
    edit(doc)
    (tmp_path / Path(fixture).name).write_text(json.dumps(doc))
    functor = str(tmp_path / "collapse.fun.json")
    code = main([functor if arg == "F" else arg for arg in command])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


@pytest.mark.parametrize(
    "command",
    [["conduche", "--mode", "fiber", "F"], ["conduche", "F"], ["transfer", "F"], ["pullback", "F", "F"]],
    ids=["conduche-fiber", "conduche-table", "transfer", "pullback"],
)
def test_functor_commands_refuse_functors_validate_rejects(capsys, command, tmp_path):
    # Both categories are valid; the functor sends an identity to a
    # non-identity arrow.
    for name in ("arrow.cat.json", "loop.cat.json"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    doc = json.loads(Path(COLLAPSE).read_text())
    doc["map"]["1"]["1x"] = "s"
    functor = str(tmp_path / "collapse.fun.json")
    Path(functor).write_text(json.dumps(doc))
    assert main(["validate", functor]) == 1
    capsys.readouterr()
    code = main([functor if arg == "F" else arg for arg in command])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: invalid functor: ")


@pytest.mark.parametrize(
    "command",
    [["conduche", "F", "--mode", "fiber", "--at", "((c:a)*0(c:b))"], ["transfer", "F"]],
    ids=["conduche-fiber-at", "transfer"],
)
def test_extension_morphism_commands_refuse_bases_validate_rejects(capsys, command, tmp_path):
    # eh.fun.json maps eh.ext.json to ehc.ext.json, both over terminal.cat.json.
    for name in ("eh.fun.json", "eh.ext.json", "ehc.ext.json"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    base = json.loads((FIXTURES / "terminal.cat.json").read_text())
    base["id"] = {}
    (tmp_path / "terminal.cat.json").write_text(json.dumps(base))
    functor = str(tmp_path / "eh.fun.json")
    code = main([functor if arg == "F" else arg for arg in command])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "identity" in captured.err


@pytest.mark.parametrize(
    "command",
    [["equiv", "F", "(c:a)", "(c:b)"], ["movements", "F", "(c:a)"]],
    ids=["equiv", "movements"],
)
def test_extension_commands_refuse_bases_validate_rejects(capsys, command, tmp_path):
    # eh.ext.json over a copy of terminal.cat.json without its composition table.
    (tmp_path / "eh.ext.json").write_text((FIXTURES / "eh.ext.json").read_text())
    base = json.loads((FIXTURES / "terminal.cat.json").read_text())
    base["comp"] = {}
    (tmp_path / "terminal.cat.json").write_text(json.dumps(base))
    extension = str(tmp_path / "eh.ext.json")
    assert main(["validate", extension]) == 1
    capsys.readouterr()
    code = main([extension if arg == "F" else arg for arg in command])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: invalid category: ")
    assert "comp-total" in captured.err


def test_internal_errors_exit_four(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    code = main(["validate", PATH2])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("Traceback")
    assert captured.err.endswith("\ninternal error: RuntimeError: boom\n")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli.build_parser.cache_clear()
    for argv in (["validate", PATH2], ["transfer", COLLAPSE], ["basis", PATH2, "--dim", "1"]):
        assert run_cli(argv, capsys)[0] == 0
    # One top-level parser and one per command, all from the first call.
    assert len(built) == 9
    assert cli.build_parser() is cli.build_parser()


def test_no_state_leaks_between_calls(capsys, monkeypatch):
    plain = ["conduche", COLLAPSE]
    alone = run_cli(plain, capsys)
    assert run_cli([*plain, "--size-bound", "9"], capsys) == (3, "")
    assert run_cli(plain, capsys) == alone

    code, _ = run_cli(["basis", PATH2, "--dim", "1", "--set", "f"], capsys)
    assert code == 1
    code, out = run_cli(["basis", PATH2, "--dim", "1"], capsys)
    assert (code, json.loads(out)["set"]) == (0, ["f", "g"])
    code, out = run_cli(["basis", LOOP, "--dim", "1"], capsys)
    assert json.loads(out)["set"] == []

    for cap in (50, 70):
        monkeypatch.setenv("POLYCONDUCHE_MAX_VISITED", str(cap))
        _, out = run_cli(["equiv", EH, BRAID_LEFT, BRAID_RIGHT], capsys)
        assert json.loads(out)["bounds"]["max_visited"] == cap


COMMANDS = ["validate", "equiv", "conduche", "basis", "transfer", "slice", "pullback", "movements"]


def test_help_matches_a_fresh_parser_at_each_width(capsys, monkeypatch):
    helps = {}
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        fresh = cli.build_parser.__wrapped__()
        commands = next(action for action in fresh._actions if action.dest == "command")
        for command in [None, *COMMANDS]:
            argv = [command, "--help"] if command else ["--help"]
            code, out = run_cli(argv, capsys)
            expected = (commands.choices[command] if command else fresh).format_help()
            assert (code, out) == (0, expected), (columns, command)
            helps[columns, command] = out
    assert helps["60", None] != helps["120", None]
