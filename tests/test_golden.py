"""Golden outputs of the search and fiber commands: exit code and exact stdout.

The recorded runs pin the bytes of `equiv`, fiber-mode `conduche` and
`movements`, whose witnesses and listings depend on the search order, and of
whole-functor fiber-mode `conduche`, whose failure witnesses depend on the
term enumeration order. To record them again after an intended output
change, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from polyconduche.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "search_commands.json"
FIBER_GOLDEN = Path(__file__).resolve().parent / "golden" / "fiber_commands.json"

COMMANDS = {
    "equiv-braiding": ["equiv", "fixtures/eh.ext.json", "((c:a)*0(c:b))", "((c:b)*0(c:a))"],
    "equiv-chain3-assoc": [
        "equiv",
        "fixtures/chain3.ext.json",
        "((((c:a)*0(i:p2))*0(c:b))*0(c:d))",
        "((c:a)*0((c:b)*0(c:d)))",
    ],
    "equiv-step-cap": [
        "equiv",
        "fixtures/eh.ext.json",
        "((c:a)*0(c:b))",
        "((c:b)*0(c:a))",
        "--max-steps",
        "2",
    ],
    "conduche-fiber-at": [
        "conduche",
        "fixtures/eh.fun.json",
        "--mode",
        "fiber",
        "--at",
        "((c:a)*0(c:b))",
        "--size-bound",
        "1",
    ],
    "movements-interchange": [
        "movements",
        "fixtures/eh.ext.json",
        "(((c:a)*1(c:b))*0((c:a)*1(c:b)))",
    ],
}

FIBER_COMMANDS = {
    f"conduche-fiber-{name}": [
        "conduche", f"fixtures/{name}.fun.json", "--mode", "fiber", "--size-bound", "3",
    ]
    for name in ("collapse", "pp_collapse", "slice_path2_z", "identity_arrow")
}
FIBER_COMMANDS["conduche-fiber-pp_collapse-dim1"] = FIBER_COMMANDS[
    "conduche-fiber-pp_collapse"
] + ["--dim", "1"]


def run(argv: list[str]) -> tuple[int, str]:
    """One in-process run from the repository root: exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_search_command_output_is_unchanged(name):
    recorded = json.loads(GOLDEN.read_text())[name]
    assert recorded["argv"] == COMMANDS[name]
    code, stdout = run(COMMANDS[name])
    assert code == recorded["exit"]
    assert stdout == recorded["stdout"]


@pytest.mark.parametrize("name", sorted(FIBER_COMMANDS))
def test_fiber_command_output_is_unchanged(name):
    recorded = json.loads(FIBER_GOLDEN.read_text())[name]
    assert recorded["argv"] == FIBER_COMMANDS[name]
    code, stdout = run(FIBER_COMMANDS[name])
    assert code == recorded["exit"]
    assert stdout == recorded["stdout"]


def record(path: Path, commands: dict) -> None:
    doc = {}
    for name, argv in sorted(commands.items()):
        code, stdout = run(argv)
        doc[name] = {"argv": argv, "exit": code, "stdout": stdout}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record(GOLDEN, COMMANDS)
    record(FIBER_GOLDEN, FIBER_COMMANDS)
