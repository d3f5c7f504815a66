"""The exit-code contract under one-value mutations of the shipped documents.

Each example changes one value of one file in fixtures/: it drops a key or
an item, swaps a value for another JSON type, a huge integer or another
string of the same document, or truncates a list. The mutant takes the
original's place in a copy of fixtures/, and every command that applies to
it, or to a document that references it, runs in-process. Whatever the
document, the exit code is 0 to 3, exit 1 comes only with a JSON Fail,
distinct or NotBasis verdict, and exit 4 (an internal error) never happens.

The same contract holds under one-token mutations of the command line: each
criterion-9 command, with a token dropped, a flag repeated, a value replaced
by a number, a word, an empty string, a directory or a missing path, or an
unknown flag inserted, exits 0 to 3 without a traceback.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from polyconduche.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DOCS = {path.name: json.loads(path.read_text()) for path in FIXTURES.glob("*.json")}

BRAID_LEFT = "((c:a)*0(c:b))"
WORDS = {
    "eh.ext.json": (BRAID_LEFT, "((c:b)*0(c:a))"),
    "ehc.ext.json": ("((c:c)*0(c:c))", "((c:c)*1(c:c))"),
    "chain3.ext.json": ("(((c:a)*0(c:b))*0(c:d))", "((c:a)*0((c:b)*0(c:d)))"),
}
OTHER_VALUES = [None, True, 0, 1.5, "x", [], {}]
VERDICTS_OF_EXIT_1 = {"Fail", "distinct", "NotBasis"}


def _commands(name: str) -> list[list[str]]:
    """Every command that applies to the document `name`, as argv with the
    document's name for its path."""
    kind = name.rsplit(".", 2)[-2]
    if kind == "cat":
        cells = DOCS.get(name, {}).get("cells", {"0": ["x"]})["0"]
        return [
            ["validate", name],
            ["basis", name, "--dim", "1", "--word-size", "3"],
            ["slice", name, cells[0]],
        ]
    search = ["--max-steps", "6", "--size-slack", "1"]
    if kind == "ext":
        left, right = WORDS.get(name, ("(c:a)", "(c:a)"))
        return [
            ["validate", name],
            ["equiv", name, left, right, *search],
            ["movements", name, left],
        ]
    commands = [["validate", name], ["transfer", name], ["pullback", name, name]]
    if str(DOCS.get(name, {}).get("source")).endswith(".ext.json"):
        fiber = ["--mode", "fiber", "--at", BRAID_LEFT, "--size-bound", "1"]
        return commands + [["conduche", name, *fiber]]
    fiber = ["--mode", "fiber", "--size-bound", "2"]
    return commands + [["conduche", name], ["conduche", name, *fiber]]


def _referrers(name: str) -> list[str]:
    """The shipped documents that reference `name`, directly or through
    another document."""
    found: list[str] = []
    todo = [name]
    while todo:
        target = todo.pop()
        for other, doc in DOCS.items():
            references = [doc.get(key) for key in ("base", "source", "target")]
            if other not in found and target in references:
                found.append(other)
                todo.append(other)
    return sorted(found)


def _locations(value, path=()):
    """(path, value) for every value in a JSON document, the whole first."""
    yield path, value
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from _locations(child, path + (key,))


@st.composite
def mutants(draw):
    """(name, bytes): a shipped document with one value changed."""
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = copy.deepcopy(DOCS[name])
    locations = list(_locations(doc))
    path, value = draw(st.sampled_from(locations[1:]))
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    mutation = draw(st.sampled_from(["drop", "retype", "huge", "rename", "truncate"]))
    if mutation == "drop":
        del holder[last]
    elif mutation == "retype":
        others = [v for v in OTHER_VALUES if type(v) is not type(value)]
        holder[last] = draw(st.sampled_from(others))
    elif mutation == "huge":
        holder[last] = 10**30
    elif mutation == "rename":
        names = sorted({v for _, v in locations if isinstance(v, str)})
        holder[last] = draw(st.sampled_from(names))
    elif isinstance(value, list) and value:
        holder[last] = value[: draw(st.integers(0, len(value) - 1))]
    return name, json.dumps(doc).encode()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    for name in DOCS:
        (root / name).write_bytes((FIXTURES / name).read_bytes())
    return root


# None stands for a directory in the document's place.
@example(mutant=("directory.cat.json", None))
@example(mutant=("undecodable.cat.json", b"\xff\xfe"))
@example(mutant=("deep.cat.json", b"[" * 200_000))
@example(mutant=("self.ext.json", b'{"base": "self.ext.json", "generators": []}'))
@example(mutant=("self.fun.json", b'{"source": "self.fun.json", "target": "", "map": {}}'))
@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(mutant=mutants())
def test_mutated_documents_keep_the_exit_code_contract(workdir, mutant):
    name, content = mutant
    path = workdir / name
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    try:
        for document in [name, *_referrers(name)]:
            for argv in _commands(document):
                path_argv = [str(workdir / arg) if arg == document else arg for arg in argv]
                code, out, err = _run(path_argv)
                assert code in (0, 1, 2, 3), (argv, content, err)
                if code == 1:
                    assert json.loads(out)["verdict"] in VERDICTS_OF_EXIT_1, (argv, content, out)
    finally:
        if name in DOCS:
            path.write_bytes((FIXTURES / name).read_bytes())
        elif content is None:
            path.rmdir()
        else:
            path.unlink()


def _criterion_9_commands(out: Path) -> list[list[str]]:
    """The commands of acceptance criterion 9 on the shipped documents, as
    argv, with every output written under `out`."""
    left, right = WORDS["eh.ext.json"]
    fixture = {name: str(FIXTURES / name) for name in DOCS}
    return [
        ["validate", fixture["path2.cat.json"]],
        ["equiv", fixture["eh.ext.json"], left, right, "--max-steps", "6", "--size-slack", "1",
         "--witness-out", str(out / "witness.json")],
        ["conduche", fixture["collapse.fun.json"]],
        ["conduche", fixture["eh.fun.json"], "--mode", "fiber", "--at", left, "--size-bound", "1"],
        ["basis", fixture["path2.cat.json"], "--dim", "1"],
        ["transfer", fixture["slice_path2_z.fun.json"]],
        ["slice", fixture["path2.cat.json"], "z", "--projection-out", str(out / "projection.json")],
        ["pullback", fixture["collapse.fun.json"], fixture["collapse.fun.json"],
         "--out", str(out / "pullback.json")],
        ["movements", fixture["eh.ext.json"], left, "--dot"],
    ]


@st.composite
def argv_mutants(draw, out: Path):
    """A criterion-9 command with one token dropped, one flag repeated with
    its value, one value replaced or one unknown flag inserted."""
    argv = draw(st.sampled_from(_criterion_9_commands(out)))
    flags = [i for i, token in enumerate(argv) if token.startswith("--")]
    values = [i for i in range(1, len(argv)) if i not in flags]
    mutation = draw(st.sampled_from(["drop", "replace", "unknown"] + ["repeat"] * bool(flags)))
    if mutation == "drop":
        del argv[draw(st.integers(1, len(argv) - 1))]
    elif mutation == "repeat":
        i = draw(st.sampled_from(flags))
        argv += argv[i : i + (1 if argv[i] == "--dot" else 2)]
    elif mutation == "replace":
        replacement = ["-1", "0", "x", "", str(out / "directory"), str(out / "no_such_dir" / "x.json")]
        argv[draw(st.sampled_from(values))] = draw(st.sampled_from(replacement))
    else:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "--bogus=1", "-z"])))
    return argv


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("out")
    (root / "directory").mkdir()
    return root


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_mutated_argv_keeps_the_exit_code_contract(outdir, data):
    argv = data.draw(argv_mutants(outdir))
    # A replaced output path is relative: it lands in outdir too.
    with contextlib.chdir(outdir):
        code, out, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        assert json.loads(out)["verdict"] in VERDICTS_OF_EXIT_1, (argv, out)
