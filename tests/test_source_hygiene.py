"""Static checks on the package source, and on the private names the README
gives it, read with ast and never imported: importing __main__ would run
the command line."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polyconduche"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def exported(tree):
    """The names listed in the module's __all__, empty when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def imported(tree):
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def test_every_exported_name_exists():
    tree = parse(PACKAGE / "__init__.py")
    bound = set(imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound |= {target.id for target in node.targets if isinstance(target, ast.Name)}
    names = exported(tree)
    assert names
    assert [name for name in names if name not in bound] == []


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(exported(tree))
    unused = [f"{name} (line {line})" for name, line in imported(tree).items() if name not in used]
    assert unused == []


def test_every_private_definition_is_referenced():
    # A private helper that no code in the package names is dead code.
    defined, referenced = [], set()
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((path.name, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined
    assert [f"{module}: {name}" for module, name in defined if name not in referenced] == []


def dataclass_options(node):
    """The keywords of a class's @dataclass decorator, None when it has none."""
    for decorator in node.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        name = call.func if call else decorator
        if isinstance(name, ast.Name) and name.id == "dataclass":
            keywords = call.keywords if call else []
            return {keyword.arg: ast.literal_eval(keyword.value) for keyword in keywords}
    return None


def test_derived_dataclass_fields_stay_out_of_equality():
    # A field the constructor does not take holds what the instance derives
    # from its other fields, so a dataclass that compares by value must not
    # compare it: using an instance would change what it equals.
    derived, compared = [], []
    for path in MODULES:
        for node in ast.walk(parse(path)):
            options = dataclass_options(node) if isinstance(node, ast.ClassDef) else None
            if options is None or options.get("eq", True) is False:
                continue
            for item in node.body:
                value = item.value if isinstance(item, ast.AnnAssign) else None
                if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
                    continue
                keywords = {keyword.arg: keyword.value for keyword in value.keywords}
                if "init" in keywords and ast.literal_eval(keywords["init"]) is False:
                    derived.append(f"{path.name}: {node.name}.{item.target.id}")
                    if "compare" not in keywords or ast.literal_eval(keywords["compare"]) is not False:
                        compared.append(derived[-1])
    assert derived
    assert compared == []


def test_every_private_name_in_the_readme_is_defined():
    # A helper the README names in backticks, as `_x` or `module._x`, must
    # still exist, or the README describes code that is gone.
    defined = set()
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {target.id for target in targets if isinstance(target, ast.Name)}
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    named = set(re.findall(r"`(?:\w+\.)*(_\w+)", readme))
    assert named
    assert sorted(named - defined) == []



@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_changes_interpreter_wide_state(path):
    # A library must not tune the interpreter for every caller in the
    # process: no module imports gc or reaches sys.setrecursionlimit.
    found = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        found += [
            f"{name} (line {node.lineno})"
            for name in names
            if name.split(".")[0] == "gc" or name == "setrecursionlimit"
        ]
    assert found == []
