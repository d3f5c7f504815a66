"""The package names the benchmark in bench/ calls by module attribute.

The benchmark looks every function up at call time (`pc.movements.equivalent`)
and the tracer wraps the functions its LAYERS table names, so a name deleted
or renamed in the package breaks it. These checks read bench/ without
importing it and fail here, in the unit suite, instead of in the slow smoke
run.
"""

import ast
import importlib
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _assigned(path: Path, name: str):
    """The literal value of a module-level assignment in a source file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


MODULES = _assigned(BENCH / "run.py", "MODULES")
LAYERS = sorted(_assigned(BENCH / "tracing.py", "LAYERS"))
REACHED = sorted(
    set(
        re.findall(
            rf"\b({'|'.join(MODULES)})\.([A-Za-z_]\w*)", (BENCH / "workloads.py").read_text()
        )
    )
)


def _missing(names):
    return [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"polyconduche.{module}"), name)
    ]


def test_traced_layers_exist():
    assert LAYERS
    assert _missing(LAYERS) == []


def test_names_the_workloads_reach_exist():
    assert REACHED
    assert _missing(REACHED) == []
