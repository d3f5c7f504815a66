"""Load and save the JSON document formats.

Three document kinds, sniffed by their fields: a category carries "cells",
an extension carries "generators", a functor carries "map". Extension and
functor documents may inline their category payloads or reference them by
path, resolved relative to the referencing file.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

from .categories import OmegaFunctor, PresentedCategory
from .conduche import ExtensionMorphism
from .errors import SchemaError
from .terms import CellularExtension

CATEGORY = "category"
EXTENSION = "extension"
FUNCTOR = "functor"

_BASE = "'base' must be a category document or a path to one"
_SIDE_KINDS = (CATEGORY, EXTENSION)
_SIDES = "'source' and 'target' must be category or extension documents or paths to them"


def sniff_kind(doc: dict) -> str:
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if "cells" in doc:
        return CATEGORY
    if "generators" in doc:
        return EXTENSION
    if "map" in doc:
        return FUNCTOR
    raise SchemaError("unrecognized document: expected cells, generators, or map")


def _require(doc: dict, key: str):
    if key not in doc:
        raise SchemaError(f"missing {key!r}")
    return doc[key]


def _strings(values) -> bool:
    return set(map(type, values)) <= {str}


def _by_level(payload, key: str, kind: type) -> dict:
    """A JSON object keyed by integer levels, with a list or a dict (kind) of
    strings at each level."""
    if not isinstance(payload, dict) or not all(
        isinstance(v, kind) and _strings(v.values() if kind is dict else v)
        for v in payload.values()
    ):
        raise SchemaError(
            f"{key!r} must be an object keyed by level, a {kind.__name__} of strings at each"
        )
    try:
        return {int(level): kind(value) for level, value in payload.items()}
    except ValueError:
        raise SchemaError(f"{key!r} has a non-integer level") from None


def category_from_json(doc: dict) -> PresentedCategory:
    dimension = _require(doc, "dimension")
    if type(dimension) is not int or dimension < 0:
        raise SchemaError("dimension must be a non-negative integer")
    cells = _by_level(_require(doc, "cells"), "cells", list)
    if dimension >= len(cells):
        raise SchemaError(f"dimension {dimension} needs a cell list for each level 0..{dimension}")
    src = _by_level(doc.get("src", {}), "src", dict)
    tgt = _by_level(doc.get("tgt", {}), "tgt", dict)
    ids = _by_level(doc.get("id", {}), "id", dict)
    comp: dict[tuple[int, int], dict[tuple[str, str], str]] = {}
    tables = doc.get("comp", {})
    if not isinstance(tables, dict):
        raise SchemaError("'comp' must be an object keyed by 'l*k'")
    for key, triples in tables.items():
        try:
            level_text, k_text = key.split("*")
            level, k = int(level_text), int(k_text)
        except ValueError:
            raise SchemaError(f"bad composition key {key!r}, expected 'l*k'") from None
        if not isinstance(triples, list):
            raise SchemaError(f"composition table {key!r} must be an array of triples")
        for triple in triples:
            if not isinstance(triple, list) or len(triple) != 3:
                raise SchemaError(f"composition entries are triples, got {triple!r}")
        if not _strings(chain.from_iterable(triples)):
            raise SchemaError(f"composition table {key!r} names a cell by a non-string")
        table: dict[tuple[str, str], str] = {}
        for left, right, result in triples:
            if (left, right) in table:
                raise SchemaError(f"duplicate composition entry {left!r}, {right!r}")
            table[(left, right)] = result
        comp[(level, k)] = table
    basis = None
    if "basis" in doc:
        basis = _by_level(doc["basis"], "basis", list)
    return PresentedCategory(dimension, cells, src, tgt, ids, comp, basis)


def category_to_json(category: PresentedCategory) -> dict:
    doc = {
        "dimension": category.dimension,
        "cells": {str(l): list(v) for l, v in sorted(category.cells.items())},
        "src": {str(l): dict(v) for l, v in sorted(category.src.items())},
        "tgt": {str(l): dict(v) for l, v in sorted(category.tgt.items())},
        "id": {str(l): dict(v) for l, v in sorted(category.ids.items())},
        "comp": {
            f"{l}*{k}": [[a, b, r] for (a, b), r in sorted(table.items())]
            for (l, k), table in sorted(category.comp.items())
        },
    }
    if category.basis is not None:
        doc["basis"] = {str(l): list(v) for l, v in sorted(category.basis.items())}
    return doc


def extension_from_json(doc: dict, base_dir: Path) -> CellularExtension:
    _, base = _resolve(_require(doc, "base"), base_dir, (CATEGORY,), _BASE)
    entries = _require(doc, "generators")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise SchemaError("'generators' must be an array of objects")
    generators: dict[str, tuple[str, str]] = {}
    for entry in entries:
        name, src, tgt = (_require(entry, key) for key in ("name", "src", "tgt"))
        if not _strings((name, src, tgt)):
            raise SchemaError(f"generator name, src and tgt must be strings, got {entry!r}")
        if name in generators:
            raise SchemaError(f"duplicate generator {name!r}")
        generators[name] = (src, tgt)
    return CellularExtension(base, generators)


def extension_to_json(extension: CellularExtension) -> dict:
    return {
        "base": category_to_json(extension.base),
        "generators": [
            {"name": name, "src": s, "tgt": t}
            for name, (s, t) in extension.generators.items()
        ],
    }


def functor_from_json(doc: dict, base_dir: Path):
    """A map between categories, or between extensions when both sides are
    extension documents; the top map level then sends generators."""
    src_kind, source = _resolve(_require(doc, "source"), base_dir, _SIDE_KINDS, _SIDES)
    tgt_kind, target = _resolve(_require(doc, "target"), base_dir, _SIDE_KINDS, _SIDES)
    if src_kind != tgt_kind:
        raise SchemaError("source and target documents must have the same kind")
    maps = _by_level(_require(doc, "map"), "map", dict)
    if src_kind == CATEGORY:
        return OmegaFunctor(source, target, maps)
    top = source.base.dimension + 1
    phi = maps.pop(top, None)
    if phi is None:
        raise SchemaError(f"extension morphism needs a level-{top} map for generators")
    return ExtensionMorphism(source, target, OmegaFunctor(source.base, target.base, maps), phi)


def functor_to_json(functor) -> dict:
    if isinstance(functor, ExtensionMorphism):
        maps = {str(l): dict(v) for l, v in sorted(functor.base.maps.items())}
        maps[str(functor.source.base.dimension + 1)] = dict(functor.phi)
        return {
            "source": extension_to_json(functor.source),
            "target": extension_to_json(functor.target),
            "map": maps,
        }
    return {
        "source": category_to_json(functor.source),
        "target": category_to_json(functor.target),
        "map": {str(l): dict(v) for l, v in sorted(functor.maps.items())},
    }


def _read(path: Path):
    """The JSON value in a file; SchemaError when it cannot be read or decoded."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: unreadable ({exc})") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply") from None


def _build(doc, base_dir: Path):
    """(kind, object) for a document whose references resolve in base_dir."""
    kind = sniff_kind(doc)
    if kind == CATEGORY:
        return kind, category_from_json(doc)
    if kind == EXTENSION:
        return kind, extension_from_json(doc, base_dir)
    return kind, functor_from_json(doc, base_dir)


def _resolve(payload, base_dir: Path, kinds: tuple[str, ...], message: str):
    """(kind, object) for a nested base, source or target: an inline document
    or a path relative to base_dir. Its kind is checked before it is built,
    so a reference chain is at most functor, extension, category long and
    can never come back to a document on it."""
    if isinstance(payload, str):
        path = base_dir / payload
        payload, base_dir = _read(path), path.parent
    if not isinstance(payload, dict) or sniff_kind(payload) not in kinds:
        raise SchemaError(message)
    return _build(payload, base_dir)


def load_document(path):
    """Read a document and build the matching object; returns (kind, object)."""
    path = Path(path)
    return _build(_read(path), path.parent)


def dump_json(doc: dict) -> str:
    """The one serialization used everywhere: sorted keys, two-space indent."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_document(path, doc: dict) -> None:
    """Write a document; SchemaError when the path cannot be written."""
    try:
        Path(path).write_text(dump_json(doc))
    except OSError as exc:
        raise SchemaError(f"{path}: cannot write ({exc})") from None
