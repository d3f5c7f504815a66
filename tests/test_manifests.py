import json
from pathlib import Path

import pytest

from polyconduche.categories import OmegaFunctor
from polyconduche.conduche import ExtensionMorphism
from polyconduche.errors import SchemaError
from polyconduche.fixtures import (
    collapse_functor,
    eh_extension,
    eh_morphism,
    path2_category,
)
from polyconduche.manifests import (
    CATEGORY,
    EXTENSION,
    FUNCTOR,
    category_from_json,
    category_to_json,
    dump_json,
    extension_from_json,
    extension_to_json,
    functor_from_json,
    functor_to_json,
    load_document,
    save_document,
    sniff_kind,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
HERE = Path(".")


def test_category_round_trip():
    category = path2_category()
    assert category_from_json(category_to_json(category)) == category


def test_extension_round_trip():
    extension = eh_extension()
    assert extension_from_json(extension_to_json(extension), HERE) == extension


def test_functor_round_trip():
    functor = collapse_functor()
    rebuilt = functor_from_json(functor_to_json(functor), HERE)
    assert isinstance(rebuilt, OmegaFunctor)
    assert rebuilt == functor


def test_extension_morphism_round_trip():
    morphism = eh_morphism()
    rebuilt = functor_from_json(functor_to_json(morphism), HERE)
    assert isinstance(rebuilt, ExtensionMorphism)
    assert rebuilt == morphism


def test_sniff_kind_recognizes_the_three_shapes():
    assert sniff_kind({"cells": {}}) == CATEGORY
    assert sniff_kind({"generators": []}) == EXTENSION
    assert sniff_kind({"map": {}}) == FUNCTOR
    with pytest.raises(SchemaError):
        sniff_kind({"something": 1})
    with pytest.raises(SchemaError):
        sniff_kind(["not", "an", "object"])


def test_bad_composition_keys_and_triples_are_rejected():
    doc = category_to_json(path2_category())
    doc["comp"]["oops"] = []
    with pytest.raises(SchemaError):
        category_from_json(doc)
    doc = category_to_json(path2_category())
    doc["comp"]["1*0"].append(["g", "f"])
    with pytest.raises(SchemaError):
        category_from_json(doc)
    doc = category_to_json(path2_category())
    doc["comp"]["1*0"].append(["g", "f", "again"])
    with pytest.raises(SchemaError):
        category_from_json(doc)


def test_duplicate_generators_are_rejected():
    doc = extension_to_json(eh_extension())
    doc["generators"].append(dict(doc["generators"][0]))
    with pytest.raises(SchemaError):
        extension_from_json(doc, HERE)


def test_mixed_functor_sides_are_rejected():
    doc = functor_to_json(eh_morphism())
    doc["target"] = category_to_json(path2_category())
    with pytest.raises(SchemaError):
        functor_from_json(doc, HERE)


def test_morphism_documents_need_a_generator_map():
    doc = functor_to_json(eh_morphism())
    del doc["map"]["2"]
    with pytest.raises(SchemaError):
        functor_from_json(doc, HERE)


def test_path_references_resolve_relative_to_the_document(tmp_path):
    save_document(tmp_path / "base.cat.json", category_to_json(path2_category()))
    save_document(
        tmp_path / "ext.json",
        {"base": "base.cat.json", "generators": [{"name": "h", "src": "f", "tgt": "gf"}]},
    )
    kind, extension = load_document(tmp_path / "ext.json")
    assert kind == EXTENSION
    assert extension.base == path2_category()
    assert extension.generators == {"h": ("f", "gf")}


def test_load_document_failures_are_schema_errors(tmp_path):
    with pytest.raises(SchemaError):
        load_document(tmp_path / "missing.json")
    (tmp_path / "broken.json").write_text("{not json")
    with pytest.raises(SchemaError):
        load_document(tmp_path / "broken.json")
    with pytest.raises(SchemaError):
        load_document(FIXTURES)
    (tmp_path / "undecodable.json").write_bytes(b"\xff\xfe")
    with pytest.raises(SchemaError):
        load_document(tmp_path / "undecodable.json")
    (tmp_path / "deep.json").write_text("[" * 200_000)
    with pytest.raises(SchemaError):
        load_document(tmp_path / "deep.json")
    save_document(tmp_path / "self.json", {"base": "self.json", "generators": []})
    with pytest.raises(SchemaError):
        load_document(tmp_path / "self.json")
    save_document(tmp_path / "loop.json", {"source": "loop.json", "target": "loop.json", "map": {}})
    with pytest.raises(SchemaError):
        load_document(tmp_path / "loop.json")


def test_dump_json_is_stable():
    text = dump_json({"b": 1, "a": [2, 1]})
    assert text == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'
    once = dump_json(category_to_json(path2_category()))
    again = dump_json(category_to_json(category_from_json(json.loads(once))))
    assert again == once


def test_shipped_fixture_documents_load_with_the_expected_kind():
    paths = sorted(FIXTURES.glob("*.json"))
    assert len(paths) >= 16
    for path in paths:
        kind, _ = load_document(path)
        suffix = path.name.rsplit(".", 2)[-2]
        assert kind == {"cat": CATEGORY, "ext": EXTENSION, "fun": FUNCTOR}[suffix]


def test_functor_maps_must_be_objects_keyed_by_level():
    doc = functor_to_json(collapse_functor())
    with pytest.raises(SchemaError, match="'map'"):
        functor_from_json(dict(doc, map=[]), HERE)
    with pytest.raises(SchemaError, match="non-integer level"):
        functor_from_json(dict(doc, map={"top": {}}), HERE)
