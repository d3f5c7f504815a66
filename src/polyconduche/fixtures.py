"""Hand-built categories, the braiding extensions, and seeded random corpora.

Everything here is deterministic: fixed tables for the named fixtures, and
seeded generators for the free-category corpora the test suites sweep over.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .categories import (
    OmegaFunctor,
    PresentedCategory,
    identity_functor,
    inflate,
)
from .conduche import ExtensionMorphism
from .constructions import slice_1cat
from .terms import CellularExtension


def terminal_category() -> PresentedCategory:
    return PresentedCategory(
        1,
        {0: ["star"], 1: ["id_star"]},
        {1: {"id_star": "star"}},
        {1: {"id_star": "star"}},
        {0: {"star": "id_star"}},
        {(1, 0): {("id_star", "id_star"): "id_star"}},
    )


def arrow_category() -> PresentedCategory:
    return PresentedCategory(
        1,
        {0: ["x", "y"], 1: ["1x", "1y", "u"]},
        {1: {"1x": "x", "1y": "y", "u": "x"}},
        {1: {"1x": "x", "1y": "y", "u": "y"}},
        {0: {"x": "1x", "y": "1y"}},
        {
            (1, 0): {
                ("1x", "1x"): "1x",
                ("1y", "1y"): "1y",
                ("u", "1x"): "u",
                ("1y", "u"): "u",
            }
        },
        basis={0: ["x", "y"], 1: ["u"]},
    )


def loop_category() -> PresentedCategory:
    """One object with an idempotent loop; the loop composes with itself."""
    return PresentedCategory(
        1,
        {0: ["p"], 1: ["1p", "s"]},
        {1: {"1p": "p", "s": "p"}},
        {1: {"1p": "p", "s": "p"}},
        {0: {"p": "1p"}},
        {
            (1, 0): {
                ("1p", "1p"): "1p",
                ("s", "1p"): "s",
                ("1p", "s"): "s",
                ("s", "s"): "s",
            }
        },
    )


def path2_category() -> PresentedCategory:
    """Free on two composable arrows f then g, with composite gf."""
    return PresentedCategory(
        1,
        {0: ["x", "y", "z"], 1: ["1x", "1y", "1z", "f", "g", "gf"]},
        {1: {"1x": "x", "1y": "y", "1z": "z", "f": "x", "g": "y", "gf": "x"}},
        {1: {"1x": "x", "1y": "y", "1z": "z", "f": "y", "g": "z", "gf": "z"}},
        {0: {"x": "1x", "y": "1y", "z": "1z"}},
        {
            (1, 0): {
                ("1x", "1x"): "1x",
                ("1y", "1y"): "1y",
                ("1z", "1z"): "1z",
                ("f", "1x"): "f",
                ("1y", "f"): "f",
                ("g", "1y"): "g",
                ("1z", "g"): "g",
                ("gf", "1x"): "gf",
                ("1z", "gf"): "gf",
                ("g", "f"): "gf",
            }
        },
        basis={0: ["x", "y", "z"], 1: ["f", "g"]},
    )


def idem_category() -> PresentedCategory:
    """One idempotent arrow carrying one idempotent non-identity 2-cell."""
    comp20 = {}
    for a in ["11o", "1f", "g"]:
        for b in ["11o", "1f", "g"]:
            if a == "g" or b == "g":
                comp20[(a, b)] = "g"
            elif a == "1f" or b == "1f":
                comp20[(a, b)] = "1f"
            else:
                comp20[(a, b)] = "11o"
    return PresentedCategory(
        2,
        {0: ["o"], 1: ["1o", "f"], 2: ["11o", "1f", "g"]},
        {1: {"1o": "o", "f": "o"}, 2: {"11o": "1o", "1f": "f", "g": "f"}},
        {1: {"1o": "o", "f": "o"}, 2: {"11o": "1o", "1f": "f", "g": "f"}},
        {0: {"o": "1o"}, 1: {"1o": "11o", "f": "1f"}},
        {
            (1, 0): {
                ("1o", "1o"): "1o",
                ("f", "1o"): "f",
                ("1o", "f"): "f",
                ("f", "f"): "f",
            },
            (2, 0): comp20,
            (2, 1): {
                ("11o", "11o"): "11o",
                ("1f", "1f"): "1f",
                ("g", "1f"): "g",
                ("1f", "g"): "g",
                ("g", "g"): "g",
            },
        },
    )


def parallel_pair_category() -> PresentedCategory:
    """Free 2-category on one 2-cell between two parallel arrows."""
    return PresentedCategory(
        2,
        {
            0: ["x", "y"],
            1: ["1x", "1y", "u", "v"],
            2: ["11x", "11y", "1u", "1v", "gam"],
        },
        {
            1: {"1x": "x", "1y": "y", "u": "x", "v": "x"},
            2: {"11x": "1x", "11y": "1y", "1u": "u", "1v": "v", "gam": "u"},
        },
        {
            1: {"1x": "x", "1y": "y", "u": "y", "v": "y"},
            2: {"11x": "1x", "11y": "1y", "1u": "u", "1v": "v", "gam": "v"},
        },
        {0: {"x": "1x", "y": "1y"}, 1: {"1x": "11x", "1y": "11y", "u": "1u", "v": "1v"}},
        {
            (1, 0): {
                ("1x", "1x"): "1x",
                ("1y", "1y"): "1y",
                ("u", "1x"): "u",
                ("1y", "u"): "u",
                ("v", "1x"): "v",
                ("1y", "v"): "v",
            },
            (2, 0): {
                ("11x", "11x"): "11x",
                ("11y", "11y"): "11y",
                ("1u", "11x"): "1u",
                ("11y", "1u"): "1u",
                ("1v", "11x"): "1v",
                ("11y", "1v"): "1v",
                ("gam", "11x"): "gam",
                ("11y", "gam"): "gam",
            },
            (2, 1): {
                ("11x", "11x"): "11x",
                ("11y", "11y"): "11y",
                ("1u", "1u"): "1u",
                ("1v", "1v"): "1v",
                ("gam", "1u"): "gam",
                ("1v", "gam"): "gam",
            },
        },
        basis={0: ["x", "y"], 1: ["u", "v"], 2: ["gam"]},
    )


def collapse_functor() -> OmegaFunctor:
    """Arrow category onto the loop; the loop self-composes, the arrow
    does not factor accordingly."""
    return OmegaFunctor(
        arrow_category(),
        loop_category(),
        {0: {"x": "p", "y": "p"}, 1: {"1x": "1p", "1y": "1p", "u": "s"}},
    )


def parallel_pair_collapse() -> OmegaFunctor:
    """Send the generating 2-cell to a degenerate one."""
    target = inflate(arrow_category(), 2)
    return OmegaFunctor(
        parallel_pair_category(),
        target,
        {
            0: {"x": "x", "y": "y"},
            1: {"1x": "1x", "1y": "1y", "u": "u", "v": "u"},
            2: {
                "11x": "1(1x)",
                "11y": "1(1y)",
                "1u": "1(u)",
                "1v": "1(u)",
                "gam": "1(u)",
            },
        },
    )


def eh_extension() -> CellularExtension:
    """Two 2-generators on the point: the braiding playground."""
    return CellularExtension(
        terminal_category(), {"a": ("id_star", "id_star"), "b": ("id_star", "id_star")}
    )


def eh_target_extension() -> CellularExtension:
    return CellularExtension(terminal_category(), {"c": ("id_star", "id_star")})


def eh_morphism() -> ExtensionMorphism:
    base = identity_functor(terminal_category())
    return ExtensionMorphism(
        eh_extension(), eh_target_extension(), base, {"a": "c", "b": "c"}
    )


def chain3_extension() -> CellularExtension:
    """Three composable 1-generators over four points."""
    base = PresentedCategory(0, {0: ["p0", "p1", "p2", "p3"]}, {}, {}, {}, {})
    return CellularExtension(
        base, {"a": ("p2", "p3"), "b": ("p1", "p2"), "d": ("p0", "p1")}
    )


# -- free categories on directed acyclic graphs ------------------------------


@dataclass
class FreeCategoryData:
    category: PresentedCategory
    objects: list[str]
    edges: list[tuple[str, str, str]]  # (name, source object, target object)
    path_names: dict[tuple[str, ...], str]  # edge tuple in traversal order


def free_category_on_dag(
    objects: list[str], edges: list[tuple[str, str, str]]
) -> FreeCategoryData:
    """All composites of the edges, identities included; finite because the
    graph is acyclic. A multi-edge path x -e1-> .. -em-> y is the arrow
    "em...e1" named right to left, matching composition order."""
    out_edges: dict[str, list[tuple[str, str, str]]] = {o: [] for o in objects}
    for name, s, t in edges:
        out_edges[s].append((name, s, t))
    for bucket in out_edges.values():
        bucket.sort()

    paths: list[tuple[tuple[str, ...], str, str]] = []

    def walk(prefix: tuple[str, ...], start: str, here: str) -> None:
        for name, _s, t in out_edges[here]:
            extended = prefix + (name,)
            paths.append((extended, start, t))
            walk(extended, start, t)

    for obj in objects:
        walk((), obj, obj)
    paths.sort(key=lambda item: (len(item[0]), item[0]))

    path_names = {tuple(p): ".".join(reversed(p)) for p, _s, _t in paths}
    id_name = {o: f"id_{o}" for o in objects}
    arrows = [id_name[o] for o in objects] + [path_names[p] for p, _s, _t in paths]
    src = {1: {id_name[o]: o for o in objects}}
    tgt = {1: {id_name[o]: o for o in objects}}
    for p, s, t in paths:
        src[1][path_names[p]] = s
        tgt[1][path_names[p]] = t

    table: dict[tuple[str, str], str] = {}
    by_path = {p: (s, t) for p, s, t in paths}
    for p, (ps, pt) in by_path.items():
        left = path_names[p]
        table[(left, id_name[ps])] = left
        table[(id_name[pt], left)] = left
        for q, (qs, qt) in by_path.items():
            if qt == ps:
                table[(left, path_names[q])] = path_names[q + p]
    for o in objects:
        table[(id_name[o], id_name[o])] = id_name[o]

    category = PresentedCategory(
        1,
        {0: list(objects), 1: arrows},
        src,
        tgt,
        {0: {o: id_name[o] for o in objects}},
        {(1, 0): table},
        basis={0: list(objects), 1: [path_names[(e,)] for e, _s, _t in edges]},
    )
    return FreeCategoryData(category, list(objects), list(edges), path_names)


def random_dag_category(
    rng: Random, max_objects: int = 5, max_edges: int = 6, max_paths: int = 15
) -> FreeCategoryData:
    n = rng.randint(2, max_objects)
    objects = [f"o{i}" for i in range(n)]
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = min(rng.randint(1, max_edges), len(slots))
    chosen = sorted(rng.sample(slots, count))
    edges = [
        (f"e{idx}", objects[i], objects[j]) for idx, (i, j) in enumerate(chosen)
    ]
    data = free_category_on_dag(objects, edges)
    while len(data.path_names) > max_paths and data.edges:
        edges = edges[:-1]
        data = free_category_on_dag(objects, edges)
    return data


def random_functor(
    rng: Random, source: FreeCategoryData, target: PresentedCategory, tries: int = 20
) -> OmegaFunctor:
    """A functor out of a free category: choose images of objects and edges,
    push forward along paths. Falls back to collapsing everything onto the
    first target object when no edge-wise choice fits."""
    target_objects = list(target.cells.get(0, []))
    arrows_between: dict[tuple[str, str], list[str]] = {}
    for a in target.cells.get(1, []):
        key = (target.src[1][a], target.tgt[1][a])
        arrows_between.setdefault(key, []).append(a)

    for _ in range(tries):
        obj_map = {o: rng.choice(target_objects) for o in source.objects}
        options = {}
        ok = True
        for name, s, t in source.edges:
            fits = arrows_between.get((obj_map[s], obj_map[t]), [])
            if not fits:
                ok = False
                break
            options[name] = fits
        if not ok:
            continue
        edge_map = {name: rng.choice(fits) for name, fits in options.items()}
        return _extend_edge_map(source, target, obj_map, edge_map)

    first = target_objects[0]
    obj_map = {o: first for o in source.objects}
    edge_map = {name: target.ids[0][first] for name, _s, _t in source.edges}
    return _extend_edge_map(source, target, obj_map, edge_map)


def _extend_edge_map(
    source: FreeCategoryData,
    target: PresentedCategory,
    obj_map: dict[str, str],
    edge_map: dict[str, str],
) -> OmegaFunctor:
    level1 = {}
    for o in source.objects:
        level1[f"id_{o}"] = target.ids[0][obj_map[o]]
    for edge_tuple, arrow in source.path_names.items():
        image = edge_map[edge_tuple[0]]
        for e in edge_tuple[1:]:
            image = target.compose(edge_map[e], image, 0)
        level1[arrow] = image
    return OmegaFunctor(source.category, target, {0: dict(obj_map), 1: level1})


def inflate_functor(functor: OmegaFunctor, n: int) -> OmegaFunctor:
    """Extend a functor to the inflated categories by mapping the padding
    identities along: the identity on a cell goes to the identity on its
    image, which is a cell of the target also where the target was deeper
    than the source already."""
    source = inflate(functor.source, n)
    target = inflate(functor.target, n)
    maps = {level: dict(table) for level, table in functor.maps.items()}
    for level in range(functor.source.dimension + 1, n + 1):
        below = maps[level - 1]
        maps[level] = {
            source.ids[level - 1][cell]: target.ids[level - 1][below[cell]]
            for cell in source.cells.get(level - 1, [])
        }
    return OmegaFunctor(source, target, maps)


# -- corpora -----------------------------------------------------------------


def slice_suite(seed: int, count: int = 20) -> list[tuple[PresentedCategory, str]]:
    """Seeded finite 1-categories, each paired with every object to slice at."""
    out = []
    for i in range(count):
        data = random_dag_category(Random(seed + i))
        for obj in data.objects:
            out.append((data.category, obj))
    return out


def conduche_pairs(
    seed: int, count: int = 20
) -> list[tuple[OmegaFunctor, OmegaFunctor]]:
    """Pairs (f, g) with f a slice projection (hence lifting-friendly) and g
    an arbitrary random functor into the same category."""
    out = []
    i = 0
    while len(out) < count:
        rng = Random(seed * 1000 + i)
        i += 1
        data = random_dag_category(rng, max_objects=4, max_edges=4, max_paths=10)
        obj = rng.choice(data.objects)
        _sliced, projection = slice_1cat(data.category, obj)
        other = random_dag_category(rng, max_objects=4, max_edges=4, max_paths=8)
        g = random_functor(rng, other, data.category)
        out.append((projection, g))
    return out


def functor_corpus(seed: int = 20240823) -> list[tuple[str, OmegaFunctor]]:
    """The shared random-functor corpus: named fixtures plus seeded random
    functors, slice projections, and a few inflated 2-dimensional ones."""
    corpus: list[tuple[str, OmegaFunctor]] = [
        ("identity-arrow", identity_functor(arrow_category())),
        ("identity-path2", identity_functor(path2_category())),
        ("identity-parallel-pair", identity_functor(parallel_pair_category())),
        ("collapse-loop", collapse_functor()),
        ("collapse-parallel-pair", parallel_pair_collapse()),
    ]
    for i in range(8):
        rng = Random(seed + 17 * i)
        src = random_dag_category(rng, max_objects=4, max_edges=4, max_paths=8)
        tgt = random_dag_category(rng, max_objects=4, max_edges=4, max_paths=8)
        corpus.append((f"random-{i}", random_functor(rng, src, tgt.category)))
    for i in range(4):
        rng = Random(seed + 5000 + 31 * i)
        data = random_dag_category(rng, max_objects=4, max_edges=4, max_paths=10)
        obj = rng.choice(data.objects)
        _sliced, projection = slice_1cat(data.category, obj)
        corpus.append((f"slice-{i}", projection))
    for i in range(3):
        rng = Random(seed + 9000 + 13 * i)
        src = random_dag_category(rng, max_objects=3, max_edges=2, max_paths=4)
        tgt = random_dag_category(rng, max_objects=3, max_edges=2, max_paths=4)
        flat = random_functor(rng, src, tgt.category)
        corpus.append((f"inflated-{i}", inflate_functor(flat, 2)))
    return corpus
