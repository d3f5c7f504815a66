"""Finitely presented strict n-categories as explicit tables.

A PresentedCategory stores every cell (identities included) level by level,
codimension-1 source/target maps, identity maps, and total composition tables
comp[(l, k)] for 0 <= k < l <= dimension. validate_category checks the seven
strict-category axioms exhaustively and reports every violation; functors get
the same treatment.

Each index derived from a category's tables lives on the category. The level
index is built at construction, so that a cell declared at two levels is
refused there; the boundary maps and identity preimages are cached
properties, built on first read and then kept, and the factorization index
is one too, filled one composition table at a time as tables are asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import LevelError, SchemaError, UndefinedComposite

SRC = "src"
TGT = "tgt"


@dataclass
class PresentedCategory:
    """A finite strict n-category as explicit tables.

    The indexes derived from the tables are kept (see the module docstring),
    so no cell is added or removed after construction, and cells, src, tgt,
    ids and comp are not edited after the first derived read; globe and
    composable_pair assign comp before any such read.
    """

    dimension: int
    cells: dict[int, list[str]]
    src: dict[int, dict[str, str]]
    tgt: dict[int, dict[str, str]]
    ids: dict[int, dict[str, str]]
    comp: dict[tuple[int, int], dict[tuple[str, str], str]]
    basis: dict[int, list[str]] | None = None

    _level_of: dict[str, int] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.dimension < 0:
            raise LevelError("dimension must be non-negative")
        seen: dict[str, int] = {}
        for level in range(self.dimension + 1):
            for cell in self.cells.get(level, []):
                if cell in seen:
                    raise SchemaError(f"cell {cell!r} declared at levels {seen[cell]} and {level}")
                seen[cell] = level
        self._level_of = seen

    # -- structural lookups -------------------------------------------------

    def level_of(self, cell: str) -> int:
        try:
            return self._level_of[cell]
        except KeyError:
            raise SchemaError(f"unknown cell {cell!r}") from None

    def has_cell(self, cell: str) -> bool:
        return cell in self._level_of

    def boundary(self, cell: str, k: int, side: str) -> str:
        """Iterated source/target down to level k."""
        level = self.level_of(cell)
        if not 0 <= k <= level:
            raise LevelError(f"boundary level {k} out of range for a {level}-cell")
        table = self.src if side == SRC else self.tgt
        cur = cell
        for l in range(level, k, -1):
            cur = table[l][cur]
        return cur

    def identity_to(self, cell: str, level: int) -> str:
        """The iterated identity cell on `cell` at the given level."""
        base = self.level_of(cell)
        if level < base:
            raise LevelError(f"cannot take an identity of a {base}-cell at lower level {level}")
        cur = cell
        for l in range(base, level):
            cur = self.ids[l][cur]
        return cur

    def degeneracy_preimage(self, cell: str, k: int) -> str | None:
        """The k-cell z with cell = identity_to(z, level), if one exists."""
        level = self.level_of(cell)
        if k > level:
            raise LevelError(f"level {k} above the cell's level {level}")
        cur = cell
        for l in range(level, k, -1):
            prev = self._id_preimage.get(l, {}).get(cur)
            if prev is None:
                return None
            cur = prev
        return cur

    def composable(self, x: str, y: str, k: int) -> bool:
        return self.boundary(x, k, SRC) == self.boundary(y, k, TGT)

    def compose(self, x: str, y: str, k: int) -> str:
        level = self.level_of(x)
        table = self.comp.get((level, k))
        if table is None or (x, y) not in table:
            raise UndefinedComposite(f"{x!r} *{k} {y!r} at level {level}")
        return table[(x, y)]

    def factorizations(self, result: str, level: int, k: int) -> list[tuple[str, str]]:
        """All table pairs (left, right) with left *k right = result."""
        index = self._factorizations.get((level, k))
        if index is None:
            index = self._factorizations[(level, k)] = {}
            for pair, res in sorted(self.comp.get((level, k), {}).items()):
                index.setdefault(res, []).append(pair)
        return index.get(result, [])

    @cached_property
    def _id_preimage(self) -> dict[int, dict[str, str]]:
        """For each level l above 0, the (l-1)-cell of each identity l-cell."""
        return {level + 1: {image: cell for cell, image in table.items()}
                for level, table in self.ids.items()}

    @cached_property
    def _factorizations(self) -> dict[tuple[int, int], dict[str, list[tuple[str, str]]]]:
        """For each table (level, k) that factorizations was asked about, the
        sorted pairs that compose to each result."""
        return {}

    @cached_property
    def boundaries(self) -> tuple[list[dict[str, str]], list[dict[str, str]]]:
        """(sources, targets): sources[k][x] == self.boundary(x, k, SRC) for
        every level k and every cell x at level k or above, and targets
        likewise, each map built from the one above it. A cell whose walk
        down the side's maps misses a level or a step is left out, so on a
        category that fails the schema check a lookup can miss where
        boundary would raise."""
        sides = []
        for table in (self.src, self.tgt):
            maps = [{x: x for x in self.cells.get(self.dimension, [])}]
            for k in range(self.dimension - 1, -1, -1):
                step = table.get(k + 1, {})
                below = {x: x for x in self.cells.get(k, [])}
                below.update((x, step[y]) for x, y in maps[-1].items() if y in step)
                maps.append(below)
            maps.reverse()
            sides.append(maps)
        return sides[0], sides[1]


@dataclass
class ValidationReport:
    ok: bool
    violations: list[tuple[str, tuple]]


def is_degenerate(category: PresentedCategory, cell: str) -> bool:
    """True when the cell is an identity on some lower cell. 0-cells never are."""
    level = category.level_of(cell)
    if level == 0:
        return False
    return category.degeneracy_preimage(cell, level - 1) is not None


def truncate(category: PresentedCategory, n: int) -> PresentedCategory:
    """Forget all cells above level n."""
    if not 0 <= n <= category.dimension:
        raise LevelError(f"cannot truncate a {category.dimension}-category to {n}")
    return PresentedCategory(
        dimension=n,
        cells={l: list(category.cells.get(l, [])) for l in range(n + 1)},
        src={l: dict(category.src.get(l, {})) for l in range(1, n + 1)},
        tgt={l: dict(category.tgt.get(l, {})) for l in range(1, n + 1)},
        ids={l: dict(category.ids.get(l, {})) for l in range(n)},
        comp={(l, k): dict(t) for (l, k), t in category.comp.items() if l <= n},
        basis=(
            {l: list(category.basis.get(l, [])) for l in range(n + 1) if l in category.basis}
            if category.basis is not None
            else None
        ),
    )


def inflate(category: PresentedCategory, n: int) -> PresentedCategory:
    """Pad with identity cells up to dimension n (the adjoint of truncate)."""
    if n < category.dimension:
        raise LevelError(f"cannot inflate a {category.dimension}-category down to {n}")
    cells = {l: list(category.cells.get(l, [])) for l in range(category.dimension + 1)}
    src = {l: dict(t) for l, t in category.src.items()}
    tgt = {l: dict(t) for l, t in category.tgt.items()}
    ids = {l: dict(t) for l, t in category.ids.items()}
    comp = {key: dict(t) for key, t in category.comp.items()}
    basis = {l: list(t) for l, t in category.basis.items()} if category.basis else None
    for level in range(category.dimension, n):
        below = cells[level]
        cells[level + 1] = [f"1({x})" for x in below]
        ids[level] = {x: f"1({x})" for x in below}
        src[level + 1] = {f"1({x})": x for x in below}
        tgt[level + 1] = {f"1({x})": x for x in below}
        for k in range(level):
            comp[(level + 1, k)] = {
                (f"1({a})", f"1({b})"): f"1({c})" for (a, b), c in comp[(level, k)].items()
            }
        # At the junction with the old top level only 1(x) *_level 1(x) composes.
        comp[(level + 1, level)] = {(f"1({x})", f"1({x})"): f"1({x})" for x in below}
        if basis is not None:
            basis[level + 1] = []
    return PresentedCategory(n, cells, src, tgt, ids, comp, basis)


def validate_category(category: PresentedCategory) -> ValidationReport:
    """Check schema and the seven axioms; collect every violation.

    Dangling references raise SchemaError; axiom failures are reported.
    """
    c = category
    n = c.dimension
    _check_schema(c)
    violations: list[tuple[str, tuple]] = []

    # Globularity of codimension-1 boundaries.
    for l in range(2, n + 1):
        for x in c.cells.get(l, []):
            sx, tx = c.src[l][x], c.tgt[l][x]
            if c.src[l - 1][sx] != c.src[l - 1][tx] or c.tgt[l - 1][sx] != c.tgt[l - 1][tx]:
                violations.append(("globular", (l, x)))

    # Identity boundaries and injectivity.
    for k in range(n):
        seen_images: dict[str, str] = {}
        for x in c.cells.get(k, []):
            ix = c.ids[k][x]
            if c.src[k + 1][ix] != x or c.tgt[k + 1][ix] != x:
                violations.append(("identity-boundary", (k, x)))
            if ix in seen_images:
                violations.append(("identity-injective", (k, seen_images[ix], x)))
            seen_images[ix] = x

    # Composition tables: defined exactly on composable pairs. A result at
    # another level is reported, and its boundaries at the levels it lacks
    # count as None below.
    bs, bt = c.boundaries
    for l in range(1, n + 1):
        for k in range(l):
            table = c.comp.get((l, k), {})
            for (a, b), res in table.items():
                if c.level_of(res) != l:
                    violations.append(("composite-level", (l, k, a, b, res)))
                if bs[k][a] != bt[k][b]:
                    violations.append(("comp-domain", (l, k, a, b)))
            by_target: dict[str, list[str]] = {}
            for b in c.cells.get(l, []):
                by_target.setdefault(bt[k][b], []).append(b)
            for a in c.cells.get(l, []):
                for b in by_target.get(bs[k][a], ()):
                    if (a, b) not in table:
                        violations.append(("comp-total", (l, k, a, b)))

    # Boundaries of composites: source from the right factor, target from the
    # left, both at the junction level (lower levels follow by globularity).
    for (l, k), table in c.comp.items():
        for (a, b), res in table.items():
            if bs[k].get(res) != bs[k][b]:
                violations.append(("composite-source", (l, k, a, b)))
            if bt[k].get(res) != bt[k][a]:
                violations.append(("composite-target", (l, k, a, b)))
            # Boundaries strictly between k and l distribute over the table.
            for m in range(k + 1, l):
                for side, maps in ((SRC, bs), (TGT, bt)):
                    want = c.comp.get((m, k), {}).get((maps[m][a], maps[m][b]))
                    if want is None or maps[m].get(res) != want:
                        violations.append(("composite-boundary-distributes", (l, k, m, a, b, side)))

    # Associativity.
    for (l, k), table in c.comp.items():
        by_left: dict[str, list[str]] = {}
        for (a, b) in table:
            by_left.setdefault(a, []).append(b)
        for (a, b), ab in table.items():
            for d in by_left.get(b, ()):
                bd = table[(b, d)]
                left = table.get((ab, d))
                right = table.get((a, bd))
                if left is None or right is None or left != right:
                    violations.append(("associativity", (l, k, a, b, d)))

    # Units.
    for l in range(1, n + 1):
        for k in range(l):
            table = c.comp.get((l, k), {})
            for x in c.cells.get(l, []):
                left_unit = c.identity_to(bt[k][x], l)
                right_unit = c.identity_to(bs[k][x], l)
                if table.get((x, right_unit)) != x:
                    violations.append(("right-unit", (l, k, x)))
                if table.get((left_unit, x)) != x:
                    violations.append(("left-unit", (l, k, x)))

    # Identities are functorial over composition.
    for (l, k), table in c.comp.items():
        if l == n:
            continue
        upper = c.comp.get((l + 1, k), {})
        units = c.ids[l]
        for (a, b), res in table.items():
            unit = units.get(res)
            if unit is None or upper.get((units[a], units[b])) != unit:
                violations.append(("identity-functorial", (l, k, a, b)))

    # Exchange between two composition levels k < m at each cell level l:
    # (x *k y) *m (z *k t) against (x *m z) *k (y *m t) for every two entries
    # of the k-table whose factors meet at m.
    for l in range(2, n + 1):
        for k in range(l):
            lower = c.comp.get((l, k), {})
            for m in range(k + 1, l):
                upper = c.comp.get((l, m), {})
                below: dict[tuple[str, str], list] = {}
                for (z, t), zt in lower.items():
                    below.setdefault((bt[m][z], bt[m][t]), []).append((z, t, zt))
                for (x, y), xy in lower.items():
                    for z, t, zt in below.get((bs[m][x], bs[m][y]), ()):
                        lhs = upper.get((xy, zt))
                        xz = upper.get((x, z))
                        yt = upper.get((y, t))
                        rhs = lower.get((xz, yt)) if xz is not None and yt is not None else None
                        if lhs is None or rhs is None or lhs != rhs:
                            violations.append(("exchange", (l, k, m, x, y, z, t)))

    violations = sorted(set(violations), key=repr)
    return ValidationReport(ok=not violations, violations=violations)


def _check_schema(c: PresentedCategory) -> None:
    n = c.dimension
    for level in range(n + 1):
        if level not in c.cells:
            raise SchemaError(f"missing cell list for level {level}")
    for level in range(1, n + 1):
        for table_name, table in ((SRC, c.src), (TGT, c.tgt)):
            if level not in table:
                raise SchemaError(f"missing {table_name} table at level {level}")
            for cell in c.cells[level]:
                image = table[level].get(cell)
                if image is None:
                    raise SchemaError(f"{table_name}[{level}] misses {cell!r}")
                if c.level_of(image) != level - 1:
                    raise SchemaError(f"{table_name}[{level}][{cell!r}] is not a {level - 1}-cell")
    for level in range(n):
        if level not in c.ids:
            raise SchemaError(f"missing identity table at level {level}")
        for cell in c.cells[level]:
            image = c.ids[level].get(cell)
            if image is None:
                raise SchemaError(f"id[{level}] misses {cell!r}")
            if c.level_of(image) != level + 1:
                raise SchemaError(f"id[{level}][{cell!r}] is not a {level + 1}-cell")
    for (l, k), table in c.comp.items():
        if not 0 <= k < l <= n:
            raise SchemaError(f"composition table at impossible levels ({l}, {k})")
        for (a, b), res in table.items():
            for cell in (a, b):
                if c.level_of(cell) != l:
                    raise SchemaError(f"comp[({l},{k})] argument {cell!r} is not an {l}-cell")
            c.level_of(res)
    if c.basis:
        for level, cells in c.basis.items():
            for i, cell in enumerate(cells):
                if c.level_of(cell) != level:
                    raise SchemaError(f"declared basis cell {cell!r} is not at level {level}")
                if cell in cells[:i]:
                    raise SchemaError(f"declared basis repeats cell {cell!r}")


# -- canonical shapes -------------------------------------------------------


def globe(n: int) -> PresentedCategory:
    """The n-globe: two cells per dimension below n, one at the top.

    All composites are forced by the unit laws, so the tables only contain
    unit absorption.
    """
    if n < 0:
        raise LevelError("globe dimension must be non-negative")
    cells: dict[int, list[str]] = {}
    src: dict[int, dict[str, str]] = {}
    tgt: dict[int, dict[str, str]] = {}
    ids: dict[int, dict[str, str]] = {}
    nondeg: dict[int, list[str]] = {}
    for level in range(n + 1):
        fresh = ["top"] if level == n else [f"src{level}", f"tgt{level}"]
        nondeg[level] = fresh
        carried = [f"1({x})" for x in cells.get(level - 1, [])] if level > 0 else []
        cells[level] = fresh + carried
        if level > 0:
            src[level] = {}
            tgt[level] = {}
            ids[level - 1] = {}
            for x in cells[level - 1]:
                ids[level - 1][x] = f"1({x})"
                src[level][f"1({x})"] = x
                tgt[level][f"1({x})"] = x
            lower_s, lower_t = (f"src{level - 1}", f"tgt{level - 1}")
            for x in fresh:
                src[level][x] = lower_s
                tgt[level][x] = lower_t
    cat = PresentedCategory(n, cells, src, tgt, ids, {})
    cat.comp = _unit_only_tables(cat)
    cat.basis = {level: list(fresh) for level, fresh in nondeg.items()}
    return cat


def _unit_only_tables(cat: PresentedCategory) -> dict[tuple[int, int], dict[tuple[str, str], str]]:
    """Composition tables for shapes where every composable pair hits a unit."""
    comp: dict[tuple[int, int], dict[tuple[str, str], str]] = {}
    for l in range(1, cat.dimension + 1):
        for k in range(l):
            table: dict[tuple[str, str], str] = {}
            for x in cat.cells[l]:
                table[(x, cat.identity_to(cat.boundary(x, k, SRC), l))] = x
                table[(cat.identity_to(cat.boundary(x, k, TGT), l), x)] = x
            comp[(l, k)] = table
    return comp


def composable_pair(n: int, k: int) -> PresentedCategory:
    """Two n-globes glued along a k-globe, closed under composition.

    The left copy ("a") is composed after the right copy ("b"): the k-source
    of every a-cell above level k is the shared cell "mid", the k-target of
    every such b-cell likewise. Genuine composites are named "c(u,v)".
    """
    if not 0 <= k < n:
        raise LevelError(f"need 0 <= k < n, got k={k}, n={n}")

    def a(name: str) -> str:
        return f"a_{name}"

    def b(name: str) -> str:
        return f"b_{name}"

    cells: dict[int, list[str]] = {}
    src: dict[int, dict[str, str]] = {}
    tgt: dict[int, dict[str, str]] = {}
    ids: dict[int, dict[str, str]] = {}

    # Shared boundary below k, plus the glued cell at level k.
    for level in range(k + 1):
        if level == k:
            fresh = [a("end"), "mid", b("end")]  # a_end = free k-target of copy a
        else:
            fresh = [f"src{level}", f"tgt{level}"]
        carried = [f"1({x})" for x in cells.get(level - 1, [])] if level > 0 else []
        cells[level] = fresh + carried
        if level > 0:
            _wire_identities(cells, src, tgt, ids, level)
            for x in fresh:
                src[level][x] = f"src{level - 1}"
                tgt[level][x] = f"tgt{level - 1}"

    # Copy-specific cells above k, then formal composites c(u, v). The
    # identity over a composite is the composite of the identities, so only
    # non-composite cells receive fresh "1(...)" names.
    factors: dict[int, tuple[list[str], list[str]]] = {}
    for level in range(k + 1, n + 1):
        a_fresh = [a("top")] if level == n else [a(f"src{level}"), a(f"tgt{level}")]
        b_fresh = [b("top")] if level == n else [b(f"src{level}"), b(f"tgt{level}")]
        carried = [f"1({x})" for x in cells[level - 1] if _plain(x)]
        cells[level] = a_fresh + b_fresh + carried
        _wire_identities(cells, src, tgt, ids, level)
        if level == k + 1:
            for x in a_fresh:
                src[level][x] = "mid"
                tgt[level][x] = a("end")
            for x in b_fresh:
                src[level][x] = b("end")
                tgt[level][x] = "mid"
        else:
            for fresh_list, mk in ((a_fresh, a), (b_fresh, b)):
                for x in fresh_list:
                    src[level][x] = mk(f"src{level - 1}")
                    tgt[level][x] = mk(f"tgt{level - 1}")
        # Non-k-degenerate factors on each side: iterated identities of the
        # copy's own fresh cells at levels k+1 .. level.
        a_factors: list[str] = []
        b_factors: list[str] = []
        for base_level in range(k + 1, level + 1):
            height = level - base_level
            a_base = [a("top")] if base_level == n else [a(f"src{base_level}"), a(f"tgt{base_level}")]
            b_base = [b("top")] if base_level == n else [b(f"src{base_level}"), b(f"tgt{base_level}")]
            a_factors += ["1(" * height + x + ")" * height for x in a_base]
            b_factors += ["1(" * height + x + ")" * height for x in b_base]
        factors[level] = (a_factors, b_factors)
        for u in a_factors:
            for v in b_factors:
                cells[level].append(f"c({u},{v})")
        if level > k + 1:
            for u in factors[level - 1][0]:
                for v in factors[level - 1][1]:
                    ids[level - 1][f"c({u},{v})"] = f"c(1({u}),1({v}))"
        for u in a_factors:
            for v in b_factors:
                name = f"c({u},{v})"
                if level == k + 1:
                    src[level][name] = src[level][v]
                    tgt[level][name] = tgt[level][u]
                else:
                    su, sv = src[level][u], src[level][v]
                    tu, tv = tgt[level][u], tgt[level][v]
                    src[level][name] = f"c({su},{sv})"
                    tgt[level][name] = f"c({tu},{tv})"

    cat = PresentedCategory(n, cells, src, tgt, ids, {})
    comp = _unit_only_tables(cat)
    for level in range(k + 1, n + 1):
        a_factors, b_factors = factors[level]
        table = comp[(level, k)]
        for u in a_factors:
            for v in b_factors:
                table[(u, v)] = f"c({u},{v})"
        for m in list(range(k)) + list(range(k + 1, level)):
            # composites compose with composites at other levels, componentwise
            m_table = comp[(level, m)]
            for u in a_factors:
                for v in b_factors:
                    for u2 in a_factors:
                        for v2 in b_factors:
                            cu = comp[(level, m)].get((u, u2))
                            cv = comp[(level, m)].get((v, v2))
                            if (
                                cat.boundary(u, m, SRC) == cat.boundary(u2, m, TGT)
                                and cat.boundary(v, m, SRC) == cat.boundary(v2, m, TGT)
                                and cu is not None
                                and cv is not None
                            ):
                                m_table[(f"c({u},{v})", f"c({u2},{v2})")] = f"c({cu},{cv})"
    cat.comp = comp
    basis: dict[int, list[str]] = {}
    for level in range(k):
        basis[level] = [f"src{level}", f"tgt{level}"]
    basis[k] = [a("end"), "mid", b("end")]
    for level in range(k + 1, n + 1):
        if level == n:
            basis[level] = [a("top"), b("top")]
        else:
            basis[level] = [a(f"src{level}"), a(f"tgt{level}"), b(f"src{level}"), b(f"tgt{level}")]
    cat.basis = basis
    return cat


def _plain(name: str) -> bool:
    """True for cells that are not formal composites c(u,v)."""
    return not name.startswith("c(")


def _wire_identities(cells, src, tgt, ids, level: int) -> None:
    """Give every non-composite cell one level down a fresh identity cell."""
    src.setdefault(level, {})
    tgt.setdefault(level, {})
    ids.setdefault(level - 1, {})
    for x in cells[level - 1]:
        if not _plain(x):
            continue
        ids[level - 1][x] = f"1({x})"
        src[level][f"1({x})"] = x
        tgt[level][f"1({x})"] = x


# -- functors ---------------------------------------------------------------


@dataclass
class OmegaFunctor:
    source: PresentedCategory
    target: PresentedCategory
    maps: dict[int, dict[str, str]]

    def apply(self, cell: str) -> str:
        level = self.source.level_of(cell)
        try:
            return self.maps[level][cell]
        except KeyError:
            raise SchemaError(f"functor map misses {cell!r} at level {level}") from None


def validate_functor(functor: OmegaFunctor) -> ValidationReport:
    """Check level maps, boundary squares, identities, and composition."""
    f, c, d = functor, functor.source, functor.target
    if d.dimension < c.dimension:
        raise SchemaError("target dimension is lower than source dimension")
    for level in range(c.dimension + 1):
        if level not in f.maps:
            raise SchemaError(f"functor map misses level {level}")
        for cell in c.cells[level]:
            image = f.maps[level].get(cell)
            if image is None:
                raise SchemaError(f"functor map misses {cell!r} at level {level}")
            if d.level_of(image) != level:
                raise SchemaError(f"functor image {image!r} is not a {level}-cell")
    violations: list[tuple[str, tuple]] = []
    for level in range(1, c.dimension + 1):
        for x in c.cells[level]:
            fx = f.apply(x)
            if d.src[level][fx] != f.apply(c.src[level][x]):
                violations.append(("square-source", (level, x)))
            if d.tgt[level][fx] != f.apply(c.tgt[level][x]):
                violations.append(("square-target", (level, x)))
    for level in range(c.dimension):
        for x in c.cells[level]:
            if f.apply(c.ids[level][x]) != d.ids[level][f.apply(x)]:
                violations.append(("identity-preserved", (level, x)))
    for (l, k), table in sorted(c.comp.items()):
        for (x, y), res in sorted(table.items()):
            image = d.comp.get((l, k), {}).get((f.apply(x), f.apply(y)))
            if image is None or image != f.apply(res):
                violations.append(("composition-preserved", (l, k, x, y)))
    violations = sorted(set(violations), key=repr)
    return ValidationReport(ok=not violations, violations=violations)


def identity_functor(category: PresentedCategory) -> OmegaFunctor:
    maps = {
        level: {cell: cell for cell in category.cells[level]}
        for level in range(category.dimension + 1)
    }
    return OmegaFunctor(category, category, maps)


def compose_functors(outer: OmegaFunctor, inner: OmegaFunctor) -> OmegaFunctor:
    """outer after inner."""
    if outer.source is not inner.target and outer.source != inner.target:
        raise SchemaError("functors do not compose: middle categories differ")
    maps = {
        level: {cell: outer.apply(inner.apply(cell)) for cell in inner.source.cells[level]}
        for level in range(inner.source.dimension + 1)
    }
    return OmegaFunctor(inner.source, outer.target, maps)
