"""Iterated monoidal structure on a finite category, and its validator.

A structure carries n ordered tensor tables on one base category, a shared
strict unit object, associator components for every tensor, and interchange
components for every index pair i < j.  check_kfold replays every defining
diagram over every instantiating tuple of objects and morphisms:

  * bifunctoriality of each tensor,
  * strictness of the unit on objects and morphisms,
  * boundary, naturality, and the pentagon for each associator,
  * boundary, naturality, both unit conditions, and both associativity
    conditions for each interchange,
  * the hexagonal condition for every index triple i < j < k (reported as a
    vacuous family when fewer than three tensors exist).

Each family is declared once, as a name, the axes of its product row
domain and a legs function over the structure's tables in column form
(``LiftedTables``), and ``report.equations`` evaluates it a block of rows at
a time, each lookup only over the row positions it reads.

Tables equal under ``==`` are lifted once and share one column function,
and each builder returns the lifted tables its legs read.  Within one
check a family is scanned only when no earlier family of the same kind
read the same tables; otherwise the scan would repeat that family's
evaluation row for row, so it is recorded from it
(``ReportBuilder.replay``): the same count, and its witnesses renamed.  A
structure that repeats one symmetric monoidal category at every index, as
``from_symmetric`` builds, scans each kind of family once.  Likewise a
table is required complete only when no earlier table of its kind equals
it.

Associator components are additionally probed for invertibility, once per
component morphism; a non-invertible component is reported as a warning,
not a failure, because the defining axioms do not demand it (the
symmetric construction does).
"""
from __future__ import annotations

from itertools import combinations, product

from .errors import IndexOutOfRange, MalformedTable, UnknownMorphism, UnknownObject
from .fincat import FinCategory, check_category, inverse
from .report import (CheckReport, Record, ReportBuilder, const, equations,
                     lift)


class KFoldMonoidal(Record):
    __slots__ = ("base", "n", "unit", "tensor_obj_table", "tensor_mor_table",
                 "assoc_table", "interchange_table")

    def __init__(self, base: FinCategory, n: int, unit: str,
                 tensor_obj_table: dict, tensor_mor_table: dict,
                 assoc_table: dict, interchange_table: dict):
        self.base = base
        self.n = n
        self.unit = unit
        self.tensor_obj_table = tensor_obj_table    # i -> {(a, b): a⊗b}
        self.tensor_mor_table = tensor_mor_table    # i -> {(f, g): f⊗g}
        # i -> {(a, b, c): component (a⊗b)⊗c -> a⊗(b⊗c)}
        self.assoc_table = assoc_table
        # (i, j), i<j -> {(a, b, c, d): component}
        self.interchange_table = interchange_table

    def _index(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"tensor index {i} outside 1..{self.n}")
        return i

    def tensor_obj(self, i: int, a: str, b: str) -> str:
        self._index(i)
        try:
            return self.tensor_obj_table[i][(a, b)]
        except KeyError:
            raise UnknownObject(f"no tensor_{i} entry for objects ({a}, {b})")

    def tensor_mor(self, i: int, f: str, g: str) -> str:
        self._index(i)
        try:
            return self.tensor_mor_table[i][(f, g)]
        except KeyError:
            raise UnknownMorphism(f"no tensor_{i} entry for morphisms ({f}, {g})")

    def associator(self, i: int, a: str, b: str, c: str) -> str:
        self._index(i)
        try:
            return self.assoc_table[i][(a, b, c)]
        except KeyError:
            raise UnknownObject(f"no associator_{i} component at ({a}, {b}, {c})")

    def interchange_mor(self, i: int, j: int, a: str, b: str, c: str, d: str) -> str:
        if not (1 <= i < j <= self.n):
            raise IndexOutOfRange(
                f"interchange indices must satisfy 1 <= i < j <= n, got ({i}, {j})")
        try:
            return self.interchange_table[(i, j)][(a, b, c, d)]
        except KeyError:
            raise UnknownObject(
                f"no interchange_({i},{j}) component at ({a}, {b}, {c}, {d})")


class LiftedTables:
    """A structure's lookup tables in column form (see ``report.lift``).

    Tables of one kind that are equal under ``==`` share one column
    function, so ``t.tm[2] is t.tm[1]`` when the two tensors agree."""

    def __init__(self, v: KFoldMonoidal):
        cat = v.base
        self.comp, self.dom, self.cod, self.idm = (
            lift(table) for table in (cat.comp, cat.dom, cat.cod, cat.identity))
        self.to = _lift_distinct(v.tensor_obj_table)
        self.tm = _lift_distinct(v.tensor_mor_table)
        self.al = _lift_distinct(v.assoc_table)
        self.eta = _lift_distinct(v.interchange_table)


def _lift_distinct(tables: dict) -> dict:
    """``tables`` lifted, each compared only with the earlier distinct
    ones, and lifted once per distinct table."""
    lifted, distinct = {}, []
    for key, table in tables.items():
        for other, column in distinct:
            if other == table:
                break
        else:
            column = lift(table)
            distinct.append((table, column))
        lifted[key] = column
    return lifted


def _require_tables(v: KFoldMonoidal) -> None:
    cat = v.base
    objs, mors = sorted(cat.objects), sorted(cat.morphisms)
    if v.n < 1:
        raise MalformedTable("need at least one tensor")
    if v.unit not in cat.objects:
        raise MalformedTable(f"unit object {v.unit!r} is unknown")
    # A table equal to an earlier one of its kind passes as that one did.
    required = []

    def fresh(kind: str, table: dict) -> bool:
        if (kind, table) in required:
            return False
        required.append((kind, table))
        return True

    for i in range(1, v.n + 1):
        if i not in v.tensor_obj_table or i not in v.tensor_mor_table:
            raise MalformedTable(f"missing tensor tables for index {i}")
        if i not in v.assoc_table:
            raise MalformedTable(f"missing associator table for index {i}")
        if fresh("tensor_obj", v.tensor_obj_table[i]):
            for a, b in product(objs, repeat=2):
                if (a, b) not in v.tensor_obj_table[i]:
                    raise MalformedTable(
                        f"tensor_{i} missing object entry ({a}, {b})")
                if v.tensor_obj_table[i][(a, b)] not in cat.objects:
                    raise MalformedTable(
                        f"tensor_{i}({a}, {b}) is an unknown object")
        if fresh("tensor_mor", v.tensor_mor_table[i]):
            for f, g in product(mors, repeat=2):
                if (f, g) not in v.tensor_mor_table[i]:
                    raise MalformedTable(
                        f"tensor_{i} missing morphism entry ({f}, {g})")
                if v.tensor_mor_table[i][(f, g)] not in cat.morphisms:
                    raise MalformedTable(
                        f"tensor_{i}({f}, {g}) is an unknown morphism")
        if fresh("assoc", v.assoc_table[i]):
            for key in product(objs, repeat=3):
                if key not in v.assoc_table[i]:
                    raise MalformedTable(
                        f"associator_{i} missing component at {key}")
                if v.assoc_table[i][key] not in cat.morphisms:
                    raise MalformedTable(
                        f"associator_{i}{key} is an unknown morphism")
    expected = {(i, j) for i in range(1, v.n + 1) for j in range(i + 1, v.n + 1)}
    if set(v.interchange_table) != expected:
        raise MalformedTable(
            f"interchange tables keyed by {sorted(v.interchange_table)}, "
            f"expected {sorted(expected)}")
    for pair_ij, table in v.interchange_table.items():
        if not fresh("interchange", table):
            continue
        for key in product(cat.objects, repeat=4):
            if key not in table:
                raise MalformedTable(
                    f"interchange_{pair_ij} missing component at {key}")
            if table[key] not in cat.morphisms:
                raise MalformedTable(
                    f"interchange_{pair_ij}{key} is an unknown morphism")


def _tensor_diagrams(t: LiftedTables, i: int, cat: FinCategory, unit: str,
                     objs: list, mors: list) -> tuple:
    """The lifted tables read, and (name, axes, legs) of every diagram of
    tensor i and its associator."""
    comp, dom, cod, idm = t.comp, t.dom, t.cod, t.idm
    to, tm, al = t.to[i], t.tm[i], t.al[i]
    units, ids = const(unit), const(cat.identity[unit])
    pairs = cat.composable_pairs()
    first, second = (lift({p: p[n] for p in pairs}) for n in (0, 1))

    def identity(a, y):
        return [(tm(idm(a), idm(y)), idm(to(a, y)))]

    def boundary(f, g):
        fg = tm(f, g)
        return [(dom(fg), to(dom(f), dom(g))), (cod(fg), to(cod(f), cod(g)))]

    def composition(fs, gs):
        f2, f1, g2, g1 = first(fs), second(fs), first(gs), second(gs)
        return [(tm(comp(f2, f1), comp(g2, g1)),
                 comp(tm(f2, g2), tm(f1, g1)))]

    def unit_object(a):
        return [(to(a, units), a), (to(units, a), a)]

    def unit_morphism(f):
        return [(tm(f, ids), f), (tm(ids, f), f)]

    def assoc_boundary(a, y, z):
        m = al(a, y, z)
        return [(dom(m), to(to(a, y), z)), (cod(m), to(a, to(y, z)))]

    def assoc_naturality(f, g, h):
        return [(comp(al(cod(f), cod(g), cod(h)), tm(tm(f, g), h)),
                 comp(tm(f, tm(g, h)), al(dom(f), dom(g), dom(h))))]

    def pentagon(a, y, z, w):
        top = comp(tm(idm(a), al(y, z, w)),
                   comp(al(a, to(y, z), w), tm(al(a, y, z), idm(w))))
        bot = comp(al(a, y, to(z, w)), al(to(a, y), z, w))
        return [(top, bot)]

    return (to, tm, al), [
        (f"tensor-identity[{i}]", [objs] * 2, identity),
        (f"tensor-boundary[{i}]", [mors] * 2, boundary),
        (f"tensor-composition[{i}]", [pairs] * 2, composition),
        (f"unit-strict-object[{i}]", [objs], unit_object),
        (f"unit-strict-morphism[{i}]", [mors], unit_morphism),
        (f"associator-boundary[{i}]", [objs] * 3, assoc_boundary),
        (f"associator-naturality[{i}]", [mors] * 3, assoc_naturality),
        (f"pentagon[{i}]", [objs] * 4, pentagon),
    ]


def _interchange_diagrams(t: LiftedTables, i: int, j: int, unit: str,
                          objs: list, mors: list) -> tuple:
    """The lifted tables read, and (name, axes, legs) of every diagram of
    the interchange eta_ij."""
    comp, dom, cod, idm = t.comp, t.dom, t.cod, t.idm
    to_i, tm_i, al_i = t.to[i], t.tm[i], t.al[i]
    to_j, tm_j, al_j = t.to[j], t.tm[j], t.al[j]
    eta = t.eta[(i, j)]
    units = const(unit)

    def boundary(a, y, c, d):
        m = eta(a, y, c, d)
        return [(dom(m), to_i(to_j(a, y), to_j(c, d))),
                (cod(m), to_j(to_i(a, c), to_i(y, d)))]

    def internal_unit(a, y):
        want = idm(to_j(a, y))
        return [(eta(a, y, units, units), want),
                (eta(units, units, a, y), want)]

    def external_unit(a, y):
        want = idm(to_i(a, y))
        return [(eta(a, units, y, units), want),
                (eta(units, a, units, y), want)]

    def naturality(f, g, h, k):
        return [(comp(eta(cod(f), cod(g), cod(h), cod(k)),
                      tm_i(tm_j(f, g), tm_j(h, k))),
                 comp(tm_j(tm_i(f, h), tm_i(g, k)),
                      eta(dom(f), dom(g), dom(h), dom(k))))]

    def internal_assoc(u, w2, w, x, y, z):
        lhs = comp(tm_j(al_i(u, w, y), al_i(w2, x, z)),
                   comp(eta(to_i(u, w), to_i(w2, x), y, z),
                        tm_i(eta(u, w2, w, x), idm(to_j(y, z)))))
        rhs = comp(eta(u, w2, to_i(w, y), to_i(x, z)),
                   comp(tm_i(idm(to_j(u, w2)), eta(w, x, y, z)),
                        al_i(to_j(u, w2), to_j(w, x), to_j(y, z))))
        return [(lhs, rhs)]

    def external_assoc(u, w2, w, x, y, z):
        lhs = comp(al_j(to_i(u, x), to_i(w2, y), to_i(w, z)),
                   comp(tm_j(eta(u, w2, x, y), idm(to_i(w, z))),
                        eta(to_j(u, w2), w, to_j(x, y), z)))
        rhs = comp(tm_j(idm(to_i(u, x)), eta(w2, w, y, z)),
                   comp(eta(u, to_j(w2, w), x, to_j(y, z)),
                        tm_i(al_j(u, w2, w), al_j(x, y, z))))
        return [(lhs, rhs)]

    ij = f"[{i},{j}]"
    return (to_i, tm_i, al_i, to_j, tm_j, al_j, eta), [
        (f"eta-boundary{ij}", [objs] * 4, boundary),
        (f"eta-internal-unit{ij}", [objs] * 2, internal_unit),
        (f"eta-external-unit{ij}", [objs] * 2, external_unit),
        (f"eta-naturality{ij}", [mors] * 4, naturality),
        (f"eta-internal-assoc{ij}", [objs] * 6, internal_assoc),
        (f"eta-external-assoc{ij}", [objs] * 6, external_assoc),
    ]


def _hexagon(t: LiftedTables, i: int, j: int, k: int, objs: list) -> tuple:
    """The lifted tables read, and (name, axes, legs) of the hexagon of the
    index triple i < j < k."""
    comp = t.comp
    to_i, to_j, to_k = t.to[i], t.to[j], t.to[k]
    tm_i, tm_j, tm_k = t.tm[i], t.tm[j], t.tm[k]
    eta_ij, eta_ik, eta_jk = t.eta[(i, j)], t.eta[(i, k)], t.eta[(j, k)]

    def legs(a, a2, y, y2, c, c2, d, d2):
        left = comp(tm_k(eta_ij(a, y, c, d), eta_ij(a2, y2, c2, d2)),
                    comp(eta_ik(to_j(a, y), to_j(a2, y2),
                                to_j(c, d), to_j(c2, d2)),
                         tm_i(eta_jk(a, a2, y, y2), eta_jk(c, c2, d, d2))))
        right = comp(eta_jk(to_i(a, c), to_i(a2, c2),
                            to_i(y, d), to_i(y2, d2)),
                     comp(tm_j(eta_ik(a, a2, c, c2), eta_ik(y, y2, d, d2)),
                          eta_ij(to_k(a, a2), to_k(y, y2),
                                 to_k(c, c2), to_k(d, d2))))
        return [(left, right)]

    reads = (to_i, to_j, to_k, tm_i, tm_j, tm_k, eta_ij, eta_ik, eta_jk)
    return reads, [(f"hexagon[{i},{j},{k}]", [objs] * 8, legs)]


def _family_key(name: str, reads: tuple) -> tuple:
    """Families of one check with equal keys evaluate the same legs over
    the same tables: the kind of diagram, and the lifted tables read."""
    return name.split("[")[0], reads


def check_kfold(v: KFoldMonoidal, *,
                all_witnesses: bool = False) -> CheckReport:
    base_rep = check_category(v.base, all_witnesses=all_witnesses)
    if not base_rep.ok:
        out = CheckReport()
        out.merge(base_rep, prefix="base:")
        return out
    _require_tables(v)

    cat = v.base
    b = ReportBuilder(all_witnesses)
    objs = sorted(cat.objects)
    mors = sorted(cat.morphisms)
    t = LiftedTables(v)
    indices = range(1, v.n + 1)

    builders = [_tensor_diagrams(t, i, cat, v.unit, objs, mors)
                for i in indices]
    builders += [_interchange_diagrams(t, i, j, v.unit, objs, mors)
                 for i, j in sorted(v.interchange_table)]
    builders += [_hexagon(t, i, j, k, objs)
                 for i, j, k in combinations(indices, 3)]
    scanned = {}
    for reads, diagrams in builders:
        for name, axes, legs in diagrams:
            earlier = scanned.setdefault(_family_key(name, reads), name)
            b.family(name, *(equations(axes, legs) if earlier == name
                             else b.replay(earlier)))
    if v.n < 3:
        b.vacuous("hexagon")

    # Invertibility probe: warning-only, once per component morphism.
    invertible = {}
    for i in indices:
        for tri in product(objs, repeat=3):
            m = v.assoc_table[i][tri]
            if m not in invertible:
                invertible[m] = inverse(cat, m) is not None
            if not invertible[m]:
                b.warn(f"associator-invertible[{i}]", tri, m, "<no inverse>")

    return b.report()
