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

Associator components are additionally probed for invertibility; a
non-invertible component is reported as a warning, not a failure, because
the defining axioms do not demand it (the symmetric construction does).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import IndexOutOfRange, MalformedTable, UnknownMorphism, UnknownObject
from .fincat import FinCategory, _c, check_category
from .report import CheckReport, ReportBuilder


@dataclass
class KFoldMonoidal:
    base: FinCategory
    n: int
    unit: str
    tensor_obj_table: dict    # i -> {(a, b): a⊗b}
    tensor_mor_table: dict    # i -> {(f, g): f⊗g}
    assoc_table: dict         # i -> {(a, b, c): component (a⊗b)⊗c -> a⊗(b⊗c)}
    interchange_table: dict   # (i, j), i<j -> {(a, b, c, d): component}

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


# -- table-level helpers (None-propagating, used only inside scans) ---------

def _to(v, i, a, b):
    if a is None or b is None:
        return None
    return v.tensor_obj_table[i].get((a, b))


def _tm(v, i, f, g):
    if f is None or g is None:
        return None
    return v.tensor_mor_table[i].get((f, g))


def _al(v, i, a, b, c):
    if a is None or b is None or c is None:
        return None
    return v.assoc_table[i].get((a, b, c))


def _eta(v, i, j, a, b, c, d):
    if a is None or b is None or c is None or d is None:
        return None
    return v.interchange_table[(i, j)].get((a, b, c, d))


def _idm(cat, a):
    if a is None:
        return None
    return cat.identity.get(a)


def _require_tables(v: KFoldMonoidal) -> None:
    cat = v.base
    if v.n < 1:
        raise MalformedTable("need at least one tensor")
    if v.unit not in cat.objects:
        raise MalformedTable(f"unit object {v.unit!r} is unknown")
    for i in range(1, v.n + 1):
        if i not in v.tensor_obj_table or i not in v.tensor_mor_table:
            raise MalformedTable(f"missing tensor tables for index {i}")
        if i not in v.assoc_table:
            raise MalformedTable(f"missing associator table for index {i}")
        for a, b in product(cat.objects, repeat=2):
            if (a, b) not in v.tensor_obj_table[i]:
                raise MalformedTable(f"tensor_{i} missing object entry ({a}, {b})")
            if v.tensor_obj_table[i][(a, b)] not in cat.objects:
                raise MalformedTable(f"tensor_{i}({a}, {b}) is an unknown object")
        for f, g in product(cat.morphisms, repeat=2):
            if (f, g) not in v.tensor_mor_table[i]:
                raise MalformedTable(f"tensor_{i} missing morphism entry ({f}, {g})")
            if v.tensor_mor_table[i][(f, g)] not in cat.morphisms:
                raise MalformedTable(f"tensor_{i}({f}, {g}) is an unknown morphism")
        for key in product(cat.objects, repeat=3):
            if key not in v.assoc_table[i]:
                raise MalformedTable(f"associator_{i} missing component at {key}")
            if v.assoc_table[i][key] not in cat.morphisms:
                raise MalformedTable(f"associator_{i}{key} is an unknown morphism")
    expected = {(i, j) for i in range(1, v.n + 1) for j in range(i + 1, v.n + 1)}
    if set(v.interchange_table) != expected:
        raise MalformedTable(
            f"interchange tables keyed by {sorted(v.interchange_table)}, "
            f"expected {sorted(expected)}")
    for pair_ij, table in v.interchange_table.items():
        for key in product(cat.objects, repeat=4):
            if key not in table:
                raise MalformedTable(
                    f"interchange_{pair_ij} missing component at {key}")
            if table[key] not in cat.morphisms:
                raise MalformedTable(
                    f"interchange_{pair_ij}{key} is an unknown morphism")


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
    unit = v.unit

    for i in range(1, v.n + 1):
        def t_id(pair, i=i):
            a, y = pair
            lhs = _tm(v, i, cat.identity[a], cat.identity[y])
            rhs = _idm(cat, _to(v, i, a, y))
            return None if lhs == rhs and lhs is not None else (lhs, rhs)
        b.family(f"tensor-identity[{i}]", product(objs, repeat=2), t_id)

        def t_boundary(pair, i=i):
            f, g = pair
            fg = _tm(v, i, f, g)
            want_dom = _to(v, i, cat.dom[f], cat.dom[g])
            want_cod = _to(v, i, cat.cod[f], cat.cod[g])
            if cat.dom[fg] != want_dom:
                return cat.dom[fg], want_dom
            if cat.cod[fg] != want_cod:
                return cat.cod[fg], want_cod
            return None
        b.family(f"tensor-boundary[{i}]", product(mors, repeat=2), t_boundary)

        comp_pairs = cat.composable_pairs()

        def t_comp(inst, i=i):
            (f2, f1), (g2, g1) = inst
            lhs = _tm(v, i, _c(cat, f2, f1), _c(cat, g2, g1))
            rhs = _c(cat, _tm(v, i, f2, g2), _tm(v, i, f1, g1))
            return None if lhs == rhs and lhs is not None else (lhs, rhs)
        b.family(f"tensor-composition[{i}]", product(comp_pairs, repeat=2),
                 t_comp)

        def unit_obj(a, i=i):
            if _to(v, i, a, unit) != a:
                return _to(v, i, a, unit), a
            if _to(v, i, unit, a) != a:
                return _to(v, i, unit, a), a
            return None
        b.family(f"unit-strict-object[{i}]", objs, unit_obj)

        def unit_mor(f, i=i):
            e = cat.identity[unit]
            if _tm(v, i, f, e) != f:
                return _tm(v, i, f, e), f
            if _tm(v, i, e, f) != f:
                return _tm(v, i, e, f), f
            return None
        b.family(f"unit-strict-morphism[{i}]", mors, unit_mor)

        triples = list(product(objs, repeat=3))  # reused by the probe below

        def a_boundary(tri, i=i):
            a, y, z = tri
            m = _al(v, i, a, y, z)
            want_dom = _to(v, i, _to(v, i, a, y), z)
            want_cod = _to(v, i, a, _to(v, i, y, z))
            if cat.dom[m] != want_dom:
                return cat.dom[m], want_dom
            if cat.cod[m] != want_cod:
                return cat.cod[m], want_cod
            return None
        b.family(f"associator-boundary[{i}]", triples, a_boundary)

        def a_natural(tri, i=i):
            f, g, h = tri
            src = (cat.dom[f], cat.dom[g], cat.dom[h])
            tgt = (cat.cod[f], cat.cod[g], cat.cod[h])
            lhs = _c(cat, _al(v, i, *tgt), _tm(v, i, _tm(v, i, f, g), h))
            rhs = _c(cat, _tm(v, i, f, _tm(v, i, g, h)), _al(v, i, *src))
            return None if lhs == rhs and lhs is not None else (lhs, rhs)
        b.family(f"associator-naturality[{i}]", product(mors, repeat=3),
                 a_natural)

        def pentagon(quad, i=i):
            a, y, z, w = quad
            top = _c(cat, _tm(v, i, cat.identity[a], _al(v, i, y, z, w)),
                     _c(cat, _al(v, i, a, _to(v, i, y, z), w),
                        _tm(v, i, _al(v, i, a, y, z), cat.identity[w])))
            bot = _c(cat, _al(v, i, a, y, _to(v, i, z, w)),
                     _al(v, i, _to(v, i, a, y), z, w))
            return None if top == bot and top is not None else (top, bot)
        b.family(f"pentagon[{i}]", product(objs, repeat=4), pentagon)

        # Invertibility probe: warning-only.
        for tri in triples:
            m = v.assoc_table[i][tri]
            has_inverse = any(
                cat.comp.get((g, m)) == cat.identity[cat.dom[m]]
                and cat.comp.get((m, g)) == cat.identity[cat.cod[m]]
                for g in cat.hom(cat.cod[m], cat.dom[m]))
            if not has_inverse:
                b.warn(f"associator-invertible[{i}]", tri, m, "<no inverse>")

    for (i, j) in sorted(v.interchange_table):
        def e_boundary(q, i=i, j=j):
            a, y, c, d = q
            m = _eta(v, i, j, a, y, c, d)
            want_dom = _to(v, i, _to(v, j, a, y), _to(v, j, c, d))
            want_cod = _to(v, j, _to(v, i, a, c), _to(v, i, y, d))
            if cat.dom[m] != want_dom:
                return cat.dom[m], want_dom
            if cat.cod[m] != want_cod:
                return cat.cod[m], want_cod
            return None
        b.family(f"eta-boundary[{i},{j}]", product(objs, repeat=4), e_boundary)

        def e_internal_unit(pair, i=i, j=j):
            a, y = pair
            want = _idm(cat, _to(v, j, a, y))
            if _eta(v, i, j, a, y, unit, unit) != want:
                return _eta(v, i, j, a, y, unit, unit), want
            if _eta(v, i, j, unit, unit, a, y) != want:
                return _eta(v, i, j, unit, unit, a, y), want
            return None
        b.family(f"eta-internal-unit[{i},{j}]", product(objs, repeat=2),
                 e_internal_unit)

        def e_external_unit(pair, i=i, j=j):
            a, y = pair
            want = _idm(cat, _to(v, i, a, y))
            if _eta(v, i, j, a, unit, y, unit) != want:
                return _eta(v, i, j, a, unit, y, unit), want
            if _eta(v, i, j, unit, a, unit, y) != want:
                return _eta(v, i, j, unit, a, unit, y), want
            return None
        b.family(f"eta-external-unit[{i},{j}]", product(objs, repeat=2),
                 e_external_unit)

        def e_natural(q, i=i, j=j):
            f, g, h, k = q
            src = (cat.dom[f], cat.dom[g], cat.dom[h], cat.dom[k])
            tgt = (cat.cod[f], cat.cod[g], cat.cod[h], cat.cod[k])
            lhs = _c(cat, _eta(v, i, j, *tgt),
                     _tm(v, i, _tm(v, j, f, g), _tm(v, j, h, k)))
            rhs = _c(cat, _tm(v, j, _tm(v, i, f, h), _tm(v, i, g, k)),
                     _eta(v, i, j, *src))
            return None if lhs == rhs and lhs is not None else (lhs, rhs)
        b.family(f"eta-naturality[{i},{j}]", product(mors, repeat=4),
                 e_natural)

        def e_internal_assoc(t, i=i, j=j):
            u, w2, w, x, y, z = t
            lhs = _c(cat, _tm(v, j, _al(v, i, u, w, y), _al(v, i, w2, x, z)),
                     _c(cat, _eta(v, i, j, _to(v, i, u, w), _to(v, i, w2, x), y, z),
                        _tm(v, i, _eta(v, i, j, u, w2, w, x),
                            _idm(cat, _to(v, j, y, z)))))
            rhs = _c(cat, _eta(v, i, j, u, w2, _to(v, i, w, y), _to(v, i, x, z)),
                     _c(cat, _tm(v, i, _idm(cat, _to(v, j, u, w2)),
                                 _eta(v, i, j, w, x, y, z)),
                        _al(v, i, _to(v, j, u, w2), _to(v, j, w, x),
                            _to(v, j, y, z))))
            return None if lhs == rhs and lhs is not None else (lhs, rhs)
        b.family(f"eta-internal-assoc[{i},{j}]", product(objs, repeat=6),
                 e_internal_assoc)

        def e_external_assoc(t, i=i, j=j):
            u, w2, w, x, y, z = t
            lhs = _c(cat, _al(v, j, _to(v, i, u, x), _to(v, i, w2, y),
                              _to(v, i, w, z)),
                     _c(cat, _tm(v, j, _eta(v, i, j, u, w2, x, y),
                                 _idm(cat, _to(v, i, w, z))),
                        _eta(v, i, j, _to(v, j, u, w2), w, _to(v, j, x, y), z)))
            rhs = _c(cat, _tm(v, j, _idm(cat, _to(v, i, u, x)),
                              _eta(v, i, j, w2, w, y, z)),
                     _c(cat, _eta(v, i, j, u, _to(v, j, w2, w), x,
                                  _to(v, j, y, z)),
                        _tm(v, i, _al(v, j, u, w2, w), _al(v, j, x, y, z))))
            return None if lhs == rhs and lhs is not None else (lhs, rhs)
        b.family(f"eta-external-assoc[{i},{j}]", product(objs, repeat=6),
                 e_external_assoc)

    if v.n < 3:
        b.vacuous("hexagon")
    else:
        for (i, j, k) in [(i, j, k)
                          for i in range(1, v.n + 1)
                          for j in range(i + 1, v.n + 1)
                          for k in range(j + 1, v.n + 1)]:
            def hexagon(t, i=i, j=j, k=k):
                a, a2, y, y2, c, c2, d, d2 = t
                left = _c(cat, _tm(v, k, _eta(v, i, j, a, y, c, d),
                                   _eta(v, i, j, a2, y2, c2, d2)),
                          _c(cat, _eta(v, i, k, _to(v, j, a, y), _to(v, j, a2, y2),
                                       _to(v, j, c, d), _to(v, j, c2, d2)),
                             _tm(v, i, _eta(v, j, k, a, a2, y, y2),
                                 _eta(v, j, k, c, c2, d, d2))))
                right = _c(cat, _eta(v, j, k, _to(v, i, a, c), _to(v, i, a2, c2),
                                     _to(v, i, y, d), _to(v, i, y2, d2)),
                           _c(cat, _tm(v, j, _eta(v, i, k, a, a2, c, c2),
                                       _eta(v, i, k, y, y2, d, d2)),
                              _eta(v, i, j, _to(v, k, a, a2), _to(v, k, y, y2),
                                   _to(v, k, c, c2), _to(v, k, d, d2))))
                return None if left == right and left is not None else (left, right)
            b.family(f"hexagon[{i},{j},{k}]", product(objs, repeat=8), hexagon)

    return b.report()
