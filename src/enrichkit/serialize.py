"""Canonical JSON document format for a whole tower of structures.

One file carries one base plus any number of named structures at every
level, so higher cells (which co-reference many lower ones) stay
self-contained.  Tables keyed by id tuples are stored as sorted rows
``[k1, ..., kn, value]``; keys are emitted sorted; the serializer is the
single formatting authority, so save(load(save(x))) is byte-identical.

Functors that occur inside a larger structure (composition functors, hom
functors of a level-2 functor, transformation components) are stored as
bare ``{obj_map, hom_map}`` tables; their source and target are determined
by position and rebuilt on load.

A document is plain tables, so after the ``vcategories`` section is read,
``vcat.recognize_products`` compares each V-category whose ids are pairs
with the products of the document's other V-categories.  One that equals a
product entry for entry is certified by ``check_vcategory`` as that product
is; the loaded tables themselves are kept, so every name stays its own
structure.  A table that repeats a row key, and a JSON object that repeats
a key, are parse errors.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from .errors import DanglingReference, ParseError
from .fincat import FinCategory
from .kfold import KFoldMonoidal
from .vcat import (VCategory, VFunctor, VNatTransform, product_vcat,
                   recognize_products, unit_vcategory)
from .v2cat import (
    PastingInstance,
    V2Category,
    V2Functor,
    V2NatTransform,
    VModification,
)

FORMAT = "tower/1"

_PASTING_FUNCTORS = ("f", "h", "p", "g", "k", "q")
_PASTING_NATS = tuple(f"{kind}{col}" for col in (1, 2, 3, 4)
                      for kind in ("alpha", "beta", "gamma"))
_PASTING_MODS = tuple(f"{kind}{col}" for col in (1, 2, 3, 4)
                      for kind in ("mu", "nu"))


@dataclass
class Tower:
    base: KFoldMonoidal
    symmetry: dict = None            # optional (a, b) -> morphism table
    vcategories: dict = field(default_factory=dict)
    vfunctors: dict = field(default_factory=dict)
    vnats: dict = field(default_factory=dict)
    v2categories: dict = field(default_factory=dict)
    v2functors: dict = field(default_factory=dict)
    v2nats: dict = field(default_factory=dict)
    modifications: dict = field(default_factory=dict)
    pastings: dict = field(default_factory=dict)


# -- encoding helpers ----------------------------------------------------------

def _rows(table: dict) -> list:
    """Table as sorted rows [k1, ..., kn, value]."""
    return sorted([*key, value] if isinstance(key, tuple) else [key, value]
                  for key, value in table.items())


def _rows_of(rows, what: str) -> list:
    if not isinstance(rows, list):
        raise ParseError(f"{what}: expected a list of rows")
    return rows


def _ids(cells):
    """``cells`` as a list of interned strings, or None if one is no string.

    The JSON decoder gives each occurrence of an id its own string object;
    interned, they all share one, so the checkers' table lookups compare
    ids by identity instead of by content.
    """
    try:
        return list(map(sys.intern, cells))
    except TypeError:
        return None


def _keyed(rows, arity: int, what: str, shape: str):
    """(key cells, last cell) of rows of ``arity`` string keys and one more
    cell; ``shape`` names the row layout in the error message."""
    seen = set()
    for row in _rows_of(rows, what):
        key = _ids(row[:-1]) \
            if isinstance(row, list) and len(row) == arity + 1 else None
        if key is None:
            raise ParseError(f"{what}: {shape}")
        if tuple(key) in seen:
            raise ParseError(f"{what}: repeated row key {key}")
        seen.add(tuple(key))
        yield key, row[-1]


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what}: expected an object")
    return value


def _names(value, what: str) -> list:
    names = _ids(value) if isinstance(value, list) else None
    if names is None:
        raise ParseError(f"{what}: expected a list of names")
    return names


def _name_map(value, what: str) -> dict:
    """A JSON object whose values are all names, copied."""
    names = _ids(_object(value, what).values())
    if names is None:
        raise ParseError(f"{what}: expected an object of names")
    return dict(zip(map(sys.intern, value), names))


def _table(rows, arity: int, what: str) -> dict:
    out = {}
    for row in _rows_of(rows, what):
        cells = _ids(row) \
            if isinstance(row, list) and len(row) == arity + 1 else None
        if cells is None:
            raise ParseError(f"{what}: expected rows of {arity + 1} strings")
        key = tuple(cells[:-1]) if arity > 1 else cells[0]
        if key in out:
            raise ParseError(f"{what}: repeated row key {cells[:-1]}")
        out[key] = cells[-1]
    return out


def _vfunctor_tables(vf: VFunctor) -> dict:
    return {"obj_map": dict(sorted(vf.obj_map.items())),
            "hom_map": _rows(vf.hom_map)}


def _vfunctor_from(tables, source: VCategory, target: VCategory,
                   what: str) -> VFunctor:
    if not isinstance(tables, dict) or "obj_map" not in tables \
            or "hom_map" not in tables:
        raise ParseError(f"{what}: expected obj_map and hom_map")
    return VFunctor(source, target,
                    _name_map(tables["obj_map"], f"{what}.obj_map"),
                    _table(tables["hom_map"], 2, f"{what}.hom_map"))


def _vcategory_tables(vc: VCategory) -> dict:
    return {"objects": sorted(vc.objects),
            "hom": _rows(vc.hom),
            "comp": _rows(vc.comp),
            "identity": dict(sorted(vc.identity.items()))}


def _vcategory_from(doc, base: KFoldMonoidal, what: str) -> VCategory:
    if not isinstance(doc, dict):
        raise ParseError(f"{what}: expected an object")
    for k in ("objects", "hom", "comp", "identity"):
        if k not in doc:
            raise ParseError(f"{what}: missing {k!r}")
    return VCategory(base, set(_names(doc["objects"], f"{what}.objects")),
                     _table(doc["hom"], 2, f"{what}.hom"),
                     _table(doc["comp"], 3, f"{what}.comp"),
                     _name_map(doc["identity"], f"{what}.identity"))


# -- document <-> tower ---------------------------------------------------------

def tower_to_document(t: Tower) -> dict:
    base = t.base
    cat = base.base
    doc_base = {
        "objects": sorted(cat.objects),
        "morphisms": sorted(cat.morphisms),
        "dom": dict(sorted(cat.dom.items())),
        "cod": dict(sorted(cat.cod.items())),
        "identity": dict(sorted(cat.identity.items())),
        "comp": _rows(cat.comp),
        "tensors": base.n,
        "unit": base.unit,
        "tensor_obj": {str(i): _rows(base.tensor_obj_table[i])
                       for i in range(1, base.n + 1)},
        "tensor_mor": {str(i): _rows(base.tensor_mor_table[i])
                       for i in range(1, base.n + 1)},
        "assoc": {str(i): _rows(base.assoc_table[i])
                  for i in range(1, base.n + 1)},
        "interchange": {f"{i},{j}": _rows(tab)
                        for (i, j), tab in sorted(base.interchange_table.items())},
    }
    if t.symmetry is not None:
        doc_base["symmetry"] = _rows(t.symmetry)
    doc = {"format": FORMAT, "base": doc_base}

    if t.vcategories:
        doc["vcategories"] = {name: _vcategory_tables(vc)
                              for name, vc in sorted(t.vcategories.items())}
    if t.vfunctors:
        doc["vfunctors"] = {
            name: {"source": _name_of(t.vcategories, vf.source, name, "source"),
                   "target": _name_of(t.vcategories, vf.target, name, "target"),
                   **_vfunctor_tables(vf)}
            for name, vf in sorted(t.vfunctors.items())}
    if t.vnats:
        doc["vnats"] = {
            name: {"source": _name_of(t.vfunctors, nat.source, name, "source"),
                   "target": _name_of(t.vfunctors, nat.target, name, "target"),
                   "components": dict(sorted(nat.components.items()))}
            for name, nat in sorted(t.vnats.items())}
    if t.v2categories:
        doc["v2categories"] = {}
        for name, u in sorted(t.v2categories.items()):
            doc["v2categories"][name] = {
                "objects": sorted(u.objects),
                "hom": sorted([a, b, _vcategory_tables(vc)]
                              for (a, b), vc in u.hom.items()),
                "comp": sorted([a, b, c, _vfunctor_tables(m2)]
                               for (a, b, c), m2 in u.comp.items()),
                "identity": sorted([a, _vfunctor_tables(j2)]
                                   for a, j2 in u.identity.items()),
            }
    if t.v2functors:
        doc["v2functors"] = {
            name: {"source": _name_of(t.v2categories, vf.source, name, "source"),
                   "target": _name_of(t.v2categories, vf.target, name, "target"),
                   "obj_map": dict(sorted(vf.obj_map.items())),
                   "hom_map": sorted([a, b, _vfunctor_tables(h)]
                                     for (a, b), h in vf.hom_map.items())}
            for name, vf in sorted(t.v2functors.items())}
    if t.v2nats:
        doc["v2nats"] = {
            name: {"source": _name_of(t.v2functors, nat.source, name, "source"),
                   "target": _name_of(t.v2functors, nat.target, name, "target"),
                   "components": sorted([u, _vfunctor_tables(c)]
                                        for u, c in nat.components.items())}
            for name, nat in sorted(t.v2nats.items())}
    if t.modifications:
        doc["modifications"] = {
            name: {"source": _name_of(t.v2nats, m.source, name, "source"),
                   "target": _name_of(t.v2nats, m.target, name, "target"),
                   "components": dict(sorted(m.components.items()))}
            for name, m in sorted(t.modifications.items())}
    if t.pastings:
        doc["pastings"] = {}
        for name, p in sorted(t.pastings.items()):
            entry = {"categories": [
                _name_of(t.v2categories, p.cat_u, name, "categories"),
                _name_of(t.v2categories, p.cat_v, name, "categories"),
                _name_of(t.v2categories, p.cat_w, name, "categories")]}
            entry["functors"] = {
                k: _name_of(t.v2functors, getattr(p, k), name, k)
                for k in _PASTING_FUNCTORS}
            entry["nats"] = {
                k: _name_of(t.v2nats, getattr(p, k), name, k)
                for k in _PASTING_NATS}
            entry["modifications"] = {
                k: _name_of(t.modifications, getattr(p, k), name, k)
                for k in _PASTING_MODS}
            doc["pastings"][name] = entry
    return doc


def _find_name(registry: dict, value):
    """The name filed for value itself, else the first name filed for an
    equal structure, else None.  So a reference read from a document is
    saved under the name it was read from, even when another name holds an
    equal structure."""
    for name, candidate in registry.items():
        if candidate is value:
            return name
    for name, candidate in registry.items():
        if candidate == value:
            return name
    return None


def _name_of(registry: dict, value, owner: str, slot: str) -> str:
    name = _find_name(registry, value)
    if name is None:
        raise DanglingReference(
            f"{owner}: {slot} is not a named structure in this document")
    return name


def document_to_tower(doc) -> Tower:
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("format") != FORMAT:
        raise ParseError(f"unknown or missing format marker, expected {FORMAT!r}")
    if "base" not in doc:
        raise ParseError("document has no base section")
    d = _object(doc["base"], "base")
    try:
        cat = FinCategory(set(_names(d["objects"], "base.objects")),
                          set(_names(d["morphisms"], "base.morphisms")),
                          _name_map(d["dom"], "base.dom"),
                          _name_map(d["cod"], "base.cod"),
                          _table(d["comp"], 2, "base.comp"),
                          _name_map(d["identity"], "base.identity"))
        n = d["tensors"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ParseError("base.tensors: expected an integer")
        unit = d["unit"]
        if not isinstance(unit, str):
            raise ParseError("base.unit: expected a name")
        base = KFoldMonoidal(
            cat, n, sys.intern(unit),
            {int(i): _table(rows, 2, "tensor_obj")
             for i, rows in _object(d["tensor_obj"], "base.tensor_obj").items()},
            {int(i): _table(rows, 2, "tensor_mor")
             for i, rows in _object(d["tensor_mor"], "base.tensor_mor").items()},
            {int(i): _table(rows, 3, "assoc")
             for i, rows in _object(d["assoc"], "base.assoc").items()},
            {tuple(int(x) for x in ij.split(",")): _table(rows, 4, "interchange")
             for ij, rows in _object(d.get("interchange", {}),
                                     "base.interchange").items()})
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"malformed base section: {err}")
    _check_base_ids(base)
    tower = Tower(base)
    if "symmetry" in d:
        tower.symmetry = _table(d["symmetry"], 2, "symmetry")

    for name, vdoc in _entries(doc, "vcategories"):
        vc = _vcategory_from(vdoc, base, f"vcategories.{name}")
        _check_vcat_ids(base, vc, f"vcategories.{name}")
        tower.vcategories[name] = vc
    recognize_products(tower.vcategories.values())

    for name, fdoc in _entries(doc, "vfunctors"):
        src = _resolve(tower.vcategories, fdoc, "source", f"vfunctors.{name}")
        tgt = _resolve(tower.vcategories, fdoc, "target", f"vfunctors.{name}")
        tower.vfunctors[name] = _vfunctor_from(fdoc, src, tgt,
                                               f"vfunctors.{name}")

    for name, ndoc in _entries(doc, "vnats"):
        src = _resolve(tower.vfunctors, ndoc, "source", f"vnats.{name}")
        tgt = _resolve(tower.vfunctors, ndoc, "target", f"vnats.{name}")
        if "components" not in ndoc:
            raise ParseError(f"vnats.{name}: missing components")
        tower.vnats[name] = VNatTransform(
            src, tgt, _name_map(ndoc["components"], f"vnats.{name}.components"))

    for name, udoc in _entries(doc, "v2categories"):
        tower.v2categories[name] = _v2category_from(udoc, base,
                                                    f"v2categories.{name}")

    for name, fdoc in _entries(doc, "v2functors"):
        src = _resolve(tower.v2categories, fdoc, "source", f"v2functors.{name}")
        tgt = _resolve(tower.v2categories, fdoc, "target", f"v2functors.{name}")
        what = f"v2functors.{name}"
        if "obj_map" not in fdoc or "hom_map" not in fdoc:
            raise ParseError(f"{what}: missing obj_map/hom_map")
        obj_map = _name_map(fdoc["obj_map"], f"{what}.obj_map")
        hom_map = {}
        for (a, b), tables in _keyed(fdoc["hom_map"], 2, what,
                                     "hom_map rows must be [u, u', tables]"):
            try:
                source = src.hom[(a, b)]
                target = tgt.hom[(obj_map[a], obj_map[b])]
            except KeyError as err:
                raise DanglingReference(f"{what}: unknown object {err}")
            hom_map[(a, b)] = _vfunctor_from(tables, source, target, what)
        tower.v2functors[name] = V2Functor(src, tgt, obj_map, hom_map)

    for name, ndoc in _entries(doc, "v2nats"):
        what = f"v2nats.{name}"
        src = _resolve(tower.v2functors, ndoc, "source", what)
        tgt = _resolve(tower.v2functors, ndoc, "target", what)
        if "components" not in ndoc:
            raise ParseError(f"{what}: missing components")
        components = {}
        for (u,), tables in _keyed(ndoc["components"], 1, what,
                                   "component rows must be [u, tables]"):
            try:
                target = src.target.hom[(src.obj_map[u], tgt.obj_map[u])]
            except KeyError as err:
                raise DanglingReference(f"{what}: unknown object {err}")
            components[u] = _vfunctor_from(
                tables, unit_vcategory(base), target, what)
        tower.v2nats[name] = V2NatTransform(src, tgt, components)

    for name, mdoc in _entries(doc, "modifications"):
        what = f"modifications.{name}"
        src = _resolve(tower.v2nats, mdoc, "source", what)
        tgt = _resolve(tower.v2nats, mdoc, "target", what)
        if "components" not in mdoc:
            raise ParseError(f"{what}: missing components")
        tower.modifications[name] = VModification(
            src, tgt, _name_map(mdoc["components"], f"{what}.components"))

    for name, pdoc in _entries(doc, "pastings"):
        what = f"pastings.{name}"
        cats = pdoc.get("categories")
        if not isinstance(cats, list) or len(cats) != 3:
            raise ParseError(f"{what}: categories must list three names")
        args = [_lookup(tower.v2categories, c, what) for c in cats]
        functors, nats, mods = (
            _object(pdoc.get(group, {}), f"{what}.{group}")
            for group in ("functors", "nats", "modifications"))
        for k in _PASTING_FUNCTORS:
            args.append(_lookup(tower.v2functors, functors.get(k), what))
        by_col = {}
        for k in _PASTING_NATS:
            by_col[k] = _lookup(tower.v2nats, nats.get(k), what)
        for k in _PASTING_MODS:
            by_col[k] = _lookup(tower.modifications, mods.get(k), what)
        for col in (1, 2, 3, 4):
            args.extend([by_col[f"alpha{col}"], by_col[f"beta{col}"],
                         by_col[f"gamma{col}"], by_col[f"mu{col}"],
                         by_col[f"nu{col}"]])
        tower.pastings[name] = PastingInstance(*args)

    return tower


def _entries(doc: dict, section: str):
    """(name, entry) pairs of a section; each entry is a JSON object."""
    entries = doc.get(section, {})
    if not isinstance(entries, dict):
        raise ParseError(f"{section}: expected an object of named entries")
    for name, entry in entries.items():
        if not isinstance(entry, dict):
            raise ParseError(f"{section}.{name}: expected an object")
    return entries.items()


def _v2category_from(udoc, base, what) -> V2Category:
    for k in ("objects", "hom", "comp", "identity"):
        if k not in udoc:
            raise ParseError(f"{what}: missing {k!r}")
    objects = set(_names(udoc["objects"], f"{what}.objects"))
    hom = {}
    for (a, b), tables in _keyed(udoc["hom"], 2, what,
                                 "hom rows must be [a, b, tables]"):
        hom[(a, b)] = _vcategory_from(tables, base, f"{what}.hom({a},{b})")
    comp = {}
    for (a, b, c), tables in _keyed(udoc["comp"], 3, what,
                                    "comp rows must be [a, b, c, tables]"):
        try:
            source = product_vcat(1, hom[(b, c)], hom[(a, b)])
            target = hom[(a, c)]
        except KeyError as err:
            raise DanglingReference(f"{what}: unknown object {err}")
        comp[(a, b, c)] = _vfunctor_from(tables, source, target, what)
    identity = {}
    for (a,), tables in _keyed(udoc["identity"], 1, what,
                               "identity rows must be [a, tables]"):
        try:
            target = hom[(a, a)]
        except KeyError as err:
            raise DanglingReference(f"{what}: unknown object {err}")
        identity[a] = _vfunctor_from(
            tables, unit_vcategory(base), target, what)
    return V2Category(base, objects, hom, comp, identity)


def _resolve(registry, doc, slot, what):
    return _lookup(registry, doc.get(slot), f"{what}.{slot}")


def _lookup(registry, name, what):
    if not isinstance(name, str):
        raise ParseError(f"{what}: expected a structure name")
    if name not in registry:
        raise DanglingReference(f"{what}: no structure named {name!r}")
    return registry[name]


def _check_base_ids(base: KFoldMonoidal) -> None:
    cat = base.base
    known_m = cat.morphisms
    known_o = cat.objects
    bad = [m for m in list(cat.dom) + list(cat.cod) if m not in known_m]
    if bad:
        raise DanglingReference(f"base: unknown morphisms {sorted(set(bad))}")
    for table in base.tensor_obj_table.values():
        for key, val in table.items():
            if any(o not in known_o for o in (*key, val)):
                raise DanglingReference(f"base: unknown object in tensor row {key}")
    for table in base.tensor_mor_table.values():
        for key, val in table.items():
            if any(m not in known_m for m in (*key, val)):
                raise DanglingReference(
                    f"base: unknown morphism in tensor row {key}")
    for table in base.assoc_table.values():
        for key, val in table.items():
            if any(o not in known_o for o in key) or val not in known_m:
                raise DanglingReference(
                    f"base: unknown id in associator row {key}")
    for table in base.interchange_table.values():
        for key, val in table.items():
            if any(o not in known_o for o in key) or val not in known_m:
                raise DanglingReference(
                    f"base: unknown id in interchange row {key}")


def _check_vcat_ids(base, vc, what) -> None:
    cat = base.base
    for key, val in vc.hom.items():
        if val not in cat.objects:
            raise DanglingReference(f"{what}: hom{key} names unknown object {val!r}")
    for key, val in vc.comp.items():
        if val not in cat.morphisms:
            raise DanglingReference(
                f"{what}: comp{key} names unknown morphism {val!r}")
    for key, val in vc.identity.items():
        if val not in cat.morphisms:
            raise DanglingReference(
                f"{what}: identity[{key}] names unknown morphism {val!r}")


# -- file API --------------------------------------------------------------------

def dumps(t: Tower) -> str:
    """The canonical text: ``json.dumps(doc, sort_keys=True, indent=2)``
    and a newline, byte for byte.  ``indent`` selects json's pure-Python
    encoder, so ``_write`` writes the same text directly, joining each list
    of ids in one call."""
    out = []
    _write(tower_to_document(t), "\n", out)
    out.append("\n")
    return "".join(out)


_encode = json.encoder.encode_basestring_ascii


def _write(value, newline: str, out: list) -> None:
    """Append ``value``'s indented JSON to ``out``; ``newline`` starts a
    line at the value's own depth."""
    inner = newline + "  "
    if isinstance(value, str):
        out.append(_encode(value))
    elif isinstance(value, dict):
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + _encode(key) + ": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}" if value else "{}")
    elif isinstance(value, list):
        try:    # a row, or a list of names: strings only
            out.append("[" + inner + ("," + inner).join(map(_encode, value))
                       + newline + "]" if value else "[]")
        except TypeError:
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _write(item, inner, out)
                sep = "," + inner
            out.append(newline + "]")
    else:
        out.append(json.dumps(value))


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice is a parse error."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"repeated key {key!r} in a JSON object")
            seen.add(key)
    return obj


def loads(text: str) -> Tower:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}", err.lineno, err.colno)
    return document_to_tower(doc)


def save(t: Tower, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(t))


def load(path) -> Tower:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
