"""Canonical JSON document format for a whole tower of structures.

One file carries one base plus any number of named structures at every
level, so higher cells (which co-reference many lower ones) stay
self-contained.  Tables keyed by id tuples are stored as sorted rows
``[k1, ..., kn, value]``; keys are emitted sorted; the serializer is the
single formatting authority, so save(load(save(x))) is byte-identical.

The levels of the tower are one table, ``LEVELS``: each row gives a level's
``Tower`` section, its structure type, its checker, its frame (the slots
that name structures one level down, grouped as the document stores them)
and the codec of the entry's own tables.  It is the only list of levels:
``Tower``'s sections are its rows above the base, and the CLI reads its
levels and checkers from it.  Save and load walk it in level order, so the
frame names of every section are written and resolved in one place.
Types, checkers and constructions above the base are read from ``vcat``
and ``v2cat`` when an entry needs them, so a base-only document never
imports either.

Functors that occur inside a larger structure (composition functors, hom
functors of a level-2 functor, transformation components) are stored as
rows of bare ``{obj_map, hom_map}`` tables; their source and target are
determined by position and rebuilt on load.

A ``vcategories`` entry built by ``product_vcat`` is saved as a reference,
``{"product": {"index": i, "factors": [F1, F2]}}``, each F the name of
another entry or a nested reference; every other V-category is saved as
tables.  Loading rebuilds a reference with ``product_vcat``, factors
first, so its tables cannot disagree with the construction and
``check_vcategory`` certifies it as it does any product.  Each name stays
its own structure, two names for one product included.  Format
``tower/2`` added references; ``tower/1`` documents, all tables, are read
by the same parser.  The base's per-index tables are keyed exactly ``"1"``
to ``"n"``, and its interchange tables ``"i,j"`` with 1 <= i < j <= n.  A
table that repeats a row key, a JSON object that repeats a key, and any
other base key are parse errors that name the table or object by its path.
"""
from __future__ import annotations

import json
import sys
from collections import namedtuple
from importlib import import_module
from itertools import combinations

from .errors import DanglingReference, KernelError, MalformedTable, ParseError
from .fincat import FinCategory
from .kfold import KFoldMonoidal
from .report import Record, _memo

FORMAT = "tower/2"
READ_FORMATS = ("tower/1", FORMAT)


def _resolve(path: str):
    """What ``path``, ``"module.name"``, names in that enrichkit module, read
    at call time: the module is imported when a caller first reaches it, and
    a wrapper bound there since is what is returned."""
    module, name = path.split(".")
    return getattr(import_module(f".{module}", __package__), name)


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


def _vfunctor_tables(vf) -> dict:
    return {"obj_map": dict(sorted(vf.obj_map.items())),
            "hom_map": _rows(vf.hom_map)}


def _vfunctor_maps(tables, what: str, *_) -> dict:
    if not isinstance(tables, dict) or "obj_map" not in tables \
            or "hom_map" not in tables:
        raise ParseError(f"{what}: expected obj_map and hom_map")
    return {"obj_map": _name_map(tables["obj_map"], f"{what}.obj_map"),
            "hom_map": _table(tables["hom_map"], 2, f"{what}.hom_map")}


def _functor_rows(table: dict) -> list:
    """Inline functors as sorted rows [k1, ..., kn, tables]."""
    return _rows({key: _vfunctor_tables(f) for key, f in table.items()})


def _functors_from(rows, arity: int, what: str, shape: str, frame) -> dict:
    """Inline functors from rows [k1, ..., k_arity, tables], keyed as
    ``_table`` keys its values; ``frame(k1, ..., k_arity)`` gives each
    one's source and target, and a KeyError there is an unknown object."""
    from . import vcat
    out = {}
    for key, tables in _keyed(rows, arity, what, shape):
        try:
            source, target = frame(*key)
        except KeyError as err:
            raise DanglingReference(f"{what}: unknown object {err}")
        out[tuple(key) if arity > 1 else key[0]] = vcat.VFunctor(
            source, target, **_vfunctor_maps(tables, what))
    return out


def _vcategory_tables(vc) -> dict:
    return {"objects": sorted(vc.objects),
            "hom": _rows(vc.hom),
            "comp": _rows(vc.comp),
            "identity": dict(sorted(vc.identity.items()))}


def _vcategory_from(doc, base: KFoldMonoidal, what: str):
    from . import vcat
    if not isinstance(doc, dict):
        raise ParseError(f"{what}: expected an object")
    for k in ("objects", "hom", "comp", "identity"):
        if k not in doc:
            raise ParseError(f"{what}: missing {k!r}")
    return vcat.VCategory(
        base, set(_names(doc["objects"], f"{what}.objects")),
        _table(doc["hom"], 2, f"{what}.hom"),
        _table(doc["comp"], 3, f"{what}.comp"),
        _name_map(doc["identity"], f"{what}.identity"))


def _reference(registry: dict, vc):
    """``vc`` as a product reference whose factors are names in
    ``registry`` or nested references; None when it is no product, or a
    factor is neither filed in ``registry`` nor a product.  Factors are
    found by identity, as comparing tables would build lazy ones."""
    made = _resolve("vcat.made_of")(vc)
    if made is None:
        return None
    (i,), factors = made
    refs = []
    for f in factors:
        ref = _filed_as(registry, f)
        if ref is None:
            ref = _reference(registry, f)
            if ref is None:
                return None
        refs.append(ref)
    return {"product": {"index": i, "factors": refs}}


def _vcategories_from(entries, base: KFoldMonoidal) -> dict:
    """The ``vcategories`` section, by name in document order.  A reference
    is rebuilt once its factors are; a name whose product another name
    already holds gets a twin sharing its tables."""
    docs = dict(entries)
    done, resolving = {}, set()

    def named(name, where):
        if not isinstance(name, str):
            raise ParseError(f"{where}: expected a name or a product reference")
        if name in done:
            return done[name]
        if name not in docs:
            raise DanglingReference(f"{where}: no V-category named {name!r}")
        if name in resolving:
            raise ParseError(
                f"{where}: product references form a cycle through {name!r}")
        resolving.add(name)
        what, vdoc = f"vcategories.{name}", docs[name]
        if "product" not in vdoc:
            vc = _vcategory_from(vdoc, base, what)
            _check_vcat_ids(base, vc, what)
        elif len(vdoc) != 1:
            raise ParseError(f"{what}: a product reference holds no tables")
        else:
            vc = product(vdoc["product"], f"{what}.product")
            if any(vc is other for other in done.values()):
                from .vcat import VCategory
                made, vc = vc, VCategory(vc.base, vc.objects, vc.hom, vc.comp,
                                         vc.identity)
                _memo(vc, "made", lambda _: _resolve("vcat.made_of")(made))
        resolving.discard(name)
        done[name] = vc
        return vc

    def factor(value, where):
        if not isinstance(value, dict):
            return named(value, where)
        if set(value) != {"product"}:
            raise ParseError(f"{where}: expected a name or a product reference")
        return product(value["product"], f"{where}.product")

    def product(ref, where):
        ref = _object(ref, where)
        i, factors = ref.get("index"), ref.get("factors")
        if set(ref) != {"index", "factors"}:
            raise ParseError(f"{where}: expected index and factors")
        if not isinstance(i, int) or isinstance(i, bool) \
                or not 1 <= i <= base.n - 1:
            raise ParseError(f"{where}.index: expected an integer from 1 to "
                             f"{base.n - 1}")
        if not isinstance(factors, list) or len(factors) != 2:
            raise ParseError(f"{where}.factors: expected two factors")
        a, b = (factor(f, f"{where}.factors[{k}]")
                for k, f in enumerate(factors))
        from . import vcat
        try:
            return vcat.product_vcat(i, a, b)
        except (KernelError, KeyError) as err:
            raise MalformedTable(f"{where}: cannot build the product ({err})")

    for name in docs:
        named(name, "vcategories")
    return {name: done[name] for name in docs}


# -- the levels ------------------------------------------------------------------

def _components(entry: dict, what: str):
    if "components" not in entry:
        raise ParseError(f"{what}: missing components")
    return entry["components"]


def _named_components(x) -> dict:
    return {"components": dict(x.components)}


def _named_components_from(entry, what: str, *_) -> dict:
    return {"components": _name_map(_components(entry, what),
                                    f"{what}.components")}


def _v2category_tables(u) -> dict:
    return {"objects": sorted(u.objects),
            "hom": _rows({key: _vcategory_tables(vc)
                          for key, vc in u.hom.items()}),
            "comp": _functor_rows(u.comp),
            "identity": _functor_rows(u.identity)}


def _v2category_fields(entry, what, base, frame) -> dict:
    from . import vcat
    for k in ("objects", "hom", "comp", "identity"):
        if k not in entry:
            raise ParseError(f"{what}: missing {k!r}")
    objects = set(_names(entry["objects"], f"{what}.objects"))
    hom = {(a, b): _vcategory_from(tables, base, f"{what}.hom({a},{b})")
           for (a, b), tables in _keyed(entry["hom"], 2, what,
                                        "hom rows must be [a, b, tables]")}
    unit = vcat.unit_vcategory(base)
    return {"base": base, "objects": objects, "hom": hom,
            "comp": _functors_from(
                entry["comp"], 3, what, "comp rows must be [a, b, c, tables]",
                lambda a, b, c: (
                    vcat.product_vcat(1, hom[(b, c)], hom[(a, b)]),
                    hom[(a, c)])),
            "identity": _functors_from(
                entry["identity"], 1, what, "identity rows must be [a, tables]",
                lambda a: (unit, hom[(a, a)]))}


def _v2functor_fields(entry, what, base, frame) -> dict:
    if "obj_map" not in entry or "hom_map" not in entry:
        raise ParseError(f"{what}: missing obj_map/hom_map")
    obj_map = _name_map(entry["obj_map"], f"{what}.obj_map")
    source, target = frame["source"], frame["target"]
    return {"obj_map": obj_map, "hom_map": _functors_from(
        entry["hom_map"], 2, what, "hom_map rows must be [u, u', tables]",
        lambda a, b: (source.hom[(a, b)],
                      target.hom[(obj_map[a], obj_map[b])]))}


def _v2nat_fields(entry, what, base, frame) -> dict:
    from . import vcat
    t, s, unit = frame["source"], frame["target"], vcat.unit_vcategory(base)
    return {"components": _functors_from(
        _components(entry, what), 1, what, "component rows must be [u, tables]",
        lambda u: (unit, t.target.hom[(t.obj_map[u], s.obj_map[u])]))}


# Frame slots saved under one entry key: the slot's name when ``slots`` is
# None (the key is the slot), else the names of ``slots``, an object keyed by
# slot, or a list in slot order when ``listed``.  ``lower`` is the level whose
# structures the slots name.
_Group = namedtuple("_Group", "key lower slots listed", defaults=(None, False))


class _Level(namedtuple("_Level", "section typename checker frame write read",
                        defaults=((), None, None))):
    """One level of the tower: its ``Tower`` section, its structure type and
    its checker (each named, as ``_resolve`` reads it), its frame groups, and
    the codec of an entry's own tables.  ``write(structure)`` gives the
    entry's fields beside its frame names; ``read(entry, what, base, frame)``
    gives the structure type's arguments beside its frame, which maps each
    slot to the structure it names."""
    __slots__ = ()

    @property
    def kind(self) -> type:
        return _resolve(self.typename)

    def check(self, structure, **options):
        return _resolve(self.checker)(structure, **options)

    @property
    def slots(self) -> tuple:
        """The frame's (attribute, lower level) pairs, in frame order."""
        return tuple((slot, group.lower) for group in self.frame
                     for slot in group.slots or (group.key,))


def _ends(lower: str) -> tuple:
    return _Group("source", lower), _Group("target", lower)


def _cells(kinds) -> tuple:
    """The pasting's slots of ``kinds`` in its four cells, cell by cell."""
    return tuple(f"{kind}{col}" for col in (1, 2, 3, 4) for kind in kinds)


# Base and V-categories have no frame; their sections have codecs of their
# own (``tower_to_document``'s base, ``_reference``, ``_vcategories_from``).
LEVELS = {
    "base": _Level("base", "kfold.KFoldMonoidal", "kfold.check_kfold"),
    "vcategory": _Level("vcategories", "vcat.VCategory",
                        "vcat.check_vcategory"),
    "vfunctor": _Level("vfunctors", "vcat.VFunctor", "vcat.check_vfunctor",
                       _ends("vcategory"), _vfunctor_tables, _vfunctor_maps),
    "vnat": _Level("vnats", "vcat.VNatTransform", "vcat.check_vnat",
                   _ends("vfunctor"), _named_components,
                   _named_components_from),
    "v2category": _Level("v2categories", "v2cat.V2Category",
                         "v2cat.check_v2category", (), _v2category_tables,
                         _v2category_fields),
    "v2functor": _Level("v2functors", "v2cat.V2Functor",
                        "v2cat.check_v2functor", _ends("v2category"),
                        lambda vf: {"obj_map": dict(vf.obj_map),
                                    "hom_map": _functor_rows(vf.hom_map)},
                        _v2functor_fields),
    "v2nat": _Level("v2nats", "v2cat.V2NatTransform", "v2cat.check_v2nat",
                    _ends("v2functor"),
                    lambda nat: {"components": _functor_rows(nat.components)},
                    _v2nat_fields),
    "modification": _Level("modifications", "v2cat.VModification",
                           "v2cat.check_modification", _ends("v2nat"),
                           _named_components, _named_components_from),
    "pasting": _Level("pastings", "v2cat.PastingInstance",
                      "v2cat.exchange_suite", (
        _Group("categories", "v2category", ("cat_u", "cat_v", "cat_w"),
               listed=True),
        _Group("functors", "v2functor", ("f", "h", "p", "g", "k", "q")),
        _Group("nats", "v2nat", _cells(("alpha", "beta", "gamma"))),
        _Group("modifications", "modification", _cells(("mu", "nu")))),
        lambda p: {}, lambda *_: {}),
}


class Tower(Record):
    """A base, its optional symmetry, and named structures in one section per
    level above the base; each section left out starts as a fresh empty
    dict."""
    __slots__ = ("base", "symmetry",
                 *(row.section for row in list(LEVELS.values())[1:]))

    def __init__(self, base: KFoldMonoidal, symmetry: dict = None,
                 **sections):
        self.base = base
        self.symmetry = symmetry    # optional (a, b) -> morphism table
        for section in self.__slots__[2:]:
            entries = sections.pop(section, None)
            setattr(self, section, {} if entries is None else entries)
        if sections:
            raise TypeError(
                f"Tower() got an unexpected section {next(iter(sections))!r}")


# -- document <-> tower ---------------------------------------------------------

def tower_to_document(t: Tower) -> dict:
    base, cat = t.base, t.base.base
    doc_base = {
        "objects": sorted(cat.objects),
        "morphisms": sorted(cat.morphisms),
        "dom": dict(sorted(cat.dom.items())),
        "cod": dict(sorted(cat.cod.items())),
        "identity": dict(sorted(cat.identity.items())),
        "comp": _rows(cat.comp),
        "tensors": base.n,
        "unit": base.unit,
        **{section: {str(i): _rows(tables[i]) for i in range(1, base.n + 1)}
           for section, tables in (("tensor_obj", base.tensor_obj_table),
                                   ("tensor_mor", base.tensor_mor_table),
                                   ("assoc", base.assoc_table))},
        "interchange": {f"{i},{j}": _rows(tab)
                        for (i, j), tab in sorted(base.interchange_table.items())},
    }
    if t.symmetry is not None:
        doc_base["symmetry"] = _rows(t.symmetry)
    doc = {"format": FORMAT, "base": doc_base}
    if t.vcategories:
        doc["vcategories"] = {
            name: _reference(t.vcategories, vc) or _vcategory_tables(vc)
            for name, vc in sorted(t.vcategories.items())}
    for row in LEVELS.values():
        section = getattr(t, row.section)
        if row.write is not None and section:
            doc[row.section] = {
                name: {**_frame_names(t, row, structure, name),
                       **row.write(structure)}
                for name, structure in sorted(section.items())}
    return doc


def _frame_names(t: Tower, row: _Level, structure, owner: str) -> dict:
    """An entry's frame: the name in ``t`` of the structure in each slot."""
    out = {}
    for group in row.frame:
        registry = getattr(t, LEVELS[group.lower].section)
        names = {slot: _name_of(registry, getattr(structure, slot), owner,
                                group.key if group.listed else slot)
                 for slot in group.slots or (group.key,)}
        out[group.key] = (names[group.key] if group.slots is None
                          else list(names.values()) if group.listed else names)
    return out


def _filed_as(registry: dict, value):
    """The first name filed for value itself, else None."""
    return next((name for name, other in registry.items() if other is value),
                None)


def _find_name(registry: dict, value):
    """The name filed for value itself, else the first name filed for an
    equal structure, else None.  So a reference read from a document is
    saved under the name it was read from, even when another name holds an
    equal structure."""
    name = _filed_as(registry, value)
    if name is None:
        name = next((name for name, other in registry.items()
                     if other == value), None)
    return name


def _name_of(registry: dict, value, owner: str, slot: str) -> str:
    name = _find_name(registry, value)
    if name is None:
        raise DanglingReference(
            f"{owner}: {slot} is not a named structure in this document")
    return name


def _indexed(value, what: str, n: int, width: int, arity: int) -> dict:
    """A base section of per-index tables, each keyed by the one spelling
    of ``width`` increasing indices from 1 to n: "1" to "n", or "i,j".
    Every such index, or pair, has a table.  Rows equal to an earlier
    index's are not parsed again: that index's table is copied."""
    out, parsed = {}, []
    for key, rows in _object(value, what).items():
        index = [int(part) if part.isdecimal() and len(part) < 9 else 0
                 for part in key.split(",")]
        if (len(index) != width or ",".join(map(str, index)) != key
                or index != sorted(set(index))
                or not 0 < index[0] <= index[-1] <= n):
            raise ParseError(f"{what}.{key}: expected " + (
                "an index" if width == 1 else '"i,j" with i < j, each')
                + f" from 1 to {n}")
        for earlier, table in parsed:
            if earlier == rows:
                table = dict(table)
                break
        else:
            table = _table(rows, arity, f"{what}.{key}")
            parsed.append((rows, table))
        out[tuple(index) if width > 1 else index[0]] = table
    for index in combinations(range(1, n + 1), width):
        if (index if width > 1 else index[0]) not in out:
            raise ParseError(f"{what}.{','.join(map(str, index))}: missing")
    return out


def document_to_tower(doc) -> Tower:
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("format") not in READ_FORMATS:
        raise ParseError("unknown or missing format marker, expected "
                         + " or ".join(map(repr, READ_FORMATS)))
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
        if n < 1:
            raise ParseError("base.tensors: expected an integer of at least 1")
        unit = d["unit"]
        if not isinstance(unit, str):
            raise ParseError("base.unit: expected a name")
        base = KFoldMonoidal(
            cat, n, sys.intern(unit),
            _indexed(d["tensor_obj"], "base.tensor_obj", n, 1, 2),
            _indexed(d["tensor_mor"], "base.tensor_mor", n, 1, 2),
            _indexed(d["assoc"], "base.assoc", n, 1, 3),
            _indexed(d.get("interchange", {}), "base.interchange", n, 2, 4))
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"malformed base section: {err}")
    _check_base_ids(base)
    tower = Tower(base)
    if "symmetry" in d:
        tower.symmetry = _table(d["symmetry"], 2, "base.symmetry")
    tower.vcategories = _vcategories_from(_entries(doc, "vcategories"), base)
    for row in LEVELS.values():
        if row.read is None:
            continue
        section = getattr(tower, row.section)
        for name, entry in _entries(doc, row.section):
            what = f"{row.section}.{name}"
            frame = _frame_from(tower, row, entry, what)
            section[name] = row.kind(**frame,
                                     **row.read(entry, what, base, frame))
    return tower


def _frame_from(tower: Tower, row: _Level, entry: dict, what: str) -> dict:
    """The structure each frame slot of ``entry`` names, by slot."""
    out = {}
    for group in row.frame:
        registry = getattr(tower, LEVELS[group.lower].section)
        names, at = entry.get(group.key), f"{what}.{group.key}"
        if group.slots is None:
            names = {group.key: names}
        elif group.listed:
            if not isinstance(names, list) or len(names) != len(group.slots):
                raise ParseError(f"{what}: {group.key} must list three names")
            names = dict(zip(group.slots, names))
        else:
            names = _object(entry.get(group.key, {}), at)
        for k, slot in enumerate(group.slots or (group.key,)):
            name, where = names.get(slot), (
                at if group.slots is None
                else f"{at}[{k}]" if group.listed else f"{at}.{slot}")
            if not isinstance(name, str):
                raise ParseError(f"{where}: expected a structure name")
            if name not in registry:
                raise DanglingReference(f"{where}: no structure named {name!r}")
            out[slot] = registry[name]
    return out


def _entries(doc: dict, section: str):
    """(name, entry) pairs of a section; each entry is a JSON object."""
    entries = doc.get(section, {})
    if not isinstance(entries, dict):
        raise ParseError(f"{section}: expected an object of named entries")
    for name, entry in entries.items():
        if not isinstance(entry, dict):
            raise ParseError(f"{section}.{name}: expected an object")
    return entries.items()


def _check_base_ids(base: KFoldMonoidal) -> None:
    cat = base.base
    known_m = cat.morphisms
    known_o = cat.objects
    bad = [m for m in list(cat.dom) + list(cat.cod) if m not in known_m]
    if bad:
        raise DanglingReference(f"base: unknown morphisms {sorted(set(bad))}")
    if base.unit not in known_o:
        raise DanglingReference(f"base: unknown unit object {base.unit!r}")
    for tables, keys, values, what in (
            (base.tensor_obj_table, known_o, known_o, "object in tensor"),
            (base.tensor_mor_table, known_m, known_m, "morphism in tensor"),
            (base.assoc_table, known_o, known_m, "id in associator"),
            (base.interchange_table, known_o, known_m, "id in interchange")):
        checked = []
        for table in tables.values():
            if table in checked:
                continue
            checked.append(table)
            for key, val in table.items():
                if not keys.issuperset(key) or val not in values:
                    raise DanglingReference(f"base: unknown {what} row {key}")


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
    of ids in one call: in half the time on a 250 KB base-only tower."""
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


class _RepeatedKey(Exception):
    """A JSON object gives a key twice; ``loads`` finds where."""


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice raises ``_RepeatedKey``."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise _RepeatedKey
    return obj


class _Pairs(list):
    """A JSON object kept as its list of (key, value) pairs."""


def _repeated_key(node, path: str = ""):
    """The message for the first object, in the order the parser closes
    them, that repeats a key, naming its JSON path; None if none does."""
    if isinstance(node, _Pairs):
        children = [(f"{path}.{key}" if path else key, value)
                    for key, value in node]
    elif isinstance(node, list):
        children = [(f"{path}[{k}]", value) for k, value in enumerate(node)]
    else:
        return None
    for where, value in children:
        found = _repeated_key(value, where)
        if found is not None:
            return found
    if isinstance(node, _Pairs):
        seen = set()
        for key, _ in node:
            if key in seen:
                return f"{path or 'document'}: repeated key {key!r}"
            seen.add(key)
    return None


def loads(text: str) -> Tower:
    # The parser meets a repeated key as its object closes, before any later
    # syntax error; the re-parse that locates the key then raises that error.
    try:
        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except _RepeatedKey:
            raise ParseError(_repeated_key(
                json.loads(text, object_pairs_hook=_Pairs))) from None
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}", err.lineno, err.colno)
    return document_to_tower(doc)


def save(t: Tower, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(t))


def load(path) -> Tower:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
