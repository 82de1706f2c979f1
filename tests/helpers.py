"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the library's evaluation paths: morphisms are found
by scanning raw dom/cod tables, and the shipped tensor semantics (meet on
the two-point poset, addition mod 2) are restated from scratch.
"""
from enrichkit.errors import KernelError
from enrichkit.fincat import FinCategory
from enrichkit.instances import SymmetricMonoidal, from_symmetric
from enrichkit.kfold import KFoldMonoidal
from enrichkit.vcat import VCategory


def thin_morphism(cat: FinCategory, a: str, b: str):
    """The unique morphism a -> b by raw table scan; None if absent."""
    found = [m for m in sorted(cat.morphisms)
             if cat.dom[m] == a and cat.cod[m] == b]
    assert len(found) <= 1, f"hom({a},{b}) is not thin: {found}"
    return found[0] if found else None


def meet(a: str, b: str) -> str:
    return "top" if a == "top" and b == "top" else "bot"


def add2(a: str, b: str) -> str:
    return str((int(a) + int(b)) % 2)


def replaced(record, **changes):
    """A new record of ``record``'s class, its fields copied but for
    ``changes``; the new record's memo starts empty."""
    fields = {name: getattr(record, name) for name in record.__slots__}
    return type(record)(**{**fields, **changes})


def deloop(p: int) -> KFoldMonoidal:
    """B(Z/p): one object, morphisms g0..g{p-1} under addition mod p,
    replicated into two tensors."""
    g = [f"g{i}" for i in range(p)]
    add = {(g[i], g[j]): g[(i + j) % p] for i in range(p) for j in range(p)}
    cat = FinCategory({"*"}, set(g), dict.fromkeys(g, "*"),
                      dict.fromkeys(g, "*"), add, {"*": "g0"})
    return from_symmetric(SymmetricMonoidal(
        cat, "*", {("*", "*"): "*"}, add, {("*", "*", "*"): "g0"},
        {("*", "*"): "g0"}), 2)


def grid(d: int, p: int, sign: bool) -> SymmetricMonoidal:
    """Z/d x B(Z/p): objects a0..a{d-1} under addition mod d, each
    hom(a, a) the group Z/p (morphisms a<i>g0..a<i>g{p-1}), tensored by
    adding both parts; the associator is the identity, and the symmetry at
    (ai, aj) is the element ij mod 2 when ``sign`` (p = 2, d even), else 0."""
    objs = [f"a{i}" for i in range(d)]
    mors = {(i, x): f"a{i}g{x}" for i in range(d) for x in range(p)}
    dom = {m: objs[i] for (i, _), m in mors.items()}
    cat = FinCategory(
        set(objs), set(dom), dom, dict(dom),
        {(mors[i, x], mors[i, y]): mors[i, (x + y) % p]
         for i in range(d) for x in range(p) for y in range(p)},
        {a: mors[i, 0] for i, a in enumerate(objs)})
    return SymmetricMonoidal(
        cat, "a0",
        {(objs[i], objs[j]): objs[(i + j) % d]
         for i in range(d) for j in range(d)},
        {(f, g): mors[(i + j) % d, (x + y) % p]
         for (i, x), f in mors.items() for (j, y), g in mors.items()},
        {(objs[i], objs[j], objs[k]): mors[(i + j + k) % d, 0]
         for i in range(d) for j in range(d) for k in range(d)},
        {(objs[i], objs[j]): mors[(i + j) % d, i * j % 2 if sign else 0]
         for i in range(d) for j in range(d)})


def rewire(table: dict, key, value) -> dict:
    """Copy of a table with one entry redirected."""
    out = dict(table)
    assert key in out
    out[key] = value
    return out


def idempotent_monoid_category() -> FinCategory:
    """One object, morphisms {e, a} with a.a = a: the smallest category where
    a composition entry can be rewired without touching any boundary."""
    objects = {"*"}
    morphisms = {"e", "a"}
    dom = {"e": "*", "a": "*"}
    cod = dict(dom)
    comp = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"}
    return FinCategory(objects, morphisms, dom, cod, comp, {"*": "e"})


def zmod_symmetric(n: int) -> SymmetricMonoidal:
    """Z/n under addition as a discrete symmetric monoidal category: objects
    z0..z{n-1}, identities only, so every coherence component is the
    identity of its source."""
    objs = [f"z{v}" for v in range(n)]
    ident = {a: f"id_{a}" for a in objs}
    dom = {m: a for a, m in ident.items()}
    cat = FinCategory(set(objs), set(dom), dom, dict(dom),
                      {(m, m): m for m in dom}, ident)
    add = {(a, b): objs[(objs.index(a) + objs.index(b)) % n]
           for a in objs for b in objs}
    return SymmetricMonoidal(
        cat, "z0", add,
        {(ident[a], ident[b]): ident[c] for (a, b), c in add.items()},
        {(a, b, c): ident[add[add[a, b], c]]
         for a in objs for b in objs for c in objs},
        {key: ident[c] for key, c in add.items()})


def chain(top: int, *ops) -> KFoldMonoidal:
    """The chain "0".."top" with an arrow x -> y iff x >= y, unit "0", and
    one tensor per operation: tensor i is ``ops[i - 1]`` on the integers.
    The associators are identities and each interchange is the unique
    arrow; an operation that is not monotone, or an interchange with no
    arrow, raises KeyError here."""
    objs = [str(v) for v in range(top + 1)]
    arrow = {(x, y): f"{x}>{y}" for x in objs for y in objs if int(x) >= int(y)}
    dom = {m: x for (x, _), m in arrow.items()}
    cod = {m: y for (_, y), m in arrow.items()}
    ident = {x: arrow[(x, x)] for x in objs}
    cat = FinCategory(set(objs), set(arrow.values()), dom, cod,
                      {(arrow[(y, z)], arrow[(x, y)]): arrow[(x, z)]
                       for (x, y) in arrow for (y2, z) in arrow if y == y2},
                      ident)

    def op(i, x, y):
        return str(ops[i - 1](int(x), int(y)))

    tensors = range(1, len(ops) + 1)
    return KFoldMonoidal(
        cat, len(ops), "0",
        {i: {(x, y): op(i, x, y) for x in objs for y in objs} for i in tensors},
        {i: {(f, g): arrow[(op(i, dom[f], dom[g]), op(i, cod[f], cod[g]))]
             for f in dom for g in dom} for i in tensors},
        {i: {(a, b, c): ident[op(i, op(i, a, b), c)] for a in objs
             for b in objs for c in objs} for i in tensors},
        {(i, j): {(a, b, c, d): arrow[(op(i, op(j, a, b), op(j, c, d)),
                                       op(j, op(i, a, c), op(i, b, d)))]
                  for a in objs for b in objs for c in objs for d in objs}
         for i in tensors for j in tensors if i < j})


def capped_chain(top: int, k: int) -> KFoldMonoidal:
    """The capped max-plus chain: tensor 1 is addition truncated at top and
    tensors 2..k are max.  Its tensors differ, so a construction that reads
    the wrong tensor index lands on another object."""
    return chain(top, lambda x, y: min(x + y, top), *[max] * (k - 1))


# Two non-commutative operations on the chain "0".."3", both with unit 0
# and absorbing 3.  ``chain_m`` has 1·1 = 1, 1·2 = 3, 2·1 = 2, 2·2 = 3;
# ``chain_d`` sends every other pair to 3.
_M = {(1, 1): 1, (1, 2): 3, (2, 1): 2, (2, 2): 3}


def chain_m(x: int, y: int) -> int:
    return x + y if 0 in (x, y) else _M.get((x, y), 3)


def chain_d(x: int, y: int) -> int:
    return x + y if 0 in (x, y) else 3


def two_point_spaces(base: KFoldMonoidal) -> list:
    """Every V-category on the objects p, q with hom(x, x) = "0" over a
    chain ``base``: one per pair of distances, in order."""
    points = [str(v) for v in range(len(base.base.objects))]
    return [metric_space(base, {("p", "q"): pq, ("q", "p"): qp})
            for pq in points for qp in points]


def metric_space(base: KFoldMonoidal, distance: dict) -> VCategory:
    """A Lawvere metric space over ``capped_chain``: hom(a, b) is the
    distance, "0" from a point to itself; composition and identities are
    the unique arrows, which exist when the triangle inequality holds."""
    objects = sorted({a for pair in distance for a in pair})
    hom = {(a, b): "0" if a == b else distance[(a, b)]
           for a in objects for b in objects}
    comp = {(a, b, c): thin_morphism(
        base.base, base.tensor_obj_table[1][(hom[(b, c)], hom[(a, b)])],
        hom[(a, c)]) for a in objects for b in objects for c in objects}
    return VCategory(base, set(objects), hom, comp,
                     {a: thin_morphism(base.base, "0", "0") for a in objects})


def outcome(check, structure):
    """A report field by field, families in order, or the error it raised:
    what a certificate must reproduce of the scan."""
    try:
        rep = check(structure)
    except KernelError as err:
        return f"{type(err).__name__}: {err}"
    return rep.witnesses, list(rep.families.items()), rep.warnings
