"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the library's evaluation paths: morphisms are found
by scanning raw dom/cod tables, and the shipped tensor semantics (meet on
the two-point poset, addition mod 2) are restated from scratch.
"""
from enrichkit.fincat import FinCategory
from enrichkit.instances import SymmetricMonoidal


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
