"""Command-line runner: check, construct, corpus, fuzz.

Exit codes are a stable contract: 0 when every selected check passes,
1 when any axiom fails (with a witness printed), 2 on input errors
(unparsable documents, dangling names, malformed tables, bad arguments).

Reports are deterministic for a given input and flag set.  The human format
prints one line per diagram family; ``--machine`` emits the same stream as
line-delimited JSON records, documented in the README.  Every diagram
family is one sequential scan.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from . import instances
from .errors import (
    AgreementFailure,
    BaseInvalid,
    ConstructionFailed,
    DanglingReference,
    InvalidPasting,
    KernelError,
    LowerLevelInvalid,
    MalformedTable,
    NotComposable,
    NotParallel,
    ParseError,
    SourceTargetInvalid,
)
from .kfold import check_kfold
from .report import CheckReport
from .serialize import Tower, load, save
from .vcat import (
    assoc_vcat,
    check_vcategory,
    check_vfunctor,
    check_vnat,
    compose_vfunctor,
    compose_vnat_vert,
    identity_vfunctor,
    identity_vnat,
    interchange_vcat,
    product_vcat,
    product_vfunctor,
    product_vnat,
    unit_vcategory,
    whisker_vnat,
)
from .v2cat import (
    check_modification,
    check_v2category,
    check_v2functor,
    check_v2nat,
    compose_nat_along_functor,
    compose_v2functors,
    exchange_suite,
    hcomp_modifications_along_nat,
    hcomp_mods_along_category,
    hcomp_nats_along_category,
    id_modification,
    id_nat,
    identity_v2functor,
    product_v2cat,
    unit_v2category,
    vcomp_modifications,
    whisker_functor_mod,
    whisker_functor_nat,
    whisker_mod_functor,
    whisker_mod_nat_along_category,
    whisker_nat_functor,
    whisker_nat_mod_along_category,
    whisker_nat_mod_left,
    whisker_nat_mod_right,
)

LEVELS = ("base", "vcategory", "vfunctor", "vnat", "v2category",
          "v2functor", "v2nat", "modification", "pasting")


class _Reporter:
    def __init__(self, machine: bool):
        self.machine = machine
        self.failed = False

    def emit(self, structure: str, report: CheckReport) -> None:
        if not report.ok:
            self.failed = True
        by_family = {}
        for w in report.witnesses:
            by_family.setdefault(w.diagram, []).append(w)
        for family in sorted(report.families):
            count = report.families[family]
            hits = by_family.get(family, [])
            witness = hits[0] if hits else None
            if self.machine:
                record = {"kind": "family", "structure": structure,
                          "family": family, "checked": count,
                          "status": "fail" if witness else "pass"}
                if count == 0:
                    record["status"] = "vacuous"
                if witness:
                    record["witness"] = {"instance": list(witness.instance),
                                         "lhs": witness.lhs, "rhs": witness.rhs}
                print(json.dumps(record, sort_keys=True))
                for extra in hits[1:]:
                    print(json.dumps({"kind": "witness", "structure": structure,
                                      "family": family,
                                      "instance": list(extra.instance),
                                      "lhs": extra.lhs, "rhs": extra.rhs},
                                     sort_keys=True))
            else:
                if witness:
                    print(f"[{structure}] {family}: FAIL at "
                          f"{witness.instance} lhs={witness.lhs} "
                          f"rhs={witness.rhs}")
                    for extra in hits[1:]:
                        print(f"[{structure}] {family}: also at "
                              f"{extra.instance} lhs={extra.lhs} "
                              f"rhs={extra.rhs}")
                elif count == 0:
                    print(f"[{structure}] {family}: vacuous")
                else:
                    print(f"[{structure}] {family}: pass ({count} instances)")
        for warning in report.warnings:
            if self.machine:
                print(json.dumps({"kind": "warning", "structure": structure,
                                  "family": warning.diagram,
                                  "instance": list(warning.instance),
                                  "detail": warning.lhs}, sort_keys=True))
            else:
                print(f"[{structure}] warning {warning.diagram}: "
                      f"{warning.instance} {warning.lhs}")

    def note(self, structure: str, message: str, failure: bool = True) -> None:
        if failure:
            self.failed = True
        if self.machine:
            print(json.dumps({"kind": "note", "structure": structure,
                              "message": message,
                              "status": "fail" if failure else "info"},
                             sort_keys=True))
        else:
            tag = "FAIL" if failure else "note"
            print(f"[{structure}] {tag}: {message}")


def _checks_for(tower: Tower):
    """(level, label, checker, structure) for everything in the tower."""
    yield "base", "base", check_kfold, tower.base
    for level, section, checker in (
            ("vcategory", tower.vcategories, check_vcategory),
            ("vfunctor", tower.vfunctors, check_vfunctor),
            ("vnat", tower.vnats, check_vnat),
            ("v2category", tower.v2categories, check_v2category),
            ("v2functor", tower.v2functors, check_v2functor),
            ("v2nat", tower.v2nats, check_v2nat),
            ("modification", tower.modifications, check_modification),
            ("pasting", tower.pastings, exchange_suite)):
        for name, structure in sorted(section.items()):
            yield level, f"{level}:{name}", checker, structure


def _run_check(args) -> int:
    try:
        tower = load(args.path)
    except FileNotFoundError:
        print(f"error: no such file: {args.path}", file=sys.stderr)
        return 2
    except KernelError as err:
        # Unparsable, dangling, or so malformed that derived structures
        # cannot even be rebuilt: an input error either way.
        print(f"error: {err}", file=sys.stderr)
        return 2

    rep = _Reporter(args.machine)
    try:
        for level, label, checker, structure in _checks_for(tower):
            if args.level != "all" and level != args.level:
                continue
            try:
                rep.emit(label, checker(structure,
                                        all_witnesses=args.all_witnesses))
            except (BaseInvalid, LowerLevelInvalid, SourceTargetInvalid) as err:
                rep.note(label, f"skipped, constituent invalid: {err}")
            except (AgreementFailure, NotComposable, NotParallel) as err:
                rep.note(label, f"route disagreement: {err}")
            except InvalidPasting as err:
                print(f"error: {label}: {err}", file=sys.stderr)
                return 2
    except (MalformedTable, ParseError, DanglingReference) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.fuzz:
        code = _run_fuzz_checks(tower, args, rep)
        if code:
            return code
    return 1 if rep.failed else 0


def _run_fuzz_checks(tower: Tower, args, rep: _Reporter) -> int:
    base = tower.base
    # Two-object inputs keep the iterated products (quartic pentagon scans)
    # at a size the check budget tolerates.
    bounds = instances.Bounds(max_objects=2)
    made = 0
    for k in range(args.fuzz):
        seed = args.seed + k
        try:
            a = instances.random_instance("vcategory", seed, bounds, base=base)
            b = instances.random_instance("vcategory", seed + 10_000, bounds,
                                          base=base)
        except instances.BudgetExhausted as err:
            rep.note(f"fuzz[{k}]", f"generation budget exhausted: {err}",
                     failure=False)
            continue
        made += 1
        for i in range(1, base.n):
            rep.emit(f"fuzz[{k}]:product[{i}]",
                     check_vcategory(product_vcat(i, a, b)))
            rep.emit(f"fuzz[{k}]:assoc[{i}]",
                     check_vfunctor(assoc_vcat(i, a, b, a)))
        for i in range(1, base.n):
            for j in range(i + 1, base.n):
                rep.emit(f"fuzz[{k}]:interchange[{i},{j}]",
                         check_vfunctor(interchange_vcat(i, j, a, b, a, b)))
    rep.note("fuzz", f"generated {made} instance pairs (seed {args.seed})",
             failure=False)
    return 0


CONSTRUCTIONS = {}


def _construction(name):
    def register(fn):
        CONSTRUCTIONS[name] = fn
        return fn
    return register


def _get(section: dict, name: str, what: str):
    """Inputs must exist at the right level; a miss fails the construction."""
    if name not in section:
        raise ConstructionFailed(f"no {what} named {name!r}")
    return section[name]


@_construction("unit-vcategory")
def _c_unit_vcat(tower, args):
    return unit_vcategory(tower.base)


@_construction("product-vcat")
def _c_product_vcat(tower, args):
    a, b = (_get(tower.vcategories, n, "vcategory") for n in args.inputs)
    return product_vcat(args.index, a, b)


@_construction("product-vfunctor")
def _c_product_vfunctor(tower, args):
    t, s = (_get(tower.vfunctors, n, "vfunctor") for n in args.inputs)
    return product_vfunctor(args.index, t, s)


@_construction("product-vnat")
def _c_product_vnat(tower, args):
    s, t = (_get(tower.vnats, n, "vnat") for n in args.inputs)
    return product_vnat(args.index, s, t)


@_construction("assoc-vcat")
def _c_assoc_vcat(tower, args):
    a, b, c = (_get(tower.vcategories, n, "vcategory") for n in args.inputs)
    return assoc_vcat(args.index, a, b, c)


@_construction("interchange-vcat")
def _c_interchange_vcat(tower, args):
    cats = [_get(tower.vcategories, n, "vcategory") for n in args.inputs]
    return interchange_vcat(args.index, args.index2, *cats)


@_construction("compose-vfunctor")
def _c_compose_vfunctor(tower, args):
    s, t = (_get(tower.vfunctors, n, "vfunctor") for n in args.inputs)
    return compose_vfunctor(s, t)


@_construction("identity-vfunctor")
def _c_identity_vfunctor(tower, args):
    return identity_vfunctor(_get(tower.vcategories, args.inputs[0],
                                  "vcategory"))


@_construction("identity-vnat")
def _c_identity_vnat(tower, args):
    return identity_vnat(_get(tower.vfunctors, args.inputs[0], "vfunctor"))


@_construction("compose-vnat-vert")
def _c_compose_vnat(tower, args):
    b, a = (_get(tower.vnats, n, "vnat") for n in args.inputs)
    return compose_vnat_vert(b, a)


@_construction("whisker-vnat")
def _c_whisker_vnat(tower, args):
    f = _get(tower.vfunctors, args.inputs[0], "vfunctor")
    a = _get(tower.vnats, args.inputs[1], "vnat")
    return whisker_vnat(args.side, f, a)


@_construction("from-symmetric")
def _c_from_symmetric(tower, args):
    if tower.symmetry is None:
        raise ConstructionFailed("document base carries no symmetry table")
    base = tower.base
    sym = instances.SymmetricMonoidal(
        base.base, base.unit, base.tensor_obj_table[1],
        base.tensor_mor_table[1], base.assoc_table[1], tower.symmetry)
    return instances.from_symmetric(sym, args.index)


@_construction("unit-v2category")
def _c_unit_v2cat(tower, args):
    return unit_v2category(tower.base)


@_construction("product-v2cat")
def _c_product_v2cat(tower, args):
    u, w = (_get(tower.v2categories, n, "v2category") for n in args.inputs)
    return product_v2cat(args.index, u, w)


@_construction("compose-v2functors")
def _c_compose_v2functors(tower, args):
    s, t = (_get(tower.v2functors, n, "v2functor") for n in args.inputs)
    return compose_v2functors(s, t)


@_construction("identity-v2functor")
def _c_identity_v2functor(tower, args):
    return identity_v2functor(_get(tower.v2categories, args.inputs[0],
                                   "v2category"))


@_construction("id-nat")
def _c_id_nat(tower, args):
    return id_nat(_get(tower.v2functors, args.inputs[0], "v2functor"))


@_construction("compose-nat-along-functor")
def _c_compose_nat(tower, args):
    b, g = (_get(tower.v2nats, n, "v2nat") for n in args.inputs)
    return compose_nat_along_functor(b, g)


@_construction("id-modification")
def _c_id_modification(tower, args):
    return id_modification(_get(tower.v2nats, args.inputs[0], "v2nat"))


@_construction("vcomp-modifications")
def _c_vcomp_modifications(tower, args):
    n, m = (_get(tower.modifications, x, "modification") for x in args.inputs)
    return vcomp_modifications(n, m)


@_construction("whisker-nat-mod-left")
def _c_whisker_nat_mod_left(tower, args):
    g = _get(tower.v2nats, args.inputs[0], "v2nat")
    m = _get(tower.modifications, args.inputs[1], "modification")
    return whisker_nat_mod_left(g, m)


@_construction("whisker-nat-mod-right")
def _c_whisker_nat_mod_right(tower, args):
    m = _get(tower.modifications, args.inputs[0], "modification")
    r = _get(tower.v2nats, args.inputs[1], "v2nat")
    return whisker_nat_mod_right(m, r)


@_construction("hcomp-mods")
def _c_hcomp_mods(tower, args):
    n, m = (_get(tower.modifications, x, "modification") for x in args.inputs)
    return hcomp_modifications_along_nat(n, m)


@_construction("whisker-functor-nat")
def _c_whisker_functor_nat(tower, args):
    g = _get(tower.v2functors, args.inputs[0], "v2functor")
    a = _get(tower.v2nats, args.inputs[1], "v2nat")
    return whisker_functor_nat(g, a)


@_construction("whisker-nat-functor")
def _c_whisker_nat_functor(tower, args):
    g = _get(tower.v2nats, args.inputs[0], "v2nat")
    h = _get(tower.v2functors, args.inputs[1], "v2functor")
    return whisker_nat_functor(g, h)


@_construction("hcomp-nats")
def _c_hcomp_nats(tower, args):
    g, a = (_get(tower.v2nats, n, "v2nat") for n in args.inputs)
    return hcomp_nats_along_category(g, a)


@_construction("whisker-functor-mod")
def _c_whisker_functor_mod(tower, args):
    k = _get(tower.v2functors, args.inputs[0], "v2functor")
    m = _get(tower.modifications, args.inputs[1], "modification")
    return whisker_functor_mod(k, m)


@_construction("whisker-mod-functor")
def _c_whisker_mod_functor(tower, args):
    n = _get(tower.modifications, args.inputs[0], "modification")
    f = _get(tower.v2functors, args.inputs[1], "v2functor")
    return whisker_mod_functor(n, f)


@_construction("whisker-nat-mod-category")
def _c_whisker_nat_mod_category(tower, args):
    r = _get(tower.v2nats, args.inputs[0], "v2nat")
    m = _get(tower.modifications, args.inputs[1], "modification")
    return whisker_nat_mod_along_category(r, m)


@_construction("whisker-mod-nat-category")
def _c_whisker_mod_nat_category(tower, args):
    n = _get(tower.modifications, args.inputs[0], "modification")
    a = _get(tower.v2nats, args.inputs[1], "v2nat")
    return whisker_mod_nat_along_category(n, a)


@_construction("hcomp-mods-category")
def _c_hcomp_mods_category(tower, args):
    n, m = (_get(tower.modifications, x, "modification") for x in args.inputs)
    return hcomp_mods_along_category(n, m)


def _store_result(tower: Tower, result, name: str) -> CheckReport:
    """Validate and file a construction result, naming its dependencies."""
    from .vcat import VCategory, VFunctor, VNatTransform
    from .v2cat import V2Category, V2Functor, V2NatTransform, VModification
    from .kfold import KFoldMonoidal

    if isinstance(result, KFoldMonoidal):
        report = check_kfold(result)
        if report.ok:
            tower.base = result
            tower.vcategories.clear()
            tower.vfunctors.clear()
            tower.vnats.clear()
            tower.v2categories.clear()
            tower.v2functors.clear()
            tower.v2nats.clear()
            tower.modifications.clear()
            tower.pastings.clear()
        return report
    if isinstance(result, VCategory):
        report = check_vcategory(result)
        if report.ok:
            tower.vcategories[name] = result
        return report
    if isinstance(result, VFunctor):
        report = check_vfunctor(result)
        if report.ok:
            _ensure_named(tower.vcategories, result.source, f"{name}.source")
            _ensure_named(tower.vcategories, result.target, f"{name}.target")
            tower.vfunctors[name] = result
        return report
    if isinstance(result, VNatTransform):
        report = check_vnat(result)
        if report.ok:
            _file_vfunctor(tower, result.source, f"{name}.source")
            _file_vfunctor(tower, result.target, f"{name}.target")
            tower.vnats[name] = result
        return report
    if isinstance(result, V2Category):
        report = check_v2category(result)
        if report.ok:
            tower.v2categories[name] = result
        return report
    if isinstance(result, V2Functor):
        report = check_v2functor(result)
        if report.ok:
            _file_v2functor(tower, result, name)
        return report
    if isinstance(result, V2NatTransform):
        report = check_v2nat(result)
        if report.ok:
            _file_v2nat(tower, result, name)
        return report
    if isinstance(result, VModification):
        report = check_modification(result)
        if report.ok:
            _file_v2nat(tower, result.source, f"{name}.source")
            _file_v2nat(tower, result.target, f"{name}.target")
            tower.modifications[name] = result
        return report
    raise ConstructionFailed(f"cannot file a result of type {type(result)}")


def _ensure_named(registry: dict, value, hint: str) -> str:
    for existing, candidate in registry.items():
        if candidate is value or candidate == value:
            return existing
    registry[hint] = value
    return hint


def _file_vfunctor(tower, vf, hint):
    _ensure_named(tower.vcategories, vf.source, f"{hint}.source")
    _ensure_named(tower.vcategories, vf.target, f"{hint}.target")
    return _ensure_named(tower.vfunctors, vf, hint)


def _file_v2functor(tower, vf, hint):
    _ensure_named(tower.v2categories, vf.source, f"{hint}.source")
    _ensure_named(tower.v2categories, vf.target, f"{hint}.target")
    return _ensure_named(tower.v2functors, vf, hint)


def _file_v2nat(tower, nat, hint):
    _file_v2functor(tower, nat.source, f"{hint}.source")
    _file_v2functor(tower, nat.target, f"{hint}.target")
    return _ensure_named(tower.v2nats, nat, hint)


def _file_modification(tower, mod, hint):
    _file_v2nat(tower, mod.source, f"{hint}.source")
    _file_v2nat(tower, mod.target, f"{hint}.target")
    return _ensure_named(tower.modifications, mod, hint)


def _run_construct(args) -> int:
    try:
        tower = load(args.path)
    except FileNotFoundError:
        print(f"error: no such file: {args.path}", file=sys.stderr)
        return 2
    except KernelError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.construction not in CONSTRUCTIONS:
        print(f"error: unknown construction {args.construction!r}; "
              f"available: {', '.join(sorted(CONSTRUCTIONS))}", file=sys.stderr)
        return 2
    try:
        result = CONSTRUCTIONS[args.construction](tower, args)
        report = _store_result(tower, result, args.name)
    except (ParseError, DanglingReference) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ConstructionFailed, KernelError) as err:
        print(f"construction failed: {err}", file=sys.stderr)
        return 1
    except (TypeError, ValueError) as err:
        print(f"error: bad arguments: {err}", file=sys.stderr)
        return 2
    if not report.ok:
        print("construction failed validation:", file=sys.stderr)
        for w in report.witnesses[:5]:
            print(f"  {w.diagram} at {w.instance}: {w.lhs} != {w.rhs}",
                  file=sys.stderr)
        return 1
    save(tower, args.out)
    print(f"wrote {args.out} ({args.construction} -> {args.name})")
    return 0


def _corpus_towers(seed: int) -> dict:
    """The shipped corpus, partitioned into one self-contained tower per base."""
    corpus = instances.corpus(seed)
    sym = {"bool2": instances.bool_symmetric().symmetry,
           "bool3": instances.bool_symmetric().symmetry,
           "zmod3": instances.zmod2_symmetric().symmetry}
    towers = {name: Tower(base, symmetry=sym[name])
              for name, base in corpus.bases.items()}

    def tower_for(base):
        for name, candidate in corpus.bases.items():
            if candidate is base:
                return towers[name]
        raise KernelError("corpus structure lives over an unknown base")

    for name, vc in corpus.vcategories.items():
        tower_for(vc.base).vcategories[name] = vc
    for name, vf in corpus.vfunctors.items():
        t = tower_for(vf.source.base)
        _ensure_named(t.vcategories, vf.source, f"{name}.source")
        _ensure_named(t.vcategories, vf.target, f"{name}.target")
        t.vfunctors[name] = vf
    for name, nat in corpus.vnats.items():
        t = tower_for(nat.source.source.base)
        _file_vfunctor(t, nat.source, f"{name}.source")
        _file_vfunctor(t, nat.target, f"{name}.target")
        t.vnats[name] = nat
    for name, u in corpus.v2categories.items():
        tower_for(u.base).v2categories[name] = u
    for name, vf in corpus.v2functors.items():
        t = tower_for(vf.source.base)
        _ensure_named(t.v2categories, vf.source, f"{name}.source")
        _ensure_named(t.v2categories, vf.target, f"{name}.target")
        t.v2functors[name] = vf
    for name, nat in corpus.v2nats.items():
        t = tower_for(nat.source.source.base)
        _file_v2functor(t, nat.source, f"{name}.source")
        _file_v2functor(t, nat.target, f"{name}.target")
        t.v2nats[name] = nat
    for name, m in corpus.modifications.items():
        t = tower_for(m.source.source.source.base)
        _file_modification(t, m, name)
    for name, p in corpus.pastings.items():
        t = tower_for(p.cat_u.base)
        for slot in ("f", "h", "p", "g", "k", "q"):
            _file_v2functor(t, getattr(p, slot), f"{name}.{slot}")
        for col in (1, 2, 3, 4):
            for kind in ("alpha", "beta", "gamma"):
                _file_v2nat(t, getattr(p, f"{kind}{col}"),
                            f"{name}.{kind}{col}")
            for kind in ("mu", "nu"):
                _file_modification(t, getattr(p, f"{kind}{col}"),
                                   f"{name}.{kind}{col}")
        t.pastings[name] = p
    return towers


def _run_corpus(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    for name, tower in _corpus_towers(args.seed).items():
        path = os.path.join(args.outdir, f"{name}.json")
        save(tower, path)
        print(f"wrote {path}")
    return 0


def _run_fuzz(args) -> int:
    base = {"bool2": lambda: instances.bool_poset(2),
            "bool3": lambda: instances.bool_poset(3),
            "zmod3": lambda: instances.zmod2(3)}.get(args.base)
    if base is None:
        print(f"error: unknown base {args.base!r}", file=sys.stderr)
        return 2
    base = base()
    checkers = {"vcategory": check_vcategory, "vfunctor": check_vfunctor,
                "vnat": check_vnat, "v2category": check_v2category,
                "v2functor": check_v2functor, "v2nat": check_v2nat,
                "modification": check_modification}
    failed = False
    for k in range(args.count):
        try:
            inst = instances.random_instance(args.level, args.seed + k,
                                             base=base)
        except instances.BudgetExhausted as err:
            print(f"fuzz[{k}]: budget exhausted: {err}", file=sys.stderr)
            return 2
        if args.level == "pasting":
            report = exchange_suite(inst)
        else:
            report = checkers[args.level](inst)
        status = report.status
        print(f"fuzz[{k}] {args.level} seed={args.seed + k}: {status}")
        failed = failed or not report.ok
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="enrichkit",
        description="check and construct finite enriched-category structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate every structure in a file")
    p_check.add_argument("path")
    p_check.add_argument("--level", default="all", choices=("all",) + LEVELS)
    p_check.add_argument("--all-witnesses", action="store_true")
    p_check.add_argument("--machine", action="store_true")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--fuzz", type=int, default=0,
                         help="append N generated instance checks")

    p_con = sub.add_parser("construct", help="run a named construction")
    p_con.add_argument("path")
    p_con.add_argument("construction")
    p_con.add_argument("--inputs", nargs="*", default=[])
    p_con.add_argument("--index", type=int, default=1)
    p_con.add_argument("--index2", type=int, default=2)
    p_con.add_argument("--side", default="left", choices=("left", "right"))
    p_con.add_argument("--name", default="result")
    p_con.add_argument("--out", required=True)

    p_cor = sub.add_parser("corpus", help="emit the shipped example corpus")
    p_cor.add_argument("outdir")
    p_cor.add_argument("--seed", type=int, default=0)

    p_fuzz = sub.add_parser("fuzz", help="generate and check random instances")
    p_fuzz.add_argument("--level", required=True,
                        choices=("vcategory", "vfunctor", "vnat", "v2category",
                                 "v2functor", "v2nat", "modification",
                                 "pasting"))
    p_fuzz.add_argument("--count", type=int, default=1)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--base", default="bool2")

    args = parser.parse_args(argv)
    if args.command == "check":
        return _run_check(args)
    if args.command == "construct":
        return _run_construct(args)
    if args.command == "corpus":
        return _run_corpus(args)
    if args.command == "fuzz":
        return _run_fuzz(args)
    return 2


def entrypoint():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at /dev/null so that the
        # interpreter's final flush cannot raise again, and exit the way a
        # process killed by SIGPIPE reports to a shell.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + signal.SIGPIPE
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
