"""Command-line runner: check, construct, corpus, fuzz.

Exit codes are a stable contract: 0 when every selected check passes,
1 when any axiom fails (with a witness printed), 2 on input errors
(unparsable documents, dangling names, malformed tables, bad arguments).

Reports are deterministic for a given input and flag set.  The human format
prints one line per diagram family; ``--machine`` emits the same stream as
line-delimited JSON records, documented in the README.  Every diagram
family is one sequential scan.

The levels of the tower are one table, ``TOWER``: each row names a level
and its checker; the rest of the row, the level's ``Tower`` section, its
structure type and its frame slots, is serialize's ``LEVELS`` row.  The
``--level`` choices, the order of ``check``, the ``fuzz`` checkers and the
filing of results all read it.  ``CONSTRUCTIONS`` is the second table,
one row per construction: the function, its leading arguments and the
levels of its inputs.  Functions and checkers are named with their modules
rather than held, so a module is imported only when a command reaches it,
and a wrapper bound in their place on their defining module is what runs.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from collections import namedtuple

from .errors import (
    AgreementFailure,
    BaseInvalid,
    ConstructionFailed,
    DanglingReference,
    IndexOutOfRange,
    InvalidPasting,
    KernelError,
    LowerLevelInvalid,
    MalformedTable,
    NotComposable,
    NotParallel,
    ParseError,
    SourceTargetInvalid,
)
from .report import CheckReport, cached_report
from .serialize import (LEVELS, Tower, _find_name, _reference, _resolve,
                        load, save)


class Level(namedtuple("Level", "name checker")):
    """One level of the tower and its checker, named as ``_resolve`` reads
    it; every other attribute (``section``, ``kind``, ``slots``) is read
    from the level's row in serialize's ``LEVELS``."""
    __slots__ = ()

    def check(self, structure, **options) -> CheckReport:
        return _resolve(self.checker)(structure, **options)

    def __getattr__(self, attr):
        return getattr(LEVELS[self.name], attr)


TOWER = {name: Level(name, checker) for name, checker in (
    ("base", "kfold.check_kfold"),
    ("vcategory", "vcat.check_vcategory"),
    ("vfunctor", "vcat.check_vfunctor"),
    ("vnat", "vcat.check_vnat"),
    ("v2category", "v2cat.check_v2category"),
    ("v2functor", "v2cat.check_v2functor"),
    ("v2nat", "v2cat.check_v2nat"),
    ("modification", "v2cat.check_modification"),
    ("pasting", "v2cat.exchange_suite"),
)}


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
    for row in TOWER.values():
        if row.name == "base":
            yield "base", "base", row.check, tower.base
            continue
        for name, structure in sorted(getattr(tower, row.section).items()):
            yield row.name, f"{row.name}:{name}", row.check, structure


def _load(path):
    """The document's tower, or None once the reason it cannot be read is
    printed."""
    try:
        return load(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
    except OSError as err:
        print(f"error: cannot read {path}: {err.strerror}", file=sys.stderr)
    except UnicodeDecodeError as err:
        print(f"error: cannot read {path}: not UTF-8 at byte {err.start}",
              file=sys.stderr)
    except KernelError as err:
        # Unparsable, dangling, or so malformed that derived structures
        # cannot even be rebuilt: an input error either way.
        print(f"error: {err}", file=sys.stderr)
    return None


def _run_check(args) -> int:
    tower = _load(args.path)
    if tower is None:
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
    from . import instances, vcat
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
        except BaseInvalid as err:
            # Every draw is checked against the base, so none can be made.
            rep.note("fuzz", f"skipped, constituent invalid: {err}")
            return 0
        made += 1
        for i in range(1, base.n):
            # Scanned, not certified: this is the construction's self-test.
            rep.emit(f"fuzz[{k}]:product[{i}]",
                     vcat._scan_vcategory(vcat.product_vcat(i, a, b)))
            rep.emit(f"fuzz[{k}]:assoc[{i}]",
                     vcat.check_vfunctor(vcat.assoc_vcat(i, a, b, a)))
        for i in range(1, base.n):
            for j in range(i + 1, base.n):
                rep.emit(f"fuzz[{k}]:interchange[{i},{j}]",
                         vcat.check_vfunctor(
                             vcat.interchange_vcat(i, j, a, b, a, b)))
    rep.note("fuzz", f"generated {made} instance pairs (seed {args.seed})",
             failure=False)
    return 0


CONSTRUCTIONS = {
    # name: (function as ``_resolve`` reads it, leading arguments, input
    # levels).  Leading arguments are options of `construct` or "tower"/"base".
    "unit-vcategory": ("vcat.unit_vcategory", ("base",), ()),
    "product-vcat": ("vcat.product_vcat", ("index",), ("vcategory",) * 2),
    "product-vfunctor": ("vcat.product_vfunctor", ("index",),
                         ("vfunctor",) * 2),
    "product-vnat": ("vcat.product_vnat", ("index",), ("vnat",) * 2),
    "assoc-vcat": ("vcat.assoc_vcat", ("index",), ("vcategory",) * 3),
    "interchange-vcat": ("vcat.interchange_vcat", ("index", "index2"),
                         ("vcategory",) * 4),
    "compose-vfunctor": ("vcat.compose_vfunctor", (), ("vfunctor",) * 2),
    "identity-vfunctor": ("vcat.identity_vfunctor", (), ("vcategory",)),
    "identity-vnat": ("vcat.identity_vnat", (), ("vfunctor",)),
    "compose-vnat-vert": ("vcat.compose_vnat_vert", (), ("vnat",) * 2),
    "whisker-vnat": ("vcat.whisker_vnat", ("side",), ("vfunctor", "vnat")),
    "from-symmetric": ("instances.from_document", ("tower", "index"), ()),
    "unit-v2category": ("v2cat.unit_v2category", ("base",), ()),
    "product-v2cat": ("v2cat.product_v2cat", ("index",), ("v2category",) * 2),
    "compose-v2functors": ("v2cat.compose_v2functors", (),
                           ("v2functor",) * 2),
    "identity-v2functor": ("v2cat.identity_v2functor", (), ("v2category",)),
    "id-nat": ("v2cat.id_nat", (), ("v2functor",)),
    "compose-nat-along-functor": ("v2cat.compose_nat_along_functor", (),
                                  ("v2nat",) * 2),
    "id-modification": ("v2cat.id_modification", (), ("v2nat",)),
    "vcomp-modifications": ("v2cat.vcomp_modifications", (),
                            ("modification",) * 2),
    "whisker-nat-mod-left": ("v2cat.whisker_nat_mod_left", (),
                             ("v2nat", "modification")),
    "whisker-nat-mod-right": ("v2cat.whisker_nat_mod_right", (),
                              ("modification", "v2nat")),
    "hcomp-mods": ("v2cat.hcomp_modifications_along_nat", (),
                   ("modification",) * 2),
    "whisker-functor-nat": ("v2cat.whisker_functor_nat", (),
                            ("v2functor", "v2nat")),
    "whisker-nat-functor": ("v2cat.whisker_nat_functor", (),
                            ("v2nat", "v2functor")),
    "hcomp-nats": ("v2cat.hcomp_nats_along_category", (), ("v2nat",) * 2),
    "whisker-functor-mod": ("v2cat.whisker_functor_mod", (),
                            ("v2functor", "modification")),
    "whisker-mod-functor": ("v2cat.whisker_mod_functor", (),
                            ("modification", "v2functor")),
    "whisker-nat-mod-category": ("v2cat.whisker_nat_mod_along_category", (),
                                 ("v2nat", "modification")),
    "whisker-mod-nat-category": ("v2cat.whisker_mod_nat_along_category", (),
                                 ("modification", "v2nat")),
    "hcomp-mods-category": ("v2cat.hcomp_mods_along_category", (),
                            ("modification",) * 2),
}


def _construct(tower: Tower, args):
    """Run a construction on inputs looked up at their levels.

    Each input is checked first, through ``cached_report`` so that the
    result's check reuses what it shares: a table missing an entry is an
    input error here, rather than a ``MalformedTable`` where a lazily built
    product first reads it.  A complete input that fails a diagram still goes into
    the construction."""
    function, leading, levels = CONSTRUCTIONS[args.construction]
    if len(args.inputs) != len(levels):
        raise ValueError(f"{args.construction} takes {len(levels)} inputs, "
                         f"got {len(args.inputs)}")
    inputs = []
    for name, level in zip(args.inputs, levels):
        section = getattr(tower, TOWER[level].section)
        if name not in section:
            raise ConstructionFailed(f"no {level} named {name!r}")
        inputs.append(section[name])
        cached_report(section[name], TOWER[level].check)
    options = dict(vars(args), tower=tower, base=tower.base)
    return _resolve(function)(*(options[a] for a in leading), *inputs)


def _file(tower: Tower, level: str, structure, hint: str) -> str:
    """The name of an equal filed structure; else file the frame, then this.

    Frame slots are filed the same way, under ``<hint>.<slot>``.
    """
    row = TOWER[level]
    section = getattr(tower, row.section)
    name = _find_name(section, structure)
    if name is None:
        for slot, lower in row.slots:
            _file(tower, lower, getattr(structure, slot), f"{hint}.{slot}")
        _put(tower, level, name := hint, structure)
    return name


def _put(tower: Tower, level: str, name: str, structure) -> None:
    """File ``structure`` under ``name``, refusing (``DanglingReference``) to
    replace a structure that another filed structure names, unless an equal
    one stays filed, or a V-category that a filed product reference names as
    a factor, unless the reference can still be saved."""
    section = getattr(tower, TOWER[level].section)
    if name in section:
        kept = {**section, name: structure}
        for user in TOWER.values():
            for slot, lower in user.slots:
                if lower != level:
                    continue
                for label, other in getattr(tower, user.section).items():
                    if _find_name(kept, getattr(other, slot)) is None:
                        raise DanglingReference(
                            f"filing under {name!r} would replace the {level}"
                            f" that {user.section}.{label}.{slot} names")
        if level == "vcategory":
            for label, vc in section.items():
                if (label != name and _reference(section, vc) is not None
                        and _reference(kept, vc) is None):
                    raise DanglingReference(
                        f"filing under {name!r} would replace a factor of "
                        f"the product that vcategories.{label} references")
    section[name] = structure


def _store(tower: Tower, result, name: str) -> CheckReport:
    """Validate a construction result and file it under ``name``."""
    row = next(r for r in TOWER.values() if isinstance(result, r.kind))
    report = row.check(result)
    if not report.ok:
        return report
    if row.name == "base":
        # Every filed structure lives over the old base.
        for lower in list(TOWER.values())[1:]:
            getattr(tower, lower.section).clear()
        tower.base = result
    else:
        _file(tower, row.name, result, name)
        _put(tower, row.name, name, result)
    return report


def _run_construct(args) -> int:
    tower = _load(args.path)
    if tower is None:
        return 2
    if args.construction not in CONSTRUCTIONS:
        print(f"error: unknown construction {args.construction!r}; "
              f"available: {', '.join(sorted(CONSTRUCTIONS))}", file=sys.stderr)
        return 2
    if os.path.isdir(args.out) or not os.path.isdir(
            os.path.dirname(args.out) or os.curdir):
        print(f"error: cannot write {args.out}: not a file in an existing "
              "directory", file=sys.stderr)
        return 2
    try:
        report = _store(tower, _construct(tower, args), args.name)
    except (MalformedTable, ParseError, DanglingReference) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (IndexOutOfRange, TypeError, ValueError) as err:
        print(f"error: bad arguments: {err}", file=sys.stderr)
        return 2
    except (ConstructionFailed, KernelError) as err:
        print(f"construction failed: {err}", file=sys.stderr)
        return 1
    if not report.ok:
        print("construction failed validation:", file=sys.stderr)
        for w in report.witnesses[:5]:
            print(f"  {w.diagram} at {w.instance}: {w.lhs} != {w.rhs}",
                  file=sys.stderr)
        return 1
    if not _save(tower, args.out):
        return 2
    print(f"wrote {args.out} ({args.construction} -> {args.name})")
    return 0


def _save(tower: Tower, path) -> bool:
    """Save the tower, or print why it cannot be written and give False."""
    try:
        save(tower, path)
    except OSError as err:
        print(f"error: cannot write {path}: {err.strerror}", file=sys.stderr)
        return False
    return True


def _corpus_towers(seed: int) -> dict:
    """The shipped corpus, one self-contained tower per base: each structure
    filed in level order, with the frames it names."""
    from . import instances
    towers = {}
    for name, shipped in instances.corpus(seed).items():
        towers[name] = tower = Tower(shipped.base, shipped.symmetry)
        for row in list(TOWER.values())[1:]:
            for label, structure in getattr(shipped, row.section).items():
                _file(tower, row.name, structure, label)
    return towers


def _run_corpus(args) -> int:
    try:
        os.makedirs(args.outdir, exist_ok=True)
    except OSError as err:
        print(f"error: cannot create directory {args.outdir}: {err.strerror}",
              file=sys.stderr)
        return 2
    for name, tower in _corpus_towers(args.seed).items():
        path = os.path.join(args.outdir, f"{name}.json")
        if not _save(tower, path):
            return 2
        print(f"wrote {path}")
    return 0


def _run_fuzz(args) -> int:
    from . import instances
    base = {"bool2": lambda: instances.bool_poset(2),
            "bool3": lambda: instances.bool_poset(3),
            "zmod3": lambda: instances.zmod2(3)}.get(args.base)
    if base is None:
        print(f"error: unknown base {args.base!r}", file=sys.stderr)
        return 2
    base = base()
    failed = False
    for k in range(args.count):
        try:
            inst = instances.random_instance(args.level, args.seed + k,
                                             base=base)
        except instances.BudgetExhausted as err:
            print(f"fuzz[{k}]: budget exhausted: {err}", file=sys.stderr)
            return 2
        report = TOWER[args.level].check(inst)
        status = report.status
        print(f"fuzz[{k}] {args.level} seed={args.seed + k}: {status}")
        failed = failed or not report.ok
    return 1 if failed else 0


def _count(text: str) -> int:
    """A count argument: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="enrichkit",
        description="check and construct finite enriched-category structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate every structure in a file")
    p_check.add_argument("path")
    p_check.add_argument("--level", default="all", choices=("all", *TOWER))
    p_check.add_argument("--all-witnesses", action="store_true")
    p_check.add_argument("--machine", action="store_true")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--fuzz", type=_count, default=0,
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
                        choices=tuple(TOWER)[1:])
    p_fuzz.add_argument("--count", type=_count, default=1)
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
