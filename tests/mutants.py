"""Single-line mutants of the kernel, as data, and a runner that scores them.

Each row names a mutant, the file it edits (relative to the repository
root), the exact text it replaces, which must occur once in that file, the
text put in its place, and the Tier-1 test expected to catch it (or the
test module, when the mutant keeps it from being collected).  pytest
does not collect this module; ``test_vcat.py`` checks that every row's old
text still occurs exactly once, so a refactor that moves the code breaks
the table loudly.

Run it from anywhere:

    python tests/mutants.py

For each mutant it copies ``src/``, ``tests/``, ``pyproject.toml`` and
``README.md`` into a temporary directory, applies the mutant there, and
runs Tier-1 with ``-x`` in that copy, less the table test (``TABLE_TEST``),
which fails under every mutant because the old text is gone.  It prints one
line per mutant, killed (with the first failing test) or survived, and
exits 1 if any mutant survived.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Mutant = namedtuple("Mutant", "name path old new catcher")

MUTANTS = (
    Mutant("assoc-index", "src/enrichkit/vcat.py",
           "base.associator(\n                i + 1, a.hom",
           "base.associator(\n                i, a.hom",
           "tests/test_vcat.py::"
           "test_vcat_associator_and_interchange_on_a_non_replicated_base"),
    Mutant("interchange-index", "src/enrichkit/vcat.py",
           "base.interchange_mor(\n                i + 1, j + 1, a.hom",
           "base.interchange_mor(\n                i, j, a.hom",
           "tests/test_vcat.py::"
           "test_vcat_associator_and_interchange_on_a_non_replicated_base"),
    Mutant("comp-tensor-index", "src/enrichkit/vcat.py",
           "both = tensor_mor(i + 1, acomp, bcomp)",
           "both = tensor_mor(i, acomp, bcomp)",
           "tests/test_vcat.py::"
           "test_product_comp_raises_the_formulas_first_base_error"),
    Mutant("eta-args", "src/enrichkit/vcat.py",
           "interchange(1, i + 1, ahom23, bhom23,\n"
           "                                          ahom12, bhom12)",
           "interchange(1, i + 1, ahom23, ahom12,\n"
           "                                          bhom23, bhom12)",
           "tests/test_acceptance.py::"
           "test_criterion_5_level2_closure_and_agreement"),
    Mutant("eta-pairs", "src/enrichkit/vcat.py",
           "interchange(1, i + 1, ahom23, bhom23,\n"
           "                                          ahom12, bhom12)",
           "interchange(1, i + 1, ahom12, bhom12,\n"
           "                                          ahom23, bhom23)",
           "tests/test_vcat.py::"
           "test_products_over_a_non_commutative_first_tensor_scan_clean"),
    Mutant("pfunctor-swap", "src/enrichkit/vcat.py",
           "i + 1, t.hom_map[(x, x2)], s.hom_map[(y, y2)])",
           "i + 1, s.hom_map[(y, y2)], t.hom_map[(x, x2)])",
           "tests/test_vcat.py::"
           "test_product_functors_over_a_non_commutative_second_tensor"),
    # A level-2 product whose identity skips the unit pairing I -> I x I
    # (a no-op at level 1); a certified product hides it, a scan does not.
    Mutant("product-unit-pair", "src/enrichkit/vcat.py",
           "identity[xy] = cells.unit_pair(tensor_mor(\n"
           "            i + 1, a.identity[x], b.identity[y]), i + 1)",
           "identity[xy] = tensor_mor(\n"
           "            i + 1, a.identity[x], b.identity[y])",
           "tests/test_acceptance.py::"
           "test_criterion_5_level2_closure_and_agreement"),
    Mutant("v2-unit-pair", "src/enrichkit/v2cat.py",
           "    return compose_vfunctor(f, unit_pair_intro(i, f.source.base))",
           "    return f",
           "tests/test_acceptance.py::"
           "test_criterion_5_level2_closure_and_agreement"),
    # The certificate without its object count: colliding ids certified.
    Mutant("certificate-count", "src/enrichkit/vcat.py",
           "if not inputs or any(len(frame.objects) != n for frame in frames)",
           "if not inputs",
           "tests/test_vcat.py::test_colliding_product_ids_are_scanned"),
    # The interchange's diagrams read the second tensor of morphisms at the
    # first index: a no-op over a base that repeats one tensor, as every
    # shipped base does, so only the chains kill it.  Its boundary
    # families still pass, so check_kfold certifies the rest and only the
    # scan sees the failing naturality.
    Mutant("kfold-tensor-index", "src/enrichkit/kfold.py",
           "to_j, tm_j, al_j = t.to[j], t.tm[j], t.al[j]",
           "to_j, tm_j, al_j = t.to[j], t.tm[i], t.al[j]",
           "tests/test_kfold.py::"
           "test_certificate_reports_as_the_scan_on_thin_bases[capped]"),
    # Families keyed by fewer tables than their legs read: a hexagon, or a
    # tensor's families, shared with an earlier one whose other tables
    # agree although an interchange, or the associator, differs.
    Mutant("kfold-hexagon-reads", "src/enrichkit/kfold.py",
           "tm_i, tm_j, tm_k, eta_ij, eta_ik, eta_jk)",
           "tm_i, tm_j, tm_k, eta_ij, eta_ik)",
           "tests/test_kfold.py::"
           "test_shared_families_report_as_their_scans[z4k4]"),
    Mutant("kfold-tensor-reads", "src/enrichkit/kfold.py",
           "return (to, tm, al), [",
           "return (to, tm), [",
           "tests/test_acceptance.py::test_criterion_7_mutation_sensitivity"),
    # Every base taken as thin: a non-thin base whose boundary families
    # pass is certified, and its failing equality family goes unseen (the
    # Z/2 loop's tensor-composition first; also the grid's pentagon, in
    # tests/test_kfold.py::test_non_thin_bases_are_scanned).
    Mutant("thin-any-base", "src/enrichkit/kfold.py",
           "return len({(cat.dom[m], cat.cod[m])\n"
           "                for m in cat.morphisms}) == len(cat.morphisms)",
           "return True",
           "tests/test_acceptance.py::test_criterion_7_mutation_sensitivity"),
    # A saved product reference with its factors in reverse order.
    Mutant("reference-factors", "src/enrichkit/serialize.py",
           '"factors": refs}}',
           '"factors": refs[::-1]}}',
           "tests/test_serialize_cli.py::test_round_trip_byte_stability"),
    # Per-index tables taken as equal to an earlier index's when they are
    # not: rows copied from an earlier index whose rows have as many
    # entries, and only the first table of a kind required whole, or
    # checked for unknown ids on load.
    Mutant("indexed-rows", "src/enrichkit/serialize.py",
           "if earlier == rows:",
           "if len(earlier) == len(rows):",
           "tests/test_acceptance.py::test_criterion_7_mutation_sensitivity"),
    Mutant("kfold-required", "src/enrichkit/kfold.py",
           "if (kind, table) in required:",
           "if required:",
           "tests/test_kfold.py::"
           "test_a_table_unlike_the_earlier_ones_is_required_whole"
           "[tensor_obj]"),
    Mutant("base-ids-checked", "src/enrichkit/serialize.py",
           "if table in checked:",
           "if checked:",
           "tests/test_serialize_cli.py::"
           "test_equal_index_tables_are_parsed_once_and_loaded_apart"),
    # The thin bases' tensor of morphisms read at the domains only: a no-op
    # over the discrete zmod2, but bool_poset then raises NotSymmetric.
    # (Reading a symmetry component at its source, or an associator's, is
    # an equivalent edit: both shipped operations are commutative and
    # associative.)
    Mutant("thin-tensor-mor", "src/enrichkit/instances.py",
           "op(cod[f], cod[g]))",
           "op(dom[f], dom[g]))",
           "tests/test_acceptance.py::test_criterion_1_base_validation"),
    # The grouped lookup of a coded block: the second group's classes read
    # off the first group's lines of result codes, or the outer group's
    # pieces off the wrong lines when the second group's axes come first.
    Mutant("grouped-classes", "src/enrichkit/report.py",
           "_quotient(second, cols)",
           "_quotient(second, rows)",
           "tests/test_acceptance.py::test_criterion_4_level1_closure"),
    Mutant("grouped-outer-lines", "src/enrichkit/report.py",
           "_joined(right, first, cols)",
           "_joined(right, first, rows)",
           "tests/test_acceptance.py::test_criterion_4_level1_closure"),
    # Coded legs compared without the marker of a None on the left: a row
    # undefined on both legs holds.
    Mutant("coded-none-marker", "src/enrichkit/report.py",
           "bytes(255 if v is None else code[v] for v in left.values)",
           "bytes(code[v] for v in left.values)",
           "tests/test_kfold.py::"
           "test_coded_and_list_kernels_report_alike_on_a_mutated_zmod4_tower"),
)

COPIED = ("src", "tests", "pyproject.toml", "README.md")
TABLE_TEST = "tests/test_vcat.py::test_every_mutant_edits_one_place"


def apply(root: str, mutant: Mutant) -> None:
    """Edit ``mutant.path`` under ``root``; ValueError unless its old text
    occurs there exactly once."""
    path = os.path.join(root, mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs "
                         f"{text.count(mutant.old)} times in {mutant.path}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def first_failure(root: str):
    """Tier-1 with ``-x`` in ``root``, less ``TABLE_TEST``: the first
    failing test, or None."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--deselect", TABLE_TEST],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return found.group(1) if found else f"pytest exit {proc.returncode}"


def run(mutant: Mutant) -> str | None:
    with tempfile.TemporaryDirectory(prefix="mutant-") as root:
        for name in COPIED:
            src = os.path.join(ROOT, name)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(root, name),
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, root)
        apply(root, mutant)
        return first_failure(root)


def main() -> int:
    survived = 0
    for mutant in MUTANTS:
        caught = run(mutant)
        if caught is None:
            survived += 1
            print(f"{mutant.name}: survived (expected {mutant.catcher})")
        elif caught == mutant.catcher:
            print(f"{mutant.name}: killed by {caught}")
        else:
            print(f"{mutant.name}: killed by {caught} "
                  f"(expected {mutant.catcher})")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
