"""Single-line mutants of the kernel, as data, and a runner that scores them.

Each row names a mutant, the file it edits (relative to the repository
root), the exact text it replaces, which must occur once in that file, the
text put in its place, and the Tier-1 test expected to catch it.  pytest
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
