"""What a command loads: the package resolves its names lazily, and each
command imports only the layers it reaches."""
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys

import pytest

import enrichkit
from enrichkit.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

# Every name `from enrichkit import *` bound when the package imported all
# of its modules eagerly.
PUBLIC = [
    "CheckReport", "FinCategory", "FinFunctor", "FinNatTransform",
    "KFoldMonoidal", "PastingInstance", "V2Category", "V2Functor",
    "V2NatTransform", "VCategory", "VFunctor", "VModification",
    "VNatTransform", "Witness", "assoc_vcat", "check_category",
    "check_functor", "check_kfold", "check_modification", "check_natural",
    "check_v2category", "check_v2functor", "check_v2nat", "check_vcategory",
    "check_vfunctor", "check_vnat", "compose", "compose_chain",
    "compose_nat_along_functor", "compose_v2functors", "compose_vfunctor",
    "compose_vnat_vert", "errors", "exchange_suite", "fincat",
    "hcomp_modifications_along_nat", "hcomp_mods_along_category",
    "hcomp_nats_along_category", "id_modification", "id_nat",
    "interchange_vcat", "kfold", "product_v2cat", "product_vcat",
    "product_vfunctor", "product_vnat", "report", "unit_v2category",
    "unit_vcategory", "v2cat", "vcat", "vcomp_modifications",
    "vfunctor_equal", "whisker_functor_mod", "whisker_functor_nat",
    "whisker_mod_functor", "whisker_mod_nat_along_category",
    "whisker_nat_functor", "whisker_nat_mod_along_category",
    "whisker_nat_mod_left", "whisker_nat_mod_right", "whisker_vnat",
]


def test_package_api_is_unchanged():
    for name in PUBLIC:
        value = getattr(enrichkit, name)
        if name in ("errors", "fincat", "kfold", "report", "vcat", "v2cat"):
            assert value is importlib.import_module(f"enrichkit.{name}")
        else:
            assert value.__module__.startswith("enrichkit.")
            home = importlib.import_module(value.__module__)
            assert getattr(home, name) is value, name
    bound = {}
    exec("from enrichkit import *", bound)
    assert sorted(set(bound) - {"__builtins__"}) == PUBLIC
    assert set(PUBLIC) <= set(dir(enrichkit))
    with pytest.raises(AttributeError):
        enrichkit.no_such_name


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """The corpus, and a base-only document replicated from bool2's base."""
    out = tmp_path_factory.mktemp("startup")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["corpus", str(out)]) == 0
        assert main(["construct", str(out / "bool2.json"), "from-symmetric",
                     "--index", "2", "--out", str(out / "base.json")]) == 0
    return out


# Runs the CLI on its arguments, then prints the enrichkit modules loaded
# and whether numpy was, as the last line of stderr.
PROBE = """
import json, sys
from enrichkit import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps([sorted(m for m in sys.modules if m.startswith("enrichkit")),
                  "numpy" in sys.modules]), file=sys.stderr)
"""
BASE = ["enrichkit", "enrichkit.cli", "enrichkit.errors", "enrichkit.fincat",
        "enrichkit.kfold", "enrichkit.report", "enrichkit.serialize"]
LEVELS = ["enrichkit.v2cat", "enrichkit.vcat"]


@pytest.mark.parametrize("argv, extra", [
    (["--help"], []),
    (["check", "base.json"], []),
    (["check", "bool2.json"], LEVELS),
    (["fuzz", "--level", "vcategory"], ["enrichkit.instances", *LEVELS]),
])
def test_command_loads_only_the_layers_it_reaches(documents, argv, extra):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv],
                          cwd=documents, env=env, capture_output=True,
                          text=True, timeout=60)
    modules, numpy = json.loads(proc.stderr.splitlines()[-1])
    assert modules == sorted(BASE + extra)
    assert not numpy
