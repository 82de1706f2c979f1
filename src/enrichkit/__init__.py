"""Finite-table kernel for iterated monoidal categories and the enrichment
tower built on them, with exhaustive coherence checking on finite instances.

Each public name is imported from its defining module on first use, so a
program that never touches V-Cat never loads ``vcat`` or ``v2cat``.
"""

from importlib import import_module

# Each module of the public API and the names it exports; a module is public
# itself.  Names are read from the module on every access, never copied here.
_EXPORTS = {
    "errors": (),
    "fincat": ("FinCategory", "FinFunctor", "FinNatTransform",
               "check_category", "check_functor", "check_natural",
               "compose", "compose_chain"),
    "kfold": ("KFoldMonoidal", "check_kfold"),
    "report": ("CheckReport", "Witness"),
    "vcat": ("VCategory", "VFunctor", "VNatTransform", "assoc_vcat",
             "check_vcategory", "check_vfunctor", "check_vnat",
             "compose_vfunctor", "compose_vnat_vert", "interchange_vcat",
             "product_vcat", "product_vfunctor", "product_vnat",
             "unit_vcategory", "vfunctor_equal", "whisker_vnat"),
    "v2cat": ("PastingInstance", "V2Category", "V2Functor", "V2NatTransform",
              "VModification", "check_modification", "check_v2category",
              "check_v2functor", "check_v2nat", "compose_nat_along_functor",
              "compose_v2functors", "exchange_suite",
              "hcomp_modifications_along_nat", "hcomp_mods_along_category",
              "hcomp_nats_along_category", "id_modification", "id_nat",
              "product_v2cat", "unit_v2category", "vcomp_modifications",
              "whisker_functor_mod", "whisker_functor_nat",
              "whisker_mod_functor", "whisker_mod_nat_along_category",
              "whisker_nat_functor", "whisker_nat_mod_along_category",
              "whisker_nat_mod_left", "whisker_nat_mod_right"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in (module, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_HOME[name]}", __name__)
    return module if name in _EXPORTS else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
