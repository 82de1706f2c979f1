"""Per-layer tracing from outside the program.

``Tracer`` wraps the public functions of every enrichkit module, and
``ReportBuilder.family``, wherever they are bound (the defining module and
every module that imported them by name), and restores the originals on
exit.  Nothing under ``src/`` changes.

What each wrapper records:

* ``ReportBuilder.family``: a scan span.  Its self time and instance count
  are charged to the layer of the module that called it, as
  ``<layer>.scan_s`` and ``<layer>.instances``.
* ``vcat.pair`` and ``fincat.compose``: a call count only.  They are hot
  leaf helpers, and timing them would double the traced run.
* ``report.cached_report``: a call, and a hit when the same object was
  passed in before and returned a report.
* ``serialize.load``/``save``, ``v2cat.exchange_suite`` and
  ``instances.random_instance``/``corpus``: inclusive time of the entry
  point, plus calls (and ``BudgetExhausted`` raises for the generators).
* every other public function that is not a ``check_*`` checker: a
  construction span, charged as ``<layer>.construct_s`` (self time) and
  ``<layer>.construct_calls``.

Self time is a span's duration minus the time of the spans it encloses.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
import weakref
from collections import defaultdict

COUNT_ONLY = {("vcat", "pair"): "vcat.pair_calls",
              ("fincat", "compose"): "fincat.compose_calls"}
INCLUSIVE = {("serialize", "load"): "serialize.load",
             ("serialize", "save"): "serialize.save",
             ("v2cat", "exchange_suite"): "v2cat.exchange",
             ("instances", "random_instance"): "instances.generate",
             ("instances", "corpus"): "instances.generate"}
# The CLI is the traced entry point, not a layer.
ENTRY_MODULE = "enrichkit.cli"


def enrichkit_modules():
    import enrichkit
    mods = [enrichkit]
    for info in pkgutil.iter_modules(enrichkit.__path__):
        mods.append(importlib.import_module(f"enrichkit.{info.name}"))
    return mods


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Context manager that installs the wrappers and accumulates metrics."""

    def __init__(self):
        self.values = defaultdict(float)
        self._stack = []
        self._patches = []
        self._seen = {}

    # -- spans ----------------------------------------------------------------
    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, t0):
        elapsed = time.perf_counter() - t0
        children = self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        return elapsed, elapsed - children

    # -- wrappers -------------------------------------------------------------
    def _counted(self, fn, key):
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _construction(self, fn, layer):
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                _, own = self._leave(t0)
                values[f"{layer}.construct_s"] += own
                values[f"{layer}.construct_calls"] += 1
                if fn.__name__ == "product_vcat":
                    values["vcat.product_vcat_calls"] += 1
        return wrapper

    def _inclusive(self, fn, prefix):
        from enrichkit.errors import BudgetExhausted
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            except BudgetExhausted:
                values[f"{prefix}.budget_exhausted"] += 1
                raise
            finally:
                total, _ = self._leave(t0)
                values[f"{prefix}_s"] += total
                values[f"{prefix}_calls"] += 1
        return wrapper

    def _cached_report(self, fn):
        values, seen = self.values, self._seen

        @functools.wraps(fn)
        def wrapper(obj, check):
            ref = seen.get(id(obj))
            values["report.cached_report_calls"] += 1
            if ref is not None and ref() is obj:
                values["report.cached_report_hits"] += 1
            rep = fn(obj, check)
            try:
                seen[id(obj)] = weakref.ref(
                    obj, lambda _, key=id(obj): seen.pop(key, None))
            except TypeError:
                pass
            return rep
        return wrapper

    def _family(self, fn):
        values = self.values

        @functools.wraps(fn)
        def family(builder, name, instances, check):
            layer = _layer(sys._getframe(1).f_globals.get("__name__", "?"))
            t0 = self._enter()
            try:
                return fn(builder, name, instances, check)
            finally:
                _, own = self._leave(t0)
                values[f"{layer}.scan_s"] += own
                values[f"{layer}.instances"] += \
                    builder.report().families.get(name, 0)
                values["report.family_calls"] += 1
        return family

    def _wrap(self, module, name, fn):
        layer = _layer(module.__name__)
        if (layer, name) in COUNT_ONLY:
            return self._counted(fn, COUNT_ONLY[(layer, name)])
        if (layer, name) in INCLUSIVE:
            return self._inclusive(fn, INCLUSIVE[(layer, name)])
        if (layer, name) == ("report", "cached_report"):
            return self._cached_report(fn)
        if name.startswith("check_"):
            return None
        return self._construction(fn, layer)

    # -- install and restore --------------------------------------------------
    def __enter__(self):
        mods = enrichkit_modules()
        wrappers = {}
        for module in mods:
            if module.__name__ == ENTRY_MODULE:
                continue
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapped = self._wrap(module, name, fn)
                if wrapped is not None:
                    wrappers[fn] = wrapped
        for module in mods:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrappers[value])
        from enrichkit.report import ReportBuilder
        original = ReportBuilder.family
        self._patches.append((ReportBuilder, "family", original))
        ReportBuilder.family = self._family(original)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._seen.clear()
        return False
