"""Per-layer tracing from outside the program.

``install`` wraps every public function of the traced modules, plus the
methods named in METHODS, and rebinds each wrapper wherever a chasebound
module imported the original by name (``engine`` calls ``find_homomorphism``
through its own global, so patching ``homomorphism`` alone would miss it).
Each call is a span; a span's self time is its duration minus the durations
of the spans it encloses.  Generators are timed per ``next()`` so the
consumer's work between items is not charged to them.
"""

from __future__ import annotations

import inspect
import sys
import time
from types import ModuleType

TRACED_MODULES = ("engine", "homomorphism", "boundedness", "trace", "parser")
METHODS = (("engine", "Derivation", "extend"),)
# Called too often for a span to be cheap; only counted.
COUNTED_METHODS = (("budget", "Budget", "spend_step"),)

# Bindings that must be rebound, or calls through them go unseen.
REQUIRED_BINDINGS = {
    "engine": ("find_homomorphism", "all_homomorphisms"),
    "boundedness": ("canonical_form", "enumerate_breadth_first_derivations",
                    "verify_derivation"),
    "cli": ("run_breadth_first", "verify_derivation", "serialize_trace",
            "deserialize_trace"),
}


# Useful outcomes of a call: a count added to ``out`` per call.
OUTCOMES = {
    "engine.is_applicable": bool,
    "homomorphism.find_homomorphism": lambda found: found is not None,
    "engine.enumerate_triggers": len,
    "homomorphism.all_homomorphisms": len,
    "trace.serialize_trace": lambda text: len(text.encode("utf-8")),
}


class Stat:
    __slots__ = ("calls", "self_s", "out")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.out = 0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "out": self.out}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        # Time covered by finished child spans of each open span; the bottom
        # entry collects the top-level spans.
        self._child_time = [0.0]

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        child_time = self._child_time
        clock = time.perf_counter

        def close_span(start: float) -> None:
            elapsed = clock() - start
            stat.self_s += elapsed - child_time.pop()
            child_time[-1] += elapsed

        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                stat.calls += 1
                items = fn(*args, **kwargs)
                try:
                    while True:
                        child_time.append(0.0)
                        start = clock()
                        try:
                            item = next(items)
                        except StopIteration:
                            return
                        finally:
                            close_span(start)
                        stat.out += 1
                        yield item
                finally:
                    items.close()
            return traced_generator

        outcome = OUTCOMES.get(name)

        def traced(*args, **kwargs):
            stat.calls += 1
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(start)
            if outcome is not None:
                stat.out += outcome(result)
            return result
        return traced

    def count(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())

        def counted(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)
        return counted

    def report(self) -> dict:
        return {name: stat.as_dict() for name, stat in sorted(self.stats.items())}


def _module(short: str) -> ModuleType:
    return sys.modules[f"chasebound.{short}"]


def install(tracer: Tracer) -> None:
    """Wrap the traced layers of an imported ``chasebound`` in place."""
    replacements = {}
    for short in TRACED_MODULES:
        module = _module(short)
        for name, obj in list(vars(module).items()):
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                replacements[id(obj)] = tracer.wrap(f"{short}.{name}", obj)
    for short, cls_name, method in METHODS:
        cls = getattr(_module(short), cls_name)
        setattr(cls, method, tracer.wrap(f"{short}.{cls_name}.{method}",
                                         vars(cls)[method]))
    for short, cls_name, method in COUNTED_METHODS:
        cls = getattr(_module(short), cls_name)
        setattr(cls, method, tracer.count(f"{short}.{cls_name}.{method}",
                                          vars(cls)[method]))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "chasebound" and not mod_name.startswith("chasebound."):
            continue
        for name, obj in list(vars(module).items()):
            wrapper = replacements.get(id(obj))
            if wrapper is not None:
                setattr(module, name, wrapper)
    wrappers = {id(w) for w in replacements.values()}
    for short, names in REQUIRED_BINDINGS.items():
        module = _module(short)
        for name in names:
            if id(getattr(module, name)) not in wrappers:
                raise RuntimeError(f"chasebound.{short}.{name} was not rebound")
