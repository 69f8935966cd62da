"""Per-layer spans for the traced benchmark run.

The benchmark wraps the public functions and methods of each squintsense
module from the outside; the package itself is not modified. A function
imported by name into another module is a separate lookup site, so each
wrapper is put at every site that holds the original object: the module
that defines it, every module that imported it, and module-level dicts
(such as a method-dispatch table). Any site still missed shows up as a
hook that never fired.

Spans are aggregated in memory per name: calls, inclusive time, and self
time (inclusive time minus the part covered by nested wrapped calls).
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("config", "geometry", "beamforming", "channel", "detection", "power", "simkit", "cli")
PACKAGE = "squintsense"


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span accumulator; each wrapper feeds one :class:`SpanStats` by name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}
        self.counters = {}
        self.unreadable = set()  # counters whose on_return callback failed
        self._open = []  # child time accumulated by each open span

    def reset(self):
        for stats in self.spans.values():
            stats.reset()
        self.counters.clear()
        self.unreadable.clear()

    def add(self, counter: str, value: float):
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``on_return(tracer, args, kwargs, result)`` may add counters read
        from the call; if it cannot read them it marks ``name`` unreadable
        instead of failing the benchmarked call.
        """
        stats = self.spans.setdefault(name, SpanStats())
        open_spans = self._open
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - child
                if open_spans:
                    open_spans[-1] += elapsed
            if on_return is not None:
                try:
                    on_return(self, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                    self.unreadable.add(name)
            return result

        return wrapper


def public_callables(module):
    """(span name, owner class or None, attribute, function) for one layer."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", None, name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{layer}.{name}.{attr}", obj, attr, member


class Hooks:
    """Wrappers for a set of loaded package modules; :meth:`apply` puts them
    at every lookup site and :meth:`remove` restores the originals."""

    def __init__(self, tracer: Tracer, modules: dict, on_return: dict | None = None):
        """``modules`` maps module name to module for every lookup site."""
        on_return = on_return or {}
        self.installed = set()
        self._sites = []  # (namespace dict or object, key, original, wrapper)
        sites = list(modules.values())
        for layer in LAYERS:
            module = modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for span, owner, attr, fn in list(public_callables(module)):
                wrapper = tracer.wrap(span, fn, on_return.get(span))
                self.installed.add(span)
                if owner is not None:
                    self._sites.append((owner, attr, fn, wrapper))
                    continue
                for site in sites:
                    for name, value in vars(site).items():
                        if value is fn:
                            self._sites.append((site, name, fn, wrapper))
                        elif isinstance(value, dict):
                            self._sites.extend(
                                (value, key, fn, wrapper)
                                for key, item in value.items() if item is fn
                            )
        self.apply()

    @staticmethod
    def _put(target, key, value):
        if isinstance(target, dict):
            target[key] = value
        else:
            setattr(target, key, value)

    def apply(self):
        for target, key, _, wrapper in self._sites:
            self._put(target, key, wrapper)

    def remove(self):
        for target, key, original, _ in self._sites:
            self._put(target, key, original)


def hook_report(tracer: Tracer, hooks: Hooks, wanted, expected):
    """Classify hooks: ``absent`` (name not found in the package, or its
    counters could not be read) and ``never-fired`` (installed, on the
    workload's call path, but called zero times)."""
    absent = sorted(
        {s for s in wanted if s not in hooks.installed} | (set(wanted) & tracer.unreadable)
    )
    never = sorted(
        s for s in expected if s in hooks.installed and tracer.spans[s].calls == 0
    )
    return absent, never
