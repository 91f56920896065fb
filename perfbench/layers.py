"""Wall-clock self time per layer, measured from outside the library.

A layer is a set of modules (:data:`LAYERS`); a function's module
decides its layer. :func:`install` wraps, at runtime, every function and
method those modules define, plus the generated functions they keep in
module-level tables (the codec's encoders and digest expanders). A
wrapper called from its own layer calls straight through; a wrapper
called from another layer opens a span, so only calls that cross a
layer boundary pay for timing. Generator functions return a proxy
whose every resumption is such a call, because a process body runs
when the scheduler resumes it, not when it is created.

A span's self time is its duration minus that of the spans it
encloses. Time outside every layer -- repository modules no layer
names, and the benchmark's own top level -- is ``unattributed``, so
the layers' self times plus ``unattributed`` equal the traced total.
"""

from __future__ import annotations

import enum
import inspect
import sys
import time
from typing import Any, Callable, Dict, List

UNATTRIBUTED = "unattributed"

#: Layer name -> module names (a name ending in "." is a package prefix).
LAYERS: Dict[str, tuple] = {
    "sim.scheduler": (
        "repro.sim.simulator", "repro.sim.events", "repro.sim.process",
    ),
    "sim.network": ("repro.sim.network", "repro.sim.node"),
    "pbft": ("repro.pbft.",),
    "core.node": (
        "repro.core.node", "repro.core.api", "repro.core.reads",
        "repro.core.recovery",
    ),
    "core.local_log": ("repro.core.local_log",),
    "core.daemon": ("repro.core.daemon",),
    "core.geo": ("repro.core.geo",),
    "core.codec": ("repro.core.codec", "repro.core.wire"),
    "crypto": ("repro.crypto.",),
    "obs": ("repro.obs.",),
    "workloads": ("repro.workloads.", "workloads"),
}

#: Methods left unwrapped: object protocol hooks that run during class
#: and instance machinery rather than as a layer's work.
_SKIP = frozenset({
    "__new__", "__init_subclass__", "__class_getitem__", "__getattr__",
    "__getattribute__", "__setattr__", "__delattr__", "__set_name__",
    "__reduce__", "__reduce_ex__", "__getstate__", "__setstate__",
    "__copy__", "__deepcopy__", "__repr__", "__str__",
})


def layer_of(module_name: str) -> str:
    for layer, modules in LAYERS.items():
        for name in modules:
            if module_name == name or (
                name.endswith(".") and module_name.startswith(name)
            ):
                return layer
    return UNATTRIBUTED


class Profile:
    """Self time and cross-layer call counts per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Open spans, innermost last: ``[layer, start, child seconds]``.
        self.stack: List[list] = []
        self.total_s = 0.0

    def start(self) -> None:
        self.stack.append([UNATTRIBUTED, time.perf_counter(), 0.0])

    def stop(self) -> None:
        layer, started, child = self.stack.pop()
        if self.stack:
            raise RuntimeError("profile stopped inside an open span")
        self.total_s = time.perf_counter() - started
        self.self_s[layer] = self.self_s.get(layer, 0.0) + self.total_s - child

    def conservation_error_s(self) -> float:
        """``|sum of self times - traced total|`` (float noise only)."""
        return abs(sum(self.self_s.values()) - self.total_s)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def span(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``."""
        stack = self.stack
        span = [layer, time.perf_counter(), 0.0]
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - span[1]
            stack.pop()
            self.self_s[layer] += duration - span[2]
            stack[-1][2] += duration
            self.calls[layer] += 1

    def wrap(self, fn: Callable, layer: str) -> Callable:
        self.self_s.setdefault(layer, 0.0)
        self.calls.setdefault(layer, 0)
        stack = self.stack
        span = self.span
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                return _TimedGenerator(fn(*args, **kwargs), layer, self)
        else:
            def wrapper(*args, **kwargs):
                if not stack or stack[-1][0] is layer:
                    return fn(*args, **kwargs)
                return span(layer, fn, *args, **kwargs)
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__module__ = fn.__module__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper


class _TimedGenerator:
    """A generator whose resumptions from another layer are spans."""

    __slots__ = ("_gen", "_layer", "_profile")

    def __init__(self, gen, layer: str, profile: Profile) -> None:
        self._gen = gen
        self._layer = layer
        self._profile = profile

    @property
    def __name__(self) -> str:
        return self._gen.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self) -> None:
        self._gen.close()

    def _resume(self, method, *args):
        stack = self._profile.stack
        if not stack or stack[-1][0] is self._layer:
            return method(*args)
        return self._profile.span(self._layer, method, *args)


def _is_plain_function(obj: Any) -> bool:
    return inspect.isfunction(obj) and not hasattr(obj, "__wrapped__")


def install(profile: Profile) -> int:
    """Wrap every function of every loaded repository module (and of
    the benchmark's ``workloads`` module) in its layer's wrapper.

    Returns how many functions were wrapped. Must run after the modules
    are imported and before the deployment is built, so that bound
    methods captured at construction are the wrapped ones.
    """
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro.") or name == "workloads")
    ]
    replaced: Dict[int, Callable] = {}

    def wrapped(fn: Callable, layer: str) -> Callable:
        done = replaced.get(id(fn))
        if done is None:
            done = profile.wrap(fn, layer)
            replaced[id(fn)] = done
        return done

    for module in modules:
        layer = layer_of(module.__name__)
        for name, value in list(vars(module).items()):
            if _is_plain_function(value) and value.__module__ == module.__name__:
                setattr(module, name, wrapped(value, layer))
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                _wrap_class(value, layer, wrapped)
            elif isinstance(value, dict) and name.startswith("_"):
                # Generated-function tables (codec encoders, decoders,
                # digest expanders) are called through these dicts.
                for key, item in list(value.items()):
                    if _is_plain_function(item):
                        value[key] = wrapped(item, layer)
    # Modules that imported a function by name hold the original.
    for module in modules:
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in replaced:
                setattr(module, name, replaced[id(value)])
    return len(replaced)


def _wrap_class(cls: type, layer: str, wrapped) -> None:
    if issubclass(cls, (BaseException, enum.Enum)):
        return
    for name, value in list(vars(cls).items()):
        if name in _SKIP:
            continue
        if _is_plain_function(value):
            setattr(cls, name, wrapped(value, layer))
        elif isinstance(value, staticmethod) and _is_plain_function(value.__func__):
            setattr(cls, name, staticmethod(wrapped(value.__func__, layer)))
        elif isinstance(value, classmethod) and _is_plain_function(value.__func__):
            setattr(cls, name, classmethod(wrapped(value.__func__, layer)))
        elif isinstance(value, property):
            setattr(cls, name, property(
                *(
                    wrapped(part, layer) if _is_plain_function(part) else part
                    for part in (value.fget, value.fset, value.fdel)
                ),
                value.__doc__,
            ))
        elif inspect.isclass(value) and value.__qualname__.startswith(
            cls.__qualname__ + "."
        ):
            _wrap_class(value, layer, wrapped)
