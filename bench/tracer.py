"""Span tracing of the tailpremium package, installed from outside it.

``Tracer`` replaces every public function of every ``tailpremium.*``
namespace that binds it, and every public method of the package's
classes, with a wrapper that records a span: name, parent span, start
and end.  Spans sit on a stack, so a span's self time is its duration
minus its children's.  They are kept in memory and summarised after the
traced command; ``remove`` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
import types
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

PACKAGE = "tailpremium"


def package_modules() -> List[types.ModuleType]:
    """The package and all of its submodules, imported."""
    package = importlib.import_module(PACKAGE)
    return [package] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(package.__path__, prefix=f"{PACKAGE}.")
    ]


def _own(obj) -> bool:
    return getattr(obj, "__module__", "").startswith(PACKAGE)


def _layer(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1 :] or PACKAGE


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    parent: int
    start_ns: int
    end_ns: int = 0
    raised: bool = False
    observed: object = None


class Tracer:
    """Records spans for calls into the package while installed.

    ``observe`` maps a span name to a function of the call's return
    value; its result is kept on the span, for counts such as failed
    replicates.  Use as a context manager around one traced command.
    """

    def __init__(self, observe: Optional[Dict[str, Callable]] = None) -> None:
        self.observe = dict(observe or {})
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: list = []
        self._wrappers: dict = {}

    def _wrap(self, fn: Callable, qualname: str) -> Callable:
        if fn in self._wrappers:
            return self._wrappers[fn]
        layer = _layer(fn.__module__)
        name = f"{layer}.{qualname}"
        observe = self.observe.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end_ns = clock()
                stack.pop()
            if observe is not None:
                span.observed = observe(result)
            return result

        self._wrappers[fn] = wrapper
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_class(self, cls: type) -> None:
        if getattr(cls, "_is_protocol", False):
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = self._wrap(raw.__func__, qualname)
                self._patch(cls, attr, type(raw)(wrapped))
            elif isinstance(raw, types.FunctionType):
                self._patch(cls, attr, self._wrap(raw, qualname))

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        classes = set()
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not _own(value):
                    continue
                if isinstance(value, types.FunctionType):
                    self._patch(module, attr, self._wrap(value, value.__qualname__))
                elif isinstance(value, type):
                    classes.add(value)
        for cls in sorted(classes, key=lambda c: (c.__module__, c.__qualname__)):
            self._patch_class(cls)
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._wrappers.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


def snapshot_bindings() -> Dict[tuple, object]:
    """Every public binding the tracer may replace, for restore checks."""
    bindings = {}
    for module in package_modules():
        for attr, value in vars(module).items():
            if attr.startswith("_") or not _own(value):
                continue
            bindings[(module.__name__, attr)] = value
            if isinstance(value, type):
                for cattr, raw in vars(value).items():
                    if not cattr.startswith("_"):
                        bindings[(module.__name__, attr, cattr)] = raw
    return bindings


def attribute(spans: List[Span], roots: Dict[str, str]) -> Dict[str, float]:
    """Self seconds per metric key.

    Each span's self time goes to the nearest span, itself or an
    ancestor reached without leaving the span's layer, whose name is a
    key of ``roots``; the time is then booked under ``roots[name]``.
    Time with no such span is booked under ``<layer>.other``.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end_ns - span.start_ns
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        self_s = (span.end_ns - span.start_ns - child_ns[index]) * 1e-9
        key = f"{span.layer}.other"
        node = span
        while True:
            if node.name in roots:
                key = roots[node.name]
                break
            if node.parent < 0 or spans[node.parent].layer != span.layer:
                break
            node = spans[node.parent]
        totals[key] = totals.get(key, 0.0) + self_s
    return totals
