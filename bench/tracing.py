"""Spans around calls into paclab, recorded from outside the package.

A Tracer replaces selected functions and methods with wrappers that time
each call. Every reference to a target is replaced: module attributes
(including names imported into other modules), values of module-level
dicts such as the fixture registry, and default argument values. So a call
made inside paclab, from one module to another, is seen the same way as a
call made by the benchmark. uninstall() puts every original back.

Each span records its name, thread, trial, start and end, and the span
that caused it: the innermost open span on the same thread, or for the
first span of a pool work item, the span that was open on the thread that
handed out the work. Counts taken from call arguments and results (rows
scored, candidates, pairs) are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

__all__ = ["Span", "Target", "Tracer", "self_times", "find_wrappers", "HOOK_SPAN"]

HOOK_SPAN = "bench.count"
"""Name of the spans that time count hooks, so their cost is not charged
to the span that was open when the hook ran."""


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    thread: int
    trial: int
    start: float
    end: float


class Target(NamedTuple):
    """One traced callable: span name, owner (module or class), attribute,
    and an optional hook mapping (arguments, result) to counts to add."""

    name: str
    owner: object
    attr: str
    hook: object = None


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.

    Children may overlap each other (work items of one pool running on
    several threads), so the covered part is the length of the union of
    the children's intervals, clipped to the parent's interval.
    """
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            low = max(child.start, cursor)
            high = min(child.end, span.end)
            if high > low:
                covered += high - low
                cursor = high
        out[span.id] = (span.end - span.start) - covered
    return out


def _is_wrapper(value) -> bool:
    return getattr(value, "__bench_wrapper__", False) is True


def _sites(original, owner, attr, modules):
    """Every (kind, container, key) slot that currently holds `original`."""
    if inspect.isclass(owner):
        yield ("attr", owner, attr)
        return
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                yield ("attr", module, key)
            elif isinstance(value, dict) and not key.startswith("__"):
                for dict_key, item in value.items():
                    if item is original:
                        yield ("item", value, dict_key)
            elif inspect.isfunction(value) and value.__defaults__:
                for index, default in enumerate(value.__defaults__):
                    if default is original:
                        yield ("default", value, index)


def _write(kind, container, key, value) -> None:
    if kind == "attr":
        setattr(container, key, value)
    elif kind == "item":
        container[key] = value
    else:
        defaults = list(container.__defaults__)
        defaults[key] = value
        container.__defaults__ = tuple(defaults)


def find_wrappers(modules) -> list[str]:
    """Describe every tracer wrapper still reachable from the given modules."""
    found = []
    for module in modules:
        for key, value in vars(module).items():
            where = f"{module.__name__}.{key}"
            if _is_wrapper(value):
                found.append(where)
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                found += [f"{where}.{k}" for k, v in vars(value).items() if _is_wrapper(v)]
            elif isinstance(value, dict):
                found += [f"{where}[{k!r}]" for k, v in value.items() if _is_wrapper(v)]
            elif inspect.isfunction(value) and value.__defaults__:
                found += [f"{where} default" for v in value.__defaults__ if _is_wrapper(v)]
    return found


class Tracer:
    """Collects spans and counts from wrapped callables.

    Spans stay in memory until the owner reads them. Installing twice
    without uninstalling is an error, so no wrapper can wrap another.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._trial_ids = itertools.count(1)
        self._patched: list[tuple] = []

    # -- context -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        """Id of the span a new span on this thread would be a child of."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "adopted", 0)

    @contextmanager
    def trial(self, parent: int | None = None):
        """Give the spans opened inside a fresh trial id.

        parent, when given, becomes the parent of spans opened while this
        thread has no open span of its own: that is how a pool work item
        running on a worker thread links back to the span that submitted it.
        """
        local = self._local
        saved = (getattr(local, "trial", 0), getattr(local, "adopted", 0))
        local.trial = next(self._trial_ids)
        if parent is not None:
            local.adopted = parent
        try:
            yield local.trial
        finally:
            local.trial, local.adopted = saved

    def add(self, name: str, counts: dict) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counts[f"{name}.{key}"] += value

    # -- wrapping ------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """A callable that behaves like fn and records one span per call."""
        tracer = self
        local = self._local
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(local, "muted", False):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else getattr(local, "adopted", 0)
            span_id = next(tracer._span_ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, parent, name, threading.get_ident(),
                         getattr(local, "trial", 0), start, end)
                )
            if hook is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                local.muted = True
                hook_start = time.perf_counter()
                try:
                    counts = hook(arguments, result)
                finally:
                    local.muted = False
                tracer.spans.append(
                    Span(next(tracer._span_ids), parent, HOOK_SPAN, threading.get_ident(),
                         getattr(local, "trial", 0), hook_start, time.perf_counter())
                )
                tracer.add(name, counts)
            return result

        wrapper.__bench_wrapper__ = True
        return wrapper

    def install(self, targets, modules, pool_maps=()) -> None:
        """Wrap every target wherever the given modules refer to it.

        pool_maps lists (owner, attr) of map(worker, items, ...) functions
        whose work items each become one trial. Every slot is found before
        any is written, so a target that is the default argument of another
        target is found in either order.
        """
        if self._patched:
            raise RuntimeError("tracer is already installed")
        plan = []
        for target in targets:
            original = vars(target.owner)[target.attr]
            if _is_wrapper(original):
                raise RuntimeError(f"{target.name} is already wrapped")
            wrapper = self.wrap(target.name, original, target.hook)
            plan += [(site, original, wrapper) for site in _sites(original, target.owner, target.attr, modules)]
        for owner, attr in pool_maps:
            original = vars(owner)[attr]
            wrapper = self._wrap_pool_map(original)
            plan += [(site, original, wrapper) for site in _sites(original, owner, attr, modules)]
        try:
            for (kind, container, key), original, wrapper in plan:
                self._patched.append((kind, container, key, original))
                _write(kind, container, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _wrap_pool_map(self, original):
        tracer = self

        @functools.wraps(original)
        def pool_map(worker, items, *args, **kwargs):
            submitter = tracer.current()

            def traced_worker(item):
                with tracer.trial(parent=submitter):
                    return worker(item)

            return original(traced_worker, items, *args, **kwargs)

        pool_map.__bench_wrapper__ = True
        return pool_map

    def uninstall(self) -> None:
        """Put every original back, most recent patch first."""
        while self._patched:
            kind, container, key, original = self._patched.pop()
            _write(kind, container, key, original)

    # -- results -------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Span name -> {"calls": n, "self_s": seconds} over all spans."""
        own = self_times(self.spans)
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for span in self.spans:
            entry = totals[span.name]
            entry["calls"] += 1
            entry["self_s"] += own[span.id]
        return dict(totals)

