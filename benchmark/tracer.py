"""In-memory span tracer that instruments consol from outside the package.

`Tracer.install` wraps every public function, and every public method of a
public class, defined in a consol module, and rebinds the wrapper in every
namespace that holds the original by name (``cli.run_search``,
``q_learning.make_structure``, ``consol.icnn_fit`` ...).  Nothing under
``src/`` is edited; `Tracer.uninstall` restores the originals.

A span is ``(name, start, end, parent, episode)``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``episode`` counts entries into
the episode function.  Self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict


def public_callables(module):
    """(qualified name, owner, attribute, function) for each public function
    defined in `module` and each public plain method of its public classes."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{attr}", module, attr, obj
        elif inspect.isclass(obj):
            for meth, fn in sorted(vars(obj).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{short}.{attr}.{meth}", obj, meth, fn


class Tracer:
    """Records spans of wrapped calls; one instance per traced process.

    `observers` maps a span name to ``f(args, kwargs, result) -> dict`` whose
    values are added to that span name's counters (epochs fitted, rows
    trained on, rejected actions ...).
    """

    def __init__(self, episode_fn: str | None = None, observers=None,
                 clock=time.perf_counter):
        self.episode_fn = episode_fn
        self.observers = dict(observers or {})
        self.clock = clock
        self.spans: list = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.episode = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- instrumentation --------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        observer = self.observers.get(name)
        counts_episode = name == self.episode_fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_episode:
                self.episode += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.episode)
            if observer is not None:
                for key, value in observer(args, kwargs, result).items():
                    self.counters[name][key] += value
            return result

        return traced

    def install(self, modules) -> None:
        """Wrap the public callables of `modules`; rebind module-level names
        in `modules` and every loaded ``consol`` module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for module in modules:
            for name, owner, attr, fn in public_callables(module):
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(name, fn)
                if inspect.isclass(owner):
                    self._patch(owner, attr, wrapped[id(fn)])
        scan = list(modules) + [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "consol" or n.startswith("consol."))]
        seen = set()
        for ns in scan:
            if id(ns) in seen:
                continue
            seen.add(id(ns))
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(ns, attr, wrapped[id(obj)])

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans.clear()
        self.counters.clear()
        self.episode = 0

    # --- aggregation ------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost calls only, so
        recursion is not double counted), self seconds, plus observer
        counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        names = [s[0] for s in self.spans]
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            if not self._has_ancestor(i, name, names):
                row["s"] += end - start
        for name, counters in self.counters.items():
            out[name].update(counters)
        return dict(out)

    def _has_ancestor(self, i: int, name: str, names) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if names[p] == name:
                return True
            p = self.spans[p][3]
        return False

    def inclusive_under(self, names, parents) -> float:
        """Total duration of spans named in `names` whose direct parent span
        is named in `parents`."""
        names, parents = set(names), set(parents)
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name in names and parent >= 0 and self.spans[parent][0] in parents:
                total += end - start
        return total

    def count_under(self, name: str, parent_name: str) -> int:
        return sum(1 for n, _, _, p, _ in self.spans
                   if n == name and p >= 0 and self.spans[p][0] == parent_name)
