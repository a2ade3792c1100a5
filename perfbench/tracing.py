"""Spans and counts around module-level names of ``sobolev_lab``.

The library has no tracing of its own, so the traced run reaches each layer
from outside: a :class:`Tracer` replaces a function at every binding the
library looks up at call time (``from X import f`` makes one binding per
importing module, and ``verify.SUITES`` holds the suites in a dict), records
one span per call, and puts every original back on :meth:`restore`.
Untraced runs never build a Tracer, so they run the library untouched.

Spans stay in memory as ``(name, start, end, parent, task_id, info)``
tuples; ``info`` holds counts taken at the same boundary (iterations,
evaluations, sizes). They are written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time

PACKAGE = "sobolev_lab"


def _library_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Records spans for wrapped functions and restores them afterwards."""

    def __init__(self):
        self.spans = []
        self.task_id = -1
        self.absent = set()
        self.wrapped = set()
        self._stack = []
        self._patches = []

    def wrap(self, span: str, module: str, attr: str, record=None, counted_arg=None) -> bool:
        """Wrap ``module.attr`` under the span name ``span``.

        A function defined in the library is replaced at every binding in
        every loaded library module. A foreign function (a scipy solver) is
        replaced only at ``module.attr``, since other modules bind the same
        object for other purposes. ``record(args, kwargs, result)`` returns
        the counts stored with the span; ``counted_arg`` names the position
        of a callable argument whose calls are counted as ``fevals``.
        Returns False, and marks the span absent, when the name is missing.
        """
        mod = sys.modules.get(module)
        original = getattr(mod, attr, None) if mod is not None else None
        if not callable(original):
            self.absent.add(span)
            return False
        wrapper = self._wrapper(span, original, record, counted_arg)
        own = getattr(original, "__module__", "") or ""
        if own == PACKAGE or own.startswith(PACKAGE + "."):
            targets = _library_modules()
        else:
            targets = [mod]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._patch(target, key, wrapper, original)
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        if dval is original:
                            self._patch(value, dkey, wrapper, original)
        self.wrapped.add(span)
        return True

    def _patch(self, container, key, wrapper, original) -> None:
        if isinstance(container, dict):
            container[key] = wrapper
        else:
            setattr(container, key, wrapper)
        self._patches.append((container, key, original))

    def restore(self) -> None:
        """Put every original binding back, in reverse order of patching."""
        while self._patches:
            container, key, original = self._patches.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    def _wrapper(self, span, original, record, counted_arg):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            counter = None
            if counted_arg is not None:
                fn = args[counted_arg]
                counter = [0]

                def counting(*a, **k):
                    counter[0] += 1
                    return fn(*a, **k)

                args = args[:counted_arg] + (counting,) + args[counted_arg + 1 :]
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span, start, end, parent, self.task_id, None)
            info = record(args, kwargs, result) if record is not None else None
            if counter is not None:
                info = dict(info or {}, fevals=counter[0])
            if info:
                spans[index] = (span, start, end, parent, self.task_id, info)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", span)
        return traced

def write_spans(path, spans: list) -> None:
    """Write spans once, as JSON lines with the documented fields."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, task_id, info in spans:
            row = {"name": name, "start": start, "end": end, "parent": parent, "task_id": task_id}
            if info:
                row["info"] = info
            fh.write(json.dumps(row) + "\n")


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus that of its direct children.

    Children of one span run one after another (one thread), so their
    durations add up to the part of the parent interval they cover.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _, _) in enumerate(spans)]


def has_ancestor(spans: list, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
