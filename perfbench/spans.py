"""In-memory span recorder for the traced run.

Spans are recorded only by wrapping the module-level names through which
one qhoare layer calls another; nothing under ``src/`` changes.  A span is
``[name, start, end, parent]`` with ``parent`` the index of the enclosing
span, or -1.  A function that re-enters itself (a layer's own recursion),
through any of its wrapped names, records only the outermost call.
"""

from __future__ import annotations

import json
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._active = Counter()
        self._installed = []

    def span(self, name: str, fn, on_call=None):
        """``fn`` wrapped to record a span; ``on_call(args, result)`` runs
        after each recorded call to add counts."""
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if active[fn]:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            active[fn] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                active[fn] -= 1
                stack.pop()
            if on_call is not None:
                on_call(args, result)
            return result
        return wrapper

    def install(self, module, attr: str, name: str, on_call=None) -> None:
        orig = getattr(module, attr)
        self._installed.append((module, attr, orig))
        setattr(module, attr, self.span(name, orig, on_call))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, orig = self._installed.pop()
            setattr(module, attr, orig)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def totals(self) -> dict:
        """``(root name, span name) -> (calls, seconds, self seconds)``.

        The root is the outermost span above a span.  Self time is a
        span's duration minus the time its child spans cover.
        """
        roots, child = [], [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            roots.append(name if parent < 0 else roots[parent])
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, total, own = out.get((roots[i], name), (0, 0.0, 0.0))
            out[(roots[i], name)] = (calls + 1, total + end - start,
                                     own + end - start - child[i])
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
