"""In-memory span tracer that wraps qreform's public functions from outside.

Nothing under ``src/`` is edited.  A module function is replaced in every
qreform module that binds it, so a name imported with ``from .x import y``
(``pipeline`` binds ``sha256_file`` and ``save_checkpoint`` this way) is
traced too; a method is replaced on its class.  Each span is kept as
``[name, start, end, parent, value]``: ``parent`` is the index of the
enclosing span (-1 at the root) and ``value`` is an optional tuple of
counts measured at the same boundary, such as texts looked up or bytes
hashed.  Count hooks run outside the timed interval.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _traced(self, span_name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            value = before(args, kwargs) if before is not None else None
            record = [span_name, 0.0, 0.0, stack[-1] if stack else -1, value]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                record[4] = after(result, args, kwargs)
            return result

        return traced

    def wrap_function(self, module, name: str, span_name: str, before=None, after=None) -> None:
        original = getattr(module, name)
        traced = self._traced(span_name, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("qreform"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    self._restore.append((mod, attr, original))

    def wrap_method(self, cls, name: str, span_name: str, before=None, after=None) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self._traced(span_name, original, before, after))
        self._restore.append((cls, name, original))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summary(self, start: int = 0) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, summed counts.

        Self time is a span's duration minus the durations of its direct
        children; spans are nested on one thread, so children never overlap.
        Only spans with index >= ``start`` count.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for record in spans:
            if record[3] >= 0:
                child[record[3]] += record[2] - record[1]
        out: dict[str, dict] = {}
        for index in range(start, len(spans)):
            name, began, ended, _, value = spans[index]
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": None})
            entry["calls"] += 1
            entry["total_s"] += ended - began
            entry["self_s"] += ended - began - child[index]
            if value is not None:
                if entry["value"] is None:
                    entry["value"] = list(value)
                else:
                    entry["value"] = [a + b for a, b in zip(entry["value"], value)]
        return out

    def per_root(self, root_name: str, start: int = 0) -> list[dict[str, float]]:
        """For each ``root_name`` span: inclusive seconds spent per span name
        among its descendants, counting only the outermost span of each name."""
        spans = self.spans
        roots: dict[int, dict[str, float]] = {}
        owner = [-1] * len(spans)
        for index in range(start, len(spans)):
            name, began, ended, parent, _ = spans[index]
            if name == root_name:
                owner[index] = index
                roots[index] = {}
                continue
            root = owner[parent] if parent >= start else -1
            owner[index] = root
            if root < 0 or spans[parent][0] == name:
                continue
            totals = roots[root]
            totals[name] = totals.get(name, 0.0) + ended - began
        return [roots[i] for i in sorted(roots)]

    def write(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, began, ended, parent, value in self.spans:
                fh.write(json.dumps([name, began, ended, parent, value]) + "\n")
