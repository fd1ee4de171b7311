"""Outside-in tracing of triplekit's public functions.

`Tracer.install` replaces every public function of the traced modules with a
wrapper, and the two hot methods `Subspace.contains` and
`SigmaConjugation.apply` on their classes.  triplekit calls its own functions
through module attributes (`nx.rref(...)`) or module globals, both looked up
at call time, so the wrappers see calls made inside the package too.  Calls
routed through tables built at import time (the `jsonio._FROM` dispatch)
bypass the wrappers; their time lands in the caller's self time.

Each call records a span (name, start, end, parent span, request id) in
memory; `write` dumps them when the run ends.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("numerics", "lts", "symlie", "sympair", "periods", "jsonio", "cli")
METHODS = (("lts", "Subspace", "contains"), ("sympair", "SigmaConjugation", "apply"))


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.errors: Counter = Counter()
        self.decided: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        decided = self.decided if name == "periods.subgroup_discreteness" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if decided is not None and result.verdict != "Inconclusive":
                decided[name] += 1
            return result
        return traced

    def install(self, package) -> None:
        for short in MODULES:
            mod = importlib.import_module(f"{package.__name__}.{short}")
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(f"{short}.{attr}", obj))
        for short, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"{package.__name__}.{short}"), cls_name)
            obj = cls.__dict__[attr]
            self._undo.append((cls, attr, obj))
            setattr(cls, attr, self._wrap(f"{short}.{cls_name}.{attr}", obj))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    def totals(self) -> dict[str, dict]:
        """Per function: calls, self seconds, errors, and per-ancestor call counts."""
        child_time = defaultdict(float)
        for span in self.spans:
            name, start, end, parent, _ = span
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "under": Counter()})
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child_time[idx]
            seen = set()
            while parent >= 0:
                anc = self.spans[parent][0]
                if anc not in seen:
                    rec["under"][anc] += 1
                    seen.add(anc)
                parent = self.spans[parent][3]
        for name, rec in out.items():
            rec["errors"] = self.errors[name]
            rec["decided"] = self.decided[name]
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")
