"""In-memory spans around calls into ivote's layers.

A span is (name, start, end, parent, op id, round, error, counts). The
tracer wraps public functions by replacing every reference to them in
ivote's modules, so calls made inside the library (``classify_game``
calling ``build_graph``) are recorded too, and restores them on
``uninstall``. Nothing in the library changes. Spans stay in memory
until ``write``.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import defaultdict

# Wrapped functions, by the module that defines them, and the counts
# taken from each one's result.
TRACED = {
    "analysis": (
        "build_graph",
        "is_fip",
        "is_weak_fip",
        "is_restricted_fip",
        "longest_convergence_path",
        "from_state",
        "classify_game",
        "classify_game_form",
        "conjecture_scan",
    ),
    "dynamics": ("run_path",),
    "constructions": ("verify_catalog",),
    "gamefile": ("loads", "dumps"),
}

COUNTERS = {
    "analysis.build_graph": lambda r: {"nodes": r.num_nodes, "edges": r.num_edges},
    "analysis.is_restricted_fip": lambda r: {"branches": r.branches},
    "analysis.classify_game_form": lambda r: {"games": r.games_checked},
    "analysis.conjecture_scan": lambda r: {"games": r.checked},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = None
        self.round = -1
        self.gc_s = defaultdict(float)
        self.gc_n = defaultdict(int)
        self._patched = []
        self._gc_start = None

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(
            [name, time.perf_counter(), None, parent, self.op_id, self.round, False, None]
        )
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def end(self, index: int, error: bool = False, counts=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[6] = error
        span[7] = counts
        self.stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, error=True)
                raise
            self.end(index, counts=counter(result) if counter else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s[self.round] += time.perf_counter() - self._gc_start
            self.gc_n[self.round] += 1
            self._gc_start = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever an ivote module refers to it."""
        modules = [
            m for n, m in sys.modules.items() if n == "ivote" or n.startswith("ivote.")
        ]
        wrappers = {}
        for module_name, names in TRACED.items():
            module = sys.modules.get(f"ivote.{module_name}")
            for fn_name in names:
                fn = getattr(module, fn_name, None)
                if fn is not None:
                    wrappers[id(fn)] = self.wrap(f"{module_name}.{fn_name}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        gc.callbacks.remove(self._on_gc)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - child[i] for i, s in enumerate(self.spans)]

    def per_round(self) -> dict:
        """{round: {span name: {"self_s", "calls", "errors", counts...}}}."""
        out = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for span, self_s in zip(self.spans, self.self_times()):
            name, _, _, _, _, rnd, error, counts = span
            agg = out[rnd][name]
            agg["self_s"] += self_s
            agg["calls"] += 1
            agg["errors"] += error
            for key, value in (counts or {}).items():
                agg[key] += value
        return out

    def write(self, path) -> None:
        self_s = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op_id, rnd, error, counts) in enumerate(
                self.spans
            ):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "self_s": self_s[i],
                            "parent": parent,
                            "op": op_id,
                            "round": rnd,
                            "error": error,
                            "counts": counts,
                        }
                    )
                    + "\n"
                )
