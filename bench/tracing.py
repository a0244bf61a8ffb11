"""In-memory spans around rot4's public functions, recorded from outside rot4.

Tracer.install() replaces every public function of every loaded rot4 module
with a wrapper that records a span: (op, id, parent id, name, start, end),
times from time.perf_counter.  A function is rebound in the module that
defines it and in every rot4 module that imported it with `from .x import y`
(the package namespace included); otherwise calls between modules would go
unseen.  Rotation4 construction is traced through Rotation4.__init__ and
GibbsPair.from_rotation through its class attribute.  quat._finite runs for
every float of every Vec3, so it is counted but not timed.  uninstall()
puts the originals back.

A span's self time is its duration minus the durations of the spans it
called directly, so the wrappers' own cost lands in the caller's self time.
Totals per name are kept for every call; raw spans up to SPAN_CAP.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

SPAN_CAP = 100_000
COUNT_ONLY = ("quat._finite",)


def _rot4_modules():
    return [(name, mod) for name, mod in sorted(sys.modules.items()) if name.startswith("rot4")]


class Tracer:
    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [calls, self seconds]
        self.spans: list[tuple] = []
        self.op = 0  # id of the operation that the next spans belong to
        self._stack = [[0, 0.0]]  # open spans: [span id, seconds in child spans]
        self._next_id = 1
        self._undo: list[tuple] = []

    # --- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        total = self.totals.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                total[0] += 1
                total[1] += duration - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((self.op, frame[0], parent[0], name, start, end))

        return wrapper

    def _counted(self, name: str, fn):
        total = self.totals.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            total[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap rot4's public functions in every rot4 module loaded now."""
        modules = _rot4_modules()
        wrapped = {}  # id(original) -> wrapper
        for mod_name, mod in modules:
            short = mod_name.partition(".")[2]
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod_name:
                    continue
                name = f"{short}.{attr}"
                if name in COUNT_ONLY:
                    wrapped[id(obj)] = self._counted(name, obj)
                elif not attr.startswith("_"):
                    wrapped[id(obj)] = self._timed(name, obj)
        for _, mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])
        rotation = sys.modules["rot4.rotation"]
        compose = sys.modules["rot4.compose"]
        init = rotation.Rotation4.__init__
        self._set(rotation.Rotation4, "__init__", self._timed("rotation.Rotation4", init))
        from_rotation = vars(compose.GibbsPair)["from_rotation"].__func__
        self._set(
            compose.GibbsPair,
            "from_rotation",
            classmethod(self._timed("compose.GibbsPair.from_rotation", from_rotation)),
        )

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- results ------------------------------------------------------------

    def merge(self, totals: dict, spans: list, op: int) -> None:
        """Add the totals and spans that a traced child process wrote."""
        for name, (calls, self_s) in totals.items():
            total = self.totals.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += self_s
        room = SPAN_CAP - len(self.spans)
        self.spans.extend((op, *span[1:]) for span in spans[:room])

    def dump(self) -> dict:
        return {"totals": self.totals, "spans": self.spans}

    def write_spans(self, path) -> None:
        """One JSON array per line: [op, id, parent id, name, start, end]."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
