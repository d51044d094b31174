"""In-memory span tracing installed around the library's public functions.

Wrappers replace module attributes, because callers resolve those names
at call time: a function imported into several modules (``is_convex`` is
bound in both ``convexity`` and ``domination``) is replaced everywhere it
is bound, so calls made from inside the library are traced too.  The
graph's lazily cached tables are traced by swapping in a traced
``cached_property``.  Spans are kept in flat arrays while the run lasts
and written out once it ends.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from functools import cached_property
from math import comb

from clock import cpu


def _seed_count(n: int) -> int:
    return sum(comb(n, k) for k in range(1, 5))


# (span name, defining module, function, tally) where tally(args, result)
# returns a (label, amount) counted under the span name.
TRACED = (
    ("edgelist.parse", "edgelist", "parse", None),
    ("records.serialize", "records", "base_record", None),
    ("records.serialize", "records", "solver_fields", None),
    ("records.serialize", "records", "to_line", None),
    ("recognition.is_chordal", "recognition", "is_chordal", None),
    ("recognition.is_chordal_dp_graph", "recognition", "is_chordal_dp_graph", None),
    ("recognition.contains_induced", "recognition", "contains_induced",
     lambda args, result: ("hits", result is not None)),
    ("recognition.find_dominating_pair", "recognition", "find_dominating_pair", None),
    ("domination.gamma_con_hull4", "domination", "gamma_con_hull4",
     lambda args, result: ("seeds", _seed_count(args[0].n))),
    ("domination.gamma_iso_pair", "domination", "gamma_iso_pair",
     lambda args, result: (f"stage{result.stage}", 1)),
    ("domination.certify", "domination", "certify", None),
    ("domination.bruteforce", "domination", "gamma_bruteforce", None),
    ("domination.bruteforce", "domination", "gamma_con_bruteforce", None),
    ("domination.bruteforce", "domination", "gamma_iso_bruteforce", None),
    ("convexity.convex_hull", "convexity", "convex_hull", None),
    ("convexity.is_convex", "convexity", "is_convex", None),
    ("convexity.is_isometric", "convexity", "is_isometric",
     lambda args, result: ("true", bool(result))),
    ("reduction.build_np_gadget", "reduction", "build_np_gadget", None),
    ("reduction.verify_gadget_equivalence", "reduction", "verify_gadget_equivalence", None),
)
CACHED_TABLES = (("graph.distances", "distances"), ("graph.interval_masks", "interval_masks"))
REQUEST = "request"
PACKAGE = "convdom"


class Tracer:
    """Spans as parallel arrays: name id, parent index, request, start, end."""

    def __init__(self) -> None:
        self.names: list[str] = [REQUEST]
        self.name_ids = {REQUEST: 0}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tallies: Counter = Counter()
        self._stack: list[int] = []
        self._request = -1
        self._bindings: list[tuple] = []

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(cpu())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = cpu()
        self._stack.pop()

    def span_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def traced_request(self, request: int, handler, text: str):
        """Run ``handler(text)`` as request ``request`` under a root span."""
        self._request = request
        index = self._open(0)
        try:
            return handler(text)
        finally:
            self._close(index)

    def wrap(self, name: str, fn, tally):
        name_id = self.span_id(name)
        tallies = self.tallies

        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if tally is not None:
                label, amount = tally(args, result)
                tallies[name, label] += amount
            return result

        return traced

    def _bind(self) -> None:
        """Find every binding of each traced function in the package."""
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, module, attr, tally in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            wrapper = self.wrap(name, original, tally)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        self._bindings.append((mod, key, original, wrapper))
        graph_cls = sys.modules[f"{PACKAGE}.graph"].Graph
        for name, attr in CACHED_TABLES:
            original = vars(graph_cls)[attr]
            wrapper = cached_property(self.wrap(name, original.func, None))
            wrapper.__set_name__(graph_cls, attr)
            self._bindings.append((graph_cls, attr, original, wrapper))

    def install(self) -> None:
        """Put the traced wrappers in place of the package's functions."""
        if not self._bindings:
            self._bind()
        for owner, key, _original, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _wrapper in self._bindings:
            setattr(owner, key, original)

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: number of calls and total self time in seconds."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        own = list(duration)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= duration[index]
        calls: Counter = Counter()
        seconds: Counter = Counter()
        for index, name_id in enumerate(self.name):
            calls[self.names[name_id]] += 1
            seconds[self.names[name_id]] += own[index]
        return calls, seconds

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as out:
            for i in range(len(self.start)):
                out.write(json.dumps({
                    "id": i, "parent": self.parent[i], "request": self.request[i],
                    "name": self.names[self.name[i]],
                    "start": self.start[i], "end": self.end[i],
                }) + "\n")
