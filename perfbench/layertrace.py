"""Per-layer tracing from outside the program.

:class:`Tracer` wraps every public function and public method of the
``mopexact`` layer modules at each place it is bound: the defining module,
every module that imported it by name (``pochhammer`` alone is bound in
eight), module-level dispatch dicts, and the class for methods.  Each wrapper
counts calls and adds inclusive (``busy``) and exclusive (``self``) time;
self time is busy time minus the time of wrapped callees.  Calls other than
the hot leaves in AGGREGATE_ONLY also leave a span in memory, tagged with
the index of the enclosing ``driver.run_instance`` call, written out by
:meth:`Tracer.write_spans` when the run ends.  :meth:`Tracer.uninstall` puts
every original object back and reports any binding it could not restore.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "gammaprod", "weights", "polybasis", "families", "oracle",
    "linalg", "residues", "hyper", "driver", "cli",
)

#: Leaves called hundreds of thousands of times: counters and summed time
#: only, no span per call.
#: One call of this function is one request: the unit of work.
REQUEST = "driver.run_instance"

AGGREGATE_ONLY = frozenset({
    "gammaprod.pochhammer",
    "gammaprod.as_fraction",
    "gammaprod.is_nonpositive_integer",
    "gammaprod.GammaProduct.reduce",
    "gammaprod.GammaProduct.from_factors",
    "gammaprod.GammaProduct.is_one",
    "weights.total_degree",
    "weights.WeightSystem.hahn_weight",
    "polybasis.Basis.element_value",
    "polybasis.ScaledPolynomial.rational_value",
})


def _targets():
    """(name, function, class, attribute, original member) for each wrapped callable."""
    for layer in LAYERS:
        module = importlib.import_module(f"mopexact.{layer}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield f"{layer}.{attr}", value, None, None, None
            elif inspect.isclass(value):
                for member_name, member in vars(value).items():
                    if member_name.startswith("_"):
                        continue
                    if isinstance(member, staticmethod):
                        function = member.__func__
                    elif inspect.isfunction(member):
                        function = member
                    else:
                        continue
                    name = f"{layer}.{value.__name__}.{member_name}"
                    yield name, function, value, member_name, member


class Tracer:
    """Wraps the layer functions; holds per-name stats and the span list."""

    def __init__(self, observers=None) -> None:
        #: name -> [calls, busy_s, self_s]
        self.stats: dict[str, list] = {}
        #: (span_id, parent_id, request, name, start, end)
        self.spans: list[tuple] = []
        #: index of the current REQUEST call; spans of one instance share it
        self.request = None
        self._requests = 0
        self._observers = observers or {}
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self._next_span = 0
        self._restore: list[tuple] = []
        self._wrappers: dict[int, object] = {}

    def _wrap(self, name, function):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        aggregate = name in AGGREGATE_ONLY
        observer = self._observers.get(name)
        is_request = name == REQUEST
        stack, depth, spans = self._stack, self._depth, self.spans
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if is_request:
                self.request = self._requests
                self._requests += 1
            if aggregate:
                frame = [0.0, None]
            else:
                frame = [0.0, self._next_span]
                self._next_span += 1
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                elapsed = end - start
                stats[0] += 1
                if not depth[name]:
                    stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if not aggregate:
                    spans.append((frame[1], parent, self.request, name, start, end))
            if observer is not None:
                observer(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._wrappers:
            raise RuntimeError("tracer already installed")
        by_id = {}
        for name, function, owner, attr, member in _targets():
            wrapper = self._wrap(name, function)
            by_id[id(function)] = wrapper
            self._wrappers[id(wrapper)] = wrapper
            if owner is not None:
                patched = staticmethod(wrapper) if isinstance(member, staticmethod) else wrapper
                self._restore.append((owner, attr, member, True))
                setattr(owner, attr, patched)
        for module in [m for n, m in sys.modules.items() if n == "mopexact" or n.startswith("mopexact.")]:
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    self._restore.append((module, attr, value, True))
                    setattr(module, attr, by_id[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, entry in list(value.items()):
                        if id(entry) in by_id:
                            self._restore.append((value, key, entry, False))
                            value[key] = by_id[id(entry)]

    def uninstall(self) -> list[str]:
        """Restore every binding; return a description of each one left wrong."""
        for owner, attr, original, is_attr in reversed(self._restore):
            if is_attr:
                setattr(owner, attr, original)
            else:
                owner[attr] = original
        problems = []
        for owner, attr, original, is_attr in self._restore:
            current = vars(owner).get(attr) if is_attr else owner.get(attr)
            if current is not original:
                problems.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr} not restored")
        for module in [m for n, m in sys.modules.items() if n == "mopexact" or n.startswith("mopexact.")]:
            for attr, value in vars(module).items():
                if id(value) in self._wrappers:
                    problems.append(f"{module.__name__}.{attr} still wrapped")
        self._restore.clear()
        self._wrappers.clear()
        return problems

    def get(self, name: str, field: str) -> float:
        """calls, busy_s or self_s of ``name`` (0 for a name never called)."""
        calls, busy, own = self.stats.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "busy_s": busy, "self_s": own}[field]

    def write_spans(self, path) -> None:
        """Spans as one JSON document, times relative to the first span."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["id", "parent", "request", "name", "start_s", "end_s"],
                "spans": [
                    [i, parent, request, name, round(start - origin, 7), round(end - origin, 7)]
                    for i, parent, request, name, start, end in self.spans
                ],
                "aggregates": {
                    name: {"calls": s[0], "busy_s": s[1], "self_s": s[2]}
                    for name, s in sorted(self.stats.items()) if s[0]
                },
            }, handle, separators=(",", ":"))
            handle.write("\n")
