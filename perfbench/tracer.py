"""Outside-in tracer: spans and counters around calls into rdsio's layers.

Nothing inside ``src/`` is edited.  :func:`install` replaces each public
function with a timing wrapper at the place its caller looks it up: a
module attribute for calls written ``module.fn(...)``, the importing
module's own binding for names pulled in with ``from ... import``, and the
class attribute for methods.  Generator steps are counted by wrapping the
step function of every generator ``exprs.compile_generator`` returns,
because ``discrete.flow_from_generator`` calls ``gen.fn`` directly.

Each call becomes a span (name, start, end, parent).  Self time is a span's
duration minus the time its child spans cover.  Per-step boundaries
(``HOT``) are too frequent to keep one record each, so they are aggregated
into counts and times where they happen; the spans of every other boundary
are kept in memory and written out by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
from collections import defaultdict
from time import perf_counter

# boundaries aggregated instead of recorded one span per call
HOT = frozenset({"discrete.step", "process.eval", "rdsi.flow", "linear.solve"})
SPAN_CAP = 200_000  # recorded spans kept in memory; later ones are only counted


class Tracer:
    def __init__(self):
        # open frames: [child seconds, id of the nearest recorded span]
        self._stack: list[list] = []
        self._next_id = 0
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.dropped_spans = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` timed as span ``name``; ``after(tracer, args)`` runs
        once the span is closed, to count work from the call's arguments."""
        record = name not in HOT
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if record:
                self._next_id += 1
                anchor = self._next_id
            else:
                anchor = parent
            frame = [0.0, anchor]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[0]
                if record:
                    if len(self.spans) < SPAN_CAP:
                        self.spans.append((anchor, parent, name, start, end))
                    else:
                        self.dropped_spans += 1
            if after is not None:
                after(self, args)
            return result

        return traced

    def summary(self) -> dict:
        layers = {
            name: {"calls": self.calls[name], "total_s": self.total_s[name],
                   "self_s": self.self_s[name]}
            for name in sorted(self.calls)
        }
        return {"layers": layers, "counts": dict(self.counts),
                "dropped_spans": self.dropped_spans}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _count_cells(tracer: Tracer, args) -> None:
    # solve(c, t, fiber, x, u): unit noise cells covered by [offset, offset + t]
    t, fiber = float(args[1]), args[2]
    if t > 0:
        o = float(fiber.offset)
        tracer.counts["linear.cells"] += math.ceil(o + t) - math.floor(o)


def _count_bytes(tracer: Tracer, args) -> None:
    tracer.counts["reports.bytes"] += os.path.getsize(args[0])


def install(tracer: Tracer) -> None:
    """Wrap rdsio's public layer boundaries for the rest of the process."""
    from rdsio import cli, compose, exprs, linear, monotone, process, rdsi

    def patch(owner, attr, name, after=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))

    patch(cli, "load_scenario", "cli.load")
    patch(cli, "execute_scenario", "cli.execute")
    # bound in cli by ``from .reports import ...``
    patch(cli, "write_trace_csv", "reports.write", _count_bytes)
    patch(cli, "write_json_report", "reports.write", _count_bytes)
    patch(rdsi.SystemFlow, "__call__", "rdsi.flow")
    patch(rdsi, "check_axioms", "rdsi.check_axioms")
    patch(rdsi, "estimate_characteristic", "rdsi.estimate_characteristic")
    patch(process.Process, "__call__", "process.eval")
    # ``as_system`` looks ``solve`` up in the linear module at call time
    patch(linear, "solve", "linear.solve", _count_cells)
    patch(linear, "characteristic", "linear.characteristic")
    # ``cics_experiment`` looks ``check_monotone`` up in the monotone module
    patch(monotone, "check_monotone", "monotone.check_monotone")
    patch(monotone, "cics_experiment", "monotone.cics_experiment")
    for fn in ("verify_cascade_forward", "verify_cascade_pullback",
               "verify_feedback", "small_gain_iterate"):
        patch(compose, fn, f"compose.{fn}")

    compile_generator = cli.compile_generator  # bound by ``from .exprs import``

    @functools.wraps(compile_generator)
    def counted_generator(*args, **kwargs):
        gen = compile_generator(*args, **kwargs)
        return dataclasses.replace(gen, fn=tracer.wrap("discrete.step", gen.fn))

    cli.compile_generator = exprs.compile_generator = counted_generator
