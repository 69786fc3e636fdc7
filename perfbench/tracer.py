"""Span recorder for the traced benchmark run.

The tracer rebinds module attributes that callers look up at call time (for
example ``cpdsplit.pds.solve_subproblem``, which the driver reaches through
``pds.solve_subproblem``), so nothing under ``src/`` changes.  Spans stay in
memory as ``[name, start, end, parent]`` rows and are written once, after
the fit.  Standard library only.
"""

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    def wrap(self, module, attr, name, on_call=None):
        """Replace ``module.attr`` by a wrapper that records a span ``name``.

        ``on_call(counters, args, kwargs)``, when given, adds computed
        quantities (operation counts from array shapes) to the counters.
        """
        fn = getattr(module, attr)
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(counters, args, kwargs)
            row = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            row[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()

        setattr(module, attr, traced)

    def summary(self):
        """Per span name: calls, total seconds, self seconds (the span's
        duration minus the time its direct children cover), and the calls
        made from each parent span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            rec = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": {}}
            )
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[idx]
            pname = self.spans[parent][0] if parent >= 0 else ""
            rec["parents"][pname] = rec["parents"].get(pname, 0) + 1
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counters": dict(self.counters),
                },
                fh,
            )
