"""In-memory spans around the benchmark's calls into randsteps.

A span is (name, start_ns, end_ns, parent_index, op_id); its name is
"<layer>.<function>", the layer being the randsteps module called.  Spans
stay in a list until the run ends and are written out once.
"""

import json
import time
from collections import defaultdict

LAYERS = ("sampling", "chains", "montecarlo", "predictors", "geometry", "cli", "selftest")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []

    def _open(self):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index, parent, name, start):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.op_id)
        return end - start

    def wrap(self, name, fn):
        """fn with every call recorded as a span called name."""

        def traced(*args, **kwargs):
            index, parent = self._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, parent, name, start)

        return traced

    def span(self, name):
        """Context manager recording one span around a block."""
        return _Span(self, name)

    def children_ns(self, index):
        return sum(s[2] - s[1] for s in self.spans if s[3] == index)

    def self_ns_by_layer(self):
        """Self time per layer: each span's duration minus its direct children's."""
        child = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - child[index]
        return out

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "op_id"], "spans": self.spans},
                handle,
            )


class _Span:
    __slots__ = ("tracer", "name", "index", "parent", "start", "ns")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index, self.parent = self.tracer._open()
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.ns = self.tracer._close(self.index, self.parent, self.name, self.start)
        return False


class Patch:
    """Temporarily replace module globals with span-wrapped versions."""

    def __init__(self, tracer, module, names):
        self.tracer = tracer
        self.module = module
        self.names = names
        self.saved = {}

    def __enter__(self):
        for attr, span_name in self.names.items():
            self.saved[attr] = getattr(self.module, attr)
            setattr(self.module, attr, self.tracer.wrap(span_name, self.saved[attr]))
        return self

    def __exit__(self, *exc):
        for attr, fn in self.saved.items():
            setattr(self.module, attr, fn)
        return False
