"""Traced run: spans around every call into tpskit's public functions.

`Tracer.install` wraps each public function of the tpskit modules in every
module namespace that binds it (``tpskit.schmidt``, ``tpskit.tps.schmidt``
...), so a call the library makes to another module's function, such as
``is_tpp`` -> ``commutant``, becomes a child span.  Spans stay in memory as
[name, start_ns, end_ns, parent, op] until `write` is called.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

# cli's file and stdout JSON helpers count as the serialize layer (JSON in
# and out); they are the only private functions wrapped
CLI_JSON_HELPERS = {"_load_json": "parse", "_emit": "emit"}


def span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._restore = []

    def _wrap(self, fn):
        name = span_name(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0,
                          stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter_ns()

        return traced

    def install(self):
        wrapped = {}
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "tpskit" or mod_name.startswith("tpskit.")):
                continue
            for attr, fn in list(vars(mod).items()):
                if not isinstance(fn, types.FunctionType) \
                        or not fn.__module__.startswith("tpskit"):
                    continue
                if attr.startswith("_") and not (mod_name == "tpskit.cli"
                                                 and attr in CLI_JSON_HELPERS):
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(fn)
                setattr(mod, attr, wrapped[id(fn)])
                self._restore.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def self_times(self):
        """Per span name: (calls, total self ns), self time being the span's
        duration minus that of its direct children."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0])
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child_ns[idx]
        return out

    def child_calls(self, parent_name, child_names):
        """Calls of the named functions made directly by `parent_name`, per
        call of `parent_name`."""
        parents = {idx for idx, s in enumerate(self.spans) if s[0] == parent_name}
        if not parents:
            return 0.0
        hits = sum(1 for s in self.spans if s[3] in parents and s[0] in child_names)
        return hits / len(parents)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer, ops, functions):
    """calls_per_op and self_ms_per_op for each named function, plus the
    serialize totals and the SVD calls each schmidt makes."""
    agg = tracer.self_times()
    out = {}
    for name in functions:
        calls, self_ns = agg.get(name, (0, 0))
        out[f"{name}.calls_per_op"] = calls / ops
        out[f"{name}.self_ms_per_op"] = self_ns / 1e6 / ops
    totals = {"parse": 0, "emit": 0}
    for name, (_, self_ns) in agg.items():
        mod, fn = name.split(".", 1)
        if mod == "serialize" and fn.endswith("_from_json"):
            totals["parse"] += self_ns
        elif mod == "serialize" and fn.endswith("_to_json"):
            totals["emit"] += self_ns
        elif mod == "cli" and fn in CLI_JSON_HELPERS:
            totals[CLI_JSON_HELPERS[fn]] += self_ns
    out["serialize.parse_ms"] = totals["parse"] / 1e6 / ops
    out["serialize.emit_ms"] = totals["emit"] / 1e6 / ops
    out["tps.schmidt.svd_calls_per_call"] = tracer.child_calls(
        "tps.schmidt", {"core.svd", "core.numeric_rank"})
    return out
