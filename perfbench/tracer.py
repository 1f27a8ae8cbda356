"""Outside-in tracer: wraps public functions of nnspectra by rebinding the
module attributes that hold them, records one span per wrapped call, and
restores every attribute when removed.

A span is (name, start, end, parent span, op id, exception name).  Spans are
kept in flat arrays while the traced phase runs and summarized afterwards;
a span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.labels = [""]  # id 0 marks "no exception" in err
        self._label_ids = {"": 0}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.err = array("H")
        self.current = -1
        self.op_id = -1
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self._patches = []

    def label_id(self, label):
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.err.append(0)
        self.end.append(0.0)
        self.start.append(self.clock())
        self.current = idx
        return idx

    def _probe(self, fn, value):
        """Run fn(value) in a 'trace.probe' span, so that the tracer's own
        work is not counted as the caller's self time."""
        idx = self._open(self.label_id("trace.probe"))
        try:
            return fn(value)
        finally:
            self.end[idx] = self.clock()
            self.current = self.parent[idx]

    def wrap(self, label, fn, before=None, after=None):
        """Wrapper of fn recording a span named label.

        before(first argument) returns a number whose maximum is kept in
        maxima[label]; after(result) may update counters or maxima.
        """
        nid = self.label_id(label)
        tr = self

        def wrapper(*args, **kwargs):
            if before is not None:
                tr.maxima[label] = max(tr.maxima[label], tr._probe(before, args[0]))
            idx = tr._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tr.err[idx] = tr.label_id(type(exc).__name__)
                raise
            finally:
                tr.end[idx] = tr.clock()
                tr.current = tr.parent[idx]
            if after is not None:
                tr._probe(after, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__qualname__ = getattr(fn, "__qualname__", label)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self, functions, methods, modules, before=None, after=None):
        """Rebind every attribute of `modules` that holds one of `functions`
        ((label, function) pairs) and patch `methods` ({label: (class,
        name)}).  before/after map labels to probes, see `wrap`."""
        before, after = before or {}, after or {}
        for label, fn in functions:
            wrapper = self.wrap(label, fn, before.get(label), after.get(label))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)
        for label, (cls, attr) in methods.items():
            wrapper = self.wrap(label, vars(cls)[attr], before.get(label), after.get(label))
            self._patch(cls, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------------

    def self_times(self):
        """Per-span self time, in span order."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        selft = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                selft[p] -= dur[i]
        return selft

    def totals(self):
        """{label: (calls, self seconds)} over all spans."""
        out = {}
        for nid, st in zip(self.name, self.self_times()):
            calls, total = out.get(self.labels[nid], (0, 0.0))
            out[self.labels[nid]] = (calls + 1, total + st)
        return out

    def errors(self, label, exc_name):
        """Number of spans of label that ended by raising exc_name."""
        nid = self._label_ids.get(label)
        eid = self._label_ids.get(exc_name)
        if nid is None or eid is None:
            return 0
        return sum(1 for n, e in zip(self.name, self.err) if n == nid and e == eid)

    def calls_under(self, label, ancestor):
        """Number of spans of label with an ancestor span of ancestor."""
        nid, aid = self._label_ids.get(label), self._label_ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        under = []
        count = 0
        for n, p in zip(self.name, self.parent):
            inside = p >= 0 and (self.name[p] == aid or under[p])
            under.append(inside)
            count += n == nid and inside
        return count

    def dump(self, path):
        """Write the spans once, as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            err=np.frombuffer(self.err, dtype=np.uint16),
        )
