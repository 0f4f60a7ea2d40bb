"""Outside-in span tracer for the geodlab layers.

The tracer wraps public functions and methods from outside the package:
it rebinds every module attribute of every loaded ``geodlab`` module that
holds the original object, so callers that imported a name
(``from .words import enumerate_classes``) and callers that look it up as
a module global both reach the wrapper.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, counters]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``counters`` a dict of
work counts taken from the call's arguments or result.  Spans stay in
memory; ``write_spans`` writes them out once the measured work is over.
The code under test is single-threaded, so spans nest as a stack.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# (layer, attribute path, counters(args, kwargs, result) or None).  The
# layer is the geodlab module name; the span is named "<layer>.<path>".
TARGETS = (
    ("halfplane", "reduce_points", lambda a, k, r: {"points": len(r[0])}),
    ("halfplane", "reduce_to_fundamental", None),
    ("halfplane", "sample_ball_arrays", lambda a, k, r: {"points": len(r[0])}),
    ("torus", "systole_values", lambda a, k, r: {"points": len(r)}),
    ("words", "enumerate_classes", lambda a, k, r: {"classes": len(r)}),
    ("words", "canonical", None),
    ("words", "axis_samples", None),
    ("words", "word_to_matrix", None),
    ("words", "min_systole_batch", None),
    ("lattice", "orbit_points", lambda a, k, r: {"points": r.count}),
    ("lattice", "spread_count", None),
    ("flow", "reduce_frames",
     lambda a, k, r: {"frames": _arg(a, k, 0, "A").shape[0]}),
    ("flow", "sample_fund", None),
    ("flow", "frames_from_points", None),
    ("flow", "recurrence_fraction", None),
    ("walk", "build_row_net", lambda a, k, r: {"nodes": r.node_count}),
    ("walk", "RowNet.thin_mask", lambda a, k, r: {"nodes": a[0].node_count}),
    ("walk", "count_trajectories",
     lambda a, k, r: {"node_steps": _arg(a, k, 0, "net").node_count
                      * _arg(a, k, 3, "n_steps")}),
    ("walk", "TrajectoryFamily.almost_closed", None),
    ("products", "verify_contraction", lambda a, k, r: {"samples": r.samples}),
    ("config", "build_config", None),
    ("report", "CountReport.to_text", lambda a, k, r: {"bytes": len(r.encode())}),
)


class Tracer:
    """Records spans around rebound geodlab functions; undo with uninstall."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []
        self._clock = clock

    def wrap(self, name, fn, counters=None):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counters is not None:
                span[4] = counters(args, kwargs, result)
            return result

        return traced

    def rebind(self, owner, path, name, counters=None):
        """Wrap ``owner.<path>`` and rebind it wherever geodlab holds it.

        ``path`` is ``func`` or ``Class.method``.  A method is rebound on
        its class; a function at every attribute of every loaded geodlab
        module that is the same object.
        """
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            self._set(cls, meth, self.wrap(name, original, counters))
            return
        original = getattr(owner, path)
        wrapper = self.wrap(name, original, counters)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "geodlab"
                                   or mod_name.startswith("geodlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self, experiment):
        """Wrap every TARGETS entry plus ``cli.run`` as ``cli.run.<experiment>``."""
        import importlib

        for layer, path, counters in TARGETS:
            mod = importlib.import_module(f"geodlab.{layer}")
            self.rebind(mod, path, f"{layer}.{path}", counters)
        self.rebind(importlib.import_module("geodlab.cli"), "run",
                    f"cli.run.{experiment}")

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans nest as a stack, so a span's children run one after another
    inside it.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _accumulate(out, name, calls, self_s, incl_s, sums, maxima):
    e = out.setdefault(name, {"calls": 0, "s": 0.0, "incl_s": 0.0,
                              "sum": {}, "max": {}})
    e["calls"] += calls
    e["s"] += self_s
    e["incl_s"] += incl_s
    for key, v in sums.items():
        e["sum"][key] = e["sum"].get(key, 0) + v
    for key, v in maxima.items():
        e["max"][key] = max(e["max"].get(key, v), v)


def summarize(spans) -> dict:
    """Per span name: calls, self and inclusive seconds, counter sums and maxima."""
    out: dict = {}
    for s, self_s in zip(spans, self_times(spans)):
        counters = s[4] or {}
        _accumulate(out, s[0], 1, self_s, s[2] - s[1], counters, counters)
    return out


def merge_summaries(summaries) -> dict:
    """One summary from several: sums add up, maxima take the largest."""
    out: dict = {}
    for summary in summaries:
        for name, e in summary.items():
            _accumulate(out, name, e["calls"], e["s"], e["incl_s"],
                        e["sum"], e["max"])
    return out


def write_spans(spans, path, pass_id, experiment):
    """Append spans as tab-separated lines:
    pass, experiment, index, parent, name, start, end."""
    with gzip.open(path, "at", compresslevel=1) as fh:
        for i, s in enumerate(spans):
            fh.write(f"{pass_id}\t{experiment}\t{i}\t{s[3]}\t{s[0]}\t"
                     f"{s[1]:.9f}\t{s[2]:.9f}\n")
