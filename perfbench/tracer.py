"""Outside-in tracer for amwave.

It wraps amwave's public functions on the attributes that callers look up
(the defining module and every module that bound the function with a
from-import, such as ``amwave.cli.wca_conditions`` or ``amwave.fields.cross``),
plus ``HarmonicVectorField.eval_at`` and the operator classes'
``__post_init__``.  Each call becomes a span with name, start, end, parent
and invocation id.  Spans are kept in memory, one buffer per thread with a
thread-local parent stack, and written out by ``save``.  ``uninstall``
puts every patched attribute back.

A span's self time is its duration minus the time its child spans cover.
Run traced work on one worker thread, so self times add up to wall time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array

import numpy as np

# Public functions per layer; a span is named "<layer>.<function>".
FUNCTIONS = {
    "cli": ("main", "run_suite", "write_report", "write_timeseries",
            "zitter_timeseries", "poynting_timeseries"),
    "residuals": ("wca_conditions", "zca_conditions", "exact_conditions",
                  "full_ym_residuals", "maxwell_type_residuals",
                  "property_battery", "report_from_fields"),
    "fields": ("random_family", "build_potentials", "build_fields", "vcross",
               "vdot", "comm_sv", "comm_ss", "div", "curl", "grad"),
    "algebra": ("cross", "dot", "commutator"),
    "relativity": ("boosted_residuals", "gauge_conjugate", "unitary_exponential"),
    "zitter": ("zitter_position_expectation", "zitter_spin_expectation",
               "zitter_position_operator", "position_closed_form",
               "spin_closed_form"),
    "poynting": ("flux_quadrature", "flux_quadrature_blocks", "amw_flux", "em_flux"),
}

# (layer, class, method, span name); both operator classes count as one
# "operator_new" span, the cost of constructing an operator value.
METHODS = (
    ("fields", "HarmonicVectorField", "eval_at", "fields.HarmonicVectorField.eval_at"),
    ("algebra", "OperatorMatrix", "__post_init__", "algebra.operator_new"),
    ("algebra", "OperatorVector3", "__post_init__", "algebra.operator_new"),
)


class _Buffer:
    """Spans and per-name totals recorded by one thread."""

    def __init__(self, n_names: int):
        self.stack: list[list] = []  # [span index, time covered by children]
        self.name = array("i")
        self.parent = array("i")
        self.invocation = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * n_names
        self.total = [0.0] * n_names
        self.self_time = [0.0] * n_names


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.missing: list[str] = []
        self.invocation = 0
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer(len(self.names))
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, span: str, fn):
        name_id = self._ids.setdefault(span, len(self._ids))
        if name_id == len(self.names):
            self.names.append(span)
        perf_counter = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            idx = len(buf.start)
            buf.name.append(name_id)
            buf.parent.append(stack[-1][0] if stack else -1)
            buf.invocation.append(tracer.invocation)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            buf.start.append(t0)
            buf.end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                buf.end[idx] = t1
                buf.calls[name_id] += 1
                buf.total[name_id] += dur
                buf.self_time[name_id] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
        return traced

    # --- patching ----------------------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target; a target the program no longer has is listed
        in ``missing`` and reads as zero calls."""
        if self.names:
            raise RuntimeError("a tracer is installed once")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "amwave" or name.startswith("amwave."))]
        for layer, attrs in FUNCTIONS.items():
            home = sys.modules[f"amwave.{layer}"]
            for attr in attrs:
                fn = getattr(home, attr, None)
                if fn is None:
                    self.missing.append(f"{layer}.{attr}")
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._patch(mod, key, wrapper)
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[f"amwave.{layer}"], cls_name, None)
            if cls is None or attr not in vars(cls):
                self.missing.append(f"{layer}.{cls_name}.{attr}")
                continue
            self._patch(cls, attr, self._wrap(span, vars(cls)[attr]))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- results -----------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (calls, total seconds, self seconds)."""
        bufs = self._buffers
        return {name: (sum(b.calls[i] for b in bufs), sum(b.total[i] for b in bufs),
                       sum(b.self_time[i] for b in bufs))
                for i, name in enumerate(self.names)}

    def calls_by_invocation(self, spans) -> dict[int, int]:
        """invocation id -> number of calls of any of the named spans."""
        ids = [self._ids[s] for s in spans if s in self._ids]
        out: dict[int, int] = {}
        for b in self._buffers:
            names = np.frombuffer(b.name, dtype=np.int32)
            invs = np.frombuffer(b.invocation, dtype=np.int32)[np.isin(names, ids)]
            for inv, n in zip(*np.unique(invs, return_counts=True)):
                out[int(inv)] = out.get(int(inv), 0) + int(n)
        return out

    def span_count(self) -> int:
        return sum(len(b.start) for b in self._buffers)

    def save(self, path):
        """Write every span as arrays (parent indices are global)."""
        offsets = np.cumsum([0] + [len(b.start) for b in self._buffers])
        parents = [np.where(np.frombuffer(b.parent, dtype=np.int32) < 0, -1,
                            np.frombuffer(b.parent, dtype=np.int32) + off)
                   for b, off in zip(self._buffers, offsets)]

        def cat(attr, dtype):
            parts = [np.frombuffer(getattr(b, attr), dtype=dtype) for b in self._buffers]
            return np.concatenate(parts) if parts else np.zeros(0, dtype)

        np.savez(path, names=np.array(self.names),
                 name=cat("name", np.int32), start=cat("start", np.float64),
                 end=cat("end", np.float64), invocation=cat("invocation", np.int32),
                 parent=np.concatenate(parents) if parents else np.zeros(0, np.int32),
                 thread=np.repeat(np.arange(len(self._buffers)),
                                  [len(b.start) for b in self._buffers]))
