"""In-memory span tracer for an in-process colwave run.

``Tracer.install`` wraps every public function, and the public methods plus
``__call__`` / explicit ``__init__`` of every public class, of each colwave
module, and rebinds the wrapped function in every colwave namespace that
imported it.  Each call records a span (id, parent id, name, start, end,
thread); parents are tracked per thread, so spans opened in the solvers'
ladder threads are roots of their own thread.  ``uninstall`` restores the
originals.  ``layer_metrics`` turns the spans into busy time (union of a
layer's span intervals over all threads), self time (span time not covered by
child spans) and call counts.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self, after_hooks=None):
        self.spans = []  # (id, parent, name, t0, t1, thread)
        self.counters = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._after = after_hooks or {}
        self._undo = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name, fn):
        after = self._after.get(name)
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, threading.get_ident()))
            if after is not None:
                after(self.counters, args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules):
        """Wrap the public callables of MODULES (all modules of one package)."""
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    self._install_class(short, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, name, wrapped[id(obj)])

    def _install_class(self, short, cls):
        is_dataclass = hasattr(cls, "__dataclass_fields__")
        for attr, val in list(vars(cls).items()):
            public = not attr.startswith("_") or attr == "__call__" or (
                attr == "__init__" and not is_dataclass
            )
            if not public:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(val, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(name, val.__func__)))
            elif inspect.isfunction(val):
                self._patch(cls, attr, self.wrap(name, val))

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    def write(self, path: Path):
        """Spans as JSON lines: id, parent, name, start/end (s from the first span), thread."""
        base = min((s[3] for s in self.spans), default=0.0)
        threads = {}
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, th in sorted(self.spans, key=lambda s: s[3]):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": round(t0 - base, 9), "end": round(t1 - base, 9),
                    "thread": threads.setdefault(th, len(threads)),
                }) + "\n")


def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanStats:
    """Busy time, self time and call counts over span names."""

    def __init__(self, spans):
        self.by_name = defaultdict(list)
        children = defaultdict(list)
        for sid, parent, name, t0, t1, _ in spans:
            self.by_name[name].append((t0, t1))
            if parent:
                children[parent].append((t0, t1))
        self.self_time = defaultdict(float)
        for sid, parent, name, t0, t1, _ in spans:
            self.self_time[name] += (t1 - t0) - _union(children.get(sid, ()))

    def _names(self, names):
        out = []
        for n in names:
            if n.endswith("*"):
                out += [k for k in self.by_name if k.startswith(n[:-1])]
            elif n in self.by_name:
                out.append(n)
        return out

    def busy(self, *names) -> float:
        return _union([iv for n in self._names(names) for iv in self.by_name[n]])

    def self_s(self, *names) -> float:
        return float(sum(self.self_time[n] for n in self._names(names)))

    def calls(self, *names) -> int:
        return sum(len(self.by_name[n]) for n in self._names(names))


def _file_bytes(path) -> int:
    p = Path(path)
    return p.stat().st_size if p.is_file() else sum(f.stat().st_size for f in p.iterdir())


# counters taken where the work happens: (counters, args, kwargs, result)
AFTER_HOOKS = {
    "solvers.save_family": lambda c, a, kw, out: c.update({"save_family.bytes": _file_bytes(out)}),
    "detector.report_csv": lambda c, a, kw, out: c.update({"report.bytes": _file_bytes(a[1])}),
    "detector.report_svg": lambda c, a, kw, out: c.update({"report.bytes": _file_bytes(a[1])}),
    "detector.verdict_text": lambda c, a, kw, out: c.update({"report.bytes": len(out)}),
    "detector.classify": lambda c, a, kw, out: c.update({"cells": len(out.points)}),
    "coefficients.CumulativeIntegral.invert":
        lambda c, a, kw, out: c.update({"invert.points": int(np.size(a[1]))}),
}

CUMINT = ("coefficients.CumulativeIntegral.__init__", "coefficients.CumulativeIntegral.__call__",
          "coefficients.CumulativeIntegral.derivative", "coefficients.CoeffAntideriv.__init__")
MOLLIFIER = ("mollifier.phi_eval", "mollifier.phi_deriv", "mollifier.phi_antideriv")
REPORT = ("detector.report_csv", "detector.report_svg", "detector.verdict_text")


def layer_metrics(tracer: Tracer, cell_steps: int) -> dict:
    """Per-layer metrics (value, unit) of one traced pass."""
    st = SpanStats(tracer.spans)
    c = tracer.counters
    wave_x = st.busy("solvers.solve_wave_x")
    m = {
        "cli.parse_s": (st.busy("cli.parse_scenario"), "s"),
        "cli.self_s": (st.self_s("cli.*"), "s"),
        "solvers.wave_x.busy_s": (wave_x, "s"),
        "solvers.wave_x.cell_steps": (cell_steps, "count"),
        "solvers.wave_x.cell_steps_per_s": (cell_steps / wave_x if wave_x > 0 else 0.0, "1/s"),
        "solvers.wave_t.busy_s": (st.busy("solvers.solve_wave_t"), "s"),
        "solvers.radial.self_s": (st.self_s("solvers.solve_radial_odd"), "s"),
        "solvers.transport.busy_s": (st.busy("solvers.solve_transport"), "s"),
        "solvers.save_family.busy_s": (st.busy("solvers.save_family"), "s"),
        "solvers.save_family.bytes": (c["save_family.bytes"], "B"),
        "coefficients.cumint.calls": (st.calls("coefficients.CumulativeIntegral.__call__"), "count"),
        "coefficients.cumint.busy_s": (st.busy(*CUMINT), "s"),
        "coefficients.invert.calls": (st.calls("coefficients.CumulativeIntegral.invert"), "count"),
        "coefficients.invert.points": (c["invert.points"], "count"),
        "coefficients.invert.busy_s": (st.busy("coefficients.CumulativeIntegral.invert"), "s"),
        "characteristics.time_integral.calls": (st.calls("characteristics.time_integral"), "count"),
        "characteristics.time_integral.busy_s": (st.busy("characteristics.time_integral"), "s"),
        "characteristics.gamma.busy_s": (st.busy("characteristics.gamma"), "s"),
        "characteristics.gamma_partials.busy_s": (st.busy("characteristics.gamma_partials"), "s"),
        "mollifier.calls": (st.calls(*MOLLIFIER), "count"),
        "mollifier.busy_s": (st.busy(*MOLLIFIER), "s"),
        "detector.classify.busy_s": (st.busy("detector.classify"), "s"),
        "detector.cells_evaluated": (c["cells"], "count"),
        "detector.report.busy_s": (st.busy(*REPORT), "s"),
        "detector.report.bytes": (c["report.bytes"], "B"),
        "oracle.pair_delta_oracle.busy_s": (st.busy("oracle.pair_delta_oracle"), "s"),
        "oracle.pair_gridded.busy_s": (st.busy("oracle.pair_gridded"), "s"),
        "energy.busy_s": (st.busy("energy.*"), "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return m
