"""Discrete energy functionals and their conservation / growth checks.

For the conservative x-dependent form dtt u = dx(c dx u) the energy
E(t) = sum (|dt u|^2 + c |dx u|^2) dx is exactly conserved; in the V/W
variables with a = sqrt(c) this is sum (V^2 + W^2)/2 dx, which is what the
solver stores, so no re-differencing of u is involved.

For the t-dependent speed, E(t) = sum (|dt u|^2 + c(t)^2 |dx u|^2) dx obeys
dE/dt = 2 c c' int |dx u|^2 <= (2|c'|/c) E, hence the Gronwall bound

    E(t) <= E(0) * exp(int_0^t 2|c_eps'(s)|/c_eps(s) ds) = E(0) * exp(2 TV_[0,t](log c_eps)).

c_eps is monotone inside each kernel neighbourhood [b_i - h, b_i + h] and
constant between them, so while they do not overlap the total variation after
all jumps is sum |log(v_{i+1}/v_i)|, uniform in eps: (c1/c0)^2 for one jump.

The non-conservative x-dependent form dtt u = c^2 dxx u admits only the much
weaker factor exp(t * max|dx c_eps|), which blows up like exp(K/h(eps));
that factor is reported for illustration, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coefficients import RegularizedCoeff
from .solvers import SolutionRecord

__all__ = [
    "EnergyTrace",
    "energy_trace",
    "gronwall_bound",
    "nonconservative_growth_factor",
    "trace_csv",
]


@dataclass
class EnergyTrace:
    eps: float
    form: str
    times: np.ndarray
    E: np.ndarray

    @property
    def max_relative_drift(self) -> float:
        return float(np.max(np.abs(self.E - self.E[0])) / self.E[0])


def energy_trace(rec: SolutionRecord, form: str) -> EnergyTrace:
    """E(t) from the stored V/W slices (trapezoid-in-x sums).

    form "conservative_x": E = sum(V^2 + W^2)/2 dx with a = sqrt(c);
    form "nonconservative_t": same formula with a = c(t).
    """
    if form not in ("conservative_x", "nonconservative_t"):
        raise ValueError(f"unknown energy form {form!r}")
    if "v" not in rec.fields or "w" not in rec.fields:
        raise ValueError("record lacks v/w fields; re-run the solver with store_vw")
    v = np.asarray(rec.fields["v"], dtype=float)
    w = np.asarray(rec.fields["w"], dtype=float)
    dens = 0.5 * (v**2 + w**2)
    E = np.trapezoid(dens, dx=rec.grid.dx, axis=1)
    return EnergyTrace(eps=rec.eps, form=form, times=np.asarray(rec.times), E=E)


def gronwall_bound(rc: RegularizedCoeff, t) -> np.ndarray:
    """Multiplier exp(int_0^t 2|c'|/c) = exp(2 TV_[0,t](log c_eps)), with the total
    variation summed between consecutive points of {0, t} and the edges of
    rc.windows in [0, t]; exact while the kernel neighbourhoods [b_i - h, b_i + h]
    do not overlap."""
    if rc.base.variable != "time":
        raise ValueError("gronwall_bound applies to time-dependent coefficients")
    knots = np.ravel(rc.windows)

    def tv(s):
        pts = np.concatenate(([0.0], knots[(knots > 0.0) & (knots < s)], [s]))
        return np.sum(np.abs(np.diff(np.log(rc(pts)))))

    out = np.exp(2.0 * np.vectorize(tv, otypes=[float])(np.asarray(t, dtype=float)))
    return out if out.ndim else float(out)


def nonconservative_growth_factor(rc: RegularizedCoeff, t_end: float) -> float:
    """exp(t * max|dx c_eps|): the only available bound for dtt u = c^2 dxx u."""
    h = rc.h
    zs = np.linspace(-1.0, 1.0, 513)
    sup = 0.0
    for b in rc.base.breakpoints:
        sup = max(sup, float(np.max(np.abs(rc.deriv(b + h * zs, 1)))))
    return float(np.exp(t_end * sup))


def trace_csv(trace: EnergyTrace, path):
    lines = ["t,E"]
    for t, e in zip(trace.times, trace.E):
        lines.append(f"{t:.10g},{e:.12g}")
    Path(path).write_text("\n".join(lines) + "\n")
