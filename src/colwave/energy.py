"""Discrete energy functional and its conservation / growth checks.

Every wave form here is rho u_tt = (K u_x)_x with speed a = sqrt(K/rho), and its
energy is one trapezoid sum over the V/W slices the solver stores
(V = dt u - a dx u, W = dt u + a dx u), so no re-differencing of u is involved:

  E(t) = sum (rho |dt u|^2 + K |dx u|^2) dx = sum rho (V^2 + W^2)/2 dx,

with the density rho = Z/a of the solved form given by the caller.

wave_x conserves E exactly in both forms: rho = 1/c^2 for dtt u = c^2 dxx u
(multiply by dt u/c^2 and integrate by parts), rho = 1 for dtt u = dx(c dx u).
wave_t, dtt u = c(t)^2 dxx u, has rho = 1 and dE/dt = 2 c c' int |dx u|^2
<= (2|c'|/c) E, hence the Gronwall bound

  E(t) <= E(0) * exp(int_0^t 2|c_eps'(s)|/c_eps(s) ds) = E(0) * exp(2 TV_[0,t](log c_eps)).

c_eps is monotone inside each kernel neighbourhood [b_i - h, b_i + h] and
constant between them, so while they do not overlap the total variation after
all jumps is sum |log(v_{i+1}/v_i)|, uniform in eps: (c1/c0)^2 for one jump.
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
    "trace_csv",
]


@dataclass
class EnergyTrace:
    eps: float
    times: np.ndarray
    E: np.ndarray

    @property
    def max_relative_drift(self) -> float:
        return float(np.max(np.abs(self.E - self.E[0])) / self.E[0])


def energy_trace(rec: SolutionRecord, rho) -> EnergyTrace:
    """E(t) = sum rho (V^2 + W^2)/2 dx (trapezoid in x) from the stored V/W slices;
    rho a number or an array on the grid nodes (speed_impedance: rho = Z/a)."""
    if "v" not in rec.fields or "w" not in rec.fields:
        raise ValueError("record lacks v/w fields; re-run the solver with store_vw")
    v = np.asarray(rec.fields["v"], dtype=float)
    w = np.asarray(rec.fields["w"], dtype=float)
    dens = 0.5 * (v**2 + w**2) * rho
    E = np.trapezoid(dens, dx=rec.grid.dx, axis=1)
    return EnergyTrace(eps=rec.eps, times=np.asarray(rec.times), E=E)


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


def trace_csv(trace: EnergyTrace, path):
    lines = ["t,E"]
    for t, e in zip(trace.times, trace.E):
        lines.append(f"{t:.10g},{e:.12g}")
    Path(path).write_text("\n".join(lines) + "\n")
