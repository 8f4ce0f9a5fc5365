"""Closed-form reference solutions and association checks.

* DeltaInterface / delta_solution_eval: u0 = 0, u1 = delta(x - x0) left of
  one interface b of rho u_tt = (K u_x)_x, for any speeds a and impedances Z,
  reduced to an explicit piecewise-Heaviside formula for u itself.
* PiecewiseTSolution: the speed jump in time (c0 -> c1 at t = t_jump); d'Alembert
  below, re-expansion above with continuity of (u, dt u).  The interface
  amplitudes follow from that 2x2 matching: each family re-expands with
  transmit coefficient (c1+c0)/(2c1) and refract coefficient (c1-c0)/(2c1).
* associate_check: weak-convergence verdicts of an eps-family of pairings
  against a reference pairing.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .spec import TestFunction

__all__ = [
    "DeltaInterface",
    "delta_solution_eval",
    "delta_jump_locus",
    "reflect_transmit",
    "PiecewiseTSolution",
    "AssociationVerdict",
    "associate_check",
    "pair_delta_oracle",
    "pair_gridded",
    "three_region_limit",
    "two_region_limit",
]

_GL8 = np.polynomial.legendre.leggauss(8)


def _heaviside(z):
    return 0.5 * (np.sign(z) + 1.0)  # midpoint convention on the jump


# u0 = 0, u1 = delta(x - x0) left of x = b, where the speed a and the impedance Z jump
# from a_minus, z_minus to a_plus, z_plus; u and K u_x are continuous at b
DeltaInterface = namedtuple("DeltaInterface", "a_minus a_plus z_minus z_plus b x0")


def reflect_transmit(m: DeltaInterface):
    """(R, T) = ((Z- - Z+)/(Z- + Z+), 1 + R): the amplitudes a front of u leaves at b."""
    R = (m.z_minus - m.z_plus) / (m.z_minus + m.z_plus)
    return R, 1.0 + R


def delta_solution_eval(m: DeltaInterface, t, x):
    """u of m: the box 1/(2 a-) between x0 -+ a- t, R and T times it behind the reflected and transmitted fronts."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    t, x = np.broadcast_arrays(t, x)
    am, ap, _, _, b, x0 = m
    (R, T), H = reflect_transmit(m), _heaviside
    left = (1.0 / (2.0 * am)) * (H(-x + am * t + x0) * H(x + am * t - x0) + R * H(x + am * t - (2.0 * b - x0)))
    right = (1.0 / (2.0 * am)) * T * H(-x + ap * t - (ap * (b - x0) / am - b))
    out = np.where(x < b, left, np.where(x > b, right, 0.5 * (left + right)))
    return out if out.ndim else float(out)


def delta_jump_locus(m: DeltaInterface):
    """Jump lines of delta_solution_eval as (label, x(t), t-range) triples."""
    am, ap, _, _, b, x0 = m
    L = b - x0  # the incident front reaches b at t = L/a-
    return [
        ("incident_left", lambda t: x0 - am * np.asarray(t, dtype=float), (0.0, np.inf)),
        ("incident_right", lambda t: x0 + am * np.asarray(t, dtype=float), (0.0, L / am)),
        ("reflected", lambda t: (2.0 * b - x0) - am * np.asarray(t, dtype=float), (L / am, np.inf)),
        ("transmitted", lambda t: b - ap * L / am + ap * np.asarray(t, dtype=float), (L / am, np.inf)),
    ]


@dataclass(frozen=True)
class PiecewiseTSolution:
    """Wave solution for a speed jump in time at t = t_jump.

    u(t,x) = F(x - c0 t) + G(x + c0 t) below the jump; above, both families
    re-expand with amplitudes fixed by continuity of (u, dt u):
        F~(x) = alpha F(x - c0 tj) + beta G(x + c0 tj)
        G~(x) = beta F(x - c0 tj) + alpha G(x + c0 tj)
    alpha = (c1+c0)/(2 c1), beta = (c1-c0)/(2 c1).
    """

    c0: float
    c1: float
    F: Callable
    G: Callable
    t_jump: float = 1.0

    @property
    def alpha(self) -> float:
        return (self.c1 + self.c0) / (2.0 * self.c1)

    @property
    def beta(self) -> float:
        return (self.c1 - self.c0) / (2.0 * self.c1)

    def __call__(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        t, x = np.broadcast_arrays(t, x)
        tj, c0, c1 = self.t_jump, self.c0, self.c1
        a, b = self.alpha, self.beta
        below = t <= tj
        u_lo = self.F(x - c0 * t) + self.G(x + c0 * t)
        s = np.where(below, 0.0, t - tj)
        xm, xp = x - c1 * s, x + c1 * s
        u_hi = (
            a * self.F(xm - c0 * tj)
            + b * self.G(xm + c0 * tj)
            + b * self.F(xp - c0 * tj)
            + a * self.G(xp + c0 * tj)
        )
        out = np.where(below, u_lo, u_hi)
        return out if out.ndim else float(out)


def three_region_limit(u0: Callable) -> Callable:
    """Distributional limit 'u0(x-t) for x>t; u0(0) for |x|<t; u0(x+t) for x<-t'."""

    def f(t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return np.where(x > t, u0(x - t), np.where(x < -t, u0(x + t), u0(np.zeros_like(x))))

    return f


def two_region_limit(u0: Callable) -> Callable:
    """Distributional limit 'u0(x+t) for x>0; u0(x-t) for x<0'."""

    def f(t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.0, u0(x + t), u0(x - t))

    return f


@dataclass
class AssociationVerdict:
    errors: np.ndarray  # |pairing - target|, largest eps first
    passed: bool


def associate_check(
    eps_values: Sequence[float], pairings: Sequence[float], target: float
) -> AssociationVerdict:
    """PASS when |pairing - target| decreases over the last half and ends <= 1e-2."""
    e = np.abs(np.asarray(pairings, dtype=float) - target)
    e = e[np.argsort(-np.asarray(eps_values, dtype=float))]
    half = e[len(e) // 2 :]
    decreasing = bool(np.all(np.diff(half) <= np.maximum(1e-12, 0.05 * half[:-1])))
    return AssociationVerdict(e, decreasing and bool(e[-1] <= 1e-2))


def pair_delta_oracle(m: DeltaInterface, psi: TestFunction, n_panels: int = 200):
    """<u, psi> for the delta-data oracle by exact x-integration per time panel.

    For fixed t, u(t,·) is piecewise constant; the x-integral against psi is a
    finite sum of closed-form antiderivative differences.  The remaining
    t-integral is piecewise smooth with a few moving-breakpoint kinks and is
    done by dense Gauss-Legendre panels.
    """
    t_lo, t_hi = psi.t_support
    t_lo = max(t_lo, 0.0)
    if t_hi <= t_lo:
        return 0.0
    nodes, wts = _GL8
    edges = np.linspace(t_lo, t_hi, n_panels + 1)
    a, b = edges[:-1, None], edges[1:, None]
    t = (0.5 * (a + b) + 0.5 * (b - a) * nodes).ravel()
    # u(t, .) is constant between the sorted breakpoints of each node
    bps = np.sort(np.column_stack([curve(t) for _, curve, _ in delta_jump_locus(m)] + [np.full_like(t, m.b)]), axis=1)
    mid = np.column_stack([bps[:, 0] - 1.0, 0.5 * (bps[:, :-1] + bps[:, 1:]), bps[:, -1] + 1.0])
    val = delta_solution_eval(m, t[:, None], mid)
    F = psi.x_antideriv(t[:, None], bps)
    hi = np.column_stack([F, psi.x_antideriv(t, 1e30)])
    lo = np.column_stack([np.zeros_like(t), F])
    part = val * (hi - lo)
    x_slice = np.zeros_like(t)
    for j in range(part.shape[1]):  # interval by interval in x order, as a per-node loop sums
        x_slice += part[:, j]
    total = 0.0
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        total += 0.5 * (b - a) * np.sum(wts * x_slice[i * len(nodes) : (i + 1) * len(nodes)])
    return total


def pair_gridded(times, xs, u, psi: TestFunction):
    """Trapezoid <u, psi> over a stored (time x space) field, times and xs ascending.

    psi is exactly 0 off its support, so only the block of stored times and
    nodes that covers it, with one more on each side (the ends of the first
    and last trapezoids), enters the sums.
    """
    (t_lo, t_hi), (x_lo, x_hi) = psi.t_support, psi.x_support
    times = np.asarray(times, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ti = slice(max(np.searchsorted(times, t_lo) - 1, 0), np.searchsorted(times, t_hi, side="right") + 1)
    xi = slice(max(np.searchsorted(xs, x_lo) - 1, 0), np.searchsorted(xs, x_hi, side="right") + 1)
    times, xs = times[ti], xs[xi]
    pv = psi(times[:, None], xs[None, :])
    vals = np.trapezoid(pv * np.asarray(u, dtype=float)[ti, xi], xs, axis=1)
    return float(np.trapezoid(vals, times))
