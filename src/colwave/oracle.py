"""Closed-form reference solutions and association checks.

* ConnectedSolution: the classical transmission-problem solution for a speed
  jump c_minus -> c_plus at x = 0, written in the characteristic variables
  v = (dt - c dx)u, w = (dt + c dx)u.  Four regions separated by x = -c_-t,
  x = 0, x = c_+t; the interface matching

      v_+ = 2c_+/(c_+ + c_-) v_-  +  (c_- - c_+)/(c_+ + c_-) w_+
      w_- = 2c_-/(c_+ + c_-) w_+  +  (c_+ - c_-)/(c_+ + c_-) v_-

  encodes the transmission/reflection coefficients.
* DeltaInterface / delta_solution_eval: u0 = 0, u1 = delta(x - x0) left of
  one interface b of rho u_tt = (K u_x)_x, for any speeds a and impedances Z,
  reduced to an explicit piecewise-Heaviside formula for u itself.
* piecewise_t_solution: the speed jump in time (c0 -> c1 at t = 1); d'Alembert
  below, re-expansion above with continuity of (u, dt u).  The interface
  amplitudes follow from that 2x2 matching: each family re-expands with
  transmit coefficient (c1+c0)/(2c1) and refract coefficient (c1-c0)/(2c1).
* associate_check: weak-convergence verdicts of an eps-family of pairings
  against a reference pairing.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .mollifier import Mollifier, phi_antideriv, phi_eval

__all__ = [
    "ConnectedSolution",
    "connected_eval",
    "DeltaInterface",
    "delta_solution_eval",
    "delta_jump_locus",
    "delta_plateau",
    "reflect_transmit",
    "PiecewiseTSolution",
    "TestFunction",
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


@dataclass(frozen=True)
class ConnectedSolution:
    c_minus: float
    c_plus: float
    v0: Callable
    w0: Callable

    @property
    def transmit(self) -> float:
        return 2.0 * self.c_plus / (self.c_plus + self.c_minus)

    @property
    def reflect(self) -> float:
        return (self.c_plus - self.c_minus) / (self.c_plus + self.c_minus)


def connected_eval(cs: ConnectedSolution, t, x):
    """(v, w) of the connected solution; x = 0 returns the common limit."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    t, x = np.broadcast_arrays(t, x)
    cm, cp = cs.c_minus, cs.c_plus
    S = cm + cp
    v0, w0 = cs.v0, cs.w0

    v = np.where(x < 0.0, v0(x - cm * t), 0.0)
    w = np.where(x < 0.0, 0.0, w0(x + cp * t))
    # region I vs II split for w on x<0; III vs IV split for v on x>0
    reg2 = (x < 0.0) & (x + cm * t > 0.0)
    reg1 = (x < 0.0) & ~reg2
    reg3 = (x >= 0.0) & (x - cp * t < 0.0)
    reg4 = (x >= 0.0) & ~reg3
    w = np.where(reg1, w0(x + cm * t), w)
    w = np.where(
        reg2,
        (2.0 * cm / S) * w0((cp / cm) * (x + cm * t)) + ((cp - cm) / S) * v0(-x - cm * t),
        w,
    )
    v = np.where(reg4, v0(x - cp * t), v)
    v = np.where(
        reg3,
        (2.0 * cp / S) * v0((cm / cp) * (x - cp * t)) + ((cm - cp) / S) * w0(cp * t - x),
        v,
    )
    return v, w


def transmission_residuals(cs: ConnectedSolution, t):
    """Interface residuals at x=0: continuity of v+w and of (w-v)/c."""
    cm, cp = cs.c_minus, cs.c_plus
    S = cm + cp
    t = np.asarray(t, dtype=float)
    v_m = cs.v0(-cm * t)
    w_p = cs.w0(cp * t)
    v_p = (2.0 * cp / S) * v_m + ((cm - cp) / S) * w_p
    w_m = (2.0 * cm / S) * w_p + ((cp - cm) / S) * v_m
    r1 = (v_p + w_p) - (v_m + w_m)
    r2 = (w_p - v_p) / cp - (w_m - v_m) / cm
    return r1, r2


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


def delta_plateau(m: DeltaInterface) -> float:
    """Common value T/(2 a-) of u in the sector above the ray crossing."""
    return reflect_transmit(m)[1] / (2.0 * m.a_minus)


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


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported product bump psi(t,x), unit mass."""

    __test__ = False  # not a pytest collectable despite the name

    t_center: float
    x_center: float
    radius: float
    mollifier: Mollifier = field(default_factory=Mollifier)

    def __post_init__(self):
        if not np.isfinite((self.t_center, self.x_center, self.radius)).all():
            raise ValueError("centre and radius must be finite")
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")

    def __call__(self, t, x):
        m, r = self.mollifier, self.radius
        return (
            phi_eval(m, (np.asarray(t, dtype=float) - self.t_center) / r)
            * phi_eval(m, (np.asarray(x, dtype=float) - self.x_center) / r)
            / r**2
        )

    def x_antideriv(self, t, x):
        """int_{-inf}^x psi(t, y) dy, closed form via the mollifier antiderivative."""
        m, r = self.mollifier, self.radius
        return (
            phi_eval(m, (np.asarray(t, dtype=float) - self.t_center) / r)
            * phi_antideriv(m, (np.asarray(x, dtype=float) - self.x_center) / r)
            / r
        )

    @property
    def t_support(self):
        return (self.t_center - self.radius, self.t_center + self.radius)

    @property
    def x_support(self):
        return (self.x_center - self.radius, self.x_center + self.radius)


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
