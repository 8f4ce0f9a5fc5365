"""Characteristic flows for x-dependent and tanh speeds; T(t) for t-dependent ones.

x-dependent speed:  the foot of the characteristic through (t, x) is
gamma(t,x,0) = C^{-1}(C(x) - t), with C = int_0^x dy/c_eps the reciprocal
antiderivative, a CumulativeIntegral, which also inverts it.  solve_transport
evaluates it directly; gamma_partials gives its x-partials by the chain rule,
e.g. d/dx gamma = c(gamma)/c(x).

t-dependent speed:  the characteristics x +- (T(tau) - T(t)) are straight
lines in T(t) = int_0^t c_eps, which time_integral evaluates from a table
cached per coefficient (solve_wave_t builds its own table for each member).

tanh speeds c = -+tanh(x/eps):  TanhFlow, gamma(t,x,tau) = eps*Arsinh(e^{s} sinh(x/eps))
with s = sign*(t-tau)/eps, sign = +1 for c = -tanh and -1 for c = +tanh.
e^{s} overflows double precision long before the quantities of interest stop
being meaningful, so Arsinh(e^s sinh r) is evaluated through its logarithmic
asymptotic form once s + |r| or |r| alone is large, and d/dx gamma through
logarithms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CumulativeIntegral, RegularizedCoeff

__all__ = [
    "TanhFlow",
    "gamma_partials",
    "time_integral",
    "arsinh_exp",
]

_LOG2 = np.log(2.0)
_ASYMPTOTIC = 30.0
_SINH_MAX = 700.0  # sinh overflows double precision past R ~ 710


def arsinh_exp(s, r):
    """Arsinh(e^s * sinh(r)), overflow-safe for large s + |r| and for large |r|."""
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    s, r = np.broadcast_arrays(s, r)
    sign = np.sign(r)
    R = np.abs(r)
    out = np.zeros_like(R)
    direct = ((s + R) <= _ASYMPTOTIC) & (R <= _SINH_MAX)
    if direct.any():
        out[direct] = np.arcsinh(np.exp(s[direct]) * np.sinh(R[direct]))
    far = ~direct & (R > 0.0)
    if far.any():
        sf, Rf = s[far], R[far]
        # log q with q = e^s sinh R = e^{s+R}(1 - e^{-2R})/2
        lq = sf + Rf + np.log(-np.expm1(-2.0 * Rf)) - _LOG2
        big = lq > _ASYMPTOTIC
        # Arsinh(q) = log q + log(1 + sqrt(1 + q^-2))
        u = np.exp(-2.0 * np.clip(lq, -350.0, 350.0))
        val = np.where(
            lq > -_ASYMPTOTIC,
            lq + np.log1p(np.sqrt(1.0 + u)),
            np.exp(np.clip(lq, -745.0, -_ASYMPTOTIC)),  # Arsinh(q) ~ q for tiny q
        )
        val = np.where(big, lq + _LOG2, val)
        out[far] = val
    res = sign * out
    return res if res.ndim else float(res)


@dataclass(frozen=True)
class TanhFlow:
    """Characteristic flow of c = -sign*tanh(x/eps): sign +1 converges, -1 diverges."""

    eps: float
    sign: float

    def foot(self, t, x, tau=0.0):
        """gamma(t, x, tau): position at time tau of the characteristic through (t, x)."""
        s = self.sign * (np.asarray(t, dtype=float) - np.asarray(tau, dtype=float)) / self.eps
        out = np.asarray(self.eps * arsinh_exp(s, np.asarray(x, dtype=float) / self.eps))
        return out if out.ndim else float(out)

    def foot_dx(self, t, x):
        """d/dx gamma(t, x, 0) = e^s cosh r / sqrt(1 + q^2), q = e^s sinh r, r = x/eps, in logarithms."""
        s = self.sign * np.asarray(t, dtype=float) / self.eps
        R = np.abs(np.asarray(x, dtype=float) / self.eps)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_em = np.log(-np.expm1(-2.0 * R))  # log(1 - e^{-2R}), exact for tiny R
            lq = np.where(R > 0.0, s + R + log_em - _LOG2, -np.inf)  # log |q|, -inf at r = 0
        log_ch = R + np.log1p(np.exp(-2.0 * R)) - _LOG2  # log cosh r
        log_root = 0.5 * np.logaddexp(0.0, 2.0 * lq)  # log sqrt(1 + q^2)
        return np.exp(s + log_ch - log_root)


def gamma_partials(rc: RegularizedCoeff, t, x):
    """(d/dx, d2/dx2, d3/dx3) of the x-dependent foot gamma(t, x, 0) = C^{-1}(C(x) - t).

    All expressions are chain-rule forms in c_eps and its derivatives at x
    and at gamma -- no nested finite differences (the higher orders scale
    like h^{-2} and FD noise would swamp them).
    """
    C = CumulativeIntegral(rc)
    g = C.invert(C(x) - t)
    cx, cg = rc(x), rc(g)
    c1x, c1g = rc.deriv(x, 1), rc.deriv(g, 1)
    c2x, c2g = rc.deriv(x, 2), rc.deriv(g, 2)
    g1x = cg / cx
    g2x = c1g * g1x / cx - cg * c1x / cx**2
    g3x = (
        c2g * g1x**2 / cx
        + c1g * g2x / cx
        - 2.0 * c1g * g1x * c1x / cx**2
        - cg * c2x / cx**2
        + 2.0 * cg * c1x**2 / cx**3
    )
    return g1x, g2x, g3x


_TI_CACHE: dict = {}


def time_integral(rc: RegularizedCoeff, t):
    """T(t) = int_0^t c_eps; the table is cached per coefficient."""
    if rc.base.variable != "time":
        raise ValueError("time_integral needs a time-dependent coefficient")
    ci = _TI_CACHE.get(rc)
    if ci is None:
        ci = _TI_CACHE.setdefault(rc, CumulativeIntegral(rc, integrand="value"))
    return ci(t)
