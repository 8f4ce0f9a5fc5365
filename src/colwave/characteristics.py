"""Characteristic curves for x-dependent and tanh speeds; T(t) for t-dependent ones.

x-dependent speed:  gamma(t,x,tau) = C^{-1}(C(x) + tau - t) with C the
reciprocal antiderivative of c_eps; its partials at tau=0 follow from the
chain rule, e.g. d/dx gamma = c(gamma)/c(x).

t-dependent speed:  the characteristics x +- (T(tau) - T(t)) are straight
lines in T(t) = int_0^t c_eps, which time_integral evaluates from a table
cached per coefficient (solve_wave_t builds its own table for each member).

tanh speeds c = -+tanh(x/eps):  gamma(t,x,tau) = eps*Arsinh(e^{s} sinh(x/eps))
with s = (t-tau)/eps for the minus sign and s = (tau-t)/eps for the plus sign.
e^{s} overflows double precision long before the quantities of interest stop
being meaningful, so Arsinh(e^s sinh r) is evaluated through its logarithmic
asymptotic form once s + |r| is large, and so are its x-derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import CoeffAntideriv, CumulativeIntegral, RegularizedCoeff

__all__ = [
    "CharCurve",
    "gamma",
    "gamma_partials",
    "time_integral",
    "arsinh_exp",
]

_LOG2 = np.log(2.0)
_ASYMPTOTIC = 30.0


def arsinh_exp(s, r):
    """Arsinh(e^s * sinh(r)), overflow-safe for large s + |r|."""
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    s, r = np.broadcast_arrays(s, r)
    sign = np.sign(r)
    R = np.abs(r)
    out = np.zeros_like(R)
    direct = (s + R) <= _ASYMPTOTIC
    if direct.any():
        out[direct] = np.arcsinh(np.exp(s[direct]) * np.sinh(R[direct]))
    far = ~direct & (R > 0.0)
    if far.any():
        sf, Rf = s[far], R[far]
        # log q with q = e^s sinh R = e^{s+R}(1 - e^{-2R})/2
        lq = sf + Rf + np.log(-np.expm1(-2.0 * Rf)) - _LOG2
        big = lq > _ASYMPTOTIC
        # Arsinh(q) = log q + log(1 + sqrt(1 + q^-2))
        u = np.exp(-2.0 * np.minimum(lq, 350.0))
        val = np.where(
            lq > -_ASYMPTOTIC,
            lq + np.log1p(np.sqrt(1.0 + u)),
            np.exp(np.clip(lq, -745.0, -_ASYMPTOTIC)),  # Arsinh(q) ~ q for tiny q
        )
        val = np.where(big, lq + _LOG2, val)
        out[far] = val
    res = sign * out
    return res if res.ndim else float(res)


def _tanh_gamma_x_partials(eps: float, s, r):
    """(d/dx gamma, d2/dx2 gamma) for gamma = eps*Arsinh(e^s sinh r), r = x/eps.

    With q = e^s sinh r:
        g1 = e^s cosh r / sqrt(1+q^2)
        g2 = (e^s/eps) [ sinh r / sqrt(1+q^2) - e^s cosh^2 r * q / (1+q^2)^{3/2} ]
    Evaluated by regime (q tiny / moderate / huge) to stay in double range.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    s, r = np.broadcast_arrays(s, r)
    sign = np.where(r >= 0.0, 1.0, -1.0)
    R = np.abs(r)
    a = np.exp(-2.0 * R)
    # log q (q = 0 at r = 0 -> -inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_em = np.log(-np.expm1(-2.0 * R))  # log(1 - e^{-2R}), exact for tiny R
        lq = np.where(R > 0.0, s + R + log_em - _LOG2, -np.inf)
    log_ch = R + np.log1p(a) - _LOG2  # log cosh r
    with np.errstate(invalid="ignore"):
        log_sh = np.where(R > 0.0, R + log_em - _LOG2, -np.inf)  # log |sinh r|
    # log sqrt(1+q^2) = 0.5*logaddexp(0, 2 lq)
    log_root = 0.5 * np.logaddexp(0.0, 2.0 * lq)
    g1 = np.exp(s + log_ch - log_root)
    # second derivative, piecewise by q magnitude
    g2 = np.empty_like(g1)
    huge = lq > _ASYMPTOTIC
    tiny = lq < -_ASYMPTOTIC
    mid = ~(huge | tiny)
    if mid.any():
        q = sign[mid] * np.exp(lq[mid])
        es = np.exp(s[mid])
        ch = np.cosh(np.minimum(R[mid], 350.0))
        sh = sign[mid] * np.sinh(np.minimum(R[mid], 350.0))
        root = np.sqrt(1.0 + q * q)
        g2[mid] = (es / eps) * (sh / root - es * ch * ch * q / root**3)
    if huge.any():
        ah = a[huge]
        g2[huge] = -(sign[huge] / eps) * 4.0 * ah / (1.0 - ah) ** 2
    if tiny.any():
        # q ~ 0: g2 ~ e^s sinh r / eps (signed), safe since lq small
        g2[tiny] = sign[tiny] * np.exp(s[tiny] + log_sh[tiny]) / eps
    return g1, g2


@dataclass(frozen=True)
class CharCurve:
    """Characteristic flow (t,x) -> gamma(t,x,tau)."""

    kind: str  # "x_dependent" | "tanh_minus" | "tanh_plus"
    antideriv: Optional[CoeffAntideriv] = None
    eps: float = 0.0

    @staticmethod
    def x_dependent(ca: CoeffAntideriv) -> "CharCurve":
        return CharCurve(kind="x_dependent", antideriv=ca)

    @staticmethod
    def tanh_minus(eps: float) -> "CharCurve":
        return CharCurve(kind="tanh_minus", eps=float(eps))

    @staticmethod
    def tanh_plus(eps: float) -> "CharCurve":
        return CharCurve(kind="tanh_plus", eps=float(eps))

    def __call__(self, t, x, tau):
        return gamma(self, t, x, tau)


def gamma(cc: CharCurve, t, x, tau):
    """Position at time tau of the characteristic passing through (t, x)."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if cc.kind == "x_dependent":
        ca = cc.antideriv
        out = ca.invert(ca(x) + tau - t)
    elif cc.kind in ("tanh_minus", "tanh_plus"):
        sgn = 1.0 if cc.kind == "tanh_minus" else -1.0
        out = cc.eps * arsinh_exp(sgn * (t - tau) / cc.eps, x / cc.eps)
    else:
        raise ValueError(f"unknown characteristic kind {cc.kind!r}")
    out = np.asarray(out)
    return out if out.ndim else float(out)


def gamma_x_partials(cc: CharCurve, t, x, tau=0.0):
    """(d/dx gamma, d2/dx2 gamma) for the tanh kinds."""
    if cc.kind not in ("tanh_minus", "tanh_plus"):
        raise ValueError("gamma_x_partials: tanh kinds only; use gamma_partials")
    sgn = 1.0 if cc.kind == "tanh_minus" else -1.0
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    s = sgn * (t - np.asarray(tau, dtype=float)) / cc.eps
    return _tanh_gamma_x_partials(cc.eps, s, x / cc.eps)


def gamma_partials(cc: CharCurve, t, x, k: int = 3):
    """Closed-form partials of gamma at tau = 0 for the x_dependent kind.

    Returns ((dx, dxx, dxxx), (dt, dtt, dttt)) truncated to order k.
    All expressions are chain-rule forms in c_eps and its derivatives at x
    and at gamma -- no nested finite differences (the higher orders scale
    like h^{-2} and FD noise would swamp them).
    """
    if cc.kind != "x_dependent":
        raise ValueError("gamma_partials requires the x_dependent kind")
    if not 1 <= k <= 3:
        raise ValueError("order k must be 1..3")
    rc = cc.antideriv.rc
    g = gamma(cc, t, x, 0.0)
    cx, cg = rc(x), rc(g)
    c1x, c1g = rc.deriv(x, 1), rc.deriv(g, 1)
    c2x, c2g = rc.deriv(x, 2), rc.deriv(g, 2)

    g1x = cg / cx
    g1t = -cg
    xs = [g1x]
    ts = [g1t]
    if k >= 2:
        g2x = c1g * g1x / cx - cg * c1x / cx**2
        g2t = c1g * cg
        xs.append(g2x)
        ts.append(g2t)
    if k >= 3:
        g3x = (
            c2g * g1x**2 / cx
            + c1g * g2x / cx
            - 2.0 * c1g * g1x * c1x / cx**2
            - cg * c2x / cx**2
            + 2.0 * cg * c1x**2 / cx**3
        )
        g3t = -c2g * cg**2 - c1g**2 * cg
        xs.append(g3x)
        ts.append(g3t)
    return tuple(xs), tuple(ts)


_TI_CACHE: dict = {}


def time_integral(rc: RegularizedCoeff, t):
    """T(t) = int_0^t c_eps; the table is cached per coefficient."""
    if rc.base.variable != "time":
        raise ValueError("time_integral needs a time-dependent coefficient")
    ci = _TI_CACHE.get(rc)
    if ci is None:
        ci = _TI_CACHE.setdefault(rc, CumulativeIntegral(rc, integrand="value"))
    return ci(t)
