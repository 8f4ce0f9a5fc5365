"""Piecewise-constant coefficients and their mollified families.

For a coefficient c with jumps at breakpoints b_i the mollified family is
c_eps = c * phi_h (convolution), which has the closed form

    c_eps(x) = v_0 + sum_i (v_{i+1} - v_i) * Phi((x - b_i)/h),     h = h(eps),

with Phi the mollifier antiderivative.  Derivatives follow from
phi^{(k-1)}((x-b_i)/h) / h^k.  c_eps varies only inside the merged kernel
windows [b_i - h, b_i + h] (RegularizedCoeff.windows) and is exactly constant
between and outside them.  CumulativeIntegral builds one edge table on that
split for F(x) = int_0^x f(c_eps) with f in {1/c, c}: 16-point
Gauss-Legendre panels of width <= h/8 inside the windows, exact affine pieces
elsewhere.  Evaluation is one table lookup plus at most one panel quadrature;
the inverse is exact on the affine pieces and a safeguarded Newton iteration
inside one panel.  The reciprocal antiderivative C_eps = int_0^x 1/c_eps is
CoeffAntideriv; a time-dependent coefficient uses the c_eps table, T(t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mollifier import Mollifier, ScaleFn, phi_antideriv, phi_deriv, scale_eval

__all__ = [
    "PiecewiseConstantCoeff",
    "RegularizedCoeff",
    "CoeffAntideriv",
    "CumulativeIntegral",
    "coeff_eval",
    "coeff_deriv",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_INTEGRANDS = {"reciprocal": lambda c: 1.0 / c, "value": lambda c: c}


@dataclass(frozen=True)
class PiecewiseConstantCoeff:
    """c(x) = values[i] on (breakpoints[i-1], breakpoints[i])."""

    breakpoints: tuple
    values: tuple
    variable: str = "space"  # "space" | "time"

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(bp) + 1:
            raise ValueError("need exactly one more value than breakpoints")
        if any(v <= 0.0 for v in vals):
            raise ValueError("coefficient values must be strictly positive")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if self.variable not in ("space", "time"):
            raise ValueError("variable must be 'space' or 'time'")

    @property
    def b0(self) -> float:
        return min(self.values)

    @property
    def b1(self) -> float:
        return max(self.values)

    def __call__(self, x):
        """Sharp (unmollified) evaluation; midpoint value on a jump."""
        x = np.asarray(x, dtype=float)
        vals = np.asarray(self.values)
        idx = np.searchsorted(self.breakpoints, x, side="left")
        out = vals[idx]
        for b, lo, hi in zip(self.breakpoints, vals[:-1], vals[1:]):
            out = np.where(x == b, 0.5 * (lo + hi), out)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class RegularizedCoeff:
    base: PiecewiseConstantCoeff
    mollifier: Mollifier
    scale: ScaleFn
    eps: float

    @property
    def h(self) -> float:
        return scale_eval(self.scale, self.eps)

    @property
    def b0(self) -> float:
        return self.base.b0

    @property
    def b1(self) -> float:
        return self.base.b1

    def __call__(self, x):
        return coeff_eval(self, x)

    def deriv(self, x, k: int = 1):
        return coeff_deriv(self, x, k)

    @property
    def windows(self) -> tuple:
        """Merged kernel neighbourhoods [b - h, b + h]; c_eps is constant off them."""
        h, out = self.h, []
        for b in self.base.breakpoints:
            if out and b - h <= out[-1][1]:
                out[-1][1] = b + h
            else:
                out.append([b - h, b + h])
        return tuple(map(tuple, out))


def coeff_eval(rc: RegularizedCoeff, x):
    x = np.asarray(x, dtype=float)
    h = rc.h
    vals = rc.base.values
    out = np.full_like(x, vals[0], dtype=float)
    for b, lo, hi in zip(rc.base.breakpoints, vals[:-1], vals[1:]):
        out = out + (hi - lo) * phi_antideriv(rc.mollifier, (x - b) / h)
    return out if out.ndim else float(out)


def coeff_deriv(rc: RegularizedCoeff, x, k: int):
    if k < 1:
        raise ValueError("derivative order must be >= 1")
    x = np.asarray(x, dtype=float)
    h = rc.h
    vals = rc.base.values
    out = np.zeros_like(x, dtype=float)
    for b, lo, hi in zip(rc.base.breakpoints, vals[:-1], vals[1:]):
        out = out + (hi - lo) * phi_deriv(rc.mollifier, (x - b) / h, k - 1) / h**k
    return out if out.ndim else float(out)


class CumulativeIntegral:
    """F(x) = int_0^x f(c_eps(y)) dy for f in {1/c, c}, strictly increasing.

    One edge table over the line: GL-16 panels of width <= h/8 inside the
    windows, exact constant f(c) on every other interval, and F stored at
    every edge; 0 is an edge, so F(0) = 0 exactly.
    """

    def __init__(self, rc: RegularizedCoeff, integrand: str = "reciprocal"):
        if integrand not in _INTEGRANDS:
            raise ValueError(f"unknown integrand {integrand!r}")
        self._f = _INTEGRANDS[integrand]
        self.rc = rc
        self.integrand = integrand
        panels = [np.linspace(lo, hi, max(16, int(np.ceil((hi - lo) / (rc.h / 8.0)))) + 1)
                  for lo, hi in rc.windows]
        edges = np.unique(np.concatenate([[0.0], *panels]))
        # interval k runs from x0[k] to edges[k]; k = 0 and k = len(edges) are the unbounded ends
        mid = np.concatenate([[-np.inf], 0.5 * (edges[:-1] + edges[1:]), [np.inf]])
        panel = np.searchsorted(np.ravel(rc.windows), mid) % 2 == 1
        slope = np.where(panel, 0.0, self._f(rc.base(mid)))
        part = slope[1:-1] * np.diff(edges)
        inner = panel[1:-1]
        part[inner] = self._gl(edges[:-1][inner], edges[1:][inner])
        F = np.concatenate([[0.0], np.cumsum(part)])
        F -= F[np.searchsorted(edges, 0.0)]
        self._edges, self._panel, self._slope = edges, panel, slope
        self._x0 = np.concatenate([edges[:1], edges])
        self._F = np.concatenate([F[:1], F])  # F(x0[k])

    def _gl(self, a, b):
        """GL-16 of f(c_eps) over each [a_i, b_i]; vectorized over intervals."""
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        xx = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        return half * (self._f(coeff_eval(self.rc, xx)) @ _GL_WEIGHTS)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        k = np.searchsorted(self._edges, x, side="right")
        x0 = self._x0[k]
        out = self._F[k] + self._slope[k] * (x - x0)
        p = self._panel[k]
        if p.any():
            out[p] += self._gl(x0[p], x[p])
        return float(out[0]) if scalar else out

    def derivative(self, x):
        return self._f(coeff_eval(self.rc, x))

    def invert(self, y):
        """x with F(x) = y: exact on constant intervals, safeguarded Newton in a panel."""
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        y = np.atleast_1d(y).astype(float)
        k = np.searchsorted(self._F[1:], y, side="right")
        flat = ~self._panel[k]
        x = np.empty_like(y)
        kf = k[flat]
        x[flat] = self._x0[kf] + (y[flat] - self._F[kf]) / self._slope[kf]
        if not flat.all():
            kp = k[~flat]
            lo, hi, yp = self._x0[kp], self._edges[kp], y[~flat] - self._F[kp]
            xm = 0.5 * (lo + hi)
            for _ in range(60):
                step = (self._gl(lo, xm) - yp) / self.derivative(xm)
                xm = np.clip(xm - step, lo, hi)
                if np.max(np.abs(step)) < 1e-14 * (1.0 + np.max(np.abs(xm))):
                    break
            x[~flat] = xm
        return float(x[0]) if scalar else x


class CoeffAntideriv(CumulativeIntegral):
    """C_eps(x) = int_0^x dy/c_eps(y) with its inverse."""

    def __init__(self, rc: RegularizedCoeff):
        super().__init__(rc, integrand="reciprocal")
