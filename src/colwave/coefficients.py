"""Piecewise-constant coefficients and their mollified families.

For a coefficient c with jumps at breakpoints b_i the mollified family is
c_eps = c * phi_h (convolution), which has the closed form

    c_eps(x) = v_0 + sum_i (v_{i+1} - v_i) * Phi((x - b_i)/h),     h = h(eps),

with Phi the mollifier antiderivative.  Derivatives follow from
phi^{(k-1)}((x-b_i)/h) / h^k.  c_eps varies only inside the merged kernel
windows [b_i - h, b_i + h] (RegularizedCoeff.windows) and is exactly constant
between and outside them.  CumulativeIntegral builds one edge table on that
split for F(x) = int_0^x f(c_eps) with f in {1/c, 1/sqrt(c), c}: panels of
width <= h/8 inside the windows, exact affine pieces elsewhere.  On each panel f(c_eps) is
sampled once at the 16 Gauss-Legendre nodes; the GL sum gives the panel total
and the same samples give the degree-15 Legendre series of f in the panel
variable z, integrated once to G(z) = int_{-1}^z f.  Evaluation is one table
lookup plus at most one Clenshaw sum of G; the inverse is exact on the affine
pieces and a safeguarded Newton iteration on G inside one panel.  1/c gives
the reciprocal antiderivative C_eps = int_0^x 1/c_eps of the transport flow,
1/sqrt(c) the travel time of the conservative wave_x form; a time-dependent
coefficient uses the c_eps table, T(t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from .mollifier import Mollifier, ScaleFn, phi_antideriv, phi_deriv

__all__ = [
    "PiecewiseConstantCoeff",
    "RegularizedCoeff",
    "CumulativeIntegral",
]

_GL_NODES, _GL_WEIGHTS = legendre.leggauss(16)
# values at the GL nodes -> coefficients of the degree-15 Legendre series through them
_GL_PROJECT = legendre.legvander(_GL_NODES, 15) * (_GL_WEIGHTS[:, None] * (np.arange(16) + 0.5))
_NEWTON_MAX_ITER = 60
_INTEGRANDS = {"reciprocal": lambda c: 1.0 / c, "reciprocal_sqrt": lambda c: 1.0 / np.sqrt(c), "value": lambda c: c}


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
        if not np.isfinite(bp + vals).all():
            raise ValueError("breakpoints and values must be finite")
        if any(v <= 0.0 for v in vals):
            raise ValueError("coefficient values must be strictly positive")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if self.variable not in ("space", "time"):
            raise ValueError("variable must be 'space' or 'time'")

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
        return self.scale(self.eps)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        h = self.h
        vals = self.base.values
        out = np.full_like(x, vals[0], dtype=float)
        for b, lo, hi in zip(self.base.breakpoints, vals[:-1], vals[1:]):
            out = out + (hi - lo) * phi_antideriv(self.mollifier, (x - b) / h)
        return out if out.ndim else float(out)

    def deriv(self, x, k: int = 1):
        if k < 1:
            raise ValueError("derivative order must be >= 1")
        x = np.asarray(x, dtype=float)
        h = self.h
        vals = self.base.values
        out = np.zeros_like(x, dtype=float)
        for b, lo, hi in zip(self.base.breakpoints, vals[:-1], vals[1:]):
            out = out + (hi - lo) * phi_deriv(self.mollifier, (x - b) / h, k - 1) / h**k
        return out if out.ndim else float(out)

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


class CumulativeIntegral:
    """F(x) = int_0^x f(c_eps(y)) dy for f in {1/c, 1/sqrt(c), c}, strictly increasing.

    One edge table over the line: panels of width <= h/8 inside the windows,
    exact constant f(c) on every other interval, and F stored at every edge;
    0 is an edge, so F(0) = 0 exactly.  A panel [mid - half, mid + half]
    carries the Legendre series of f and of G(z) = int_{-1}^z f in
    z = (x - mid)/half, fitted to its 16 GL samples, so inside it
    F(x) = F(mid - half) + half * G(z).  The panel totals in the edge table
    are the GL sums of the same samples.
    """

    def __init__(self, rc: RegularizedCoeff, integrand: str = "reciprocal"):
        if integrand not in _INTEGRANDS:
            raise ValueError(f"unknown integrand {integrand!r}")
        self._f = _INTEGRANDS[integrand]
        # c_eps is smooth between the kernel ends b - h, b + h, so no panel straddles one
        # sorted and deduplicated by hand: the first np.unique call imports numpy.ma (tens of ms)
        ends = np.array(sorted({b + d for b in rc.base.breakpoints for d in (-rc.h, rc.h)}), dtype=float)
        inside = np.searchsorted(np.ravel(rc.windows), 0.5 * (ends[:-1] + ends[1:])) % 2 == 1
        panels = [np.linspace(lo, hi, max(16, int(np.ceil((hi - lo) / (rc.h / 8.0)))) + 1)
                  for lo, hi in zip(ends[:-1][inside], ends[1:][inside])]
        edges = np.sort(np.concatenate([[0.0], *panels]))
        edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]
        # interval k runs from x0[k] to edges[k]; k = 0 and k = len(edges) are the unbounded ends
        mid = np.concatenate([[-np.inf], 0.5 * (edges[:-1] + edges[1:]), [np.inf]])
        panel = np.searchsorted(np.ravel(rc.windows), mid) % 2 == 1
        slope = np.where(panel, 0.0, self._f(rc.base(mid)))
        part = slope[1:-1] * np.diff(edges)
        inner = panel[1:-1]
        self._mid, self._half = mid[1:-1][inner], 0.5 * (edges[1:] - edges[:-1])[inner]
        fv = self._f(rc(self._mid[:, None] + self._half[:, None] * _GL_NODES))
        part[inner] = self._half * (fv @ _GL_WEIGHTS)
        coef = fv @ _GL_PROJECT
        self._fser = coef.T.copy()  # one column per panel
        self._Gser = legendre.legint(coef, lbnd=-1, axis=1).T.copy()
        self._row = np.cumsum(panel) - 1  # interval -> panel column
        F = np.concatenate([[0.0], np.cumsum(part)])
        F -= F[np.searchsorted(edges, 0.0)]
        self._edges, self._panel, self._slope = edges, panel, slope
        self._x0 = np.concatenate([edges[:1], edges])
        self._F = np.concatenate([F[:1], F])  # F(x0[k])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        k = np.searchsorted(self._edges, x, side="right")
        out = self._F[k] + self._slope[k] * (x - self._x0[k])
        p = self._panel[k]
        if p.any():
            r = self._row[k[p]]
            half = self._half[r]
            z = (x[p] - self._mid[r]) / half
            out[p] += half * legendre.legval(z, self._Gser[:, r], tensor=False)
        return float(out[0]) if scalar else out

    def invert(self, y):
        """x with F(x) = y: exact on constant intervals, safeguarded Newton in a panel."""
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        y = np.atleast_1d(y).astype(float)
        k = np.searchsorted(self._F[1:], y, side="right")
        with np.errstate(divide="ignore", invalid="ignore"):  # slope 0 on the panels
            x = self._x0[k] + (y - self._F[k]) / self._slope[k]
        p = np.flatnonzero(self._panel[k])
        if p.size:
            kp = k[p]
            r = self._row[kp]
            mid, half, G, f = self._mid[r], self._half[r], self._Gser[:, r], self._fser[:, r]
            yp = y[p] - self._F[kp]
            z = 2.0 * yp / (self._F[kp + 1] - self._F[kp]) - 1.0  # secant across the panel
            g = yp / half  # solve G(z) = g
            for _ in range(_NEWTON_MAX_ITER):
                dz = (legendre.legval(z, G, tensor=False) - g) / legendre.legval(z, f, tensor=False)
                z = np.clip(z - dz, -1.0, 1.0)
                xm = mid + half * z
                if np.max(np.abs(half * dz)) < 1e-14 * (1.0 + np.max(np.abs(xm))):
                    break
            else:
                raise FloatingPointError(
                    f"CumulativeIntegral.invert: no convergence in {_NEWTON_MAX_ITER} Newton steps")
            x[p] = xm
        return float(x[0]) if scalar else x

