"""Piecewise-constant coefficients and their mollified families.

For a coefficient c with jumps at breakpoints b_i the mollified family is
c_eps = c * phi_h (convolution), which has the closed form

    c_eps(x) = v_0 + sum_i (v_{i+1} - v_i) * Phi((x - b_i)/h),     h = h(eps),

with Phi the mollifier antiderivative.  Derivatives follow from
phi^{(k-1)}((x-b_i)/h) / h^k.  The reciprocal antiderivative

    C_eps(x) = int_0^x dy / c_eps(y)

is assembled exactly on the piecewise-constant exterior (affine pieces) and by
16-point Gauss-Legendre panels of width h/8 inside kernel neighborhoods; its
inverse is solved by bracketed Newton.  The same machinery integrates c_eps
and c_eps^2 (time-dependent coefficients need those cumulative integrals).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mollifier import Mollifier, ScaleFn, phi_antideriv, phi_deriv, phi_eval, scale_eval

__all__ = [
    "PiecewiseConstantCoeff",
    "RegularizedCoeff",
    "CoeffAntideriv",
    "CumulativeIntegral",
    "coeff_eval",
    "coeff_deriv",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


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
    """F(x) = int_0^x f(c_eps(y)) dy for f in {1/c, c, c^2}.

    Exact affine pieces outside kernel neighborhoods, Gauss-Legendre panels
    (width h/8) inside; cached knot table, vectorized evaluation and a
    Newton-bisection inverse (strictly increasing since c_eps > 0).
    """

    def __init__(self, rc: RegularizedCoeff, integrand: str = "reciprocal"):
        if integrand == "reciprocal":
            self._f = lambda c: 1.0 / c
        elif integrand == "value":
            self._f = lambda c: c
        elif integrand == "square":
            self._f = lambda c: c * c
        else:
            raise ValueError(f"unknown integrand {integrand!r}")
        self.rc = rc
        self.integrand = integrand
        h = rc.h
        # merged kernel neighborhoods [b-h, b+h]
        ivals: list[list[float]] = []
        for b in rc.base.breakpoints:
            if ivals and b - h <= ivals[-1][1]:
                ivals[-1][1] = b + h
            else:
                ivals.append([b - h, b + h])
        # knot sequence: 0 plus every neighborhood edge
        knots = sorted({0.0, *(e for iv in ivals for e in iv)})
        self.knots = np.array(knots)
        self._ivals = [tuple(iv) for iv in ivals]
        # panel tables per mollified neighborhood
        self._panels = {}
        for lo, hi in self._ivals:
            n_panels = max(16, int(np.ceil((hi - lo) / (h / 8.0))))
            edges = np.linspace(lo, hi, n_panels + 1)
            cum = np.concatenate([[0.0], np.cumsum(self._gl(edges[:-1], edges[1:]))])
            self._panels[(lo, hi)] = (edges, cum)
        # cumulative value at each knot, measured from 0
        self._knot_vals = np.array([self._from_zero(k) for k in self.knots])

    def _gl(self, a, b):
        """GL-16 of f(c_eps) over each [a_i, b_i]; vectorized over intervals."""
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        xx = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        return half * (self._f(coeff_eval(self.rc, xx)) @ _GL_WEIGHTS)

    def _from_zero(self, x: float) -> float:
        """Scalar bootstrap integral from 0 to x (used only to seed knots)."""
        if x == 0.0:
            return 0.0
        a, b, sign = (0.0, x, 1.0) if x > 0 else (x, 0.0, -1.0)
        total = 0.0
        pos = a
        for lo, hi in self._ivals:
            s, e = max(a, lo), min(b, hi)
            if s >= e:
                continue
            total += self._f(self.rc.base(0.5 * (pos + s))) * (s - pos) if s > pos else 0.0
            total += float(self._gl(s, e)[0])
            pos = e
        if pos < b:
            total += self._f(self.rc.base(0.5 * (pos + b))) * (b - pos)
        return sign * total

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        idx = np.clip(np.searchsorted(self.knots, x, side="right") - 1, -1, None)
        out = np.empty_like(x)
        # left of all knots: constant region
        left = idx < 0
        if left.any():
            out[left] = self._knot_vals[0] + self._f(self.rc.base(self.knots[0] - 1.0)) * (
                x[left] - self.knots[0]
            )
        for j in range(len(self.knots)):
            sel = idx == j
            if not sel.any():
                continue
            x0 = self.knots[j]
            # which kind of segment starts at knot j?
            seg = None
            for lo, hi in self._ivals:
                if np.isclose(x0, lo) or (lo < x0 < hi):
                    seg = (lo, hi)
                    break
            if seg is None:
                # constant segment: exact affine
                cval = self._f(self.rc.base(x0 + 1e-9 * (1.0 + abs(x0))))
                out[sel] = self._knot_vals[j] + cval * (x[sel] - x0)
            else:
                edges, cum = self._panels[seg]
                base = self._knot_vals[j] - np.interp(x0, edges, cum)
                xs = np.minimum(x[sel], seg[1])
                pj = np.clip(np.searchsorted(edges, xs, side="right") - 1, 0, len(cum) - 2)
                part = cum[pj] + self._gl(edges[pj], xs)
                res = base + part
                over = x[sel] > seg[1]
                if over.any():
                    cval = self._f(self.rc.base(seg[1] + 1e-9 * (1.0 + abs(seg[1]))))
                    res = np.where(over, base + cum[-1] + cval * (x[sel] - seg[1]), res)
                out[sel] = res
        return float(out[0]) if scalar else out

    def derivative(self, x):
        return self._f(coeff_eval(self.rc, x))

    def invert(self, y):
        """x with F(x) = y, via knot bracketing + safeguarded Newton."""
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        y = np.atleast_1d(y).astype(float)
        kv, kx = self._knot_vals, self.knots
        # affine outside the knot range
        f_left = self._f(self.rc.base(kx[0] - 1.0))
        f_right = self._f(self.rc.base(kx[-1] + 1.0))
        x = np.where(
            y <= kv[0],
            kx[0] + (y - kv[0]) / f_left,
            kx[-1] + (y - kv[-1]) / f_right,
        )
        mid = (y > kv[0]) & (y < kv[-1])
        if mid.any():
            j = np.clip(np.searchsorted(kv, y[mid], side="right") - 1, 0, len(kx) - 2)
            lo, hi = kx[j], kx[j + 1]
            xm = 0.5 * (lo + hi)
            for _ in range(60):
                fx = np.atleast_1d(self(xm))
                d = np.atleast_1d(self.derivative(xm))
                step = (fx - y[mid]) / d
                xm = np.clip(xm - step, lo, hi)
                if np.max(np.abs(step)) < 1e-14 * (1.0 + np.max(np.abs(xm))):
                    break
            x[mid] = xm
        return float(x[0]) if scalar else x


class CoeffAntideriv(CumulativeIntegral):
    """C_eps(x) = int_0^x dy/c_eps(y) with its inverse."""

    def __init__(self, rc: RegularizedCoeff):
        super().__init__(rc, integrand="reciprocal")

    @property
    def owner(self) -> RegularizedCoeff:
        return self.rc

