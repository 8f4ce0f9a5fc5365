"""Evaluation of the mollifier families.

A mollifier (colwave.spec.Mollifier) here is a symmetric bump phi with supp phi in [-1, 1],
integral 1 and phi' >= 0 on [-1, 0].  Two families are provided:

* ``polynomial(n)``: phi(x) = C_n (1 - x^2)^n_+ with the exact normalizer
  C_n = (2n+1)! / (2^{2n+1} (n!)^2).  Derivatives, the antiderivative and
  the first moment are exact polynomials, so nothing downstream is polluted
  by quadrature error.
* ``bump``: the classical C-infinity bump N exp(-1/(1-x^2)).  Its
  antiderivative has no closed form and is tabulated once (4097-point
  cosine-spaced grid, panelwise Gauss-Legendre) and evaluated by monotone
  cubic interpolation; its first moment is exact through the exponential
  integral E1.

The first moment M(z) = int_{-1}^z y phi(y) dy (phi_moment) gives the
antiderivative h M(r/h) of the d = 3 radial data r phi_h(r) and the spherical
oracle.  Scaled copies phi_h(x) = phi(x/h)/h are taken at the regularization
scale h(eps) of colwave.spec.ScaleFn.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .spec import Mollifier

__all__ = [
    "phi_eval",
    "phi_deriv",
    "phi_antideriv",
    "phi_moment",
]


@lru_cache(maxsize=None)
def _poly_coeffs(n: int) -> tuple[np.ndarray, ...]:
    """Ascending coefficient arrays of C_n (1-x^2)^n and its derivatives."""
    c = np.zeros(2 * n + 1)
    for j in range(n + 1):
        c[2 * j] = math.comb(n, j) * (-1.0) ** j
    c *= Mollifier("polynomial", n).normalization
    out = [c]
    for _ in range(4):
        out.append(np.polynomial.polynomial.polyder(out[-1]))
    return tuple(out)


@lru_cache(maxsize=None)
def _poly_antideriv_coeffs(n: int) -> np.ndarray:
    return np.polynomial.polynomial.polyint(_poly_coeffs(n)[0])


# --- bump family -----------------------------------------------------------

def _bump_u_derivs(x, s):
    """Derivatives of u(x) = -1/(1-x^2) (s = 1-x^2), orders 1..4."""
    u1 = -2.0 * x / s**2
    u2 = -2.0 / s**2 - 8.0 * x**2 / s**3
    u3 = -24.0 * x / s**3 - 48.0 * x**3 / s**4
    u4 = -24.0 / s**3 - 288.0 * x**2 / s**4 - 384.0 * x**4 / s**5
    return u1, u2, u3, u4


@lru_cache(maxsize=1)
def _bump_table():
    """(normalizer, interpolator for Phi) of the bump family."""
    from scipy.interpolate import PchipInterpolator

    npts = 4097
    grid = -np.cos(np.linspace(0.0, np.pi, npts))  # cosine-spaced, dense at +-1
    # panelwise 16-point Gauss-Legendre of exp(-1/(1-x^2))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    a, b = grid[:-1], grid[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    xx = mid[:, None] + half[:, None] * nodes[None, :]
    ss = 1.0 - xx**2
    vals = np.where(ss > 1e-300, np.exp(-1.0 / np.maximum(ss, 1e-300)), 0.0)
    panel = half * (vals @ weights)
    cum = np.concatenate([[0.0], np.cumsum(panel)])
    total = cum[-1]
    cum /= total
    cum[-1] = 1.0
    with np.errstate(over="ignore", divide="ignore"):  # flat end slopes
        interp = PchipInterpolator(grid, cum, extrapolate=False)
    return 1.0 / total, interp


def phi_eval(m: Mollifier, x):
    """phi(x); vectorized, 0 outside [-1, 1]."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    if m.family == "polynomial":
        val = np.polynomial.polynomial.polyval(x, _poly_coeffs(m.n)[0])
    else:
        s = np.where(inside, 1.0 - x**2, 1.0)
        val = m.normalization * np.exp(-1.0 / s)
    out = np.where(inside, val, 0.0)
    return out if out.ndim else float(out)


def phi_deriv(m: Mollifier, x, k: int):
    """Exact k-th derivative of phi (k = 0..m.max_deriv_order)."""
    if k == 0:
        return phi_eval(m, x)
    if k > m.max_deriv_order:
        raise ValueError(
            f"derivative order {k} not continuous at +-1 for this mollifier"
        )
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    if m.family == "polynomial":
        val = np.polynomial.polynomial.polyval(x, _poly_coeffs(m.n)[k])
    else:
        s = np.where(inside, 1.0 - x**2, 1.0)
        u1, u2, u3, u4 = _bump_u_derivs(x, s)
        if k == 1:
            fac = u1
        elif k == 2:
            fac = u2 + u1**2
        elif k == 3:
            fac = u3 + 3.0 * u1 * u2 + u1**3
        else:
            fac = u4 + 4.0 * u1 * u3 + 3.0 * u2**2 + 6.0 * u1**2 * u2 + u1**4
        val = fac * m.normalization * np.exp(-1.0 / s)
    out = np.where(inside, val, 0.0)
    return out if out.ndim else float(out)


def phi_antideriv(m: Mollifier, x):
    """Phi(x) = int_{-inf}^x phi; Phi(-1)=0, Phi(0)=1/2, Phi(1)=1."""
    x = np.asarray(x, dtype=float)
    if m.family == "polynomial":
        coeffs = _poly_antideriv_coeffs(m.n)
        offset = np.polynomial.polynomial.polyval(-1.0, coeffs)
        val = np.polynomial.polynomial.polyval(np.clip(x, -1.0, 1.0), coeffs) - offset
    else:
        val = _bump_table()[1](np.clip(x, -1.0, 1.0))
    out = np.where(x <= -1.0, 0.0, np.where(x >= 1.0, 1.0, val))
    return out if out.ndim else float(out)


def phi_moment(m: Mollifier, z):
    """M(z) = int_{-1}^z y phi(y) dy, exact; even, 0 outside (-1, 1).

    Polynomial family: a polynomial.  Bump family: with s = 1 - z^2,
    M = -N/2 [s e^(-1/s) - E1(1/s)] (substitute s = 1 - y^2, then u = 1/s).
    """
    z = np.clip(np.asarray(z, dtype=float), -1.0, 1.0)
    if m.family == "polynomial":
        P = np.polynomial.polynomial
        val = P.polyval(z, P.polyint(P.polymulx(_poly_coeffs(m.n)[0]), lbnd=-1.0))
    else:
        from scipy.special import exp1

        s = 1.0 - z**2
        r = 1.0 / np.where(s > 0.0, s, 1.0)
        val = np.where(s > 0.0, -0.5 * m.normalization * (s * np.exp(-r) - exp1(r)), 0.0)
    return val if val.ndim else float(val)
