import warnings

import numpy as np
import pytest
from numpy.polynomial import legendre
from scipy.integrate import quad

from colwave import coefficients
from colwave.coefficients import CumulativeIntegral, RegularizedCoeff
from colwave.spec import Mollifier, PiecewiseConstantCoeff, ScaleFn


@pytest.fixture
def jump12():
    return PiecewiseConstantCoeff((0.0,), (1.0, 2.0), "space")


@pytest.fixture
def rc(jump12):
    return RegularizedCoeff(jump12, Mollifier(), ScaleFn("standard"), 0.05)


def test_base_validation():
    with pytest.raises(ValueError):
        PiecewiseConstantCoeff((0.0,), (1.0,))  # too few values
    with pytest.raises(ValueError):
        PiecewiseConstantCoeff((0.0,), (1.0, -2.0))
    with pytest.raises(ValueError):
        PiecewiseConstantCoeff((1.0, 0.0), (1.0, 2.0, 3.0))
    for bad in ((0.0,), (1.0, np.inf)), ((0.0,), (1.0, np.nan)), ((np.nan,), (1.0, 2.0)):
        with pytest.raises(ValueError, match="finite"):
            PiecewiseConstantCoeff(*bad)


def test_sharp_eval(jump12):
    assert jump12(-0.5) == 1.0
    assert jump12(0.5) == 2.0
    assert jump12(0.0) == 1.5  # midpoint on the jump


def test_sandwich_bounds(rc):
    xs = np.linspace(-1.0, 1.0, 2001)
    c = rc(xs)
    assert np.all(c >= min(rc.base.values) - 1e-14)
    assert np.all(c <= max(rc.base.values) + 1e-14)
    # saturates exactly outside the kernel neighborhood
    assert rc(-0.051) == 1.0
    assert rc(0.051) == 2.0
    assert rc(0.0) == pytest.approx(1.5, abs=1e-14)


def test_deriv_matches_fd(rc):
    xs = np.linspace(-0.04, 0.04, 33)
    step = 1e-7
    fd = (rc(xs + step) - rc(xs - step)) / (2 * step)
    assert np.allclose(rc.deriv(xs, 1), fd, rtol=1e-5, atol=1e-4)


def test_deriv_scaling_law(jump12):
    # peak of c' is (c1-c0) * phi(0) / h
    m = Mollifier()
    for eps in (0.1, 0.02):
        r = RegularizedCoeff(jump12, m, ScaleFn("standard"), eps)
        assert r.deriv(0.0, 1) == pytest.approx((2.0 - 1.0) * (15.0 / 16.0) / eps, rel=1e-12)


# (breakpoints, values, eps) of the edge-table geometries
GEOMETRIES = {
    "jump_at_0": ((0.0,), (1.0, 2.0), 0.05),
    "jump_off_panel_grid": ((0.03,), (1.0, 2.0), 0.1),  # 0 inside a panel of the window
    "merged_neighbourhoods": ((0.0, 0.05), (1.0, 2.0, 1.5), 0.05),
    "no_breakpoint": ((), (1.7,), 0.05),
}
INTEGRANDS = {"reciprocal": lambda c: 1.0 / c, "value": lambda c: c}
# (geometry, mollifier) cases; the polynomial ones keep the bare geometry id
MOLLIFIED = [pytest.param(g, m, id=g if m == "polynomial" else f"{g}-{m}")
             for m in ("polynomial", "bump") for g in GEOMETRIES]


def _table(geometry, integrand, mollifier="polynomial"):
    bps, vals, eps = GEOMETRIES[geometry]
    base = PiecewiseConstantCoeff(bps, vals, "space")
    r = RegularizedCoeff(base, Mollifier(mollifier), ScaleFn("standard"), eps)
    return r, CumulativeIntegral(r, integrand=integrand)


@pytest.mark.parametrize("integrand", INTEGRANDS)
@pytest.mark.parametrize("geometry, mollifier", MOLLIFIED)
def test_antideriv_vs_quadrature(geometry, integrand, mollifier):
    r, F = _table(geometry, integrand, mollifier)
    f = INTEGRANDS[integrand]
    if (geometry, integrand, mollifier) == ("jump_at_0", "reciprocal", "polynomial"):
        # frozen from an independent adaptive quadrature of 1/c_eps
        assert F(1.0) == pytest.approx(0.5023214370944632, abs=1e-11)
    assert abs(F(0.0)) <= 1e-15
    kinks = sorted({b + d for b in r.base.breakpoints for d in (-r.h, 0.0, r.h)})
    for x in (-1.3, -0.06, -0.02, 0.017, 0.04, 0.1, 0.8):
        ref, _ = quad(lambda y: f(r(y)), 0.0, x, points=kinks or None, limit=200)
        assert F(x) == pytest.approx(ref, abs=1e-10)
    assert np.all(np.diff(F(np.linspace(-0.3, 0.3, 3001))) > 0)


@pytest.mark.parametrize("integrand", INTEGRANDS)
@pytest.mark.parametrize("geometry, mollifier", MOLLIFIED)
def test_antideriv_inverse_roundtrip(geometry, integrand, mollifier):
    _, F = _table(geometry, integrand, mollifier)
    xs = np.concatenate([np.linspace(-2.0, 2.0, 101), np.linspace(-0.2, 0.2, 40001)])
    assert np.max(np.abs(F.invert(F(xs)) - xs)) < 1e-12


def _gl(f, rc, a, b):
    """GL-16 of f(c_eps) over each [a_i, b_i], sampled afresh: the reference for the panel series."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * (f(rc(mid[:, None] + half[:, None] * nodes[None, :])) @ weights)


def _panels(F):
    """(left, right, F at left, F at right) of every panel of the edge table."""
    k = np.flatnonzero(F._panel[1:-1]) + 1  # interval k runs from edges[k-1] to edges[k]
    return F._edges[k - 1], F._edges[k], F._F[k], F._F[k + 1]


@pytest.mark.parametrize("integrand", INTEGRANDS)
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_panel_series_matches_gl_quadrature(geometry, integrand):
    r, F = _table(geometry, integrand)
    lo, hi, F_lo, _ = _panels(F)
    if not len(lo):
        assert not r.base.breakpoints  # no kernel window, no panel
        return
    rng = np.random.default_rng(7)
    i = rng.integers(len(lo), size=10_000)
    x = lo[i] + rng.random(10_000) * (hi[i] - lo[i])
    ref = F_lo[i] + _gl(INTEGRANDS[integrand], r, lo[i], x)
    assert np.max(np.abs(F(x) - ref)) < 1e-14


@pytest.mark.parametrize("integrand", INTEGRANDS)
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_panel_series_meets_edge_table(geometry, integrand):
    _, F = _table(geometry, integrand)
    lo, hi, F_lo, F_hi = _panels(F)
    assert np.max(np.abs(F(np.nextafter(lo, hi)) - F_lo), initial=0.0) < 1e-15
    assert np.max(np.abs(F(np.nextafter(hi, lo)) - F_hi), initial=0.0) < 1e-15


def _masked_invert(F, y):
    """The gather/scatter form of CumulativeIntegral.invert: the bitwise reference."""
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y).astype(float)
    k = np.searchsorted(F._F[1:], y, side="right")
    flat = ~F._panel[k]
    x = np.empty_like(y)
    kf = k[flat]
    x[flat] = F._x0[kf] + (y[flat] - F._F[kf]) / F._slope[kf]
    if not flat.all():
        kp = k[~flat]
        r = F._row[kp]
        mid, half, G, f = F._mid[r], F._half[r], F._Gser[:, r], F._fser[:, r]
        yp = y[~flat] - F._F[kp]
        z = 2.0 * yp / (F._F[kp + 1] - F._F[kp]) - 1.0
        g = yp / half
        for _ in range(coefficients._NEWTON_MAX_ITER):
            dz = (legendre.legval(z, G, tensor=False) - g) / legendre.legval(z, f, tensor=False)
            z = np.clip(z - dz, -1.0, 1.0)
            xm = mid + half * z
            if np.max(np.abs(half * dz)) < 1e-14 * (1.0 + np.max(np.abs(xm))):
                break
        x[~flat] = xm
    return float(x[0]) if scalar else x


@pytest.mark.parametrize("integrand", INTEGRANDS)
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_invert_bitwise_matches_masked_form(geometry, integrand):
    _, F = _table(geometry, integrand)
    edges = F._edges
    lo, hi, _, _ = _panels(F)
    flat = ~F._panel[1:-1]  # bounded intervals off the panels
    x = np.concatenate([
        [edges[0] - 5.0, edges[0] - 1e-3, edges[-1] + 1e-3, edges[-1] + 5.0],  # unbounded ends
        0.5 * (edges[:-1] + edges[1:])[flat],
        *(lo + q * (hi - lo) for q in (0.1, 0.5, 0.9)),  # inside every panel
    ])
    ys = [F(x), F._F[1:], np.nextafter(F._F[1:], np.inf)]  # exact edge values and just above
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the slope-0 division on the panels must stay silent
        for y in ys:
            assert F.invert(y).tobytes() == _masked_invert(F, y).tobytes()
        y0 = float(F(x[-1]))
        assert type(F.invert(y0)) is float
        assert F.invert(y0) == _masked_invert(F, y0)


def test_invert_raises_without_convergence(rc, monkeypatch):
    ca = CumulativeIntegral(rc)
    y = ca(0.01)  # inside a kernel panel
    assert ca.invert(y) == pytest.approx(0.01, abs=1e-15)
    monkeypatch.setattr(coefficients, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(FloatingPointError):
        ca.invert(y)
    assert ca.invert(ca(0.5)) == 0.5  # the affine pieces take no Newton step


def test_antideriv_strictly_increasing(rc):
    ca = CumulativeIntegral(rc)
    xs = np.linspace(-0.3, 0.3, 301)
    assert np.all(np.diff(ca(xs)) > 0)


def test_cumulative_value():
    base = PiecewiseConstantCoeff((1.0,), (1.0, 2.0), "time")
    r = RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), 0.05)
    T = CumulativeIntegral(r, integrand="value")
    # outside the window the speed is exactly piecewise constant
    assert T(0.9) == pytest.approx(0.9, abs=1e-12)
    assert T(2.0) == pytest.approx(1.0 * 1.0 + 0.5 * (1.0 + 2.0) * 0.0 + 2.0, abs=1e-3)
    ref, _ = quad(lambda s: r(s), 0.0, 2.0, points=[0.95, 1.0, 1.05], limit=200)
    assert T(2.0) == pytest.approx(ref, abs=1e-10)


def test_time_variable_tagging():
    base = PiecewiseConstantCoeff((1.0,), (1.0, 2.0), "time")
    assert base.variable == "time"
    with pytest.raises(ValueError):
        PiecewiseConstantCoeff((1.0,), (1.0, 2.0), "frequency")


def test_multiple_jumps():
    base = PiecewiseConstantCoeff((-1.0, 1.0), (1.0, 3.0, 2.0), "space")
    r = RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), 0.1)
    assert r(-2.0) == 1.0
    assert r(0.0) == 3.0
    assert r(2.0) == 2.0
    ca = CumulativeIntegral(r)
    ref, _ = quad(lambda y: 1.0 / r(y), 0.0, 2.5, points=[0.9, 1.0, 1.1], limit=200)
    assert ca(2.5) == pytest.approx(ref, abs=1e-10)
    assert ca.invert(ca(2.5)) == pytest.approx(2.5, abs=1e-10)
