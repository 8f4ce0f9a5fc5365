import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from colwave.characteristics import (
    CharCurve,
    arsinh_exp,
    gamma,
    gamma_partials,
    gamma_x_partials,
    time_integral,
)
from colwave.coefficients import CoeffAntideriv, PiecewiseConstantCoeff, RegularizedCoeff
from colwave.mollifier import Mollifier, ScaleFn, phi_eval


@pytest.fixture
def rc():
    base = PiecewiseConstantCoeff((0.0,), (1.0, 2.0), "space")
    return RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), 0.05)


@pytest.fixture
def curve(rc):
    return CharCurve.x_dependent(CoeffAntideriv(rc))


def test_gamma_constant_speed():
    base = PiecewiseConstantCoeff((), (1.0,), "space")
    r = RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), 0.05)
    cv = CharCurve.x_dependent(CoeffAntideriv(r))
    xs = np.linspace(-2, 2, 21)
    assert np.allclose(gamma(cv, 1.3, xs, 0.0), xs - 1.3, atol=1e-12)


def test_gamma_vs_ode_integration(rc, curve):
    # backward characteristic dx/dtau = c(x) from (t, x) down to tau = 0
    for t, x in [(0.7, 0.4), (1.2, -0.6), (0.9, 0.01)]:
        sol = solve_ivp(
            lambda s, y: [rc(y[0])], (t, 0.0), [x], rtol=1e-12, atol=1e-13, dense_output=True
        )
        assert gamma(curve, t, x, 0.0) == pytest.approx(sol.y[0, -1], abs=5e-11)


def test_gamma_semigroup(curve):
    # gamma(t, x, tau) composed: foot of the foot
    t, x = 1.1, 0.5
    mid = gamma(curve, t, x, 0.4)
    assert gamma(curve, 0.4, mid, 0.0) == pytest.approx(gamma(curve, t, x, 0.0), abs=1e-10)


def test_corner_partials_closed_forms(rc, curve):
    # at the interface, for t beyond the layer crossing
    a = phi_eval(rc.mollifier, 0.0)
    h = rc.h
    (g1, g2, g3), _ = gamma_partials(curve, 0.5, 0.0)
    assert g1 == pytest.approx(2.0 / 3.0, rel=1e-10)
    assert g2 == pytest.approx(-4.0 * a / (9.0 * h), rel=1e-10)
    assert g3 == pytest.approx(16.0 * a * a / (27.0 * h * h), rel=1e-10)


def test_gamma_partials_match_fd(curve):
    # x inside the transition layer so the second derivative is O(1/h)
    t, x = 0.8, 0.02
    step = 1e-6
    (g1, g2, _), (d1, d2, _) = gamma_partials(curve, t, x)
    fd1 = (gamma(curve, t, x + step, 0.0) - gamma(curve, t, x - step, 0.0)) / (2 * step)
    fdt = (gamma(curve, t + step, x, 0.0) - gamma(curve, t - step, x, 0.0)) / (2 * step)
    assert g1 == pytest.approx(fd1, rel=1e-7)
    assert d1 == pytest.approx(fdt, rel=1e-7)
    fd2 = (
        gamma(curve, t, x + step, 0.0) - 2 * gamma(curve, t, x, 0.0) + gamma(curve, t, x - step, 0.0)
    ) / step**2
    assert g2 == pytest.approx(fd2, rel=1e-3)
    # outside the layer (foot and head both in constant-speed regions) it vanishes
    g2_flat = gamma_partials(curve, t, 0.3)[0][1]
    assert g2_flat == 0.0


def test_t_dependent_curve():
    # the t-dependent characteristics are straight lines in T(t) = int_0^t c_eps
    base = PiecewiseConstantCoeff((1.0,), (1.0, 2.0), "time")
    r = RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), 0.05)
    assert time_integral(r, 2.0) == pytest.approx(3.0, abs=1e-10)


def test_arsinh_exp_direct_regime():
    for s, r in [(0.5, 0.3), (2.0, -1.0), (10.0, 0.01)]:
        assert arsinh_exp(s, r) == pytest.approx(np.arcsinh(np.exp(s) * np.sinh(r)), rel=1e-13)


def test_arsinh_exp_asymptotic_regime():
    # Arsinh(q) ~ log(2q) for huge q, and 2 sinh r = e^r (1 - e^{-2r})
    s, r = 200.0, 1.5
    expect = s + r + np.log1p(-np.exp(-2 * r))
    assert arsinh_exp(s, r) == pytest.approx(expect, rel=1e-13)
    assert arsinh_exp(s, -r) == pytest.approx(-expect, rel=1e-13)
    # continuity across the regime switch
    lo, hi = arsinh_exp(29.999, 0.7), arsinh_exp(30.001, 0.7)
    assert hi - lo == pytest.approx(0.002, abs=1e-6)
    # far past double range of e^s: no overflow warning, log form still exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert arsinh_exp(800.0, r) == pytest.approx(800.0 + r + np.log1p(-np.exp(-2 * r)), rel=1e-13)


def test_arsinh_exp_tiny_r():
    # sinh(r) ~ r: value ~ Arsinh(e^s r), no catastrophic cancellation
    s, r = 40.0, 1e-12
    expect = np.log(np.exp(s - np.log(1e12)) * 2.0) if False else s + np.log(r) + np.log(2.0) / 1e9
    got = arsinh_exp(s, r)
    # reference: log(2 q) with q = e^s r since q >> 1
    ref = s + np.log(r) + np.log(2.0)
    assert got == pytest.approx(ref, rel=1e-9)


def test_tanh_gamma_and_partials():
    eps = 0.02
    cv = CharCurve.tanh_minus(eps)
    # d/dx gamma at x = 0 equals e^{t/eps}
    t = 0.3
    g1, g2 = gamma_x_partials(cv, t, 0.0)
    assert g1[0] == pytest.approx(np.exp(t / eps), rel=1e-12)
    # and the flow expands feet beyond |x| + t asymptotically
    assert gamma(cv, 1.0, 0.5, 0.0) == pytest.approx(1.5, abs=2 * eps)
    cvp = CharCurve.tanh_plus(eps)
    # contracting flow: feet inside the wedge collapse toward 0
    assert abs(gamma(cvp, 1.0, 0.2, 0.0)) < 0.2


def test_tanh_gamma_x_partials_match_fd():
    eps = 0.05
    cv = CharCurve.tanh_minus(eps)
    t, x = 0.2, 0.03
    step = 1e-7
    g1, g2 = gamma_x_partials(cv, t, x)
    fd1 = (gamma(cv, t, x + step, 0.0) - gamma(cv, t, x - step, 0.0)) / (2 * step)
    assert g1[0] == pytest.approx(fd1, rel=1e-6)
    fd2 = (
        gamma(cv, t, x + step, 0.0) - 2 * gamma(cv, t, x, 0.0) + gamma(cv, t, x - step, 0.0)
    ) / step**2
    assert g2[0] == pytest.approx(fd2, rel=1e-3)
