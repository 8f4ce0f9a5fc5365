import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from colwave.characteristics import TanhFlow, arsinh_exp, gamma_partials, time_integral
from colwave.coefficients import CumulativeIntegral, PiecewiseConstantCoeff, RegularizedCoeff
from colwave.mollifier import Mollifier, ScaleFn, phi_eval


@pytest.fixture
def rc():
    base = PiecewiseConstantCoeff((0.0,), (1.0, 2.0), "space")
    return RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), 0.05)


def _gamma(rc, t, x, tau):
    """Position at time tau of the characteristic of c_eps through (t, x): C^-1(C(x) + tau - t)."""
    C = CumulativeIntegral(rc)
    return C.invert(C(x) + tau - t)


def test_gamma_constant_speed():
    base = PiecewiseConstantCoeff((), (1.0,), "space")
    r = RegularizedCoeff(base, Mollifier(), ScaleFn("standard"), 0.05)
    xs = np.linspace(-2, 2, 21)
    assert np.allclose(_gamma(r, 1.3, xs, 0.0), xs - 1.3, atol=1e-12)


def test_gamma_vs_ode_integration(rc):
    # backward characteristic dx/dtau = c(x) from (t, x) down to tau = 0
    for t, x in [(0.7, 0.4), (1.2, -0.6), (0.9, 0.01)]:
        sol = solve_ivp(
            lambda s, y: [rc(y[0])], (t, 0.0), [x], rtol=1e-12, atol=1e-13, dense_output=True
        )
        assert _gamma(rc, t, x, 0.0) == pytest.approx(sol.y[0, -1], abs=5e-11)


def test_gamma_semigroup(rc):
    # gamma(t, x, tau) composed: foot of the foot
    t, x = 1.1, 0.5
    mid = _gamma(rc, t, x, 0.4)
    assert _gamma(rc, 0.4, mid, 0.0) == pytest.approx(_gamma(rc, t, x, 0.0), abs=1e-10)


def test_corner_partials_closed_forms(rc):
    # at the interface, for t beyond the layer crossing
    a = phi_eval(rc.mollifier, 0.0)
    h = rc.h
    g1, g2, g3 = gamma_partials(rc, 0.5, 0.0)
    assert g1 == pytest.approx(2.0 / 3.0, rel=1e-10)
    assert g2 == pytest.approx(-4.0 * a / (9.0 * h), rel=1e-10)
    assert g3 == pytest.approx(16.0 * a * a / (27.0 * h * h), rel=1e-10)


def test_gamma_partials_match_fd(rc):
    # x inside the transition layer so the second derivative is O(1/h)
    t, x = 0.8, 0.02
    step = 1e-6
    g1, g2, _ = gamma_partials(rc, t, x)
    fd1 = (_gamma(rc, t, x + step, 0.0) - _gamma(rc, t, x - step, 0.0)) / (2 * step)
    assert g1 == pytest.approx(fd1, rel=1e-7)
    fd2 = (_gamma(rc, t, x + step, 0.0) - 2 * _gamma(rc, t, x, 0.0) + _gamma(rc, t, x - step, 0.0)) / step**2
    assert g2 == pytest.approx(fd2, rel=1e-3)
    # outside the layer (foot and head both in constant-speed regions) it vanishes
    g2_flat = gamma_partials(rc, t, 0.3)[1]
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


def test_diverging_tanh_foot_where_sinh_overflows():
    # r = x/eps = 745 overflows sinh(r) while s + r = -5: log q = s + r + log(1 - e^{-2r}) - log 2
    eps, t, x = 0.002, 1.5, 1.49
    s, r = -t / eps, x / eps
    log_q = s + r + np.log1p(-np.exp(-2.0 * r)) - np.log(2.0)
    assert TanhFlow(eps, -1.0).foot(t, x) == pytest.approx(eps * np.arcsinh(np.exp(log_q)), rel=1e-12)


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
    flow = TanhFlow(eps, 1.0)
    # d/dx gamma at x = 0 equals e^{t/eps}
    t = 0.3
    assert flow.foot_dx(t, 0.0) == pytest.approx(np.exp(t / eps), rel=1e-12)
    # and the flow expands feet beyond |x| + t asymptotically
    assert flow.foot(1.0, 0.5) == pytest.approx(1.5, abs=2 * eps)
    # contracting flow: feet inside the wedge collapse toward 0
    assert abs(TanhFlow(eps, -1.0).foot(1.0, 0.2)) < 0.2


# (eps, t, x): inside the layer, and where q = e^s sinh(x/eps) overflows
# double precision (log q ~ 749, beyond the ~619 the acceptance gate reaches)
@pytest.mark.parametrize("eps, t, x", [(0.05, 0.2, 0.03), (0.004, 1.0, 2.0), (0.004, 3.0, 0.001)],
                         ids=["layer", "q_overflows", "q_overflows_near_0"])
def test_tanh_foot_dx_matches_fd(eps, t, x):
    flow = TanhFlow(eps, 1.0)
    step = 1e-7
    with np.errstate(over="raise"):
        g1 = flow.foot_dx(t, x)
    assert np.isfinite(g1)
    fd1 = (flow.foot(t, x + step) - flow.foot(t, x - step)) / (2 * step)
    assert g1 == pytest.approx(fd1, rel=1e-6)
